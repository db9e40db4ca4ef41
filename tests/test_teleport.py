import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport.errors import TruncationWarning
from cvteleport.fock import annihilation_matrix, coherent_state, number_state
from cvteleport.teleport import (
    EntanglementParam,
    _transfer_stack,
    MeasurementOutcome,
    beta_density,
    end_to_end_projection,
    epr_state,
    measurement_eigenstate,
    measurement_eigenstate_defect,
    single_photon_beta_density,
    single_photon_output_closed_form,
    teleport_output,
    transfer_operator,
)


def test_entanglement_param_bounds():
    assert EntanglementParam(0.0).q == 0.0
    with pytest.raises(ValueError):
        EntanglementParam(1.0)
    with pytest.raises(ValueError):
        EntanglementParam(-0.1)


def test_measurement_outcome_round_trip():
    out = MeasurementOutcome.from_complex(0.3 - 1.2j)
    assert out.x_minus == 0.3
    assert out.y_plus == -1.2
    assert out.beta == 0.3 - 1.2j


def test_epr_state_amplitudes():
    state = epr_state(0.5, 16)
    assert state.labels == ("R", "B")
    # diagonal sqrt(1-q^2) q^n; off-diagonal exactly zero
    assert np.isclose(state.amplitudes[1, 1], 0.4330127018922193)
    assert np.isclose(state.amplitudes[0, 0], np.sqrt(0.75))
    off = state.amplitudes - np.diag(np.diag(state.amplitudes))
    assert not np.any(off)
    # truncated norm^2 is exactly 1 - q^(2(n_max+1))
    assert np.isclose(state.norm_sq(), 1.0 - 0.5 ** 34, atol=1e-15)


def test_measurement_eigenstate_overlap():
    state = measurement_eigenstate(1.0 + 0j, 32)
    assert state.labels == ("A", "R")
    assert np.isclose(state.amplitudes[0, 0], 0.34219828031221655)
    # delta normalization: every (A-mode) row far from the cutoff carries 1/pi
    for k in range(5):
        assert np.isclose(np.sum(np.abs(state.amplitudes[k, :]) ** 2), 1 / np.pi, atol=1e-9)


@pytest.mark.parametrize("beta", [0j, 1 + 0j, 0.7 + 0.3j, -0.5 + 1.1j])
def test_measurement_eigenstate_satisfies_quadrature_equations(beta):
    x_res, y_res = measurement_eigenstate_defect(beta, 64)
    assert x_res < 1e-10
    assert y_res < 1e-10


def test_transfer_operator_diagonal_at_zero():
    op = transfer_operator(0.5, 0j, 24)
    mat = op.matrix
    assert np.isclose(mat[0, 0], 0.4886025119029199)
    expected = np.sqrt(0.75 / np.pi) * 0.5 ** np.arange(25)
    assert np.allclose(np.diag(mat), expected, atol=1e-15)
    assert not np.any(mat - np.diag(np.diag(mat)))


def test_transfer_operator_prefactor_without_entanglement():
    mat = transfer_operator(0.0, 0j, 8).matrix
    assert np.isclose(mat[0, 0], 0.5641895835477563)
    # q=0 keeps only the vacuum row: output is always the vacuum
    assert np.count_nonzero(np.diag(mat)) == 1


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("beta", [0.4 + 0.1j, -1.0 + 0.8j])
def test_transfer_operator_hermitian(q, beta):
    assert transfer_operator(q, beta, 32).hermiticity_defect() < 1e-12


_BETA_PART = st.floats(-4.0, 4.0, allow_subnormal=False)


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.0, 0.95),
    betas=st.lists(st.builds(complex, _BETA_PART, _BETA_PART), min_size=1, max_size=5),
    n_max=st.integers(1, 40),
)
def test_transfer_stack_rows_are_hermitian(q, betas, n_max):
    for mat in _transfer_stack(q, betas, n_max):
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12


def test_displacement_commutation_with_raising_operator():
    # D(-b) a^dag = (a^dag + conj(b)) D(-b), the identity behind the closed form
    beta = 0.6 - 0.9j
    n_max, block = 48, 20
    from cvteleport.fock import displacement_matrix

    ad = annihilation_matrix(n_max).matrix.conj().T
    d = displacement_matrix(-beta, n_max).matrix
    lhs = d @ ad
    rhs = (ad + np.conj(beta) * np.eye(n_max + 1)) @ d
    assert np.max(np.abs((lhs - rhs)[:block, :block])) < 1e-10


@pytest.mark.parametrize("q", [0.0, 0.33, 0.5, 0.82])
@pytest.mark.parametrize("beta", [0j, 1 + 0j, -0.7 + 0.3j])
def test_closed_form_output_matches_operator(q, beta):
    op = teleport_output(number_state(1, 32), q, beta)
    closed = single_photon_output_closed_form(q, beta, 32)
    assert np.max(np.abs(op.amplitudes - closed.amplitudes)) < 1e-10


def test_output_at_zero_outcome_keeps_only_the_photon():
    out = teleport_output(number_state(1, 16), 0.5, 0j)
    assert np.isclose(out.amplitudes[1], 0.5 * np.sqrt(0.75 / np.pi))
    assert np.count_nonzero(out.amplitudes) == 1


@pytest.mark.parametrize(
    "q,beta,value",
    [
        (0.5, 0j, 0.05968310365946075),
        (0.5, 1 + 0j, 0.09162498128063837),
    ],
)
def test_single_photon_density_values(q, beta, value):
    assert np.isclose(single_photon_beta_density(q, beta), value, atol=1e-15)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.5, 3.0])
def test_density_matches_operator_norm(q, r):
    beta = complex(r, 0.1)
    num = teleport_output(number_state(1, 64), q, beta).norm_sq()
    ref = single_photon_beta_density(q, beta)
    assert np.isclose(num, ref, rtol=1e-9)


def test_density_is_phase_invariant():
    val = single_photon_beta_density(0.5, 1.3 + 0j)
    for theta in (0.7, 2.1, 4.4):
        rotated = 1.3 * np.exp(1j * theta)
        assert np.isclose(single_photon_beta_density(0.5, rotated), val, atol=1e-15)


def test_density_underflow_reports_zero_with_warning():
    with pytest.warns(TruncationWarning):
        assert single_photon_beta_density(0.5, 40.0 + 0j) == 0.0


def test_generic_density_path_matches_closed_form():
    # a scaled photon amplitude dodges the fast path and hits the operator route
    from cvteleport.fock import StateVector

    amps = np.zeros(65, dtype=complex)
    amps[1] = 1.0 + 0j
    state = StateVector(amps * np.exp(1j * 0.4), 64)
    got = beta_density(state, 0.5, 0.8 - 0.2j)
    assert np.isclose(got, single_photon_beta_density(0.5, 0.8 - 0.2j), rtol=1e-9)


def test_generic_density_for_coherent_input():
    state = coherent_state(0.5, 48)
    got = beta_density(state, 0.4, 0.3 + 0.3j)
    ref = teleport_output(state, 0.4, 0.3 + 0.3j).norm_sq()
    assert np.isclose(got, ref, rtol=1e-12)


@pytest.mark.parametrize("q", [0.0, 0.33, 0.5])
@pytest.mark.parametrize("beta", [0j, 1j, 0.7 + 0.3j])
@pytest.mark.parametrize("make_input", [lambda: number_state(0, 32), lambda: number_state(2, 32)])
def test_projection_route_matches_transfer_route(q, beta, make_input):
    state = make_input()
    a = end_to_end_projection(state, q, beta)
    b = teleport_output(state, q, beta)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-9


def test_projection_warns_when_resource_is_under_resolved():
    with pytest.warns(TruncationWarning):
        end_to_end_projection(number_state(1, 16), 0.9, 0j)
