import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cvteleport.errors import TruncationWarning
from cvteleport.fock import StateVector, coherent_state, displacement_matrix, number_state
from cvteleport.statistics import conditional_beta_density
from cvteleport.teleport import (
    _as_q,
    _beta_density,
    _binomial_hankel,
    _outcome_density,
    _transfer_apply,
    _transfer_stack,
    end_to_end_projection,
    epr_state,
    measurement_eigenstate,
    single_photon_beta_density,
    single_photon_output_closed_form,
    teleport_output,
    transfer_operator,
)


def test_as_q_bounds():
    assert _as_q(0.0) == 0.0
    q = _as_q(np.float64(0.5))
    assert type(q) is float and q == 0.5
    for bad in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\), got"):
            _as_q(bad)


def test_epr_state_amplitudes():
    state = epr_state(0.5, 16)
    assert state.shape == (17, 17) and not state.flags.writeable
    # diagonal sqrt(1-q^2) q^n; off-diagonal exactly zero
    assert np.isclose(state[1, 1], 0.4330127018922193)
    assert np.isclose(state[0, 0], np.sqrt(0.75))
    off = state - np.diag(np.diag(state))
    assert not np.any(off)
    # truncated norm^2 is exactly 1 - q^(2(n_max+1))
    assert np.isclose(np.vdot(state, state).real, 1.0 - 0.5 ** 34, atol=1e-15)


def test_measurement_eigenstate_overlap():
    state = measurement_eigenstate(1.0 + 0j, 32)
    assert state.shape == (33, 33) and not state.flags.writeable
    assert np.isclose(state[0, 0], 0.34219828031221655)
    # delta normalization: every (A-mode) row far from the cutoff carries 1/pi
    for k in range(5):
        assert np.isclose(np.sum(np.abs(state[k, :]) ** 2), 1 / np.pi, atol=1e-9)


@pytest.mark.parametrize("beta", [0j, 1 + 0j, 0.7 + 0.3j, -0.5 + 1.1j])
def test_measurement_eigenstate_satisfies_quadrature_equations(beta):
    # with x = (a + a^dag)/2 and y = (a - a^dag)/2i the eigenstate on modes
    # (A, R) obeys (x_A - x_R)|beta> = Re(beta)|beta> and (y_A + y_R)|beta> =
    # Im(beta)|beta>; the leading half block is out of the raising operators' reach
    n_max, half = 64, 32
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
    x = (a + a.T) / 2.0
    y = (a - a.T) / 2.0j
    psi = measurement_eigenstate(beta, n_max)
    x_res = x @ psi - psi @ x.T - beta.real * psi
    y_res = y @ psi + psi @ y.T - beta.imag * psi
    assert np.max(np.abs(x_res[:half, :half])) < 1e-10
    assert np.max(np.abs(y_res[:half, :half])) < 1e-10


def test_transfer_operator_diagonal_at_zero():
    mat = transfer_operator(0.5, 0j, 24)
    assert np.isclose(mat[0, 0], 0.4886025119029199)
    expected = np.sqrt(0.75 / np.pi) * 0.5 ** np.arange(25)
    assert np.allclose(np.diag(mat), expected, atol=1e-15)
    assert not np.any(mat - np.diag(np.diag(mat)))
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0


def test_transfer_operator_prefactor_without_entanglement():
    mat = transfer_operator(0.0, 0j, 8)
    assert np.isclose(mat[0, 0], 0.5641895835477563)
    # q=0 keeps only the vacuum row: output is always the vacuum
    assert np.count_nonzero(np.diag(mat)) == 1


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("beta", [0.4 + 0.1j, -1.0 + 0.8j])
def test_transfer_operator_hermitian(q, beta):
    mat = transfer_operator(q, beta, 32)
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12


_BETA_PART = st.floats(-4.0, 4.0, allow_subnormal=False)


@settings(max_examples=40, deadline=None)
@seed(1969)
@given(
    q=st.floats(0.0, 0.95),
    betas=st.lists(st.builds(complex, _BETA_PART, _BETA_PART), min_size=1, max_size=5),
    n_max=st.integers(1, 40),
)
def test_transfer_stack_rows_are_hermitian(q, betas, n_max):
    # the real T_q(|beta|) is symmetric, and T_q(beta) with its phases hermitian
    for mat in _transfer_stack(q, np.abs(betas), n_max):
        assert np.max(np.abs(mat - mat.T)) < 1e-12
    for beta in betas:
        mat = transfer_operator(q, beta, n_max)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12


_WIDE_BETA_PART = st.floats(-5.0, 5.0, allow_subnormal=False)

# levels the reference D-form keeps above psi's cutoff: the levels its middle
# sum then drops lie far beyond the reach of D(r) from level 48 at r <= 7.1
_REFERENCE_LEVELS = 200


def _reference_apply(q, beta, psi):
    n_max = psi.size - 1
    return transfer_operator(q, beta, n_max + _REFERENCE_LEVELS)[: n_max + 1, : n_max + 1] @ psi


@settings(max_examples=40, deadline=None)
@seed(1857)
@given(
    q=st.floats(0.0, 0.95),
    betas=st.lists(st.builds(complex, _WIDE_BETA_PART, _WIDE_BETA_PART), max_size=5),
    n_max=st.integers(1, 48),
    psi_seed=st.integers(0, 2**32 - 1),
)
def test_transfer_apply_matches_operator(q, betas, n_max, psi_seed):
    # the normal-order product against the leading block of the D-form at a
    # cutoff far above psi's, so that the two routes stay independent
    psi = [1.0, 1j] @ np.random.default_rng(psi_seed).normal(size=(2, n_max + 1))
    batch = [*betas, 0j, 1e-8j, 7.0, -7j, 7.0 * np.exp(2.5j)]
    applied = _transfer_apply(q, batch, psi)
    assert applied.shape == (len(batch), n_max + 1)
    for row, beta in zip(applied, batch):
        expected = _reference_apply(q, beta, psi)
        assert np.linalg.norm(row - expected) <= 1e-13 * np.linalg.norm(expected)


def test_transfer_apply_is_exact_past_the_truncated_middle_sum():
    # D(7) carries |8> far above cutoff 8, where the D-form at that cutoff
    # drops q^n: it misses here by 0.96 of the norm
    psi = [1.0, 1j] @ np.random.default_rng(8).normal(size=(2, 9))
    applied = _transfer_apply(0.5, [7.0], psi)[0]
    expected = _reference_apply(0.5, 7.0, psi)
    assert np.linalg.norm(applied - expected) <= 1e-13 * np.linalg.norm(expected)


@settings(max_examples=10, deadline=None)
@seed(1857)
@given(q=st.floats(0.0, 0.95), n_max=st.integers(1, 40), beta_seed=st.integers(0, 2**32 - 1))
def test_transfer_apply_does_not_depend_on_the_batch(q, n_max, beta_seed):
    rng = np.random.default_rng(beta_seed)
    betas = [1.0, 1j] @ rng.normal(0.0, 3.0, size=(2, 300))
    betas[:3] = 0.0, 1e-8j, 7.0
    psi = [1.0, 1j] @ rng.normal(size=(2, n_max + 1))
    blocks = [_transfer_apply(q, betas[start : start + 32], psi) for start in range(0, 300, 32)]
    assert np.array_equal(_transfer_apply(q, betas, psi), np.concatenate(blocks))


def _beta_grid(radius, rings):
    """A fixed grid of betas: ``rings`` radii up to ``radius`` at 13 angles."""
    r = np.linspace(0.0, radius, rings)
    return np.ravel(r[:, None] * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 13))[None, :])


@pytest.mark.parametrize("q", [0.0, 0.1, 0.3, 0.5, 0.77, 0.9, 0.99])
@pytest.mark.parametrize("n_max", [1, 8, 32])
def test_outcome_density_of_one_photon_is_the_closed_form(q, n_max):
    # the exact density of |1> is the closed form, at any cutoff; at |beta| <= 4
    # the largest relative miss measured is 2.7e-15
    betas = _beta_grid(4.0, 81)
    got = _outcome_density(q, betas, _binomial_hankel(number_state(1, n_max).amplitudes))
    expected = _beta_density(q, betas)
    assert np.all(np.abs(got - expected) <= 1e-14 * expected)


@pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.77, 0.9])
def test_outcome_density_of_a_coherent_input_is_the_closed_form(q):
    # (a/pi) e^{-a|beta - alpha|^2}, a = 1-q^2, at |beta| <= 6; the lowering sum
    # cancels terms up to e^{a|alpha||beta|} against a result of e^{-a|alpha||beta|},
    # so the relative miss grows with both: at most 2.9e-13 measured, at q = 0
    alpha, a = 0.5, 1.0 - q * q
    betas = _beta_grid(6.0, 61)
    got = _outcome_density(q, betas, _binomial_hankel(coherent_state(alpha, 40).amplitudes))
    expected = (a / np.pi) * np.exp(-a * np.abs(betas - alpha) ** 2)
    assert np.all(np.abs(got - expected) <= 1e-12 * expected)


@settings(max_examples=10, deadline=None)
@seed(1969)
@given(q=st.floats(0.0, 0.95), n_max=st.integers(1, 40), beta_seed=st.integers(0, 2**32 - 1))
def test_outcome_density_does_not_depend_on_the_batch(q, n_max, beta_seed):
    rng = np.random.default_rng(beta_seed)
    betas = [1.0, 1j] @ rng.normal(0.0, 3.0, size=(2, 300))
    betas[:3] = 0.0, 1e-8j, 7.0
    hankel = _binomial_hankel([1.0, 1j] @ rng.normal(size=(2, n_max + 1)))
    blocks = [_outcome_density(q, betas[start : start + 32], hankel) for start in range(0, 300, 32)]
    assert np.array_equal(_outcome_density(q, betas, hankel), np.concatenate(blocks))


def test_outcome_density_bounds_the_truncated_output():
    # the squared norm of the truncated output falls short of p by its mass
    # above the cutoff, up to 60% of p for |4> at cutoff 4, q = 0.5 and
    # |beta| <= 3; with psi zero-padded by 60 levels the two agree
    psi = number_state(4, 4).amplitudes
    betas = _beta_grid(3.0, 7)
    exact = _outcome_density(0.5, betas, _binomial_hankel(psi))
    truncated = np.sum(np.abs(_transfer_apply(0.5, betas, psi)) ** 2, axis=1)
    assert np.all(truncated <= exact * (1.0 + 1e-14))
    assert np.max(1.0 - truncated / exact) > 0.5
    padded = np.concatenate([psi, np.zeros(60)])
    deep = np.sum(np.abs(_transfer_apply(0.5, betas, padded)) ** 2, axis=1)
    assert np.allclose(deep, exact, rtol=1e-13, atol=0.0)


def test_displacement_commutation_with_raising_operator():
    # D(-b) a^dag = (a^dag + conj(b)) D(-b), the identity behind the closed form
    beta = 0.6 - 0.9j
    n_max, block = 48, 20
    from cvteleport.fock import displacement_matrix

    ad = np.diag(np.sqrt(np.arange(1, n_max + 1)), -1)
    d = displacement_matrix(-beta, n_max)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_beta_is_refused(bad):
    # displacement_matrix and the transfer kernels take |beta| and its phases
    # from fock._polar, and the conditional densities go through
    # single_photon_beta_density
    with pytest.raises(ValueError, match="finite"):
        displacement_matrix(1.0 + bad * 1j, 4)
    with pytest.raises(ValueError, match="finite"):
        transfer_operator(0.5, bad, 4)
    with pytest.raises(ValueError, match="finite"):
        _transfer_apply(0.5, [0.3, bad], number_state(1, 4).amplitudes)
    with pytest.raises(ValueError, match="finite"):
        single_photon_beta_density(0.5, bad)
    with pytest.raises(ValueError, match="finite"):
        conditional_beta_density(0.5, bad)


def test_density_underflow_reports_zero_with_warning():
    with pytest.warns(TruncationWarning):
        assert single_photon_beta_density(0.5, 40.0 + 0j) == 0.0


def test_density_underflow_warning_names_the_caller():
    with pytest.warns(TruncationWarning) as record:
        assert single_photon_beta_density(0.5, 40.0) == 0.0
    assert [w.filename for w in record] == [__file__]


def test_generic_density_path_matches_closed_form():
    # a scaled photon amplitude dodges the fast path and hits the operator route
    amps = np.zeros(65, dtype=complex)
    amps[1] = 1.0 + 0j
    state = StateVector(amps * np.exp(1j * 0.4))
    got = teleport_output(state, 0.5, 0.8 - 0.2j).norm_sq()
    assert np.isclose(got, single_photon_beta_density(0.5, 0.8 - 0.2j), rtol=1e-9)


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
