import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cvteleport.errors import (
    CutoffViolationError,
    TruncationError,
    TruncationWarning,
    ZeroNormError,
)
from cvteleport.fock import (
    StateVector,
    coherent_state,
    displacement_matrix,
    displacement_stack,
    number_state,
)
from cvteleport.sampler import SamplerConfig
from cvteleport.teleport import teleport_output


def test_cutoff_basics():
    # a cutoff is a plain int >= 1; nothing is truncated or parsed into one
    state = number_state(1, np.int64(8))
    assert type(state.n_max) is int and state.n_max == 8
    assert displacement_matrix(0.1, 8).shape == (9, 9)
    for bad in (0, -1, 32.7, "8", None):
        with pytest.raises(CutoffViolationError):
            number_state(0, bad)
    with pytest.raises(CutoffViolationError):
        number_state(9, 8)
    with pytest.raises(CutoffViolationError):
        SamplerConfig(0, 1, 0.5, cutoff=32.7)


def test_number_state_and_norm():
    state = number_state(3, 8)
    assert np.isclose(state.norm_sq(), 1.0)
    assert state.amplitudes[3] == 1.0
    with pytest.raises(CutoffViolationError):
        number_state(9, 8)


def test_state_vector_is_immutable():
    state = number_state(0, 4)
    with pytest.raises(AttributeError):
        state.n_max = 5
    with pytest.raises(ValueError):
        state.amplitudes[0] = 2.0


def test_state_vector_shape_and_norm_checks():
    with pytest.raises(CutoffViolationError):
        StateVector(np.zeros(3, dtype=complex), 8)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            StateVector([bad, 0, 0, 0, 0], 4)
    with pytest.raises(ZeroNormError):
        StateVector(np.zeros(5, dtype=complex), 4).unit()


def test_unit_rescales():
    state = StateVector(2.0 * np.eye(5)[1], 4)
    assert np.isclose(state.norm_sq(), 4.0)
    assert np.isclose(state.unit().norm_sq(), 1.0)


def test_coherent_amplitudes():
    state = coherent_state(1.0, 32)
    assert np.isclose(state.amplitudes[0], 0.6065306597126334)
    direct = np.exp(-0.5) / np.sqrt([math.factorial(k) for k in range(12)])
    assert np.allclose(state.amplitudes[:12], direct, atol=1e-14)
    assert np.isclose(state.norm_sq(), 1.0, atol=1e-9)


def test_coherent_phase_convention():
    alpha = 0.4 + 0.9j
    state = coherent_state(alpha, 40)
    expect = np.exp(-0.5 * abs(alpha) ** 2) * alpha**3 / np.sqrt(6.0)
    assert np.isclose(state.amplitudes[3], expect, atol=1e-14)


def test_coherent_state_rejects_heavy_tail():
    with pytest.raises(TruncationError):
        coherent_state(2.5, 8)


@pytest.mark.parametrize("alpha", [0.5, -1.2, 0.3 + 0.8j, 2.0, 1j])
def test_displacement_matches_matrix_exponential(alpha):
    # independent oracle: expm of the truncated generator, leading block only
    n_max, block = 40, 12
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
    ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
    got = displacement_matrix(alpha, n_max)
    assert np.max(np.abs((ref - got)[:block, :block])) < 1e-10


@pytest.mark.parametrize("alpha", [1.0, 0.3 - 0.7j])
def test_displacement_on_vacuum_is_coherent(alpha):
    col = displacement_matrix(alpha, 32)[:, 0]
    assert np.allclose(col, coherent_state(alpha, 32).amplitudes, atol=1e-14)


def test_displacement_adjoint_is_bitwise_inverse_argument():
    for alpha in (0.7 - 0.4j, 1 + 0.5j, -2.3 + 0.1j, 3j, 1e-8j, 7):
        for n_max in (8, 24, 48):
            fwd = displacement_matrix(alpha, n_max)
            assert np.array_equal(displacement_matrix(-alpha, n_max), fwd.conj().T)


def test_displacement_at_zero_is_exact_identity():
    mat = displacement_matrix(0.0, 16)
    assert np.array_equal(mat, np.eye(17, dtype=complex))
    with pytest.raises(ValueError):
        mat[0, 0] = 2.0


_ALPHA_PART = st.one_of(
    st.just(0.0), st.floats(-1e-8, 1e-8), st.floats(-7.0, 7.0, allow_subnormal=False)
)


@settings(max_examples=60, deadline=None)
@given(
    alphas=st.lists(st.builds(complex, _ALPHA_PART, _ALPHA_PART), min_size=1, max_size=6),
    n_max=st.integers(1, 64),
)
def test_displacement_stack_rows_match_single_builds(alphas, n_max):
    batch = [*alphas, 0j, 1e-8j, 7.0]
    stack = displacement_stack(batch, n_max)
    assert stack.shape == (len(batch), n_max + 1, n_max + 1)
    for row, alpha in zip(stack, batch):
        assert np.array_equal(row, displacement_stack([alpha], n_max)[0])
    assert np.array_equal(stack[len(alphas)], np.eye(n_max + 1))


def test_displacement_unitary_on_leading_block():
    mat = displacement_matrix(1.0 + 0.5j, 48)
    prod = (mat @ mat.conj().T)[:16, :16]
    assert np.max(np.abs(prod - np.eye(16))) < 1e-12


def test_displacement_composition_inverts():
    beta = 0.8 + 0.3j
    prod = displacement_matrix(beta, 48) @ displacement_matrix(-beta, 48)
    assert np.max(np.abs(prod[:16, :16] - np.eye(16))) < 1e-12


def test_apply_warns_on_heavy_tail():
    # the tail warning names the caller's line, not the package's
    with pytest.warns(TruncationWarning) as record:
        teleport_output(number_state(8, 12), 0.0, 3.0)
    assert [w.filename for w in record] == [__file__]
