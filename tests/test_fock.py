import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammainc, gammaln

from cvteleport.errors import (
    CutoffViolationError,
    TruncationError,
    TruncationWarning,
    ZeroNormError,
)
from cvteleport.fock import (
    TAIL_MASS_THRESHOLD,
    StateVector,
    _log_factorials,
    _radial_displacement_stack,
    _radial_magnitudes,
    coherent_state,
    displacement_matrix,
    number_state,
)
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
    # a state's cutoff is its amplitude count minus one
    assert StateVector(np.zeros(9)).n_max == 8
    with pytest.raises(CutoffViolationError):
        StateVector([1.0])


def test_number_state_and_norm():
    state = number_state(3, 8)
    assert np.isclose(state.norm_sq(), 1.0)
    assert state.amplitudes[3] == 1.0
    with pytest.raises(CutoffViolationError):
        number_state(9, 8)
    # a photon number is an integer, as a cutoff is
    assert number_state(np.int64(3), 8).amplitudes[3] == 1.0
    for bad in (1.5, 1.0, "1"):
        with pytest.raises(TypeError):
            number_state(bad, 8)


def test_state_vector_compares_by_value():
    assert number_state(1, 32) == number_state(1, 32)
    assert hash(number_state(1, 32)) == hash(number_state(1, 32))
    # the same level at another cutoff is another state
    assert number_state(1, 32) != number_state(1, 16)
    assert number_state(1, 32) != number_state(2, 32)
    assert number_state(1, 32) != number_state(1, 32).amplitudes.tolist()
    # -0.0 equals 0.0, so it must hash alike
    signed = StateVector(np.array([complex(-0.0, -0.0), 1.0]))
    assert signed == number_state(1, 1) and hash(signed) == hash(number_state(1, 1))


def test_state_vector_is_immutable():
    state = number_state(0, 4)
    with pytest.raises(AttributeError):
        state.n_max = 5
    with pytest.raises(ValueError):
        state.amplitudes[0] = 2.0


def test_state_vector_shape_and_norm_checks():
    for bad in (np.zeros((3, 3), dtype=complex), 1.0 + 0j):
        with pytest.raises(CutoffViolationError, match="1-D"):
            StateVector(bad)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            StateVector([bad, 0, 0, 0, 0])
    with pytest.raises(ZeroNormError):
        StateVector(np.zeros(5, dtype=complex)).unit()


def test_unit_rescales():
    state = StateVector(2.0 * np.eye(5)[1])
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


def test_coherent_tail_matches_incomplete_gamma():
    # the tail 1 - ||truncated||^2 against the Poisson mass above the cutoff,
    # the regularized lower incomplete gamma P(n_max + 1, |alpha|^2)
    for n_max in range(1, 80):
        for r in np.linspace(0.0, 12.0, 241)[1:]:
            alpha = r * np.exp(1j * r)
            exact = float(gammainc(n_max + 1, r * r))
            try:
                state = coherent_state(alpha, n_max)
            except TruncationError:
                assert exact > TAIL_MASS_THRESHOLD, (n_max, r)
                continue
            assert exact <= TAIL_MASS_THRESHOLD, (n_max, r)
            assert abs((1.0 - state.norm_sq()) - exact) <= 1e-13, (n_max, r)


@pytest.mark.parametrize("dim", [1, 2, 12, 13, 14, 999, 1000, 1001, 2000])
def test_log_factorials_match_gammaln_bitwise(dim):
    table = _log_factorials(dim)
    assert table is _log_factorials(dim)
    assert not table.flags.writeable
    assert np.array_equal(table, gammaln(np.arange(dim) + 1.0))


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


@settings(max_examples=60, deadline=None)
@seed(1969)
@given(
    radii=st.lists(st.floats(0.0, 7.0, allow_subnormal=False), min_size=1, max_size=6),
    n_max=st.integers(1, 64),
)
def test_radial_stack_is_the_real_part_of_the_complex_build(radii, n_max):
    batch = [*radii, 0.0, 1e-8, 7.0]
    stack = _radial_displacement_stack(batch, n_max)
    for row, r in zip(stack, batch):
        full = displacement_matrix(r, n_max)
        assert not np.any(full.imag)
        assert np.array_equal(row, full.real)


@settings(max_examples=40, deadline=None)
@seed(1857)
@given(
    parts=st.lists(
        st.lists(st.floats(1e-8, 12.0, allow_subnormal=False), min_size=1, max_size=40),
        min_size=1,
        max_size=4,
    ),
    dim=st.integers(1, 65),
)
def test_radial_magnitudes_do_not_depend_on_the_batch(parts, dim):
    # level-major: one row per triangle entry, one column per radius
    whole = _radial_magnitudes(np.concatenate(parts), dim)
    assert whole.shape == (dim * (dim + 1) // 2, sum(map(len, parts)))
    split = np.hstack([_radial_magnitudes(np.array(part), dim) for part in parts])
    assert np.array_equal(whole, split)


def test_radial_magnitudes_hold_one_triangle_array():
    # the prefactor is formed in the result, so a build allocates one
    # (T, B) array, not two
    radii, dim = np.linspace(0.05, 6.0, 480), 33
    tracemalloc.start()
    try:
        _radial_magnitudes(radii, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * radii.size * (dim * (dim + 1) // 2) * 8


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
