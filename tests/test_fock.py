import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cvteleport.errors import (
    CutoffMismatchError,
    CutoffViolationError,
    TruncationError,
    TruncationWarning,
    ZeroNormError,
)
from cvteleport.fock import (
    FockCutoff,
    ModeOperator,
    StateVector,
    annihilation_matrix,
    apply_to_mode,
    as_cutoff,
    coherent_state,
    displacement_matrix,
    displacement_stack,
    fidelity,
    identity_operator,
    inner_product,
    number_state,
    tensor_product,
)


def test_cutoff_basics():
    cutoff = FockCutoff(8)
    assert cutoff.dim == 9
    assert as_cutoff(8) == cutoff
    assert as_cutoff(cutoff) is cutoff
    with pytest.raises(ValueError):
        FockCutoff(0)
    with pytest.raises(CutoffViolationError):
        cutoff.check_level(9)


def test_number_state_and_norm():
    state = number_state(3, 8)
    assert state.normalized
    assert np.isclose(state.norm_sq(), 1.0)
    assert state.amplitudes[3] == 1.0
    with pytest.raises(CutoffViolationError):
        number_state(9, 8)


def test_state_vector_is_immutable():
    state = number_state(0, 4)
    with pytest.raises(AttributeError):
        state.normalized = False
    with pytest.raises(ValueError):
        state.amplitudes[0] = 2.0


def test_state_vector_shape_and_norm_checks():
    with pytest.raises(CutoffViolationError):
        StateVector(np.zeros(3, dtype=complex), 8)
    with pytest.raises(ZeroNormError):
        StateVector(2.0 * np.eye(5)[0], 4, normalized=True)
    with pytest.raises(ZeroNormError):
        StateVector(np.zeros(5, dtype=complex), 4).unit()


def test_unit_rescales():
    state = StateVector(2.0 * np.eye(5)[1], 4)
    assert np.isclose(state.norm_sq(), 4.0)
    assert np.isclose(state.unit().norm_sq(), 1.0)
    assert state.unit().normalized


def test_annihilation_lowers_levels():
    op = annihilation_matrix(6)
    for n in range(1, 7):
        lowered = op.apply(number_state(n, 6))
        assert np.isclose(lowered.amplitudes[n - 1], np.sqrt(n))
        assert np.isclose(lowered.norm_sq(), n)
    assert op.apply(number_state(0, 6)).norm_sq() == 0.0


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
    a = annihilation_matrix(n_max).matrix
    ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
    got = displacement_matrix(alpha, n_max).matrix
    assert np.max(np.abs((ref - got)[:block, :block])) < 1e-10


@pytest.mark.parametrize("alpha", [1.0, 0.3 - 0.7j])
def test_displacement_on_vacuum_is_coherent(alpha):
    col = displacement_matrix(alpha, 32).matrix[:, 0]
    assert np.allclose(col, coherent_state(alpha, 32).amplitudes, atol=1e-14)


def test_displacement_adjoint_is_bitwise_inverse_argument():
    alpha = 0.7 - 0.4j
    fwd = displacement_matrix(alpha, 24).matrix
    bwd = displacement_matrix(-alpha, 24).matrix
    assert np.array_equal(bwd, fwd.conj().T)


def test_displacement_at_zero_is_exact_identity():
    mat = displacement_matrix(0.0, 16).matrix
    assert np.array_equal(mat, np.eye(17, dtype=complex))


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
    mat = displacement_matrix(1.0 + 0.5j, 48).matrix
    prod = (mat @ mat.conj().T)[:16, :16]
    assert np.max(np.abs(prod - np.eye(16))) < 1e-12


def test_displacement_composition_inverts():
    beta = 0.8 + 0.3j
    fwd = displacement_matrix(beta, 48)
    prod = fwd.compose(fwd.dagger()).matrix[:16, :16]
    assert np.max(np.abs(prod - np.eye(16))) < 1e-12


def test_operator_guards():
    op = identity_operator(8)
    assert op.hermiticity_defect() == 0.0
    with pytest.raises(CutoffMismatchError):
        op.apply(number_state(0, 9))
    with pytest.raises(CutoffMismatchError):
        op.compose(identity_operator(9))
    with pytest.raises(CutoffViolationError):
        ModeOperator(np.eye(4), 8)


def test_apply_warns_on_heavy_tail():
    state = number_state(8, 12)
    with pytest.warns(TruncationWarning):
        displacement_matrix(3.0, 12).apply(state)


def test_tensor_product_and_mode_application():
    left = coherent_state(0.5, 10)
    right = number_state(1, 10)
    joint = tensor_product([("A", left), ("B", right)])
    assert joint.labels == ("A", "B")
    assert np.isclose(joint.norm_sq(), left.norm_sq() * right.norm_sq())

    op = displacement_matrix(0.3 - 0.2j, 10)
    moved = apply_to_mode(op, "B", joint)
    direct = tensor_product([("A", left), ("B", op.apply(right))])
    assert np.allclose(moved.amplitudes, direct.amplitudes, atol=1e-14)
    assert joint.axis("B") == 1


def test_mode_label_errors():
    from cvteleport.errors import ModeLabelError

    joint = tensor_product([("A", number_state(0, 4)), ("B", number_state(1, 4))])
    with pytest.raises(ModeLabelError):
        joint.axis("C")
    with pytest.raises(ModeLabelError):
        tensor_product([("A", number_state(0, 4)), ("A", number_state(1, 4))])


def test_inner_product_conjugates_bra():
    a = StateVector(np.array([1j, 0.0, 0.0]), 2)
    b = StateVector(np.array([1.0, 0.0, 0.0]), 2)
    assert np.isclose(inner_product(a, b), -1j)
    with pytest.raises(CutoffMismatchError):
        inner_product(a, number_state(0, 3))


def test_fidelity_normalizes_both_sides():
    a = StateVector(2.0 * np.eye(4)[0], 3)
    b = StateVector(np.eye(4)[0] + np.eye(4)[1], 3)
    assert np.isclose(fidelity(a, b), 0.5)
    assert np.isclose(fidelity(a, a), 1.0)
    assert fidelity(number_state(0, 3), number_state(1, 3)) == 0.0
    with pytest.raises(ZeroNormError):
        fidelity(a, StateVector(np.zeros(4), 3))
