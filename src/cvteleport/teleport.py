"""Teleportation transfer operator and its closed forms.

The protocol teleports an unknown single-mode state through a two-mode
squeezed resource parameterized by q in [0, 1): the resource is
sqrt(1-q^2) sum_n q^n |n,n>, the joint field measurement projects onto the
displaced eigenstate (1/sqrt(pi)) sum_n D_A(beta)|n,n>, and the receiver
displaces by the measured beta. The whole conditional map is the transfer
operator

    T_q(beta) = sqrt((1-q^2)/pi) D(beta) q^{n} D(-beta),

which is hermitian and, at beta = 0, exactly diagonal. For a single-photon
input the output has a closed form (a displaced two-term superposition) and
the measurement-outcome density over beta is

    P_q(beta) = ((1-q^2)/pi) e^{-(1-q^2)|beta|^2} ((1-q^2)^2 |beta|^2 + q^2).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import TruncationWarning
from .fock import (
    TAIL_MASS_THRESHOLD,
    StateVector,
    _as_n_max,
    displacement_matrix,
    displacement_stack,
)

__all__ = [
    "epr_state",
    "measurement_eigenstate",
    "transfer_operator",
    "teleport_output",
    "single_photon_output_closed_form",
    "single_photon_beta_density",
    "beta_density",
    "end_to_end_projection",
    "DENSITY_UNDERFLOW_EXPONENT",
]

# e^{-(1-q^2)|beta|^2} < 1e-300 marks the density as an exact 0 (see
# beta_density); 300*ln(10) in the exponent.
DENSITY_UNDERFLOW_EXPONENT = 300.0 * math.log(10.0)

# EPR norm defect q^{2(n_max+1)} above which projection paths emit a
# truncation diagnostic.
_EPR_DEFECT_THRESHOLD = 1e-8

# matrices per displacement or T_q stack (see _transfer_stack); bounds their peak memory
_STACK_BLOCK = 16


def _as_q(q: float) -> float:
    """q as a float, checked to lie in [0, 1); q = 0 is classical, q -> 1 ideal."""
    q = float(q)
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q!r}")
    return q


def epr_state(q: float, cutoff: int) -> np.ndarray:
    """Two-mode squeezed resource sqrt(1-q^2) sum q^n |n,n>, a read-only
    (dim, dim) complex array on axes (R, B).

    The truncated norm^2 is (1-q^2) sum_{n<=n_max} q^{2n} = 1 - q^{2(n_max+1)},
    approaching 1 from below as the cutoff grows; no renormalization.
    """
    q = _as_q(q)
    dim = _as_n_max(cutoff) + 1
    tensor = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(tensor, math.sqrt(1.0 - q * q) * q ** np.arange(dim))
    tensor.setflags(write=False)
    return tensor


def measurement_eigenstate(beta: complex, cutoff: int) -> np.ndarray:
    """Joint eigenstate (1/sqrt(pi)) sum_n D_A(beta)|n,n>, a read-only
    (dim, dim) complex array on axes (A, R).

    Unnormalizable by design (delta-normalized over outcomes); the array is
    (1/sqrt(pi)) times the displacement matrix.
    """
    eig = displacement_matrix(complex(beta), cutoff) / math.sqrt(math.pi)
    eig.setflags(write=False)
    return eig


def transfer_operator(
    q: float,
    beta: complex,
    cutoff: int,
) -> np.ndarray:
    """T_q(beta) = sqrt((1-q^2)/pi) D(beta) diag(q^n) D(-beta), a read-only
    (dim, dim) complex array; row 0 of ``_transfer_stack``.

    Hermitian to rounding only: D(-beta) is never built, the product is
    formed as D W D^dagger from D(beta) alone, and its two off-diagonal halves
    come from separate sums that may differ in the last bits (``verify``
    bounds the defect at 1e-12). At beta = 0 the matrix is exactly diagonal
    with entries sqrt((1-q^2)/pi) q^n.
    """
    q = _as_q(q)
    beta = complex(beta)
    mat = _transfer_stack(q, [beta], cutoff)[0]
    mat.setflags(write=False)
    return mat


def _transfer_stack(q: float, betas, cutoff: int) -> np.ndarray:
    """Matrices of T_q(beta) for a 1-D batch of betas, shape (B, dim, dim)."""
    pref = math.sqrt((1.0 - q * q) / math.pi)
    disp = displacement_stack(betas, cutoff)
    weights = q ** np.arange(disp.shape[-1])
    return pref * ((disp * weights) @ disp.conj().transpose(0, 2, 1))


def teleport_output(
    input_state: StateVector,
    q: float,
    beta: complex,
) -> StateVector:
    """Unnormalized conditional output T_q(beta) |input>.

    The squared norm of the result is the outcome density at beta. A
    relative tail mass above ``TAIL_MASS_THRESHOLD`` emits a TruncationWarning.
    """
    n_max = input_state.n_max
    out = StateVector(transfer_operator(q, beta, n_max) @ input_state.amplitudes, n_max)
    if out.tail_mass() > TAIL_MASS_THRESHOLD:
        warnings.warn(
            f"teleport_output: relative tail mass {out.tail_mass():.3e} exceeds "
            f"{TAIL_MASS_THRESHOLD:g}; increase n_max",
            TruncationWarning,
            stacklevel=2,
        )
    return out


def single_photon_output_closed_form(
    q: float,
    beta: complex,
    cutoff: int,
) -> StateVector:
    """Closed form of T_q(beta)|1>: a displaced two-term superposition.

    sqrt((1-q^2)/pi) e^{-(1-q^2)|beta|^2/2} D((1-q) beta)
        ((1-q^2) conj(beta) |0> + q |1>).
    """
    q = _as_q(q)
    beta = complex(beta)
    n_max = _as_n_max(cutoff)
    a = 1.0 - q * q
    pref = math.sqrt(a / math.pi) * math.exp(-0.5 * a * abs(beta) ** 2)
    core = np.zeros(n_max + 1, dtype=complex)
    core[0] = a * np.conj(beta)
    core[1] = q
    disp = displacement_matrix((1.0 - q) * beta, n_max)
    return StateVector(pref * (disp @ core), n_max)


def single_photon_beta_density(
    q: float, beta: complex
) -> float:
    """Outcome density for the single-photon input, evaluated in closed form."""
    q = _as_q(q)
    beta = complex(beta)
    a = 1.0 - q * q
    t = abs(beta) ** 2
    if a * t > DENSITY_UNDERFLOW_EXPONENT:
        warnings.warn(
            f"beta density underflows at |beta|^2 = {t:.4g} for q = {q:g}; returning 0",
            TruncationWarning,
            stacklevel=2,
        )
        return 0.0
    return (a / math.pi) * math.exp(-a * t) * (a * a * t + q * q)


def _is_single_photon(state: StateVector) -> bool:
    amps = state.amplitudes
    return amps[1] == 1.0 and not np.any(amps[:1]) and not np.any(amps[2:])


def beta_density(
    input_state: StateVector,
    q: float,
    beta: complex,
) -> float:
    """Probability density of measuring beta for a normalized input.

    Generic path: squared norm of the conditional output. For the exact
    single-photon basis input the closed form is used instead. Densities in
    the far Gaussian tail (e^{-(1-q^2)|beta|^2} < 1e-300) are reported as
    exactly 0 with a diagnostic rather than relying on subnormal arithmetic.
    """
    qv = _as_q(q)
    betac = complex(beta)
    a = 1.0 - qv * qv
    if a * abs(betac) ** 2 > DENSITY_UNDERFLOW_EXPONENT:
        warnings.warn(
            f"beta density underflows at |beta|^2 = {abs(betac)**2:.4g} for q = {qv:g}; returning 0",
            TruncationWarning,
            stacklevel=2,
        )
        return 0.0
    if _is_single_photon(input_state):
        return single_photon_beta_density(qv, betac)
    return teleport_output(input_state, qv, betac).norm_sq()


def end_to_end_projection(
    input_state: StateVector,
    q: float,
    beta: complex,
) -> StateVector:
    """Route the teleportation literally instead of via the transfer operator.

    Builds the three-mode product state (input on A) x (resource on R, B),
    contracts the conjugated measurement eigenstate over modes A and R, and
    applies the receiver displacement D_B(beta), all at the input's cutoff.
    Exists as the independent cross-check of the transfer-operator route;
    the two agree to rounding at any shared cutoff.
    """
    qv = _as_q(q)
    betac = complex(beta)
    n_max = input_state.n_max
    defect = qv ** (2 * (n_max + 1))
    if defect > _EPR_DEFECT_THRESHOLD:
        warnings.warn(
            f"EPR norm defect q^(2(n_max+1)) = {defect:.3e} at n_max={n_max}; "
            "projection is under-resolved",
            TruncationWarning,
            stacklevel=2,
        )

    resource = epr_state(qv, n_max)
    # full tensor: Psi[a, r, b] = input[a] * resource[r, b]
    psi = np.tensordot(input_state.amplitudes, resource, axes=0)
    eig = measurement_eigenstate(betac, n_max)
    projected = np.einsum("ar,arb->b", eig.conj(), psi)
    disp_b = displacement_matrix(betac, n_max)
    return StateVector(disp_b @ projected, n_max)
