"""Teleportation transfer operator and its closed forms.

The protocol teleports an unknown single-mode state through a two-mode
squeezed resource parameterized by q in [0, 1): the resource is
sqrt(1-q^2) sum_n q^n |n,n>, the joint field measurement projects onto the
displaced eigenstate (1/sqrt(pi)) sum_n D_A(beta)|n,n>, and the receiver
displaces by the measured beta. The whole conditional map is the transfer
operator

    T_q(beta) = sqrt((1-q^2)/pi) D(beta) q^{n} D(-beta),

which is hermitian and, at beta = 0, exactly diagonal. With beta = r u,
r >= 0 and |u| = 1, it is the real T_q(r) between unit phases,
T_q(beta)[n, m] = u^n T_q(r)[n, m] conj(u)^m, and every route here builds or
applies it that way. For a single-photon input the output has a closed form
(a displaced two-term superposition) and the measurement-outcome density
over beta is

    P_q(beta) = ((1-q^2)/pi) e^{-(1-q^2)|beta|^2} ((1-q^2)^2 |beta|^2 + q^2).
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .errors import TruncationWarning
from .fock import (
    TAIL_MASS_THRESHOLD,
    StateVector,
    _as_n_max,
    _polar,
    _radial_displacement_stack,
    displacement_matrix,
)

__all__ = [
    "epr_state",
    "measurement_eigenstate",
    "transfer_operator",
    "teleport_output",
    "single_photon_output_closed_form",
    "single_photon_beta_density",
    "end_to_end_projection",
    "DENSITY_UNDERFLOW_EXPONENT",
]

# e^{-(1-q^2)|beta|^2} < 1e-300 marks the density as an exact 0 (see
# single_photon_beta_density); 300*ln(10) in the exponent.
DENSITY_UNDERFLOW_EXPONENT = 300.0 * math.log(10.0)
# |beta| whose square stays finite; every q < 1 has 1-q^2 > 1e-17, so past it
# (1-q^2)|beta|^2 exceeds the exponent above and the density is 0 anyway
_SQUARABLE_RADIUS = 1e150

# EPR norm defect q^{2(n_max+1)} above which projection paths emit a
# truncation diagnostic.
_EPR_DEFECT_THRESHOLD = 1e-8

# bytes of one (B, dim, dim) batch of real displacement or T_q matrices: 1.25 MiB,
# so a batch and its build's arrays stay near the size of a core's L2 cache
_BATCH_BYTES = 5 << 18


def _batch_size(dim: int) -> int:
    """Real (dim, dim) matrices per batch: as many whole blocks of 32 as
    ``_BATCH_BYTES`` holds, at least one block. At cutoff 32 that is 128,
    the whole radial grid of ``statistics._photon_transfer_matrix``."""
    return 32 * max(1, _BATCH_BYTES // (32 * 8 * dim * dim))


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
    (dim, dim) complex array.

    With beta = r u and R = diag(u^n), D(beta) = R D(r) R^dagger, so T_q(beta)
    is the real T_q(r) of ``_transfer_stack`` times the unit phases
    u^n conj(u)^m. Those phases are hermitian exactly; T_q(r) is symmetric to
    rounding only, as its two off-diagonal halves come from separate sums
    that may differ in the last bits (``verify`` bounds the defect at 1e-12).
    At beta = 0 the matrix is exactly diagonal with entries
    sqrt((1-q^2)/pi) q^n.
    """
    q = _as_q(q)
    dim = _as_n_max(cutoff) + 1
    r, phase = _polar([beta], dim)
    mat = _transfer_stack(q, r, cutoff)[0] * np.outer(phase[0], phase[0].conj())
    mat.setflags(write=False)
    return mat


def _transfer_stack(q: float, radii, cutoff: int) -> np.ndarray:
    """Real matrices T_q(r) = pref D(r) W D(r)^T for a 1-D batch of radii r >= 0,
    shape (B, dim, dim), with W = diag(q^n) and pref = sqrt((1-q^2)/pi)."""
    disp = _radial_displacement_stack(radii, cutoff)
    out = (disp * q ** np.arange(disp.shape[-1])) @ disp.transpose(0, 2, 1)
    out *= math.sqrt((1.0 - q * q) / math.pi)
    return out


def _transfer_apply(q: float, betas, psi: np.ndarray, work=None) -> np.ndarray:
    """T_q(beta) psi for a 1-D batch of betas, shape (B, dim), without building T_q.

    With beta = r u and R = diag(u^n) from ``fock._polar``, T_q(beta) psi =
    pref R D(r) W D(r)^T R^dagger psi: two real matrix products on the real
    D(r) between the unit phases. Equal to ``transfer_operator`` applied to
    psi up to rounding, not bit for bit. D(r) is built in ``work`` when a
    workspace is given (see ``fock._radial_displacement_stack``); the result
    does not depend on it.
    """
    pref = math.sqrt((1.0 - q * q) / math.pi)
    dim = psi.shape[-1]
    r, phase = _polar(betas, dim)
    disp = _radial_displacement_stack(r, dim - 1, out=work)
    # the complex vectors as (B, dim, 2) real pairs, so both products stay real
    pairs = (phase.conj() * psi).view(float).reshape(r.size, dim, 2)
    pairs = disp.transpose(0, 2, 1) @ pairs
    pairs *= (q ** np.arange(dim))[:, None]
    out = (disp @ pairs).view(complex).reshape(r.size, dim)
    return pref * phase * out


def teleport_output(
    input_state: StateVector,
    q: float,
    beta: complex,
) -> StateVector:
    """Unnormalized conditional output T_q(beta) |input>, by the kernel the
    sampler applies (``_transfer_apply``).

    The squared norm of the result is the outcome density at beta. A
    relative tail mass above ``TAIL_MASS_THRESHOLD`` emits a TruncationWarning.
    """
    out = StateVector(_transfer_apply(_as_q(q), [beta], input_state.amplitudes)[0])
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
    return StateVector(pref * (disp @ core))


def single_photon_beta_density(q: float, beta: complex) -> float:
    """Outcome density for the single-photon input, evaluated in closed form.

    A non-finite beta raises ValueError. Where e^{-(1-q^2)|beta|^2} < 1e-300
    the density is an exact 0 with a TruncationWarning, not a subnormal; a
    |beta| too large to square takes that branch before it is squared.
    """
    q = _as_q(q)
    beta = complex(beta)
    if not cmath.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    a = 1.0 - q * q
    r = abs(beta)
    if r > _SQUARABLE_RADIUS or a * r**2 > DENSITY_UNDERFLOW_EXPONENT:
        warnings.warn(
            f"beta density underflows at |beta| = {r:.4g} for q = {q:g}; returning 0",
            TruncationWarning,
            stacklevel=2,
        )
        return 0.0
    t = r**2
    return (a / math.pi) * math.exp(-a * t) * (a * a * t + q * q)


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
    return StateVector(disp_b @ projected)
