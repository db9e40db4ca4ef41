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
T_q(beta)[n, m] = u^n T_q(r)[n, m] conj(u)^m. ``_transfer_stack`` builds
T_q(r) from the real displacement D(r); the other routes work in normal order
from three steps kept here once: ``_log_powers`` (ln s^d/sqrt(d!)), ``_lower``
(e^{conj(c) a}, one Hankel product per beta) and ``_raise`` (e^{c a^dag}, a
sum over d). ``_transfer_apply`` applies T_q(beta) with both halves,
``_outcome_density`` takes ||T_q(beta) psi||^2, with no cutoff on the output,
from the lowering half of T_q(beta)^2, and the sampler's envelope bounds its
grid with them. ``_missing_mass``, that density less the truncated output's
squared norm, is the one measure of the mass above the cutoff. For a
single-photon input the output has a closed form (a displaced two-term
superposition) and the measurement-outcome density over beta is

    P_q(beta) = ((1-q^2)/pi) e^{-(1-q^2)|beta|^2} ((1-q^2)^2 |beta|^2 + q^2).

``_beta_density`` evaluates it over a batch of beta in one call, for the
public function at one beta and for whole CLI grids alike.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TruncationWarning
from .fock import (
    TAIL_MASS_THRESHOLD,
    StateVector,
    _as_n_max,
    _log_factorials,
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

# e^{-(1-q^2)|beta|^2} < 1e-300 makes the density an exact 0: 300*ln(10) in the exponent
DENSITY_UNDERFLOW_EXPONENT = 300.0 * math.log(10.0)
# a larger |beta| is squared as this one, where (1-q^2)|beta|^2 passes the exponent at any q < 1
_SQUARABLE_RADIUS = 1e150

# EPR norm defect q^{2(n_max+1)} above which projection paths emit a
# truncation diagnostic.
_EPR_DEFECT_THRESHOLD = 1e-8
# a row's mass above the cutoff at most this many dim eps of its density is rounding
_MISSING_MASS_FLOOR = 4.0

# bytes of one (B, dim, dim) batch of real displacement or T_q matrices: 1.25 MiB,
# so a batch and its build's arrays stay near the size of a core's L2 cache
_BATCH_BYTES = 5 << 18


def _batch_size(dim: int) -> int:
    """Real (dim, dim) matrices per batch: as many whole blocks of 32 as
    ``_BATCH_BYTES`` holds, at least one block. At cutoff 32 that is 128,
    more than the 33 radii of ``statistics._photon_transfer_matrix``."""
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
    sqrt((1-q^2)/pi) q^n. Until T_q(r) moves to normal order, this D-form
    still truncates its middle sum: diag(q^n) stops at the cutoff, so the
    matrix is wrong once |beta|^2 nears it, where ``_transfer_apply`` is not.
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


@functools.lru_cache(maxsize=None)
def _binomial_roots(dim: int) -> np.ndarray:
    """sqrt(C(k+d, d)) = sqrt((k+d)! / (k! d!)) at [k, d] where k + d < dim and 0
    past that triangle, a read-only symmetric (dim, dim) table from
    ``fock._log_factorials``. Its entries stay below 2^((k+d)/2), so it is
    finite up to dim = 2000, where sqrt((k+d)!) alone overflows past 300."""
    k, d = np.nonzero(np.add.outer(np.arange(dim), np.arange(dim)) < dim)
    lg = _log_factorials(dim)
    table = np.zeros((dim, dim))
    table[k, d] = np.exp(0.5 * (lg[k + d] - lg[k] - lg[d]))
    table.setflags(write=False)
    return table


def _binomial_hankel(vector: np.ndarray) -> np.ndarray:
    """H[k, d] = sqrt(C(k+d, d)) v_{k+d}, and 0 past the last level of v: a row of
    powers Q_d times H^T is sum_d Q_d sqrt(C(k+d, d)) v_{k+d}, a lowering in normal
    order. Shape (dim, dim) for a vector v of dim levels."""
    dim = vector.shape[-1]
    window = sliding_window_view(np.concatenate([vector, np.zeros(dim - 1)]), dim)
    return _binomial_roots(dim) * window


def _log_powers(s: np.ndarray, dim: int) -> np.ndarray:
    """ln(s^d / sqrt(d!)), d < dim, over a 1-D batch of s >= 0, level-major (dim, B); at
    s = 0 the rows d >= 1 are -inf, set by a mask, as 0 log 0 is not a number."""
    zero = s == 0.0
    log_powers = np.multiply.outer(np.arange(dim), np.log(np.where(zero, 1.0, s)))
    log_powers -= 0.5 * _log_factorials(dim)[:, None]
    log_powers[1:, zero] = -np.inf
    return log_powers


def _normal_order_powers(q: float, radii: np.ndarray, dim: int) -> np.ndarray:
    """s^d / sqrt(d!) e^{-(1-q) r^2 / 2}, s = (1-q) r, from ``_log_powers`` over a 1-D
    batch of radii r >= 0, level-major (dim, B). Times u^d these are the powers of
    c = (1-q) beta in the normal order T_q(beta) = pref e^{-(1-q)|beta|^2} e^{c a^dag}
    q^{n} e^{conj(c) a} (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), where c^d / d!
    meets level k through sqrt((k+d)!/k!) = ``_binomial_roots`` * sqrt(d!), and each
    exponential takes one half of the Gaussian."""
    s = (1.0 - q) * radii
    log_powers = _log_powers(s, dim)
    log_powers -= 0.5 * s * radii
    return np.exp(log_powers, out=log_powers)


def _lower(powers: np.ndarray, phase, hankel: np.ndarray) -> np.ndarray:
    """e^{conj(c) a} in normal order, sum_d conj(Q_d u^d) H[k, d], shape (B, dim), from powers
    Q (dim, B), phases u^d (B, dim) or 1.0, and H = ``_binomial_hankel(psi)``: a
    (1, dim) @ (dim, dim) product per beta, so that no row depends on the batch."""
    return (np.conj(powers.T * phase)[:, None, :] @ hankel.T).reshape(-1, hankel.shape[-1])


def _raise(lowered: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """e^{c a^dag} in normal order, sum_d Q_d S[n-d, d] v_{n-d} with S = ``_binomial_roots``,
    on real level-major planes v of shape (dim, ..., B) with powers Q (dim, B):
    each step of the sum over d is one contiguous block."""
    dim = lowered.shape[0]
    roots = _binomial_roots(dim).reshape((dim, dim) + (1,) * (lowered.ndim - 1))
    raised = np.zeros_like(lowered, order="C")
    term = np.empty_like(raised)
    for d in range(dim):
        rows = dim - d
        np.multiply(lowered[:rows], powers[d], out=term[:rows])
        term[:rows] *= roots[d, :rows]
        raised[d:] += term[:rows]
    return raised


def _transfer_apply(q: float, betas, psi: np.ndarray) -> np.ndarray:
    """T_q(beta) psi for a 1-D batch of betas, shape (B, dim), without building T_q:
    in normal order, ``_lower`` with the powers of ``_normal_order_powers``,
    q^{n} on level k, then ``_raise``, between the unit phases u^n of
    ``fock._polar``. Each level is exact at psi's cutoff, as every sum runs
    over levels of psi alone, and each row sees the same operations in the
    same order in any batch."""
    dim = psi.shape[-1]
    r, phase = _polar(betas, dim)
    powers = _normal_order_powers(q, r, dim)
    out = _lower(powers, phase, _binomial_hankel(psi))
    out *= q ** np.arange(dim)
    out *= phase.conj()
    # level-major real and imaginary planes, shape (dim, 2, B), C-ordered for ``_raise``
    lowered = np.empty((dim, 2, r.size))
    lowered[:, 0], lowered[:, 1] = out.real.T, out.imag.T
    raised = _raise(lowered, powers)
    out.real, out.imag = raised[:, 0].T, raised[:, 1].T
    out *= phase
    out *= math.sqrt((1.0 - q * q) / math.pi)
    return out


def _outcome_density(q: float, betas, hankel: np.ndarray) -> np.ndarray:
    """The exact outcome density p(beta) = ||T_q(beta) psi||^2 over a 1-D batch of betas,
    shape (B,), from ``hankel`` = ``_binomial_hankel(psi)``, with no cutoff on the output.

    T_q(beta) is hermitian, and T_q(beta)^2 = ((1-q^2)/pi) / sqrt((1-q^4)/pi)
    T_{q^2}(beta), so in normal order, with c' = (1-q^2) beta,

        p(beta) = ((1-q^2)/pi) e^{-(1-q^2)|beta|^2} sum_k q^{2k} |(e^{conj(c') a} psi)_k|^2,

    the lowering half alone: ``_lower`` with the ``_normal_order_powers`` of q^2, whose
    Gaussian squares to the one above, then a weighted sum along the levels.
    Every sum runs over levels of psi, so p is exact at psi's cutoff; the squared norm of
    the truncated output ``_transfer_apply`` falls short of it by the output's mass above
    the cutoff, ``_missing_mass``. Each row sees the same operations in the same order in
    any batch. Its rounding error is some ulps of the same sum over moduli, which exceeds
    p where the terms cancel, far from where psi's mass lands: 2.9e-13 relative for
    coherent 0.5 at |beta| = 6, q = 0."""
    dim = hankel.shape[-1]
    r, phase = _polar(betas, dim)
    lowered = _lower(_normal_order_powers(q * q, r, dim), phase, hankel)
    weights = q ** (2.0 * np.arange(dim))
    return ((1.0 - q * q) / math.pi) * np.sum(weights * np.abs(lowered) ** 2, axis=-1)


def _missing_mass(weights: np.ndarray, densities: np.ndarray) -> np.ndarray:
    """Each row's mass above the cutoff, shape (B,): p - C, where p is the row's exact
    density and C the sequential running total of its level weights, the one
    ``sampler._draw_counts`` forms (``np.cumsum`` rounds its adds alike).

    p and C are two roundings of the same sum when the cutoff holds all the
    mass; on 300 random inputs padded far inside their cutoffs they differed
    by at most 0.53 dim eps p. So a difference of at most
    ``_MISSING_MASS_FLOOR`` dim eps p counts as zero, and a shot whose cutoff
    holds all its mass never draws overflow, even at the last-ulp uniform."""
    missing = densities - np.cumsum(weights, axis=1)[:, -1]
    floor = _MISSING_MASS_FLOOR * weights.shape[1] * np.finfo(float).eps * densities
    missing[missing <= floor] = 0.0
    return missing


def teleport_output(
    input_state: StateVector,
    q: float,
    beta: complex,
) -> StateVector:
    """Unnormalized conditional output T_q(beta) |input>, by the sampler's kernel
    ``_transfer_apply``. Its squared norm is the exact ``_outcome_density`` less
    ``_missing_mass``, the mass above the cutoff that the sampler draws as overflow.
    A missing mass above ``TAIL_MASS_THRESHOLD`` times the density emits a
    TruncationWarning; they are compared without a division, so a zero density
    warns of nothing."""
    q = _as_q(q)
    out = _transfer_apply(q, [beta], input_state.amplitudes)
    density = _outcome_density(q, [beta], _binomial_hankel(input_state.amplitudes))
    missing = _missing_mass(np.abs(out) ** 2, density)[0]
    if missing > TAIL_MASS_THRESHOLD * density[0]:
        warnings.warn(
            f"teleport_output: a share {missing / density[0]:.3e} of the outcome density "
            f"lies above n_max={input_state.n_max}, past {TAIL_MASS_THRESHOLD:g}; increase n_max",
            TruncationWarning,
            stacklevel=2,
        )
    return StateVector(out[0])


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


def _beta_density(q: float, betas) -> np.ndarray:
    """The single-photon outcome density (a/pi) e^{-at} (a^2 t + q^2), a = 1-q^2,
    at a 1-D batch of finite betas, with |beta| from ``np.hypot``, which rounds
    like ``abs`` of a complex. Where e^{-at} < 1e-300, or the density is below
    the smallest normal float (a tiny prefactor as q -> 1), it is an exact 0,
    with one TruncationWarning per call; a |beta| past ``_SQUARABLE_RADIUS`` is
    squared as that radius, which zeroes it. A non-finite beta raises ValueError."""
    betas = np.asarray(betas, dtype=complex).reshape(-1)
    if not np.isfinite(betas).all():
        raise ValueError(f"beta must be finite, got {betas[~np.isfinite(betas)][0]!r}")
    a = 1.0 - q * q
    r = np.hypot(betas.real, betas.imag)
    t = np.minimum(r, _SQUARABLE_RADIUS) ** 2
    density = (a / math.pi) * np.exp(-a * t) * (a * a * t + q * q)
    _zero_underflow("beta density", density, a * t, r, q)
    return density


def _zero_underflow(name: str, values: np.ndarray, exponents: np.ndarray, r, q: float) -> None:
    """Exact zeros in ``values``, shape (..., B), at the points whose Gaussian exponent,
    shape (B,) or a scalar, passes ``DENSITY_UNDERFLOW_EXPONENT``, and in every cell
    below the smallest normal float, so none is subnormal; one TruncationWarning per
    call counts the points zeroed."""
    subnormal = (values > 0.0) & (values < np.finfo(float).tiny)
    under = (exponents > DENSITY_UNDERFLOW_EXPONENT) | subnormal
    points = under.reshape(-1, r.size).any(axis=0)
    if points.any():
        values[under] = 0.0
        warnings.warn(
            f"{name} underflows at {np.count_nonzero(points)} of {r.size} points, "
            f"from |beta| = {r[points].min():.4g} for q = {q:g}; returning 0 there",
            TruncationWarning,
            stacklevel=4,  # the caller of the public function or the table command
        )


def single_photon_beta_density(q: float, beta: complex) -> float:
    """Outcome density for the single-photon input in closed form: ``_beta_density``
    at one beta, so a non-finite beta raises ValueError, and where
    e^{-(1-q^2)|beta|^2} < 1e-300, or the density is below the smallest normal
    float, it is an exact 0 with a TruncationWarning."""
    return float(_beta_density(_as_q(q), [complex(beta)])[0])


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
    the two agree to rounding wherever the resource and D(beta) fit the
    cutoff, as this route truncates both and the transfer route is exact.
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
