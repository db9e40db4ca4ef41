"""Output photon statistics and conditional densities.

Two independent routes to the output photon-number distribution exist side
by side: polar quadrature over the measurement outcome beta and the closed
forms. The quadrature grid is fixed by q alone: a deliberately oversized
128-node Gauss-Legendre radial grid reaching |beta| = sqrt(40/(1-q^2)).
The angle is integrated exactly, so each q builds one photon-transfer
matrix M[n, m], the output law of the number state |m>, and an input enters
only through its photon-number populations. Where the grid's edge envelope
exceeds 1e-14 (q above about 0.9915) it raises ``GridMismatchError``
instead of truncating silently. The split into loss (n=0), success (n=1)
and gain (n>=2) has the closed form (¼(1-q^2), ¼(1+q+q^2+q^3),
¼(2-q-q^3)).

The number law of a teleported |1> given beta lives here once, its levels and
its exact tail: the sampler draws counts from it, and the conditional densities split it.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError, NoCrossingError
from .fock import StateVector, _as_n_max, _as_unit, _log_factorials
from .teleport import _as_q, _batch_size, _beta_density, _transfer_stack, _zero_underflow

__all__ = [
    "PhotonDistribution",
    "LossGainSplit",
    "photon_statistics_closed_form",
    "photon_statistics_quadrature",
    "loss_gain_split",
    "conditional_beta_density",
    "mean_photon_change",
    "crossing_radius",
    "squeezing_db_to_q",
]

# Grid validity: the integrand envelope e^{-(1-q^2)R^2}(1+R^2) must be below
# this at the grid edge, otherwise the truncated radial domain bites.
_GRID_EDGE_TOLERANCE = 1e-14
# The radial extent R = sqrt(40/(1-q^2)) passes the edge test up to
# q ~ 0.9915 while keeping 128 radial nodes comfortably dense.
_RADIAL_EXPONENT_SPAN = 40.0


# The fixed polar grid: 128 Gauss-Legendre radii against r dr on
# [0, sqrt(40/(1-q^2))]. Every integrand here has its angle integrated
# exactly, so the plane integral of a function of |beta| alone is
# 2 pi sum_i w_i f(r_i).
_RADIAL_NODES = 128


@functools.lru_cache(maxsize=None)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The ``_RADIAL_NODES``-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _polar_grid(q: float) -> tuple[np.ndarray, np.ndarray]:
    """Radial nodes and their r dr weights for q; raises where the edge bites."""
    radius = math.sqrt(_RADIAL_EXPONENT_SPAN / (1.0 - q * q))
    edge = math.exp(-(1.0 - q * q) * radius**2) * (1.0 + radius**2)
    if edge > _GRID_EDGE_TOLERANCE:
        raise GridMismatchError(
            f"quadrature grid cannot hold q = {q:g}: "
            f"edge envelope {edge:.3e} > {_GRID_EDGE_TOLERANCE:g}"
        )
    nodes, weights = _legendre_rule()
    r = 0.5 * radius * (nodes + 1.0)
    return r, 0.5 * radius * weights * r


@dataclass(frozen=True)
class PhotonDistribution:
    """Output photon-number probabilities up to the cutoff plus the rest."""

    probabilities: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        if np.any(probs < -1e-12):
            raise ValueError(f"negative probability {probs.min():.3e}")
        probs = np.clip(probs, 0.0, None)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "residual", max(float(self.residual), 0.0))

    def loss_gain(self) -> "LossGainSplit":
        p = self.probabilities
        return LossGainSplit(
            p_loss=float(p[0]),
            p_success=float(p[1]),
            p_gain=float(p[2:].sum() + self.residual),
        )


class LossGainSplit(NamedTuple):
    """Probabilities of losing the photon, exact transfer, and photon gain."""

    p_loss: float
    p_success: float
    p_gain: float


def photon_statistics_closed_form(q: float, n: int) -> float:
    """P_q(n) for the single-photon input.

    ((1+q)/2) ((1-q)/2)^{n+1} (1 + ((1+q)/(1-q))^2 n); the n >= 1 terms are
    strictly decreasing in n and the series sums to 1.
    """
    q = _as_q(q)
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    s = 0.5 * (1.0 + q)
    p = 0.5 * (1.0 - q)
    return s * p ** (n + 1) * (1.0 + (s / p) ** 2 * n)


def _closed_form_tail(q: float, n_max: int) -> float:
    """Sum of ``photon_statistics_closed_form(q, n)`` over every n > n_max.

    With p = (1-q)/2, s = (1+q)/2 = 1 - p and N = n_max, the geometric and
    arithmetico-geometric series sum to p^N (p^2 + s(N + 1 - Np)), which is
    p^N (p^2 + s(1 + Ns)): every term is positive, so the tail is never
    negative, as 1 - sum_{n<=N} P_q(n) can be once the sum rounds to 1.
    """
    p = 0.5 * (1.0 - q)
    s = 0.5 * (1.0 + q)
    return p**n_max * (p * p + s * (1.0 + n_max * s))


def loss_gain_split(q: float) -> LossGainSplit:
    """Closed-form split: ¼(1-q^2), ¼(1+q+q^2+q^3), ¼(2-q-q^3); sums to 1."""
    q = _as_q(q)
    return LossGainSplit(
        p_loss=0.25 * (1.0 - q * q),
        p_success=0.25 * (1.0 + q + q * q + q * q * q),
        p_gain=0.25 * (2.0 - q - q * q * q),
    )


def _photon_transfer_matrix(q: float, cutoff: int) -> np.ndarray:
    """M[n, m]: the outcome-plane integral of |<n| T_q(beta) |m>|^2.

    By the polar factorization T_q(r e^{i theta}) = e^{i theta n} T_q(r)
    e^{-i theta n} and Parseval's identity the angular integral is exact,
    int dtheta |<n|T(r e^{i theta})|psi>|^2 = 2 pi sum_m |T_nm(r)|^2 |psi_m|^2,
    so only the radial nodes are summed. The real T_q(r) are built in batches
    of ``teleport._batch_size`` (the whole grid at cutoff 32), and each batch
    is summed by one product of the weights with the squared entries.
    """
    radii, weights = _polar_grid(q)
    dim = _as_n_max(cutoff) + 1
    batch = _batch_size(dim)
    out = np.zeros(dim * dim)
    for start in range(0, radii.size, batch):
        block = slice(start, start + batch)
        t_r = _transfer_stack(q, radii[block], cutoff)
        out += ((2.0 * math.pi) * weights[block]) @ (t_r * t_r).reshape(-1, dim * dim)
    return out.reshape(dim, dim)


def _photon_distribution(probabilities: np.ndarray) -> PhotonDistribution:
    """Quadrature probabilities with the mass beyond the cutoff as residual."""
    total = float(probabilities.sum())
    residual = 1.0 - total
    if residual < -1e-9:
        raise GridMismatchError(f"quadrature total {total!r} exceeds 1 beyond tolerance")
    return PhotonDistribution(probabilities=probabilities, residual=max(residual, 0.0))


def photon_statistics_quadrature(
    input_state: StateVector,
    q: float,
) -> PhotonDistribution:
    """Integrate |<n| T_q(beta) |input>|^2 over the outcome plane.

    The input is normalized by ``fock._as_unit``, and the angle is integrated
    exactly (see ``_photon_transfer_matrix``), so the input enters only
    through its photon-number populations |input_m|^2. Node traversal order
    is fixed, making the reduction deterministic.
    """
    q = _as_q(q)
    transfer = _photon_transfer_matrix(q, input_state.n_max)
    return _photon_distribution(transfer @ (np.abs(_as_unit(input_state).amplitudes) ** 2))


def conditional_beta_density(q: float, beta: complex) -> tuple[float, float, float]:
    """Joint densities (P_q(0, beta), P_q(1, beta), P_q(n>=2, beta)) for the
    single-photon input: photon lost, exact transfer, photon gain.

    They are ``_conditional_densities`` at one beta: levels 0 and 1 of the
    output number law and its exact mass above level 1, none negative. A
    non-finite beta raises ValueError.
    """
    parts = _conditional_densities(_as_q(q), np.array([complex(beta)]))[1:]
    return tuple(float(p[0]) for p in parts)


def mean_photon_change(q: float, beta: complex) -> float:
    """E[n | beta] - 1, the expected change in photon number of a teleported |1> given beta.

    With s = (1-q)^2 |beta|^2 the output number law given beta is
    proportional to e^{-s} s^{n-1}/n! (s + qn)^2, and its Poisson moments
    give s((1+q)^2 s + 2q^2 - 1) / ((1+q)^2 s + q^2). For q < 1/sqrt(2) it
    is negative near the origin, where losing the photon dominates, and
    changes sign at |beta| = sqrt(1-2q^2)/(1-q^2); for q >= 1/sqrt(2) it is
    never negative. Averaged over the outcome density it is (1-q)/(1+q).
    It is evaluated as s (1 - (1-q^2) / ((1+q)^2 s + q^2)), which stays
    finite wherever s is and grows to inf with |beta|. At q = 0 and
    beta = 0, where the outcome density vanishes, it returns the limit -1.
    A non-finite beta raises ValueError.
    """
    q = _as_q(q)
    beta = complex(beta)
    if not cmath.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    r = abs(beta)
    s = (1.0 - q) ** 2 * r * r
    denominator = (1.0 + q) ** 2 * s + q * q
    if denominator == 0.0:
        return -1.0
    return s * (1.0 - (1.0 - q * q) / denominator)


def _single_photon_levels(q: float, betas: np.ndarray, n_max: int) -> Iterator[np.ndarray]:
    """|<n|T_q(beta)|1>|^2 for every shot, one fresh (B,) array per level n = 0 ... n_max.

    With a = 1-q^2, t = |beta|^2 and s = (1-q)^2 t, the closed form of the
    displaced two-term output gives w_0 = c s and w_n = c P_n (s + qn)^2,
    with c = (a/pi) e^{-2(1-q)t} and P_n = s^{n-1}/n!. Each level takes
    c P_n from the level before, c P_1 = c and c P_n = c P_{n-1} s/n, so a
    level costs a few flops and no exp. At t = 0, s = 0 leaves (a/pi) q^2 at
    level 1 and 0 elsewhere.
    """
    s = np.abs(betas) ** 2  # t until c is built from it
    power = np.exp(-2.0 * (1.0 - q) * s)
    power *= (1.0 - q * q) / math.pi
    s *= (1.0 - q) ** 2
    yield power * s
    for n in range(1, n_max + 1):
        weights = s + q * n
        weights *= weights
        weights *= power
        yield weights
        power *= s
        power /= n + 1


def _poisson_tail(s: np.ndarray, k: int) -> np.ndarray:
    """P(Poisson(s) >= k) for means s > 0 and an int k >= 1, with no cancellation.

    Below the mean, s < k, it is e^{-s} s^k/k! sum_j s^j k!/(k+j)!, each
    term s/(k+j) < 1 times the one before. The series is summed forward from
    1 until every row's next term is below 2**-53. A term that small is under
    half an ulp of a sum >= 1 and leaves it unchanged, and so does every
    later term, so the terms that a larger s in the batch still adds change
    no other row: a row does not depend on the rest of the batch. Otherwise
    it is 1 - sum_{n<k} e^{-s} s^n/n!, which is at least about 1/2 there.
    """
    log_factorials = _log_factorials(k + 1)
    tail = np.empty_like(s)
    low = s < k
    s_low = s[low]
    term, series = np.ones_like(s_low), np.ones_like(s_low)
    j = 0
    while term.max(initial=0.0) >= 2.0**-53:
        j += 1
        term *= s_low / (k + j)
        series += term
    tail[low] = np.exp(k * np.log(s_low) - s_low - log_factorials[k]) * series
    s_high = s[~low, None]
    head = np.exp(np.arange(k) * np.log(s_high) - s_high - log_factorials[:k])
    tail[~low] = 1.0 - head.sum(axis=1)
    return tail


def _single_photon_tail(q: float, betas: np.ndarray, n_max: int) -> np.ndarray:
    """Mass of |<n|T_q(beta)|1>|^2 above level n_max for every shot at once.

    The weights of ``_single_photon_levels`` are
    (a/pi) e^{-at} e^{-s} s^{n-1}/n! (s + qn)^2 with a = 1-q^2, t = |beta|^2
    and s = (1-q)^2 t, so Poisson moments sum them above N = n_max to
    (a/pi) e^{-at} [s T(N+1) + 2qs T(N) + q^2 (s T(N-1) + T(N))], with
    T(k) = P(Poisson(s) >= k). Every term is positive. T(N) and T(N-1) add
    the Poisson probabilities of N and N-1 to T(N+1). At s = 0 the tail is 0:
    at t = 0 the output is q|1>, and a subnormal t that rounds s to 0 leaves less.
    """
    a = 1.0 - q * q
    t = np.abs(betas) ** 2
    s = (1.0 - q) ** 2 * t
    pos = s > 0.0
    s[~pos] = 1.0
    log_factorials = _log_factorials(n_max + 1)
    log_s = np.log(s)
    above = _poisson_tail(s, n_max + 1)
    at = above + np.exp(n_max * log_s - s - log_factorials[n_max])
    below = at + np.exp((n_max - 1) * log_s - s - log_factorials[n_max - 1])
    tail = s * above + 2.0 * q * s * at + q * q * (s * below + at)
    tail *= (a / math.pi) * np.exp(-a * t)
    tail[~pos] = 0.0
    return tail


def _conditional_densities(q: float, betas) -> tuple[np.ndarray, ...]:
    """(total, p0, p1, p_ge2) for a 1-D array of finite betas, each of shape (B,):
    ``teleport._beta_density``, levels 0 and 1 of ``_single_photon_levels``
    and ``_single_photon_tail`` above level 1, a sum of positive terms. Where
    the total is 0, with its one warning per call, so are the parts. p0 and
    p1 carry e^{-2(1-q)|beta|^2}, which passes the same 1e-300 rule first;
    past it they are exact zeros, not subnormals, with one warning more."""
    total = _beta_density(q, betas)
    live = total > 0.0
    parts = np.zeros((3, total.size))
    parts[:2, live] = list(_single_photon_levels(q, betas[live], 1))
    parts[2, live] = _single_photon_tail(q, betas[live], 1)
    r = np.where(live, np.abs(betas), 0.0)
    _zero_underflow("conditional density at levels 0 and 1", parts[:2], 2 * (1 - q) * r * r, r, q)
    return (total, *parts)


def crossing_radius(q: float) -> float:
    """|beta| where the loss and gain conditional densities cross.

    Near the origin losing the photon dominates gaining one; far out the
    ordering flips. With t = |beta|^2, a = 1-q^2, b = (1-q)^2, P_q(ge2) - P_q(0)
    = (a/pi) e^{-2(1-q)t} g(t), g(t) = e^{bt}(a^2 t + q^2) - (q+bt)^2 - 2bt.
    Bisection on the sign change of g, bracketed by a radial scan, converges
    to 1e-12 in the radius. g is evaluated as b(2q^2-1)t + b(a^2-b)t^2 +
    (expm1(bt) - bt)(a^2 t + q^2), which keeps its sign exact near the origin
    where the densities themselves differ by less than their rounding.

    A crossing exists only for q < 1/sqrt(2); above, ``NoCrossingError`` is
    physics: e^{bt} >= 1 + bt + (bt)^2/2 gives g(t) >= b(2q^2-1)t +
    b^2(2q + 1.5q^2)t^2 + (a^2 b^2/2)t^3, positive for t > 0 once 2q^2 >= 1;
    below, g'(0) < 0.
    """
    q = _as_q(q)
    if 2.0 * q * q >= 1.0:
        raise NoCrossingError(f"no loss/gain crossing for q = {q:g}; none exists at q >= 1/sqrt(2)")
    a, b = 1.0 - q * q, (1.0 - q) ** 2

    def g(r: float) -> float:
        t = r * r
        tail = (math.expm1(b * t) - b * t) * (a * a * t + q * q)
        return b * (2.0 * q * q - 1.0) * t + b * (a * a - b) * t * t + tail

    # g(0) = 0 and g'(0) < 0, so g is negative just right of the origin and
    # the crossing is bracketed from the first scan point where g >= 0
    scan = np.linspace(0.0, math.sqrt(_RADIAL_EXPONENT_SPAN / a), 512)
    i = next(i for i in range(1, len(scan)) if g(float(scan[i])) >= 0.0)
    lo, hi = float(scan[i - 1]), float(scan[i])
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def squeezing_db_to_q(db: float) -> float:
    """Convert a squeezing level in dB to q = tanh(r), r = dB ln(10)/20."""
    db = float(db)
    if db < 0.0:
        raise ValueError(f"squeezing level must be >= 0 dB, got {db}")
    return _as_q(math.tanh(db * math.log(10.0) / 20.0))

