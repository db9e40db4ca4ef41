"""Output photon statistics and conditional densities.

Two independent routes to the output photon-number distribution exist side
by side: polar quadrature over the measurement outcome beta and the closed
forms. The angle is integrated exactly, so each q builds one
photon-transfer matrix M[n, m], the output law of the number state |m>, and
an input enters only through its photon-number populations. Each entry of
the exact radial integrand is e^{-x} times a polynomial of degree at most
2 n_max in x = 2(1-q)|beta|^2, so the radial rule is the dim-node
Gauss-Laguerre rule in x, exact for every entry at every q (Golub & Welsch,
Math. Comp. 23, 221 (1969)). Its error is that of the real kernel
T_q(r) = pref D(r) diag(q^n) D(r)^T alone, which drops the levels above the
cutoff once |beta|^2 nears it. The closed form of M is the pure-loss channel
of transmissivity (1+q)/2 followed by the amplifier of gain 2/(1+q). The
split into loss (n=0), success (n=1) and gain (n>=2) has the closed form
(¼(1-q^2), ¼(1+q+q^2+q^3), ¼(2-q-q^3)).

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

from .errors import CutoffViolationError, NoCrossingError, TruncationError
from .fock import (
    StateVector,
    _as_n_max,
    _as_unit,
    _batch_size,
    _log_factorials,
    _radial_displacement_stack,
)
from .teleport import _as_q, _beta_density, _zero_underflow

__all__ = [
    "PhotonDistribution",
    "LossGainSplit",
    "photon_statistics_closed_form",
    "photon_transfer_closed_form",
    "photon_statistics_quadrature",
    "loss_gain_split",
    "conditional_beta_density",
    "mean_photon_change",
    "crossing_radius",
    "squeezing_db_to_q",
]

# numpy's laggauss weights are positive normal floats through 185 nodes; the
# smallest turns subnormal at 186, and they are NaN by 201
_LAGUERRE_MAX_NODES = 185


@functools.lru_cache(maxsize=None)
def _laguerre_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The dim-node Gauss-Laguerre nodes x_i and scaled weights w_i e^{x_i}, read-only.

    sum_i w_i e^{x_i} f(x_i) is the integral of f over x >= 0, exactly for
    every f = e^{-x} p(x) with p of degree below 2 dim. Each scaled weight is
    exp(x_i + ln w_i), as e^{x_i} alone overflows from 184 nodes. Above
    ``_LAGUERRE_MAX_NODES`` it raises ``CutoffViolationError``.
    """
    if dim > _LAGUERRE_MAX_NODES:
        raise CutoffViolationError(
            f"the photon-transfer quadrature holds cutoffs up to {_LAGUERRE_MAX_NODES - 1}, "
            f"got {dim - 1}"
        )
    nodes, weights = np.polynomial.laguerre.laggauss(dim)
    weights = np.exp(nodes + np.log(weights))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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


def photon_transfer_closed_form(q: float, cutoff: int) -> np.ndarray:
    """M[n, m] for n, m <= cutoff: the output law of the number state |m>.

    Averaged over beta, unit-gain teleportation is the additive classical-noise
    channel (Braunstein & Kimble, PRL 80, 869 (1998)): a pure loss of
    transmissivity eta = (1+q)/2 followed by an amplifier of gain
    G = 1/eta (Garcia-Patron et al., PRL 108, 110505 (2012)), so
    M[n, m] = sum_k C(m,k) eta^k (1-eta)^{m-k} C(n,k) G^{-(k+1)} (1-1/G)^{n-k}
    = sum_k C(m,k) C(n,k) eta^{2k+1} (1-eta)^{n+m-2k}, a sum of positive
    terms, each formed in the log domain. Column 1 is
    ``photon_statistics_closed_form``, column 0 is thermal, and
    M[0, 0] = (1+q)/2. A fresh (dim, dim) array.
    """
    q = _as_q(q)
    dim = _as_n_max(cutoff) + 1
    n = np.arange(dim)
    log_factorials = _log_factorials(dim)
    log_eta, log_rest = math.log(0.5 * (1.0 + q)), math.log(0.5 * (1.0 - q))
    out = np.zeros((dim, dim))
    for k in range(dim):
        above = n[k:]
        half = log_factorials[above] - log_factorials[k] - log_factorials[above - k]
        half += (above - k) * log_rest
        out[k:, k:] += np.exp(np.add.outer(half, half) + (2 * k + 1) * log_eta)
    return out


def _photon_transfer_matrix(q: float, cutoff: int, columns: int | None = None) -> np.ndarray:
    """M[n, m]: the outcome-plane integral of |<n| T_q(beta) |m>|^2, m below ``columns``.

    By the polar factorization T_q(r e^{i theta}) = e^{i theta n} T_q(r)
    e^{-i theta n} and Parseval's identity the angular integral is exact,
    int dtheta |<n|T(r e^{i theta})|psi>|^2 = 2 pi sum_m |T_nm(r)|^2 |psi_m|^2,
    so only the radius is summed. With x = 2(1-q) r^2 the plane integral of a
    function of r alone is pi/(2(1-q)) times its integral over x >= 0, which
    ``_laguerre_rule(dim)`` gives exactly for the exact integrand: the radii
    are r_i = sqrt(x_i / (2(1-q))). The real T_q(r) = pref D(r) diag(q^n) D(r)^T, whose
    middle sum drops the levels above the cutoff (M misses from q = 0.77 at cutoff 32),
    are built in batches of ``fock._batch_size`` (the whole rule at cutoff 32), and each batch is
    summed by one product of the weights with the squared entries. Where a
    node's T_q(r) is not finite it raises ``TruncationError`` naming the
    radius, so no NaN reaches M; above the rule's largest cutoff
    ``CutoffViolationError``. Only the leading ``columns`` columns are built,
    each over every row (default all, the square M), and where a built
    column m, the law of |m> up to the cutoff, sums above 1 + 1e-9 it raises
    ``ValueError`` naming m; a unit input's total is a convex combination of
    the sums of the columns it occupies.
    """
    dim = _as_n_max(cutoff) + 1
    columns = dim if columns is None else columns
    nodes, weights = _laguerre_rule(dim)
    radii = np.sqrt(nodes / (2.0 * (1.0 - q)))
    batch = _batch_size(dim)
    out = np.zeros(dim * columns)
    for start in range(0, dim, batch):
        block = slice(start, start + batch)
        # the D-form stays while the benchmark smoke test pins the sweep rows it misses,
        # until that test takes ``teleport._transfer_stack``; an overflow raises below
        with np.errstate(over="ignore", invalid="ignore"):
            disp = _radial_displacement_stack(radii[block], cutoff)
            t_r = (disp * q ** np.arange(dim)) @ disp[:, :columns, :].transpose(0, 2, 1)
            t_r *= math.sqrt((1.0 - q * q) / math.pi)
        finite = np.isfinite(t_r).all(axis=(1, 2))
        if not finite.all():
            raise TruncationError(
                f"T_q(r) is not finite at r = {radii[block][~finite][0]:.6g} "
                f"(q = {q:g}, cutoff {dim - 1}): the displacement-form kernel "
                "D(r) diag(q^n) D(r)^T overflows there"
            )
        out += weights[block] @ (t_r * t_r).reshape(-1, dim * columns)
    out *= math.pi / (2.0 * (1.0 - q))
    out = out.reshape(dim, columns)
    for m, total in enumerate(out.sum(axis=0).tolist()):
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"column {m} of the photon-transfer matrix sums to {total!r}, above 1 "
                f"beyond 1e-9 (q = {q:g}, cutoff {dim - 1})"
            )
    return out


def photon_statistics_quadrature(
    input_state: StateVector,
    q: float,
) -> PhotonDistribution:
    """Integrate |<n| T_q(beta) |input>|^2 over the outcome plane.

    The input is normalized by ``fock._as_unit``, and the angle is integrated
    exactly (see ``_photon_transfer_matrix``), so the input enters only
    through its photon-number populations |input_m|^2, and M is built only
    up to the last occupied column: two columns for |1>, all for a coherent
    state. Node traversal order is fixed, making the reduction
    deterministic. The mass above the cutoff, 1 minus the probabilities'
    sum, is the residual.
    """
    q = _as_q(q)
    populations = np.abs(_as_unit(input_state).amplitudes) ** 2
    occupied = 1 + int(np.flatnonzero(populations)[-1])
    transfer = _photon_transfer_matrix(q, input_state.n_max, occupied)
    probabilities = transfer @ populations[:occupied]
    return PhotonDistribution(probabilities, residual=1.0 - float(probabilities.sum()))


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
    past it they are exact zeros, not subnormals, with one warning more. Any
    part below the smallest normal float is an exact 0 too, counted in that
    warning, or for p_ge2, which carries no such exponent, in one of its own."""
    total = _beta_density(q, betas)
    live = total > 0.0
    parts = np.zeros((3, total.size))
    parts[:2, live] = list(_single_photon_levels(q, betas[live], 1))
    parts[2, live] = _single_photon_tail(q, betas[live], 1)
    r = np.where(live, np.abs(betas), 0.0)
    _zero_underflow("conditional density at levels 0 and 1", parts[:2], 2 * (1 - q) * r * r, r, q)
    _zero_underflow("conditional density above level 1", parts[2:], 0.0, r, q)
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
    # the crossing is bracketed from the first scan point where g >= 0; the
    # scan reaches (1-q^2)|beta|^2 = 40, past every crossing
    radial_exponent_span = 40.0
    scan = np.linspace(0.0, math.sqrt(radial_exponent_span / a), 512)
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

