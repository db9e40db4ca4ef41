"""Output photon statistics, conditional densities, and q sweeps.

Two independent routes to the output photon-number distribution exist side
by side: polar quadrature over the measurement outcome beta and the closed
forms. The quadrature grid is fixed by q alone: a deliberately oversized
128-node Gauss-Legendre radial grid reaching |beta| = sqrt(40/(1-q^2)).
The angle is integrated exactly, so each q builds one photon-transfer
matrix M[n, m], the output law of the number state |m>, and an input enters
only through its photon-number populations. Where the grid's edge envelope
exceeds 1e-14 (q above about 0.9915) it raises ``GridMismatchError``
instead of truncating silently. The
split into loss (n=0), success (n=1) and gain (n>=2) has the closed form
(¼(1-q^2), ¼(1+q+q^2+q^3), ¼(2-q-q^3)). ``sweep_q`` tabulates the split or
the polarization budget across q, optionally beside its quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NoCrossingError
from .fock import StateVector, _as_n_max, _as_unit, number_state
from .tables import OutputTable
from .teleport import (
    _STACK_BLOCK,
    _as_q,
    _transfer_stack,
    single_photon_beta_density,
)

__all__ = [
    "PhotonDistribution",
    "LossGainSplit",
    "photon_statistics_closed_form",
    "photon_statistics_quadrature",
    "loss_gain_split",
    "conditional_beta_density",
    "crossing_radius",
    "squeezing_db_to_q",
    "sweep_q",
    "SWEEP_QUANTITIES",
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


def _polar_grid(q: float) -> tuple[np.ndarray, np.ndarray]:
    """Radial nodes and their r dr weights for q; raises where the edge bites."""
    radius = math.sqrt(_RADIAL_EXPONENT_SPAN / (1.0 - q * q))
    edge = math.exp(-(1.0 - q * q) * radius**2) * (1.0 + radius**2)
    if edge > _GRID_EDGE_TOLERANCE:
        raise GridMismatchError(
            f"quadrature grid cannot hold q = {q:g}: "
            f"edge envelope {edge:.3e} > {_GRID_EDGE_TOLERANCE:g}"
        )
    nodes, weights = np.polynomial.legendre.leggauss(_RADIAL_NODES)
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

    def total(self) -> float:
        return float(self.probabilities.sum() + self.residual)

    def loss_gain(self) -> "LossGainSplit":
        p = self.probabilities
        return LossGainSplit(
            p_loss=float(p[0]),
            p_success=float(p[1]),
            p_gain=float(p[2:].sum() + self.residual),
        )


@dataclass(frozen=True)
class LossGainSplit:
    """Probabilities of losing the photon, exact transfer, and photon gain."""

    p_loss: float
    p_success: float
    p_gain: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_loss, self.p_success, self.p_gain)


def photon_statistics_closed_form(q: float, n: int) -> float:
    """P_q(n) for the single-photon input.

    ((1+q)/2) ((1-q)/2)^{n+1} (1 + ((1+q)/(1-q))^2 n); the n >= 1 terms are
    strictly decreasing in n and the series sums to 1.
    """
    q = _as_q(q)
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    s = 0.5 * (1.0 + q)
    p = 0.5 * (1.0 - q)
    return s * p ** (n + 1) * (1.0 + (s / p) ** 2 * n)


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
    so only the radial nodes are summed, ``_STACK_BLOCK`` operators at a time.
    """
    radii, weights = _polar_grid(q)
    dim = _as_n_max(cutoff) + 1
    out = np.zeros((dim, dim))
    for start in range(0, radii.size, _STACK_BLOCK):
        block = slice(start, start + _STACK_BLOCK)
        t_r = _transfer_stack(q, radii[block], cutoff)
        out += np.einsum("b,bnm->nm", (2.0 * math.pi) * weights[block], np.abs(t_r) ** 2)
    return out


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


def conditional_beta_density(
    category: int | str,
    q: float,
    beta: complex,
) -> float:
    """Joint density P_q(category, beta) for the single-photon input.

    Categories: 0 (photon lost), 1 (exact transfer), "ge2" (photon gain).
    The first two are closed forms sharing the envelope e^{-2(1-q)|beta|^2};
    the gain term is the remainder against the total density, clamped only
    for negative values smaller than 1e-12 in magnitude.
    """
    q = _as_q(q)
    beta = complex(beta)
    a = 1.0 - q * q
    t = abs(beta) ** 2
    envelope = (a / math.pi) * math.exp(-2.0 * (1.0 - q) * t)
    p0 = envelope * (1.0 - q) ** 2 * t
    p1 = envelope * (q + (1.0 - q) ** 2 * t) ** 2
    if category == 0:
        return p0
    if category == 1:
        return p1
    if category == "ge2":
        total = single_photon_beta_density(q, beta)
        rest = total - p0 - p1
        if rest < -1e-12:
            raise ValueError(f"gain density {rest:.3e} below the clamp threshold")
        return max(rest, 0.0)
    raise ValueError(f"category must be 0, 1 or 'ge2', got {category!r}")


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


SWEEP_QUANTITIES = ("loss_gain", "polarization")

# closed-form vs quadrature disagreement that flags a sweep row
_SWEEP_FLAG_TOLERANCE = 1e-6


def sweep_q(
    quantity: str,
    q_values: np.ndarray,
    with_quadrature: bool = False,
    cutoff: int = 32,
) -> OutputTable:
    """Tabulate a closed-form quantity across q, optionally cross-checked.

    With ``with_quadrature`` the table gains quadrature columns plus a
    ``flag`` column set to 1.0 on any row where the two routes disagree
    beyond 1e-6.
    """
    from .polarization import polarization_budget, polarization_budget_numerical

    if quantity not in SWEEP_QUANTITIES:
        raise ValueError(f"quantity must be one of {SWEEP_QUANTITIES}, got {quantity!r}")
    cutoff = _as_n_max(cutoff)
    q_values = [_as_q(q) for q in q_values]

    # quantity -> (column names, closed form, quadrature route), each route
    # returning an object with as_tuple()
    names, closed_form, quadrature = {
        "loss_gain": (
            ["p_loss", "p_success", "p_gain"],
            loss_gain_split,
            lambda q: photon_statistics_quadrature(number_state(1, cutoff), q).loss_gain(),
        ),
        "polarization": (
            ["p_trans", "p_flip", "p_zero", "p_multi"],
            polarization_budget,
            lambda q: polarization_budget_numerical(q, cutoff),
        ),
    }[quantity]
    columns = ["q", *names]
    if with_quadrature:
        columns += [f"{name}_quad" for name in names] + ["flag"]
    rows = []
    for q in q_values:
        closed = closed_form(q).as_tuple()
        row = [q, *closed]
        if with_quadrature:
            quad = quadrature(q).as_tuple()
            flag = float(max(abs(c - n) for c, n in zip(closed, quad)) > _SWEEP_FLAG_TOLERANCE)
            row += [*quad, flag]
        rows.append(row)

    metadata = {"quantity": quantity, "with_quadrature": with_quadrature}
    if with_quadrature:
        metadata["cutoff"] = cutoff
    return OutputTable(columns=columns, rows=rows, metadata=metadata)
