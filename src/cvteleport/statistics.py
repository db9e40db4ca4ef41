"""Output photon statistics, conditional densities, and q sweeps.

Two independent routes to the output photon-number distribution exist side
by side: polar quadrature over the measurement outcome beta and the closed
forms. The quadrature grid is fixed by q alone: a deliberately oversized
128 x 64 Gauss-Legendre x uniform-angle grid reaching |beta| =
sqrt(40/(1-q^2)). Where its edge envelope exceeds 1e-14 (q above about
0.9915) it raises ``GridMismatchError`` instead of truncating silently. The
split into loss (n=0), success (n=1) and gain (n>=2) has the closed form
(¼(1-q^2), ¼(1+q+q^2+q^3), ¼(2-q-q^3)). ``sweep_q`` tabulates the split or
the polarization budget across q, optionally beside its quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NoCrossingError
from .fock import FockCutoff, StateVector, as_cutoff, number_state
from .tables import OutputTable
from .teleport import (
    EntanglementParam,
    MeasurementOutcome,
    as_entanglement,
    as_outcome,
    single_photon_beta_density,
    transfer_operator,
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
    "integrate_over_plane",
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
# [0, sqrt(40/(1-q^2))] and 64 uniform angles. The plane integral of f(beta)
# is sum_i sum_j w_i * _ANGULAR_WEIGHT * f(r_i e^{i theta_j}).
_RADIAL_NODES = 128
_ANGULAR_NODES = 64
_ANGLES = 2.0 * math.pi * np.arange(_ANGULAR_NODES) / _ANGULAR_NODES
_ANGULAR_WEIGHT = 2.0 * math.pi / _ANGULAR_NODES


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


def photon_statistics_closed_form(q: EntanglementParam | float, n: int) -> float:
    """P_q(n) for the single-photon input.

    ((1+q)/2) ((1-q)/2)^{n+1} (1 + ((1+q)/(1-q))^2 n); the n >= 1 terms are
    strictly decreasing in n and the series sums to 1.
    """
    q = as_entanglement(q).q
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    s = 0.5 * (1.0 + q)
    p = 0.5 * (1.0 - q)
    return s * p ** (n + 1) * (1.0 + (s / p) ** 2 * n)


def loss_gain_split(q: EntanglementParam | float) -> LossGainSplit:
    """Closed-form split: ¼(1-q^2), ¼(1+q+q^2+q^3), ¼(2-q-q^3); sums to 1."""
    q = as_entanglement(q).q
    return LossGainSplit(
        p_loss=0.25 * (1.0 - q * q),
        p_success=0.25 * (1.0 + q + q * q + q * q * q),
        p_gain=0.25 * (2.0 - q - q * q * q),
    )


def photon_statistics_quadrature(
    input_state: StateVector,
    q: EntanglementParam | float,
) -> PhotonDistribution:
    """Integrate |<n| T_q(beta) |input>|^2 over the outcome plane.

    Uses the exact polar factorization T_q(r e^{i theta}) =
    e^{i theta n} T_q(r) e^{-i theta n} (an elementwise phase identity of the
    displacement matrix), so one operator build per radial node serves every
    angular node. Node traversal order is fixed, making the reduction
    deterministic.
    """
    q = as_entanglement(q).q
    radii, weights = _polar_grid(q)
    cutoff = input_state.cutoff
    n = np.arange(cutoff.dim)
    # column m of `phases` modulates amplitude m at each angle
    phases = np.exp(-1j * np.outer(n, _ANGLES))
    rotated = input_state.amplitudes[:, None] * phases  # (dim, angles)
    acc = np.zeros(cutoff.dim)
    for r, w in zip(radii, weights):
        t_r = transfer_operator(q, float(r), cutoff).matrix
        out = t_r @ rotated
        acc += (w * _ANGULAR_WEIGHT) * (np.abs(out) ** 2).sum(axis=1)
    total = float(acc.sum())
    residual = 1.0 - total
    if residual < -1e-9:
        raise GridMismatchError(f"quadrature total {total!r} exceeds 1 beyond tolerance")
    return PhotonDistribution(probabilities=acc, residual=max(residual, 0.0))


def conditional_beta_density(
    category: int | str,
    q: EntanglementParam | float,
    beta: MeasurementOutcome | complex,
) -> float:
    """Joint density P_q(category, beta) for the single-photon input.

    Categories: 0 (photon lost), 1 (exact transfer), "ge2" (photon gain).
    The first two are closed forms sharing the envelope e^{-2(1-q)|beta|^2};
    the gain term is the remainder against the total density, clamped only
    for negative values smaller than 1e-12 in magnitude.
    """
    q = as_entanglement(q).q
    beta = as_outcome(beta).beta
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


def crossing_radius(q: EntanglementParam | float) -> float:
    """|beta| where the loss and gain conditional densities cross.

    Near the origin losing the photon dominates gaining one; far out the
    ordering flips. Bisection on the sign change of P_q(0, r) - P_q(ge2, r),
    bracketed by a radial scan; converges to 1e-12 in the radius.
    """
    q = as_entanglement(q).q

    def gap(r: float) -> float:
        return conditional_beta_density(0, q, r) - conditional_beta_density("ge2", q, r)

    r_hi = math.sqrt(_RADIAL_EXPONENT_SPAN / (1.0 - q * q))
    scan = np.linspace(1e-6, r_hi, 512)
    values = [gap(float(r)) for r in scan]
    lo = hi = None
    for i in range(len(scan) - 1):
        if values[i] > 0.0 >= values[i + 1]:
            lo, hi = float(scan[i]), float(scan[i + 1])
            break
    if lo is None:
        raise NoCrossingError(f"no loss/gain crossing found for q = {q:g}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def squeezing_db_to_q(db: float) -> EntanglementParam:
    """Convert a squeezing level in dB to q = tanh(r), r = dB ln(10)/20."""
    db = float(db)
    if db < 0.0:
        raise ValueError(f"squeezing level must be >= 0 dB, got {db}")
    return EntanglementParam(math.tanh(db * math.log(10.0) / 20.0))


def integrate_over_plane(fn, q: EntanglementParam | float) -> float:
    """Integrate a scalar function of beta over the plane on the polar grid for q."""
    radii, weights = _polar_grid(as_entanglement(q).q)
    total = 0.0
    for r, w in zip(radii, weights):
        ring = 0.0
        for theta in _ANGLES:
            ring += fn(complex(r * math.cos(theta), r * math.sin(theta)))
        total += w * ring * _ANGULAR_WEIGHT
    return total


SWEEP_QUANTITIES = ("loss_gain", "polarization")

# closed-form vs quadrature disagreement that flags a sweep row
_SWEEP_FLAG_TOLERANCE = 1e-6


def sweep_q(
    quantity: str,
    q_values: np.ndarray,
    with_quadrature: bool = False,
    cutoff: FockCutoff | int = 32,
) -> OutputTable:
    """Tabulate a closed-form quantity across q, optionally cross-checked.

    With ``with_quadrature`` the table gains quadrature columns plus a
    ``flag`` column set to 1.0 on any row where the two routes disagree
    beyond 1e-6.
    """
    from .polarization import polarization_budget, polarization_budget_numerical

    if quantity not in SWEEP_QUANTITIES:
        raise ValueError(f"quantity must be one of {SWEEP_QUANTITIES}, got {quantity!r}")
    cutoff = as_cutoff(cutoff)
    q_values = np.asarray(q_values, dtype=float)
    for q in q_values:
        as_entanglement(float(q))

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
        closed = closed_form(float(q)).as_tuple()
        row = [float(q), *closed]
        if with_quadrature:
            quad = quadrature(float(q)).as_tuple()
            flag = float(max(abs(c - n) for c, n in zip(closed, quad)) > _SWEEP_FLAG_TOLERANCE)
            row += [*quad, flag]
        rows.append(row)

    metadata = {"quantity": quantity, "with_quadrature": with_quadrature}
    if with_quadrature:
        metadata["cutoff"] = cutoff.n_max
    return OutputTable(columns=columns, rows=rows, metadata=metadata)
