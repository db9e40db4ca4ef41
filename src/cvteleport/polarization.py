"""Polarization-encoded qubit teleportation through two parallel channels.

A single photon in the H mode of an (H, V) pair is teleported by applying
the transfer operator independently per mode with separate measurement
outcomes. Conditioning only on photon number leaves four outcome classes
whose total probabilities factorize into single-channel pieces:

    p_trans = ((1+q)/2)^2 (1+q^2)/2     exactly one photon, right mode
    p_flip  = ((1+q)/2)^2 ((1-q)/2)^2   exactly one photon, wrong mode
    p_zero  = ((1+q)/2)^2 (1-q)/2       vacuum in both modes
    p_multi = 1 - ((1+q)/2)^2 (5-4q+3q^2)/4

The factorizations p_trans = P_q(1)·(1+q)/2, p_flip = P_q(0)^2 and
p_zero = P_q(0)·(1+q)/2 hold as float identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fock import (
    FockCutoff,
    MultiModeState,
    apply_to_mode,
    as_cutoff,
    number_state,
    tensor_product,
)
from .statistics import PhotonDistribution, _photon_distribution, _photon_transfer_matrix
from .teleport import EntanglementParam, MeasurementOutcome, as_entanglement, transfer_operator

__all__ = [
    "DualModeMeasurement",
    "PolarizationOutcomeBudget",
    "polarized_output",
    "polarization_budget",
    "polarization_budget_numerical",
    "two_mode_total_probability",
]


@dataclass(frozen=True)
class DualModeMeasurement:
    """Independent measurement outcomes for the H and V channels."""

    beta_h: complex
    beta_v: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta_h", complex(self.beta_h))
        object.__setattr__(self, "beta_v", complex(self.beta_v))


@dataclass(frozen=True)
class PolarizationOutcomeBudget:
    """Probabilities of the four photon-number outcome classes; sums to 1."""

    p_trans: float
    p_flip: float
    p_zero: float
    p_multi: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_trans, self.p_flip, self.p_zero, self.p_multi)

    def total(self) -> float:
        return self.p_trans + self.p_flip + self.p_zero + self.p_multi


def polarized_output(
    q: EntanglementParam | float,
    measurement: DualModeMeasurement,
    cutoff: FockCutoff | int,
    state: MultiModeState | None = None,
) -> MultiModeState:
    """Unnormalized two-channel conditional output.

    Default input is the polarization basis state |1>_H |0>_V; any two-mode
    state over labels (H, V) may be passed instead, in which case the same
    generic per-mode operator path runs (no closed form is assumed).
    """
    q = as_entanglement(q).q
    cutoff = as_cutoff(cutoff)
    if state is None:
        state = tensor_product(
            [("H", number_state(1, cutoff)), ("V", number_state(0, cutoff))]
        )
    if state.labels != ("H", "V"):
        raise ValueError(f"polarized input must carry labels ('H', 'V'), got {state.labels}")
    t_h = transfer_operator(q, MeasurementOutcome.from_complex(measurement.beta_h), cutoff)
    t_v = transfer_operator(q, MeasurementOutcome.from_complex(measurement.beta_v), cutoff)
    return apply_to_mode(t_v, "V", apply_to_mode(t_h, "H", state))


def polarization_budget(q: EntanglementParam | float) -> PolarizationOutcomeBudget:
    """Closed-form outcome budget for the |1>_H |0>_V input."""
    q = as_entanglement(q).q
    s = 0.5 * (1.0 + q)
    return PolarizationOutcomeBudget(
        p_trans=s * s * 0.5 * (1.0 + q * q),
        p_flip=s * s * (0.5 * (1.0 - q)) ** 2,
        p_zero=s * s * 0.5 * (1.0 - q),
        p_multi=1.0 - s * s * 0.25 * (5.0 - 4.0 * q + 3.0 * q * q),
    )


def _channel_distributions(
    q: float, cutoff: FockCutoff
) -> tuple[PhotonDistribution, PhotonDistribution]:
    """Quadrature photon statistics of the H channel (|1> in) and V channel (|0> in).

    Both are columns of one photon-transfer matrix: column m is the
    quadrature of the number state |m>.
    """
    transfer = _photon_transfer_matrix(q, cutoff)
    return _photon_distribution(transfer[:, 1]), _photon_distribution(transfer[:, 0])


def polarization_budget_numerical(
    q: EntanglementParam | float,
    cutoff: FockCutoff | int = 32,
) -> PolarizationOutcomeBudget:
    """Outcome budget assembled from per-channel quadrature integrals.

    Integrates |<m| T_q(beta) |n>|^2 over each channel's outcome plane
    (m, n in {0, 1}) and combines: the H channel carries the photon, the V
    channel the vacuum, and the two channels are independent, so each class
    probability is a product of one H integral and one V integral.
    """
    q = as_entanglement(q).q
    dist_photon, dist_vacuum = _channel_distributions(q, as_cutoff(cutoff))
    h0, h1 = float(dist_photon.probabilities[0]), float(dist_photon.probabilities[1])
    v0, v1 = float(dist_vacuum.probabilities[0]), float(dist_vacuum.probabilities[1])
    p_trans = h1 * v0
    p_flip = h0 * v1
    p_zero = h0 * v0
    return PolarizationOutcomeBudget(
        p_trans=p_trans,
        p_flip=p_flip,
        p_zero=p_zero,
        p_multi=1.0 - p_trans - p_flip - p_zero,
    )


def two_mode_total_probability(
    q: EntanglementParam | float,
    cutoff: FockCutoff | int = 32,
) -> float:
    """Integral of ||polarized_output||^2 over both outcome planes.

    The norm of a product state factorizes exactly, so the four-dimensional
    integral is the product of the two single-channel totals. ``cvteleport
    verify`` checks that factorization against the literally constructed
    two-mode output.
    """
    dist_photon, dist_vacuum = _channel_distributions(as_entanglement(q).q, as_cutoff(cutoff))
    return float(dist_photon.probabilities.sum()) * float(dist_vacuum.probabilities.sum())
