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

import numpy as np

from .statistics import _photon_distribution, _photon_transfer_matrix
from .teleport import _as_q, transfer_operator

__all__ = [
    "PolarizationOutcomeBudget",
    "polarized_output",
    "polarization_budget",
    "polarization_budget_numerical",
]


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


def polarized_output(q: float, beta_h: complex, beta_v: complex, cutoff: int) -> np.ndarray:
    """Unnormalized two-channel output of |1>_H |0>_V for outcomes beta_h, beta_v.

    A (dim, dim) complex array on axes (H, V): T_q(beta_h) acts on the H axis
    and T_q(beta_v) on the V axis of the input X = |1>_H |0>_V, giving
    T_h @ X @ T_v.T; no closed form is assumed.
    """
    q = _as_q(q)
    t_h = transfer_operator(q, beta_h, cutoff)
    t_v = transfer_operator(q, beta_v, cutoff)
    state = np.zeros_like(t_h)
    state[1, 0] = 1.0
    return t_h @ state @ t_v.T


def polarization_budget(q: float) -> PolarizationOutcomeBudget:
    """Closed-form outcome budget for the |1>_H |0>_V input."""
    q = _as_q(q)
    s = 0.5 * (1.0 + q)
    return PolarizationOutcomeBudget(
        p_trans=s * s * 0.5 * (1.0 + q * q),
        p_flip=s * s * (0.5 * (1.0 - q)) ** 2,
        p_zero=s * s * 0.5 * (1.0 - q),
        p_multi=1.0 - s * s * 0.25 * (5.0 - 4.0 * q + 3.0 * q * q),
    )


def polarization_budget_numerical(
    q: float,
    cutoff: int = 32,
) -> PolarizationOutcomeBudget:
    """Outcome budget assembled from per-channel quadrature integrals.

    Integrates |<m| T_q(beta) |n>|^2 over each channel's outcome plane
    (m, n in {0, 1}) and combines: the H channel carries the photon, the V
    channel the vacuum, and the two channels are independent, so each class
    probability is a product of one H integral and one V integral.
    """
    q = _as_q(q)
    # column m of the photon-transfer matrix is the quadrature of |m>
    transfer = _photon_transfer_matrix(q, cutoff)
    h0, h1 = map(float, _photon_distribution(transfer[:, 1]).probabilities[:2])
    v0, v1 = map(float, _photon_distribution(transfer[:, 0]).probabilities[:2])
    p_trans = h1 * v0
    p_flip = h0 * v1
    p_zero = h0 * v0
    return PolarizationOutcomeBudget(
        p_trans=p_trans,
        p_flip=p_flip,
        p_zero=p_zero,
        p_multi=1.0 - p_trans - p_flip - p_zero,
    )
