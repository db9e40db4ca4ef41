"""Seeded Monte Carlo over measurement outcomes and photon counts.

Each shot owns an independent random stream derived from
``SeedSequence(master_seed, spawn_key=(shot_index,))`` feeding a Philox
counter-based generator, so results are bit-identical however the shot
list is split into chunks.

For the single-photon input the radial law of |beta| has the exact CDF
over t = |beta|^2

    F(t) = 1 - e^{-(1-q^2) t} (1 + (1-q^2)^2 t),

obtained by integrating the outcome density; it is inverted by bisection.
Other inputs go through rejection sampling against an isotropic Gaussian
envelope whose bound is certified at sample time: a target density above
the envelope raises, never clips. Each candidate builds T_q(beta) once; its
output's squared norm is the target density, and the accepted candidate's
output is the state the photon count is drawn from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import EnvelopeError, ZeroNormError
from .fock import StateVector, as_cutoff, displacement_matrix, number_state
from .teleport import _is_single_photon, as_entanglement, teleport_output

__all__ = [
    "OVERFLOW_COUNT",
    "CATEGORIES",
    "ShotRecord",
    "SamplerConfig",
    "ShotRunResult",
    "category_for_count",
    "sample_photon_count",
    "run_shots",
]

# photon_count sentinel for probability mass above the cutoff
OVERFLOW_COUNT = -1

CATEGORIES = ("loss", "success", "gain")

_BISECTION_TOL = 1e-12
_ENVELOPE_SAFETY = 1.5
_MAX_REJECTION_DRAWS = 100_000
_CHUNK = 16_384


def category_for_count(n: int) -> str:
    """Map a sampled photon count (or the overflow sentinel) to its class."""
    if n == OVERFLOW_COUNT:
        return "gain"
    if n < 0:
        raise ValueError(f"photon count must be >= 0 or the overflow sentinel, got {n}")
    return CATEGORIES[min(n, 2)]


@dataclass(frozen=True)
class ShotRecord:
    """One sampled teleportation event with its seed provenance."""

    beta: complex
    photon_count: int
    category: str
    master_seed: int
    shot_index: int

    @property
    def seed_lineage(self) -> tuple[int, int]:
        return (self.master_seed, self.shot_index)


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible description of a Monte Carlo run.

    ``input_state`` = None selects the single-photon input at ``cutoff``
    and enables the exact inverse-CDF radial path; any explicit state runs
    through the generic rejection path.
    """

    master_seed: int
    shots: int
    q: float
    cutoff: int = 32
    input_state: StateVector | None = None

    def __post_init__(self) -> None:
        as_entanglement(self.q)
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")
        if self.input_state is not None and self.input_state.n_max != as_cutoff(self.cutoff).n_max:
            raise ValueError("input_state cutoff disagrees with config cutoff")

    def resolved_input(self) -> StateVector:
        if self.input_state is not None:
            return self.input_state
        return number_state(1, as_cutoff(self.cutoff))


@dataclass(frozen=True)
class ShotRunResult:
    """Records plus the aggregate category histogram."""

    records: list[ShotRecord]
    counts: dict
    overflow: int

    def frequencies(self) -> dict:
        total = max(len(self.records), 1)
        return {name: self.counts[name] / total for name in CATEGORIES}


def _shot_generator(master_seed: int, shot_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(shot_index,))
    return np.random.Generator(np.random.Philox(seq))


def _radial_cdf(t: np.ndarray, q: float) -> np.ndarray:
    a = 1.0 - q * q
    return 1.0 - np.exp(-a * t) * (1.0 + a * a * t)


def _invert_radial_cdf(u: np.ndarray, q: float) -> np.ndarray:
    """Solve F(t) = u elementwise by bisection on t = |beta|^2.

    The interval halves identically for every element, so the iteration
    count (and therefore the result, bit for bit) is independent of how
    elements are batched.
    """
    a = 1.0 - q * q
    lo = np.zeros_like(u)
    hi = np.full_like(u, 800.0 / a)  # F(hi) rounds to 1.0 in float64
    while np.max(hi - lo) > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        below = _radial_cdf(mid, q) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _single_photon_outcomes(u: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """t = |beta|^2 and beta for the single-photon input, one per row of uniforms.

    Column 0 fixes t through the exact radial CDF, column 1 the angle.
    """
    t = _invert_radial_cdf(u[:, 0], q)
    theta = 2.0 * math.pi * u[:, 1]
    return t, np.sqrt(t) * (np.cos(theta) + 1j * np.sin(theta))


def _envelope_rate(q: float) -> float:
    # per-component variance 1/(1-q^2) => density (c/pi) e^{-c|beta|^2}, c = (1-q^2)/2
    return 0.5 * (1.0 - q * q)


def _envelope_density(q: float, t):
    c = _envelope_rate(q)
    return (c / math.pi) * np.exp(-c * t)


def _envelope_bound(input_state: StateVector, q: float) -> float:
    """Certified M with density(beta) <= M * envelope(beta) for all beta.

    The truncated density is (a/pi) sum_n q^{2n} |<n|D(-beta)|psi>|^2 and
    every |<n|D|m>| depends only on |beta|, so a majorant built from moduli
    of displacement columns bounds the density at each radius regardless of
    angle. The ratio against the envelope is maximized over a dense radial
    grid reaching past the polynomial/exponential turnover, then padded by a
    safety factor; sampling re-checks the bound per candidate anyway.
    """
    a = 1.0 - q * q
    c = _envelope_rate(q)
    cutoff = input_state.cutoff
    weights = q ** (2.0 * np.arange(cutoff.dim))
    moduli_in = np.abs(input_state.amplitudes)
    t_hi = (4.0 * cutoff.dim + 120.0) / a
    radii = np.sqrt(np.linspace(0.0, t_hi, 2048))
    ratio_max = 0.0
    for r in radii:
        disp = displacement_matrix(complex(-r), cutoff).matrix
        col = np.abs(disp) @ moduli_in
        majorant = (a / math.pi) * float(weights @ (col * col))
        ratio = majorant / float(_envelope_density(q, r * r))
        ratio_max = max(ratio_max, ratio)
    return _ENVELOPE_SAFETY * ratio_max


def _as_unit(state: StateVector) -> StateVector:
    return state if abs(state.norm_sq() - 1.0) <= 1e-12 else state.unit()


def _rejection_sample(
    unit_state: StateVector, q: float, bound: float, rng: np.random.Generator
) -> tuple[complex, StateVector]:
    """Accepted beta and its conditional output T_q(beta)|psi>.

    The proposal makes (1-q^2)|beta|^2 a chi-square variable with two degrees
    of freedom, so a candidate reaches the far tail where the density
    underflows (exponent 690) with probability e^-345.
    """
    sigma = math.sqrt(1.0 / (1.0 - q * q))
    for _ in range(_MAX_REJECTION_DRAWS):
        x, y = rng.normal(0.0, sigma, size=2)
        beta = complex(x, y)
        output = teleport_output(unit_state, q, beta)
        target = output.norm_sq()
        cap = bound * float(_envelope_density(q, abs(beta) ** 2))
        if target > cap * (1.0 + 1e-12):
            raise EnvelopeError(
                f"density {target:.6e} exceeds envelope cap {cap:.6e} at beta={beta:.4f}"
            )
        if rng.uniform() * cap <= target:
            return beta, output
    raise EnvelopeError(f"no acceptance in {_MAX_REJECTION_DRAWS} draws; bound {bound:.3e}")


def sample_photon_count(
    output_state: StateVector,
    rng: np.random.Generator,
    total_norm_sq: float | None = None,
) -> int:
    """Draw the detected photon number from an unnormalized output state.

    Probabilities are |a_n|^2 relative to ``total_norm_sq`` when the true
    (untruncated) norm is known; any mass missing above the cutoff becomes
    the overflow sentinel rather than being renormalized away.
    """
    weights = np.abs(output_state.amplitudes) ** 2
    subtotal = float(weights.sum())
    if subtotal == 0.0:
        raise ZeroNormError("cannot sample a photon count from a zero output state")
    total = subtotal if total_norm_sq is None else float(total_norm_sq)
    if total < subtotal:
        total = subtotal  # rounding guard; never inflate in-cutoff probabilities
    u = rng.uniform() * total
    cumulative = np.cumsum(weights)
    idx = int(np.searchsorted(cumulative, u, side="right"))
    if idx >= weights.size:
        return OVERFLOW_COUNT
    return idx


def _single_photon_weight_matrix(q: float, betas: np.ndarray, n_max: int) -> np.ndarray:
    """|<n|T_q(beta)|1>|^2 for every shot at once, from the closed form.

    Row per shot, column per n: (a/pi) e^{-2(1-q)t} s^{n-1}/n! *
    (a(1-q)t + q(n - s))^2 with t = |beta|^2, s = (1-q)^2 t. Matches the
    amplitudes of the displaced two-term closed form exactly.
    """
    a = 1.0 - q * q
    t = np.abs(betas) ** 2
    s = (1.0 - q) ** 2 * t
    n = np.arange(n_max + 1, dtype=float)
    envelope = (a / math.pi) * np.exp(-2.0 * (1.0 - q) * t)
    weights = np.zeros((t.size, n_max + 1))
    pos = t > 0.0
    if np.any(pos):
        tp, sp = t[pos], s[pos]
        bracket = a * (1.0 - q) * tp[:, None] + q * (n[None, :] - sp[:, None])
        log_radial = (n[None, :] - 1.0) * np.log(sp)[:, None] - gammaln(n + 1.0)[None, :]
        weights[pos] = envelope[pos, None] * np.exp(log_radial) * bracket**2
        weights[pos, 0] = envelope[pos] * (1.0 - q) ** 2 * tp
    if np.any(~pos):
        weights[~pos, 1] = (a / math.pi) * q * q
    return weights


def _run_chunk(config: SamplerConfig, start: int, stop: int) -> tuple[list, list]:
    """Outcomes beta and photon counts of shots ``start`` to ``stop - 1``."""
    q = config.q
    cutoff = as_cutoff(config.cutoff)
    input_state = config.resolved_input()

    if _is_single_photon(input_state):
        uniforms = np.empty((stop - start, 3))
        for row, i in enumerate(range(start, stop)):
            uniforms[row] = _shot_generator(config.master_seed, i).uniform(size=3)
        t, betas = _single_photon_outcomes(uniforms, q)
        weights = _single_photon_weight_matrix(q, betas, cutoff.n_max)
        a = 1.0 - q * q
        totals = (a / math.pi) * np.exp(-a * t) * (a * a * t + q * q)
        cdf = np.cumsum(weights, axis=1)
        draw = uniforms[:, 2] * np.maximum(totals, cdf[:, -1])
        counts = (draw[:, None] > cdf).sum(axis=1)
        return betas.tolist(), np.where(counts > cutoff.n_max, OVERFLOW_COUNT, counts).tolist()

    state = _as_unit(input_state)
    bound = _envelope_bound(state, q)
    betas, counts = [], []
    for i in range(start, stop):
        rng = _shot_generator(config.master_seed, i)
        beta, output = _rejection_sample(state, q, bound, rng)
        betas.append(beta)
        counts.append(sample_photon_count(output, rng))
    return betas, counts


def run_shots(config: SamplerConfig) -> ShotRunResult:
    """Run the full shot list; identical configs give identical results.

    Shots run in fixed chunks of at most ``_CHUNK`` to bound the memory of
    the vectorized single-photon path. Each shot draws from its own
    counter-derived stream, so the records do not depend on the chunking.
    """
    records = []
    counts = {name: 0 for name in CATEGORIES}
    overflow = 0
    for start in range(0, config.shots, _CHUNK):
        stop = min(start + _CHUNK, config.shots)
        betas, photon_counts = _run_chunk(config, start, stop)
        for i, beta, n in zip(range(start, stop), betas, photon_counts):
            category = category_for_count(n)
            records.append(
                ShotRecord(
                    beta=beta,
                    photon_count=n,
                    category=category,
                    master_seed=config.master_seed,
                    shot_index=i,
                )
            )
            counts[category] += 1
            if n == OVERFLOW_COUNT:
                overflow += 1
    return ShotRunResult(records=records, counts=counts, overflow=overflow)
