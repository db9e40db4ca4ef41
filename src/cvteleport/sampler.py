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

Both paths draw photon counts by one inverse-CDF rule. A run returns columns:
shot i sits at index i of ``ShotRunResult.betas`` and ``.photon_counts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import EnvelopeError, ZeroNormError
from .fock import StateVector, as_cutoff, displacement_stack, number_state
from .teleport import _is_single_photon, as_entanglement, teleport_output

__all__ = [
    "OVERFLOW_COUNT",
    "CATEGORIES",
    "ShotRecord",
    "SamplerConfig",
    "ShotRunResult",
    "category_for_count",
    "run_shots",
]

# photon_count sentinel for probability mass above the cutoff
OVERFLOW_COUNT = -1

CATEGORIES = ("loss", "success", "gain")

_BISECTION_TOL = 1e-12
_ENVELOPE_SAFETY = 1.5
_MAX_REJECTION_DRAWS = 100_000
_CHUNK = 16_384
# radii per displacement stack in the envelope bound; bounds its peak memory
_ENVELOPE_BLOCK = 16


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
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")
        if self.input_state is not None and self.input_state.n_max != as_cutoff(self.cutoff).n_max:
            raise ValueError("input_state cutoff disagrees with config cutoff")

    def resolved_input(self) -> StateVector:
        if self.input_state is not None:
            return self.input_state
        return number_state(1, as_cutoff(self.cutoff))


@dataclass(frozen=True, eq=False)
class ShotRunResult:
    """Per-shot columns of a run; shot i sits at index i of each.

    ``betas`` holds the outcomes, ``photon_counts`` the detected photon numbers
    (``OVERFLOW_COUNT`` above the cutoff); both are read-only copies.
    """

    master_seed: int
    betas: np.ndarray
    photon_counts: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("betas", complex), ("photon_counts", np.int64)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShotRunResult):
            return NotImplemented
        return (
            self.master_seed == other.master_seed
            and np.array_equal(self.betas, other.betas)
            and np.array_equal(self.photon_counts, other.photon_counts)
        )

    @property
    def category_codes(self) -> np.ndarray:
        """Index into ``CATEGORIES`` per shot: 0 loss, 1 success, 2 gain (overflow too)."""
        n = self.photon_counts
        return np.where(n == OVERFLOW_COUNT, 2, np.minimum(n, 2))

    @property
    def counts(self) -> dict:
        tally = np.bincount(self.category_codes, minlength=len(CATEGORIES))
        return {name: int(k) for name, k in zip(CATEGORIES, tally)}

    @property
    def overflow(self) -> int:
        return int(np.count_nonzero(self.photon_counts == OVERFLOW_COUNT))

    def frequencies(self) -> dict:
        total = max(self.photon_counts.size, 1)
        return {name: k / total for name, k in self.counts.items()}

    @property
    def records(self) -> list[ShotRecord]:
        """One ``ShotRecord`` per shot, built on each access."""
        rows = zip(self.betas.tolist(), self.photon_counts.tolist())
        return [
            ShotRecord(beta, n, category_for_count(n), self.master_seed, i)
            for i, (beta, n) in enumerate(rows)
        ]


def _shot_generator(master_seed: int, shot_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(shot_index,))
    return np.random.Generator(np.random.Philox(seq))


def _invert_radial_cdf(u: np.ndarray, q: float) -> np.ndarray:
    """Solve F(t) = u elementwise by bisection on t = |beta|^2, F the radial CDF.

    The interval halves identically for every element, so the iteration
    count (and therefore the result, bit for bit) is independent of how
    elements are batched.
    """
    a = 1.0 - q * q
    lo = np.zeros_like(u)
    hi = np.full_like(u, 800.0 / a)  # F(hi) rounds to 1.0 in float64
    while np.max(hi - lo) > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        below = 1.0 - np.exp(-a * mid) * (1.0 + a * a * mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


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
    for start in range(0, radii.size, _ENVELOPE_BLOCK):
        block = radii[start : start + _ENVELOPE_BLOCK]
        for r, disp in zip(block, displacement_stack(-block, cutoff)):
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


def _draw_counts(weights: np.ndarray, totals: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Photon counts by inverse CDF, one row of level weights per shot.

    Row i picks level n with probability weights[i, n] / max(totals[i], row
    sum) from the uniform u[i]; a total above the row sum is the untruncated
    norm, and the mass missing above the cutoff draws ``OVERFLOW_COUNT``.
    """
    cdf = np.cumsum(weights, axis=1)
    if np.any(cdf[:, -1] == 0.0):
        raise ZeroNormError("cannot sample a photon count from a zero output state")
    draw = u * np.maximum(totals, cdf[:, -1])
    counts = (cdf <= draw[:, None]).sum(axis=1)
    return np.where(counts >= weights.shape[1], OVERFLOW_COUNT, counts)


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


def run_shots(config: SamplerConfig) -> ShotRunResult:
    """Run the full shot list; identical configs give identical results.

    Shot i draws from its own counter-derived stream, so a k-shot run is the
    first k shots of any longer run with the same seed. The single-photon path
    runs in chunks of at most ``_CHUNK`` shots to bound its memory.
    """
    q = config.q
    input_state = config.resolved_input()
    betas = np.empty(config.shots, dtype=complex)
    counts = np.empty(config.shots, dtype=np.int64)
    if _is_single_photon(input_state):
        a = 1.0 - q * q
        n_max = input_state.n_max
        for start in range(0, config.shots, _CHUNK):
            stop = min(start + _CHUNK, config.shots)
            # per shot: |beta|^2 by the exact radial CDF, the angle, the count
            u = np.array(
                [_shot_generator(config.master_seed, i).uniform(size=3) for i in range(start, stop)]
            )
            t = _invert_radial_cdf(u[:, 0], q)
            theta = 2.0 * math.pi * u[:, 1]
            betas[start:stop] = np.sqrt(t) * (np.cos(theta) + 1j * np.sin(theta))
            weights = _single_photon_weight_matrix(q, betas[start:stop], n_max)
            totals = (a / math.pi) * np.exp(-a * t) * (a * a * t + q * q)
            counts[start:stop] = _draw_counts(weights, totals, u[:, 2])
    elif config.shots:
        state = _as_unit(input_state)
        bound = _envelope_bound(state, q)
        for i in range(config.shots):
            rng = _shot_generator(config.master_seed, i)
            betas[i], output = _rejection_sample(state, q, bound, rng)
            weights = np.abs(output.amplitudes[None, :]) ** 2
            counts[i] = _draw_counts(weights, weights.sum(axis=1), rng.uniform(size=1))[0]
    return ShotRunResult(master_seed=config.master_seed, betas=betas, photon_counts=counts)
