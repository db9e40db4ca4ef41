"""Seeded Monte Carlo over measurement outcomes and photon counts.

Each shot owns an independent random stream: numpy's Philox counter-based
generator seeded by numpy's seed sequence of ``master_seed`` with spawn key
``(shot_index,)``, so results are bit-identical however the shot list is
split into chunks. Philox needs no state beyond its key and counter, so the
keys of all shots (the seed-sequence hash) and the first Philox4x64-10 block
of each shot are computed together as integer array arithmetic,
bit-identical to numpy's own streams. A shot index must fit in one 32-bit
word, so a run has at most ``MAX_SHOTS`` = 2**32 shots.

For the single-photon input the radial law of |beta| has the exact CDF
over t = |beta|^2

    F(t) = 1 - e^{-(1-q^2) t} (1 + (1-q^2)^2 t),

obtained by integrating the outcome density; it is inverted by bisection.
Other inputs go through rejection sampling against an isotropic Gaussian
envelope whose bound is certified at sample time: a target density above
the envelope raises, never clips. This path needs numpy's normal sampler,
so each shot seeds numpy's ``Philox`` directly with its derived key. All
pending shots advance in lockstep rounds: each draws one candidate from its
own stream, and the round's candidates build T_q(beta) in stacks of
``_STACK_BLOCK``. A candidate's output has the target density as its squared
norm, and the accepted output is the state the photon count is drawn from.
Each stream is consumed in the same order as one shot at a time (candidate
normals, accept uniform, then the count uniform), so records do not depend
on the batching.

Both paths draw photon counts by one inverse-CDF rule. A run returns columns:
shot i sits at index i of ``ShotRunResult.betas`` and ``.photon_counts``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import EnvelopeError, ZeroNormError
from .fock import (
    StateVector,
    _as_unit,
    _warn_if_tail_heavy,
    as_cutoff,
    displacement_stack,
    number_state,
)
from .teleport import _STACK_BLOCK, _is_single_photon, _transfer_stack, as_entanglement

__all__ = [
    "MAX_SHOTS",
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
# shot indices must fit one 32-bit spawn-key word
MAX_SHOTS = 2**32

# numpy's seed-sequence hash constants
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


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

    ``input_state`` = None selects the single-photon input at ``cutoff``.
    Exactly |1>, implicit or explicit, takes the exact inverse-CDF radial
    path; any other state, e^{i phi}|1> included, the generic rejection path.
    """

    master_seed: int
    shots: int
    q: float
    cutoff: int = 32
    input_state: StateVector | None = None

    def __post_init__(self) -> None:
        as_entanglement(self.q)
        object.__setattr__(self, "master_seed", operator.index(self.master_seed))
        object.__setattr__(self, "shots", operator.index(self.shots))
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must lie in [0, {MAX_SHOTS}], got {self.shots}")
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


def _hashmix(value: np.ndarray, h: int) -> tuple[np.ndarray, int]:
    """numpy's seed-sequence hashmix of uint32 words; returns the next hash constant too."""
    h_next = (h * _MULT_A) & _MASK32
    value = (value ^ h) * h_next
    return value ^ (value >> 16), h_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _stream_keys(master_seed: int, indices) -> np.ndarray:
    """Philox key of every shot index, shape (n, 2) uint64.

    Row i is the ``generate_state(2, np.uint64)`` of numpy's seed sequence of
    ``master_seed`` with spawn key ``(indices[i],)``, which is how numpy keys
    Philox: its entropy pool, transcribed as uint32 array arithmetic over all
    indices at once. Each index must fit in one 32-bit word, as every shot
    index of a run does (``MAX_SHOTS``).
    """
    spawn = np.asarray(indices, dtype=np.uint32)
    seed_words = [
        master_seed >> shift & _MASK32 for shift in range(0, max(master_seed.bit_length(), 1), 32)
    ]
    # a spawn key zero-pads the run entropy to the pool size
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    entropy = [np.full(spawn.shape, w, dtype=np.uint32) for w in seed_words] + [spawn]
    h = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        word, h = _hashmix(word, h)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], hashed)
    # entropy past the pool (seed words 5 and up, then the index) mixes into every word
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], hashed)
    # generate_state(2, np.uint64): four output words, paired little-endian
    h = _INIT_B
    state = []
    for word in pool:
        h_next = (h * _MULT_B) & _MASK32
        word = (word ^ h) * h_next
        state.append((word ^ (word >> 16)).astype(np.uint64))
        h = h_next
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & _MASK32, x >> 32
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    carry = (lo_lo >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    hi = m_hi * x_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32)
    return hi, np.uint64(m) * x


def _stream_uniforms(master_seed: int, start: int, stop: int) -> np.ndarray:
    """First three uniforms of shots start..stop-1, shape (n, 3).

    Row i equals ``uniform(size=3)`` of numpy's Philox generator seeded for
    shot start + i: one Philox4x64-10 block at counter (1, 0, 0, 0), since
    numpy bumps the zero counter before its first block, with each word w
    mapped to (w >> 11) * 2**-53.
    """
    keys = _stream_keys(master_seed, np.arange(start, stop))
    k0, k1 = keys[:, 0], keys[:, 1]
    zero = np.zeros(stop - start, dtype=np.uint64)
    c0, c1, c2, c3 = np.ones_like(zero), zero, zero, zero
    for round_index in range(_PHILOX_ROUNDS):
        if round_index:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2], axis=-1)
    return (words >> 11).astype(float) * 2.0**-53


def _shot_generator(key: np.ndarray) -> np.random.Generator:
    """numpy generator of one shot: Philox keyed by the shot's derived key."""
    return np.random.Generator(np.random.Philox(key=key))


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
    for start in range(0, radii.size, _STACK_BLOCK):
        block = radii[start : start + _STACK_BLOCK]
        for r, disp in zip(block, displacement_stack(-block, cutoff)):
            col = np.abs(disp) @ moduli_in
            majorant = (a / math.pi) * float(weights @ (col * col))
            ratio = majorant / float(_envelope_density(q, r * r))
            ratio_max = max(ratio_max, ratio)
    return _ENVELOPE_SAFETY * ratio_max


def _rejection_sample(
    unit_state: StateVector, q: float, bound: float, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Accepted beta of every shot and its output T_q(beta)|psi>, one row each.

    Shot i draws from ``rngs[i]``. Every round, each pending shot draws one
    candidate, and the round's candidates build T_q in stacks of
    ``_STACK_BLOCK``; a shot's stream sees the same draws as it would alone.
    The proposal makes (1-q^2)|beta|^2 a chi-square variable with two degrees
    of freedom, so a candidate reaches the far tail where the density
    underflows (exponent 690) with probability e^-345.
    """
    sigma = math.sqrt(1.0 / (1.0 - q * q))
    cutoff = unit_state.cutoff
    psi = unit_state.amplitudes
    betas = np.empty(len(rngs), dtype=complex)
    outputs = np.empty((len(rngs), cutoff.dim), dtype=complex)
    pending = list(range(len(rngs)))
    for _ in range(_MAX_REJECTION_DRAWS):
        candidates = [complex(*rngs[i].normal(0.0, sigma, size=2)) for i in pending]
        still_pending = []
        for start in range(0, len(pending), _STACK_BLOCK):
            block = candidates[start : start + _STACK_BLOCK]
            stack = _transfer_stack(q, block, cutoff) @ psi
            for i, beta, amplitudes in zip(pending[start:], block, stack):
                output = _warn_if_tail_heavy(StateVector(amplitudes, cutoff), "rejection sampler")
                target = output.norm_sq()
                cap = bound * float(_envelope_density(q, abs(beta) ** 2))
                if target > cap * (1.0 + 1e-12):
                    raise EnvelopeError(
                        f"density {target:.6e} exceeds envelope cap {cap:.6e} at beta={beta:.4f}"
                    )
                if rngs[i].uniform() * cap <= target:
                    betas[i], outputs[i] = beta, output.amplitudes
                else:
                    still_pending.append(i)
        pending = still_pending
        if not pending:
            return betas, outputs
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
    first k shots of any longer run with the same seed. Both paths run in
    chunks of at most ``_CHUNK`` shots to bound their memory.
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
            u = _stream_uniforms(config.master_seed, start, stop)
            t = _invert_radial_cdf(u[:, 0], q)
            theta = 2.0 * math.pi * u[:, 1]
            betas[start:stop] = np.sqrt(t) * (np.cos(theta) + 1j * np.sin(theta))
            weights = _single_photon_weight_matrix(q, betas[start:stop], n_max)
            totals = (a / math.pi) * np.exp(-a * t) * (a * a * t + q * q)
            counts[start:stop] = _draw_counts(weights, totals, u[:, 2])
    elif config.shots:
        state = _as_unit(input_state)
        bound = _envelope_bound(state, q)
        for start in range(0, config.shots, _CHUNK):
            stop = min(start + _CHUNK, config.shots)
            keys = _stream_keys(config.master_seed, np.arange(start, stop))
            rngs = [_shot_generator(key) for key in keys]
            betas[start:stop], outputs = _rejection_sample(state, q, bound, rngs)
            # each stream's next uniform, after its accepted candidate, draws the count
            weights = np.abs(outputs) ** 2
            u = np.array([rng.uniform() for rng in rngs])
            counts[start:stop] = _draw_counts(weights, weights.sum(axis=1), u)
    return ShotRunResult(master_seed=config.master_seed, betas=betas, photon_counts=counts)
