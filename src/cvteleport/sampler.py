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
so each shot keys numpy's ``Philox`` with its derived key, handed over as
a seed sequence that holds nothing but the key: the generator is the one
``Philox(key=key)`` builds, but nothing reads OS entropy for a seed that the
key would override. All pending shots advance in lockstep rounds: each
draws one candidate and its accept uniform from its own stream, in one pass
over the streams, and the round's candidates apply T_q(beta) to the input
in batches of ``teleport._batch_size`` real displacements D(r) (at least
32, and 128 at cutoff 32) through ``teleport._transfer_apply``, which keeps the
unit phases of beta outside the real product and builds no T_q matrix. The
envelope bound takes its radii in batches of the same size. Each of the two
loops allocates one displacement workspace of a batch and builds every
batch's D(r) in it, so no batch asks the allocator for fresh pages. A
candidate's output has the target density as its squared norm, and the
accepted output is the state the photon count is drawn from. Each stream
is consumed in the same order as one shot at a time (candidate normals,
accept uniform, then the count uniform), so records do not depend on the
batching. Uniforms come from ``Generator.random()``, which equals
``uniform()`` bit for bit (0.0 + 1.0 x) at a fraction of its call cost.

Both paths draw photon counts with one routine, ``_draw_counts``, from two
sources of level weights, one (B,) array per level and no (B, levels)
matrix: the columns of the generic path's |output|^2 rows, and on the
single-photon path ``_single_photon_levels``, which builds each level of the
closed-form number law from the level before. The draw is an inverse CDF
against a shot's cumulative weights plus its mass above the cutoff, which
draws overflow: zero on the generic path, and on the single-photon path the
exact tail of the closed-form number law, from Poisson tail probabilities.
A run returns columns: shot i sits at index i of ``ShotRunResult.betas`` and
``.photon_counts``.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeError, TruncationWarning, ZeroNormError
from .fock import (
    TAIL_MASS_THRESHOLD,
    StateVector,
    _as_unit,
    _log_factorials,
    _radial_displacement_stack,
    number_state,
)
from .teleport import _as_q, _batch_size, _transfer_apply

__all__ = [
    "MAX_SHOTS",
    "OVERFLOW_COUNT",
    "CATEGORIES",
    "ShotRecord",
    "SamplerConfig",
    "ShotRunResult",
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
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


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

    The input state carries its own cutoff; the default is |1> at cutoff
    32. Exactly |1> takes the exact inverse-CDF radial path; any other
    state, e^{i phi}|1> included, the generic rejection path.
    """

    master_seed: int
    shots: int
    q: float
    input_state: StateVector = number_state(1, 32)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _as_q(self.q))
        object.__setattr__(self, "master_seed", operator.index(self.master_seed))
        object.__setattr__(self, "shots", operator.index(self.shots))
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must lie in [0, {MAX_SHOTS}], got {self.shots}")
        if not isinstance(self.input_state, StateVector):
            raise TypeError(f"input_state must be a StateVector, got {self.input_state!r}")


@dataclass(frozen=True, eq=False)
class ShotRunResult:
    """Per-shot columns of a run; shot i sits at index i of each.

    ``betas`` holds the outcomes, ``photon_counts`` the detected photon numbers
    (``OVERFLOW_COUNT`` above the cutoff); both are read-only 1-D copies of
    equal length, and the counts must be integers.
    """

    master_seed: int
    betas: np.ndarray
    photon_counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.photon_counts)
        if counts.size and not np.issubdtype(counts.dtype, np.integer):
            raise TypeError(f"photon counts must be integers, got dtype {counts.dtype}")
        for name, dtype in (("betas", complex), ("photon_counts", np.int64)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.betas.ndim != 1 or self.betas.shape != self.photon_counts.shape:
            raise ValueError("betas and photon counts must be 1-D columns of equal length")
        if np.any(self.photon_counts < OVERFLOW_COUNT):
            raise ValueError(f"photon counts must be >= 0 or {OVERFLOW_COUNT} (overflow)")

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
        rows = zip(self.betas.tolist(), self.photon_counts.tolist(), self.category_codes.tolist())
        return [
            ShotRecord(beta, n, CATEGORIES[code], self.master_seed, i)
            for i, (beta, n, code) in enumerate(rows)
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


def _mulhilo(m: np.uint64 | np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x of uint64
    operands, elementwise, from 32-bit halves.

    Every operand is uint64, so no numpy version promotes a uint64 scalar
    m against a Python int.
    """
    low, half = np.uint64(_MASK32), np.uint64(32)
    m_lo, m_hi = m & low, m >> half
    x_lo, x_hi = x & low, x >> half
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    carry = (lo_lo >> half) + (lo_hi & low) + (hi_lo & low)
    hi = m_hi * x_hi + (lo_hi >> half) + (hi_lo >> half) + (carry >> half)
    return hi, m * x


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


@functools.cache
def _stream_key_class() -> type:
    """The seed-sequence class of ``_shot_generator``, defined on first use.

    Subclassing numpy's ``ISeedSequence`` imports ``numpy.random``, which
    nothing but the generic path needs.
    """

    class StreamKey(np.random.bit_generator.ISeedSequence):
        """A seed sequence that holds one shot's derived Philox key and nothing else.

        ``Philox`` keys itself with ``generate_state(2, np.uint64)`` of its
        seed sequence, so this gives the key of ``Philox(key=key)``; that
        call also builds a default ``SeedSequence`` first, which reads 128
        bits of OS entropy that the key then overrides.
        """

        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return StreamKey


def _shot_generator(key: np.ndarray) -> np.random.Generator:
    """numpy generator of one shot: Philox keyed by the shot's derived key."""
    return np.random.Generator(np.random.Philox(_stream_key_class()(key)))


def _invert_radial_cdf(u: np.ndarray, q: float) -> np.ndarray:
    """Solve F(t) = u elementwise by bisection on t = |beta|^2, F the radial CDF.

    The loop counts halvings of the initial width, not the float interval,
    which cannot shrink below the float spacing at large t. The iteration
    count depends on q alone, so the result is, bit for bit, independent of
    how elements are batched.

    Each halving runs in place in five arrays allocated once, with u copied
    to one contiguous array, in the operation order of mid = 0.5*(lo + hi)
    and F(mid) = 1 - exp(-a*mid)*(1 + a*a*mid). The comparison F(mid) < u
    is kept as b in {0.0, 1.0}, and the bounds move by the blends
    hi*b + (mid - mid*b) and lo*(1-b) + mid*b instead of a select, whose
    branch on unpredictable bits costs several multiplies. The blends are
    exact: every value is finite and >= 0, so x*1 = x, x*0 = +0 and
    x + 0 = x, and the bounds are those a select would give.
    """
    a = 1.0 - q * q
    width = 800.0 / a  # F(width) rounds to 1.0 in float64
    u = np.ascontiguousarray(u)  # a column of the (n, 3) uniforms is strided
    lo = np.zeros_like(u)
    hi = np.full_like(u, width)
    mid, e, b = (np.empty_like(u) for _ in range(3))
    while width > _BISECTION_TOL:
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.multiply(-a, mid, out=e)
        np.exp(e, out=e)
        np.multiply(a * a, mid, out=b)
        b += 1.0
        e *= b
        np.subtract(1.0, e, out=e)
        np.less(e, u, out=b)
        # hi*b + (mid - mid*b), then lo*(1-b) + mid*b, with e = mid*b
        np.multiply(mid, b, out=e)
        hi *= b
        np.subtract(mid, e, out=mid)
        hi += mid
        np.subtract(1.0, b, out=b)
        lo *= b
        lo += e
        width *= 0.5
    np.add(lo, hi, out=mid)
    mid *= 0.5
    return mid


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
    of real displacement columns bounds the density at each radius
    regardless of angle. The ratio against the envelope is maximized over a
    dense radial grid reaching past the polynomial/exponential turnover,
    then padded by a safety factor; sampling re-checks the bound per
    candidate anyway.
    """
    a = 1.0 - q * q
    n_max = input_state.n_max
    weights = q ** (2.0 * np.arange(n_max + 1))
    moduli_in = np.abs(input_state.amplitudes)
    t_hi = (4.0 * (n_max + 1) + 120.0) / a
    radii = np.sqrt(np.linspace(0.0, t_hi, 2048))
    batch = _batch_size(n_max + 1)
    work = np.empty((min(batch, radii.size), n_max + 1, n_max + 1))
    ratio_max = 0.0
    for start in range(0, radii.size, batch):
        block = radii[start : start + batch]
        disp = _radial_displacement_stack(block, n_max, out=work)
        cols = np.abs(disp, out=disp) @ moduli_in
        # one 1-D dot per radius: a batched product rounds the sum differently
        dots = np.fromiter(map(weights.dot, cols * cols), float, count=len(cols))
        majorants = (a / math.pi) * dots
        ratio_max = max(ratio_max, float(np.max(majorants / _envelope_density(q, block * block))))
    return _ENVELOPE_SAFETY * ratio_max


def _rejection_sample(
    unit_state: StateVector, q: float, bound: float, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Accepted beta of every shot and its output T_q(beta)|psi>, one row each.

    Shot i draws from ``rngs[i]``. Every round, each pending shot draws one
    candidate and then its accept uniform, in one pass over the streams, so
    a shot's stream sees the same draws as it would alone; the round's
    candidates apply T_q to psi in batches of ``teleport._batch_size`` real
    displacements. The proposal makes (1-q^2)|beta|^2 a chi-square variable
    with two degrees of freedom, so a candidate reaches the far tail where
    the density underflows (exponent 690) with probability e^-345. Also
    returns how many candidate outputs leave a relative tail mass above
    ``TAIL_MASS_THRESHOLD`` at the cutoff, and the worst such mass.
    """
    # the proposal is the envelope: variance 1/(2c) per component, c its rate
    sigma = math.sqrt(1.0 / (2.0 * _envelope_rate(q)))
    psi = unit_state.amplitudes
    batch = _batch_size(psi.size)
    work = np.empty((min(batch, len(rngs)), psi.size, psi.size))
    betas = np.empty(len(rngs), dtype=complex)
    outputs = np.empty((len(rngs), psi.size), dtype=complex)
    heavy, worst_tail = 0, 0.0
    pending = np.arange(len(rngs))
    for _ in range(_MAX_REJECTION_DRAWS):
        # one pass over the streams: each draws its candidate, then its accept uniform
        normals = np.empty((pending.size, 2))
        uniforms = np.empty(pending.size)
        for row, i in enumerate(pending.tolist()):
            rng = rngs[i]
            normals[row] = rng.normal(0.0, sigma, size=2)
            uniforms[row] = rng.random()
        candidates = normals.view(complex).ravel()
        stack = np.concatenate(
            [
                _transfer_apply(q, candidates[start : start + batch], psi, work)
                for start in range(0, pending.size, batch)
            ]
        )
        targets = np.sum(np.abs(stack) ** 2, axis=1)
        tails = np.divide(
            np.abs(stack[:, -1]) ** 2, targets, out=np.zeros_like(targets), where=targets > 0.0
        )
        over = tails > TAIL_MASS_THRESHOLD
        heavy += int(np.count_nonzero(over))
        worst_tail = max(worst_tail, float(np.max(tails, initial=0.0, where=over)))
        # hypot rounds like abs() of a Python complex
        caps = bound * _envelope_density(q, np.hypot(normals[:, 0], normals[:, 1]) ** 2)
        broken = np.flatnonzero(targets > caps * (1.0 + 1e-12))
        if broken.size:
            i = broken[0]
            raise EnvelopeError(
                f"density {targets[i]:.6e} exceeds envelope cap {caps[i]:.6e} "
                f"at beta={candidates[i]:.4f}"
            )
        accept = uniforms * caps <= targets
        betas[pending[accept]] = candidates[accept]
        outputs[pending[accept]] = stack[accept]
        pending = pending[~accept]
        if not pending.size:
            return betas, outputs, heavy, worst_tail
    raise EnvelopeError(f"no acceptance in {_MAX_REJECTION_DRAWS} draws; bound {bound:.3e}")


def _draw_counts(
    levels: Callable[[], Iterable[np.ndarray]], tails: np.ndarray | float, u: np.ndarray
) -> np.ndarray:
    """Photon counts by inverse CDF, from level weights handed over one level at a time.

    ``levels()`` returns the weights of levels 0, 1, ... of every shot, one
    (B,) array per level, and is called once per pass: an array's columns on
    the generic path, ``_single_photon_levels`` on the |1> path. The first
    pass sums the levels in order into C, and shot i draws
    u[i] * (C_i + tails[i]), with tails[i] >= 0 its mass above the cutoff:
    level n with probability w_n / (C_i + tails[i]), and ``OVERFLOW_COUNT``
    with the rest. The second pass adds the levels again in the same order,
    so its running sums are the cumulative weights of ``np.cumsum``, and
    counts the levels whose cumulative weight is at most the draw; it stops
    once every running sum has passed its draw. A tail of 0 keeps every draw
    inside the cutoff, since u < 1 puts u * C_i below C_i. Nothing of shape
    (B, levels) is allocated.
    """
    total = np.zeros_like(u)
    dim = 0
    for weights in levels():
        total += weights
        dim += 1
    if np.any(total == 0.0):
        raise ZeroNormError("cannot sample a photon count from a zero output state")
    # u * (C + tails), in place: C is not read again
    draw = total
    draw += tails
    draw *= u
    running = np.zeros_like(u)
    below = np.empty(u.shape, dtype=bool)
    counts = np.zeros(u.shape, dtype=np.int64)
    for weights in levels():
        running += weights
        np.less_equal(running, draw, out=below)
        if not below.any():
            break
        counts += below
    counts[counts == dim] = OVERFLOW_COUNT
    return counts


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
    the Poisson probabilities of N and N-1 to T(N+1). At t = 0 the output
    is q|1> and the tail is 0.
    """
    a = 1.0 - q * q
    t = np.abs(betas) ** 2
    pos = t > 0.0
    s = (1.0 - q) ** 2 * np.where(pos, t, 1.0)
    log_factorials = _log_factorials(n_max + 1)
    log_s = np.log(s)
    above = _poisson_tail(s, n_max + 1)
    at = above + np.exp(n_max * log_s - s - log_factorials[n_max])
    below = at + np.exp((n_max - 1) * log_s - s - log_factorials[n_max - 1])
    tail = s * above + 2.0 * q * s * at + q * q * (s * below + at)
    tail *= (a / math.pi) * np.exp(-a * t)
    tail[~pos] = 0.0
    return tail


def _is_single_photon(state: StateVector) -> bool:
    amps = state.amplitudes
    return amps[1] == 1.0 and not np.any(amps[:1]) and not np.any(amps[2:])


def run_shots(config: SamplerConfig) -> ShotRunResult:
    """Run the full shot list; identical configs give identical results.

    Shot i draws from its own counter-derived stream, so a k-shot run is the
    first k shots of any longer run with the same seed. Both paths run in
    chunks of at most ``_CHUNK`` shots to bound their memory.
    """
    q = config.q
    input_state = config.input_state
    betas = np.empty(config.shots, dtype=complex)
    counts = np.empty(config.shots, dtype=np.int64)
    if _is_single_photon(input_state):
        n_max = input_state.n_max
        for start in range(0, config.shots, _CHUNK):
            stop = min(start + _CHUNK, config.shots)
            # per shot: |beta|^2 by the exact radial CDF, the angle, the count
            u = _stream_uniforms(config.master_seed, start, stop)
            t = _invert_radial_cdf(u[:, 0], q)
            theta = 2.0 * math.pi * u[:, 1]
            betas[start:stop] = np.sqrt(t) * (np.cos(theta) + 1j * np.sin(theta))
            levels = functools.partial(_single_photon_levels, q, betas[start:stop], n_max)
            tails = _single_photon_tail(q, betas[start:stop], n_max)
            counts[start:stop] = _draw_counts(levels, tails, u[:, 2])
    elif config.shots:
        state = _as_unit(input_state)
        bound = _envelope_bound(state, q)
        heavy, worst_tail = 0, 0.0
        for start in range(0, config.shots, _CHUNK):
            stop = min(start + _CHUNK, config.shots)
            keys = _stream_keys(config.master_seed, np.arange(start, stop))
            rngs = [_shot_generator(key) for key in keys]
            betas[start:stop], outputs, chunk_heavy, chunk_worst = _rejection_sample(
                state, q, bound, rngs
            )
            heavy, worst_tail = heavy + chunk_heavy, max(worst_tail, chunk_worst)
            # each stream's next uniform, after its accepted candidate, draws the count
            weights = np.abs(outputs) ** 2
            u = np.array([rng.random() for rng in rngs])
            # no tail: this path does not know the output's mass above the cutoff
            counts[start:stop] = _draw_counts(lambda: weights.T, 0.0, u)
        if heavy:
            warnings.warn(
                f"rejection sampler: {heavy} candidate outputs exceed relative tail mass "
                f"{TAIL_MASS_THRESHOLD:g} (worst {worst_tail:.3e}); increase n_max",
                TruncationWarning,
                stacklevel=2,
            )
    return ShotRunResult(master_seed=config.master_seed, betas=betas, photon_counts=counts)
