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
envelope whose cap is certified for the density truncated at the cutoff;
each candidate's exact density is checked against it, and one above it
raises, never clips. This path needs numpy's normal sampler,
so each shot keys numpy's ``Philox`` with its derived key, handed over as
a seed sequence that holds nothing but the key: the generator is the one
``Philox(key=key)`` builds, but nothing reads OS entropy for a seed that the
key would override. All pending shots advance in lockstep rounds: each
draws one candidate and its accept uniform from its own stream, in one pass
over the streams. The T_q(beta) algebra is ``teleport``'s, in normal order,
with no T_q matrix and no displacement: each round's candidates get the
exact outcome density p(beta) = ||T_q(beta) psi||^2, exact at the input's
cutoff, from one ``_outcome_density`` call, and each chunk's accepted shots
their outputs from one ``_transfer_apply`` call. The envelope bound builds
the real displacement D(r) only at the grid radii whose certified bound,
from the same normal-order steps, can still reach the maximum, best bound
first, ``teleport._batch_size`` at a time. Each stream is consumed in the
same order as one shot at a time (candidate normals, accept uniform, then
the count uniform), and a candidate's density and output do not depend on
the others in its batch, so records do not depend on the batching. Uniforms
come from ``Generator.random()``, which equals ``uniform()`` bit for bit
(0.0 + 1.0 x) at a fraction of its call cost, and normals from
``standard_normal``, scaled as ``normal(0.0, sigma)`` scales the same draws.

Both paths draw photon counts with one routine, ``_draw_counts``, from two
sources of level weights, one (B,) array per level and no (B, levels)
matrix: the columns of the generic path's |output|^2 rows, and on the
single-photon path ``statistics._single_photon_levels``, which builds each
level of the closed-form number law from the level before. The draw is an
inverse CDF against a shot's cumulative weights plus its mass above the
cutoff, which draws overflow: on the generic path ``teleport._missing_mass``,
the exact density less the truncated output's squared norm, and on the
single-photon path ``statistics._single_photon_tail``, the law's exact tail.
A generic run whose expected overflow share passes ``TAIL_MASS_THRESHOLD``
says so in one ``TruncationWarning``, with the share it observed.
A run returns columns: shot i sits at index i of ``ShotRunResult.betas`` and
``.photon_counts``.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeError, TruncationWarning, ZeroNormError
from .fock import (
    TAIL_MASS_THRESHOLD,
    StateVector,
    _as_unit,
    _radial_displacement_stack,
    number_state,
)
from .statistics import _single_photon_levels, _single_photon_tail
from .teleport import (
    _as_q,
    _batch_size,
    _binomial_hankel,
    _log_powers,
    _lower,
    _missing_mass,
    _outcome_density,
    _raise,
    _transfer_apply,
)

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
# the envelope bound's radial grid, the runs of it that share one certified
# bound, and the factor by which a run's bound must miss the running maximum
# for its radii and every later run's to go unbuilt (see ``_envelope_bound``)
_ENVELOPE_GRID = 2048
_ENVELOPE_INTERVAL = 8
_ENVELOPE_MARGIN = 2.0
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


def _log_interval_bounds(moduli: np.ndarray, weights: np.ndarray, q: float, radii) -> np.ndarray:
    """ln of an upper bound on the majorant/envelope ratio over each run of
    ``_ENVELOPE_INTERVAL`` consecutive radii, shape (S,) for S runs.

    In normal order (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)),
    D(alpha) = e^{-|alpha|^2/2} e^{alpha a^dag} e^{-conj(alpha) a}, so taking
    moduli term by term gives |<n|D(r)|m>| <= e^{-r^2/2} (E E^T)[n, m] with
    E[k+d, k] = r^d / sqrt(d!) sqrt(C(k+d, d)). Every term is positive and
    grows with r, so on [r0, r1] the column (|D(r)| m)_n is at most
    e^{-r0^2/2} (E(r1) E(r1)^T m)_n, and at most sum m, as no |D_nm| exceeds 1.
    The weighted sum of squares is divided by the envelope at r1, its lowest
    point on the run. E holds the normal-order powers of a real r, so the
    steps of ``teleport`` build it: the powers of r1 by ``_log_powers``, E^T m
    by ``_lower`` on the Hankel matrix of m, and E v by ``_raise``. The rest
    is the envelope's own arithmetic.

    Each run's powers are scaled by the largest, whose logarithm rejoins the
    Gaussian in the log domain, so nothing overflows below cutoff 1,000; a
    run whose bound is not finite even so gets +inf and is built.
    Powers below e^-745 of a run's largest underflow to 0, and with them
    terms that small against the run's largest.
    """
    dim = moduli.size
    runs = radii.reshape(-1, _ENVELOPE_INTERVAL)
    r0, r1 = runs[:, 0], runs[:, -1]
    log_powers = _log_powers(r1, dim)
    scale = np.max(log_powers, axis=0)
    powers = np.exp(log_powers - scale)
    with np.errstate(over="ignore", invalid="ignore"):
        raised = _raise(_lower(powers, 1.0, _binomial_hankel(moduli)).T, powers)
    # "!= 0" rather than "> 0", so that a NaN stays NaN and ends at +inf
    log_cols = np.log(raised, out=np.full_like(raised, -np.inf), where=raised != 0.0)
    log_cols += 2.0 * scale - 0.5 * r0 * r0
    np.minimum(log_cols, math.log(moduli.sum()), out=log_cols)
    # ln sum_n w_n cols_n^2, shifted by its largest term
    log_terms = 2.0 * log_cols
    log_terms += np.log(weights, out=np.full_like(weights, -np.inf), where=weights > 0.0)[:, None]
    top = np.max(log_terms, axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    total = np.sum(np.exp(log_terms - shift), axis=0)
    log_sums = np.log(total, out=np.full_like(total, -np.inf), where=total != 0.0) + shift
    # (a/pi) / ((c/pi) e^{-c r1^2}), with a = 2c
    log_bounds = math.log(2.0) + _envelope_rate(q) * r1 * r1 + log_sums
    log_bounds[np.isnan(log_bounds)] = np.inf
    return log_bounds


def _majorant_ratios(
    radii: np.ndarray, moduli: np.ndarray, weights: np.ndarray, q: float
) -> np.ndarray:
    """Majorant/envelope ratio at each of a 1-D batch of radii, from the real D(r).

    The majorant is (a/pi) sum_n w_n (|D(r)| m)_n^2, with one 1-D dot per
    radius, so a ratio does not depend on its batch. A radius the build
    cannot hold (the Laguerre recurrence overflows at very large radii, or
    the envelope underflows) gives a ratio that is not finite, which raises
    ``EnvelopeError`` naming the radius and the cutoff, with no warning.
    """
    a = 1.0 - q * q
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        disp = _radial_displacement_stack(radii, moduli.size - 1)
        cols = np.abs(disp, out=disp) @ moduli
        # a batched product would round each sum differently
        dots = np.fromiter(map(weights.dot, cols * cols), float, count=len(cols))
        ratios = (a / math.pi) * dots / _envelope_density(q, radii * radii)
    broken = np.flatnonzero(~np.isfinite(ratios))
    if broken.size:
        i = broken[0]
        raise EnvelopeError(
            f"envelope ratio is {ratios[i]} at radius {radii[i]:.6g} at cutoff "
            f"{moduli.size - 1}: the displacement cannot be built there"
        )
    return ratios


def _envelope_bound(input_state: StateVector, q: float) -> float:
    """M with density(beta) <= M * envelope(beta), certified for the density
    whose middle sum stops at the cutoff.

    That density is (a/pi) sum_{n <= n_max} q^{2n} |<n|D(-beta)|psi>|^2 and
    every |<n|D|m>| depends only on |beta|, so a majorant built from moduli
    of real displacement columns bounds it at each radius regardless of
    angle. The ratio against the envelope is maximized over a dense radial
    grid reaching past the polynomial/exponential turnover, then padded by a
    safety factor. The rejection rounds accept on the exact density
    p(beta), whose sum runs past the cutoff, so the cap does not certify p:
    each candidate is checked against it, and one above it raises
    ``EnvelopeError``. On 300 random inputs (cutoffs 1-12, q up to 0.99,
    half of them heavy on the top level), each at 2,000 proposal draws and
    on a radial grid, p stayed below 0.69 of the cap. Number states whose
    mass sits at the cutoff come closer: on 8,000 radii, the largest p/cap
    is 0.856 for |8> at cutoff 8 and q = 0.95, 0.871 for |12> at cutoff 12
    and q = 0.965, and 0.880 for |30> at cutoff 30 and q = 0.985, at
    |beta| = 8.77.

    Only radii whose ratio can still reach the maximum are built. The grid
    is cut into runs of ``_ENVELOPE_INTERVAL`` radii, each with the certified
    bound of ``_log_interval_bounds``, and walked in decreasing bound: the
    top run alone seeds the running maximum, then the others are built
    ``teleport._batch_size`` radii at a time while a run's bound times
    ``_ENVELOPE_MARGIN`` reaches it, and the walk stops at the first that
    does not, since every later bound is smaller. A +inf bound sorts first
    and is built. A ratio does not depend on its batch, so the result is the
    maximum over the whole grid, bit for bit. The margin of 2 covers the
    rounding of both sides: in exact arithmetic the built ratio is the same
    sum of normal-order terms whose moduli the bound adds, so each side's
    rounding error is some dim ulps of the bound, while the closest a built
    ratio has come to its run's bound is a factor of e^-0.24, over 124
    inputs. A coherent input at cutoff 32 builds 104 of the 2,048 radii.
    """
    n_max = input_state.n_max
    weights = q ** (2.0 * np.arange(n_max + 1))
    moduli_in = np.abs(input_state.amplitudes)
    t_hi = (4.0 * (n_max + 1) + 120.0) / (1.0 - q * q)
    radii = np.sqrt(np.linspace(0.0, t_hi, _ENVELOPE_GRID))
    runs = radii.reshape(-1, _ENVELOPE_INTERVAL)
    log_bounds = _log_interval_bounds(moduli_in, weights, q, radii)
    # best first: a +inf bound sorts ahead of every finite one
    order = np.argsort(-log_bounds, kind="stable")
    runs_per_batch = _batch_size(n_max + 1) // _ENVELOPE_INTERVAL
    ratio_max = float(np.max(_majorant_ratios(runs[order[0]], moduli_in, weights, q)))
    for start in range(1, order.size, runs_per_batch):
        batch = order[start : start + runs_per_batch]
        floor = math.log(ratio_max / _ENVELOPE_MARGIN) if ratio_max > 0.0 else -math.inf
        # the bounds fall along the order, so the runs that reach are a prefix
        reach = int(np.count_nonzero(log_bounds[batch] >= floor))
        if reach:
            ratios = _majorant_ratios(runs[batch[:reach]].ravel(), moduli_in, weights, q)
            ratio_max = max(ratio_max, float(np.max(ratios)))
        if reach < batch.size:
            break
    return _ENVELOPE_SAFETY * ratio_max


def _rejection_sample(
    unit_state: StateVector, q: float, bound: float, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Accepted beta of every shot and its exact outcome density p(beta).

    Shot i draws from ``rngs[i]``. Every round, each pending shot draws one
    candidate's two standard normals and then its accept uniform, in one pass
    over the streams, so a shot's stream sees the same draws as it would
    alone. The round's normals are then scaled by sigma and 0.0 added, which
    is ``normal(0.0, sigma)`` of the same draws, bit for bit; the round's
    candidates get their densities from one ``teleport._outcome_density``
    call on the Hankel matrix of psi, built once per call, whose rows do not
    depend on the batch, and no output state is formed. The target is p(beta)
    itself, not the squared norm of the truncated output, so mass above the
    cutoff is accepted where it lies. The envelope's majorant bounds the
    density with its middle sum truncated at the cutoff, not p(beta), so a
    candidate whose density passes its cap raises ``EnvelopeError`` rather
    than being clipped. The proposal makes (1-q^2)|beta|^2 a chi-square
    variable with two degrees of freedom, so a candidate reaches the far
    tail where the density underflows (exponent 690) with probability e^-345.
    """
    # the proposal is the envelope: variance 1/(2c) per component, c its rate
    sigma = math.sqrt(1.0 / (2.0 * _envelope_rate(q)))
    hankel = _binomial_hankel(unit_state.amplitudes)
    betas = np.empty(len(rngs), dtype=complex)
    densities = np.empty(len(rngs))
    pending = np.arange(len(rngs))
    for _ in range(_MAX_REJECTION_DRAWS):
        # one pass over the streams: each draws its candidate, then its accept uniform
        normals = np.empty((pending.size, 2))
        uniforms = np.empty(pending.size)
        for row, i in enumerate(pending.tolist()):
            rng = rngs[i]
            rng.standard_normal(out=normals[row])
            uniforms[row] = rng.random()
        # normal(0.0, sigma) is 0.0 + sigma z of the same z; the + 0.0 makes -0.0 +0.0
        normals *= sigma
        normals += 0.0
        candidates = normals.view(complex).ravel()
        targets = _outcome_density(q, candidates, hankel)
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
        densities[pending[accept]] = targets[accept]
        pending = pending[~accept]
        if not pending.size:
            return betas, densities
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
        expected = 0.0
        for start in range(0, config.shots, _CHUNK):
            stop = min(start + _CHUNK, config.shots)
            keys = _stream_keys(config.master_seed, np.arange(start, stop))
            rngs = [_shot_generator(key) for key in keys]
            betas[start:stop], densities = _rejection_sample(state, q, bound, rngs)
            # the accepted outputs, in one call whose rows do not depend on the batch
            weights = np.abs(_transfer_apply(q, betas[start:stop], state.amplitudes)) ** 2
            tails = _missing_mass(weights, densities)
            # a tail is positive only where the density is
            expected += float(np.sum(tails[tails > 0.0] / densities[tails > 0.0]))
            # each stream's next uniform, after its accepted candidate, draws the count
            u = np.array([rng.random() for rng in rngs])
            counts[start:stop] = _draw_counts(lambda: weights.T, tails, u)
        expected /= config.shots
        if expected > TAIL_MASS_THRESHOLD:
            observed = np.count_nonzero(counts == OVERFLOW_COUNT) / config.shots
            warnings.warn(
                f"rejection sampler: expected overflow share {expected:.4g} exceeds "
                f"{TAIL_MASS_THRESHOLD:g} at n_max={state.n_max} (observed {observed:.4g} "
                f"of {config.shots} shots); increase n_max",
                TruncationWarning,
                stacklevel=2,
            )
    return ShotRunResult(master_seed=config.master_seed, betas=betas, photon_counts=counts)
