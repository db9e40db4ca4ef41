"""Truncated Fock-space primitives: states, operators, and displacement.

Everything in the package works in a photon-number basis truncated at a
cutoff ``n_max``, a plain int >= 1 (dimension ``n_max + 1``). States are
complex amplitude vectors, which carry no measure of their own truncation:
the mass above the cutoff is judged where it is known exactly, against
``TAIL_MASS_THRESHOLD``. Operators are plain read-only (dim, dim) complex arrays.

Displacement matrices have one build. ``_radial_magnitudes`` runs the
two-term associated-Laguerre recurrence once for a whole batch of radii along
diagonals of fixed ``m - n`` and assembles the prefactors in the log domain
over the index triangle, so no factorial ratio is ever formed directly. It
keeps the triangle level-major, one row per triangle entry and one column per
radius, so every step of the build is a contiguous row operation over the
whole batch. ``_radial_displacement_stack`` scatters the transposed rows into
the real D(r), a C-ordered (B, dim, dim) stack. A complex
alpha = r u enters only through the unit-phase powers u^n of ``_polar``, since
<m|D(r u)|n> = u^{m-n} <m|D(r)|n>: the transfer products keep them outside a
real product, and ``displacement_matrix`` puts them on the diagonals of D(r).
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import CutoffViolationError, TruncationError, ZeroNormError

__all__ = [
    "StateVector",
    "number_state",
    "coherent_state",
    "displacement_matrix",
    "TAIL_MASS_THRESHOLD",
]

# Share of a result's exact mass that may lie above the cutoff: past it,
# ``coherent_state`` raises and the teleported outputs warn.
TAIL_MASS_THRESHOLD = 1e-9


def _as_n_max(n_max: int) -> int:
    """The cutoff as an int >= 1; the space spans |0> .. |n_max>."""
    try:
        n_max = operator.index(n_max)
    except TypeError:
        raise CutoffViolationError(f"n_max must be an integer >= 1, got {n_max!r}") from None
    if n_max < 1:
        raise CutoffViolationError(f"n_max must be an integer >= 1, got {n_max!r}")
    return n_max


class StateVector:
    """Single-mode state: finite complex amplitudes over levels 0..n_max.

    The cutoff is the amplitude count minus one. Amplitude arrays are copied
    and frozen so states are value-like: two states are equal when their
    amplitude arrays are (so different cutoffs never compare equal), and
    equal states hash alike.
    """

    __slots__ = ("amplitudes", "n_max")

    def __init__(self, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).copy()
        if amps.ndim != 1:
            raise CutoffViolationError(f"amplitudes must be 1-D, got shape {amps.shape}")
        n_max = _as_n_max(amps.size - 1)
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "n_max", n_max)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("StateVector is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return np.array_equal(self.amplitudes, other.amplitudes)

    def __hash__(self) -> int:
        # equal complex values hash alike, -0.0 and 0.0 included
        return hash(tuple(self.amplitudes.tolist()))

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def unit(self) -> "StateVector":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroNormError("cannot normalize a zero state")
        return StateVector(self.amplitudes / np.sqrt(n2))

    def __repr__(self) -> str:
        return f"StateVector(n_max={self.n_max}, norm_sq={self.norm_sq():.6g})"


def _as_unit(state: StateVector) -> StateVector:
    return state if abs(state.norm_sq() - 1.0) <= 1e-12 else state.unit()


def number_state(n: int, cutoff: int) -> StateVector:
    """Basis state |n>."""
    n_max = _as_n_max(cutoff)
    n = operator.index(n)
    if not 0 <= n <= n_max:
        raise CutoffViolationError(f"level {n} outside [0, {n_max}]")
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[n] = 1.0
    return StateVector(amps)


def coherent_state(alpha: complex, cutoff: int) -> StateVector:
    """Truncated coherent state with amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    The Poisson mass above the cutoff, 1 - ||truncated||^2, is checked
    against ``TAIL_MASS_THRESHOLD``; exceeding it raises TruncationError
    because the requested state simply does not fit in the space.
    """
    n_max = _as_n_max(cutoff)
    alpha = complex(alpha)
    n = np.arange(n_max + 1)
    x = abs(alpha) ** 2
    if alpha == 0:
        return number_state(0, n_max)
    # log-domain magnitudes times the unit-phase powers u^n
    logmag = -0.5 * x + n * np.log(abs(alpha)) - 0.5 * _log_factorials(n_max + 1)
    _, phase = _polar([alpha], n_max + 1)
    state = StateVector(np.exp(logmag) * phase[0])
    # the untruncated state has unit norm, so the rest is the mass above n_max
    tail = 1.0 - state.norm_sq()
    if tail > TAIL_MASS_THRESHOLD:
        raise TruncationError(
            f"coherent state |alpha|={abs(alpha):.4g} leaves mass {tail:.3e} above "
            f"n_max={n_max} (tolerance {TAIL_MASS_THRESHOLD:g})"
        )
    return state


# Cephes lgam's Stirling-series coefficients in 1/x^2, for 13 <= x < 1000 and for x >= 1000
_STIRLING_SERIES = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_STIRLING_SERIES_LARGE = (
    7.9365079365079365079365e-4,
    -2.7777777777777777777778e-3,
    0.0833333333333333333333,
)
_LN_SQRT_2PI = 0.91893853320467274178


def _log_factorial(n: int) -> float:
    """ln n! = ln Gamma(n + 1), rounded the way Cephes ``lgam`` rounds it."""
    if n < 12:
        return math.log(math.factorial(n))
    x = n + 1.0
    p = 1.0 / (x * x)
    series = 0.0
    for coefficient in _STIRLING_SERIES if x < 1000.0 else _STIRLING_SERIES_LARGE:
        series = series * p + coefficient
    return (x - 0.5) * math.log(x) - x + _LN_SQRT_2PI + series / x


@functools.lru_cache(maxsize=None)
def _log_factorials(dim: int) -> np.ndarray:
    """ln n! for n = 0 .. dim-1, read-only; equal to scipy's ``gammaln(n + 1)`` bit for bit."""
    table = np.array([_log_factorial(n) for n in range(dim)])
    table.setflags(write=False)
    return table


class _Triangle(NamedTuple):
    """The index triangle j + k < dim of D(r) and the constants its build reuses.

    Entry i is the element <j+k|D(r)|j> on diagonal k below the main one, and
    its mirror <j|D(r)|j+k> above it; the entries run j-major, so entries
    of degree j hold k = 0 .. dim-1-j. ``sign`` is (-1)^k, and ``ascent``
    and ``lag`` are 2j+1+k and j+k, the coefficients of the Laguerre step
    out of degree j, each as a float column over the entries.
    """

    rows: np.ndarray  # j + k
    cols: np.ndarray  # j
    diagonal: np.ndarray  # k
    half_log_ratio: np.ndarray  # 0.5 (ln j! - ln (j+k)!)
    sign: np.ndarray
    ascent: np.ndarray  # 2j + 1 + k
    lag: np.ndarray  # j + k


@functools.lru_cache(maxsize=None)
def _triangle(dim: int) -> _Triangle:
    """Read-only ``_Triangle`` of dimension ``dim``."""
    j, k = np.nonzero(np.add.outer(np.arange(dim), np.arange(dim)) < dim)
    lg = _log_factorials(dim)
    triangle = _Triangle(
        rows=j + k,
        cols=j,
        diagonal=k,
        half_log_ratio=0.5 * (lg[j] - lg[j + k]),
        sign=np.where(k % 2, -1.0, 1.0)[:, None],
        ascent=(2 * j + 1 + k).astype(float)[:, None],
        lag=(j + k).astype(float)[:, None],
    )
    for arr in triangle:
        arr.setflags(write=False)
    return triangle


def _radial_magnitudes(r: np.ndarray, dim: int) -> np.ndarray:
    """Signed <j+k|D(r)|j> of positive radii r over ``_triangle(dim)``, shape (T, B).

    Row i is triangle entry i, column b is radius r[b]. The element is
    sqrt(j!/(j+k)!) r^k e^{-r^2/2} L_j^{(k)}(r^2): the stable two-term
    recurrence in the Laguerre degree j runs once for the whole batch, over
    the diagonals k < dim - j that degree j still reaches, and multiplies
    each degree's values straight into its block of rows. The prefactor is
    formed from log-gamma differences, so large cutoffs never overflow, and
    in the result array itself, so the result is the only (T, B) array the
    build allocates. Level-major rows keep every step contiguous; each
    element sees the same operations in the same order as in any layout.
    """
    x = r * r
    triangle = _triangle(dim)
    out = np.multiply(triangle.diagonal[:, None], np.log(r))
    out += triangle.half_log_ratio[:, None]
    out -= 0.5 * x
    np.exp(out, out=out)
    # L_prev, L_cur hold L_{j-1}^{(k)}(x_b), L_j^{(k)}(x_b) in row k < dim - j;
    # the step writes L_next and (j+k) L_prev into buffers allocated once
    L_prev = np.zeros((dim, r.size))
    L_cur = np.ones((dim, r.size))  # L_0^{(k)} = 1 for every k
    L_next = np.empty((dim, r.size))
    work = np.empty((dim, r.size))
    start = 0
    for j in range(dim):
        width = dim - j
        out[start : start + width] *= L_cur[:width]
        if width == 1:
            break
        # rows k < width - 1 step to degree j + 1, with the coefficients of their entries
        n = width - 1
        rows = slice(start, start + n)
        start += width
        lagged = np.multiply(triangle.lag[rows], L_prev[:n], out=work[:n])
        step = np.subtract(triangle.ascent[rows], x, out=L_next[:n])
        step *= L_cur[:n]
        step -= lagged
        step /= j + 1
        L_prev, L_cur, L_next = L_cur, L_next, L_prev
    return out


def _polar(alphas, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii |alpha| and unit-phase powers u^n, n < dim, of a 1-D batch of finite alphas.

    Shapes (B,) and (B, dim), with u = 1 at alpha = 0. |alpha| is taken with
    ``np.hypot`` and u componentwise as ``re/r + 1j*(im/r)``, which round
    exactly like Python's ``abs(alpha)`` and ``alpha / r``; the powers are
    cumulative products of u. The one source of unit-phase powers.
    """
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    if not np.isfinite(alphas).all():
        raise ValueError("displacement amplitudes must be finite")
    re, im = alphas.real, alphas.imag
    r = np.hypot(re, im)
    zero = r == 0.0
    safe_r = np.where(zero, 1.0, r)
    phase = np.empty((alphas.size, dim), dtype=complex)
    phase[:, 0] = 1.0
    phase[:, 1:] = np.where(zero, 1.0, re / safe_r + 1j * (im / safe_r))[:, None]
    np.cumprod(phase[:, 1:], axis=1, out=phase[:, 1:])
    return r, phase


# bytes of one (B, dim, dim) batch of real displacement or T_q matrices: 1.25 MiB,
# so a batch and its build's arrays stay near the size of a core's L2 cache
_BATCH_BYTES = 5 << 18


def _batch_size(dim: int) -> int:
    """Real (dim, dim) matrices per batch: as many whole blocks of 32 as
    ``_BATCH_BYTES`` holds, at least one block. At cutoff 32 that is 128,
    more than the 33 radii of ``statistics._photon_transfer_matrix``."""
    return 32 * max(1, _BATCH_BYTES // (32 * 8 * dim * dim))


def _radial_displacement_stack(radii: np.ndarray, cutoff: int) -> np.ndarray:
    """Real matrices <m|D(r)|n> for a 1-D batch of radii r >= 0, shape (B, dim, dim).

    The level-major magnitudes of ``_radial_magnitudes``, transposed, below
    the diagonal, (-1)^(n-m) times them above it, and the identity at r = 0:
    the one scatter of displacement entries, through the cached index and
    sign arrays of ``_triangle``. The two scatters cover every entry, so the
    fresh C-ordered result needs no zero fill.
    """
    dim = _as_n_max(cutoff) + 1
    r = np.asarray(radii, dtype=float).reshape(-1)
    zero = r == 0.0
    triangle = _triangle(dim)
    mag = _radial_magnitudes(np.where(zero, 1.0, r), dim)
    stack = np.empty((r.size, dim, dim))
    stack[:, triangle.rows, triangle.cols] = mag.T
    mag *= triangle.sign
    stack[:, triangle.cols, triangle.rows] = mag.T
    if zero.any():
        stack[zero] = np.eye(dim)
    return stack


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """The displacement operator D(alpha), a read-only (dim, dim) complex array.

    For m >= n the element is sqrt(n!/m!) alpha^{m-n} e^{-|a|^2/2}
    L_n^{(m-n)}(|a|^2); for m < n the same expression applies after swapping
    indices and alpha -> -conj(alpha). With alpha = r u this is the real D(r)
    with u^k on the diagonal m - n = k and conj(u^k) on n - m = k. D(-alpha)
    equals D(alpha)^dagger bit for bit, and alpha = 0 gives exactly the identity.
    Where the Laguerre recurrence overflows, as at |alpha| = 38 and cutoff 400,
    it raises ``TruncationError`` naming |alpha| and the cutoff.
    """
    dim = _as_n_max(cutoff) + 1
    r, phase = _polar([alpha], dim)
    triangle = _triangle(dim)
    with np.errstate(over="ignore", invalid="ignore"):
        real = _radial_displacement_stack(r, cutoff)[0]
    if not np.isfinite(real).all():
        raise TruncationError(
            f"D(alpha) is not finite at |alpha| = {r[0]:.6g} and cutoff {dim - 1}: "
            "its Laguerre recurrence overflows there"
        )
    mat = real.astype(complex)
    mat[triangle.rows, triangle.cols] *= phase[0, triangle.diagonal]
    mat[triangle.cols, triangle.rows] *= phase[0, triangle.diagonal].conj()
    mat.setflags(write=False)
    return mat
