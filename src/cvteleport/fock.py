"""Truncated Fock-space primitives: states, operators, and displacement.

Everything in the package works in a photon-number basis truncated at a
cutoff ``n_max``, a plain int >= 1 (dimension ``n_max + 1``). States are
complex amplitude vectors; operators are plain read-only (dim, dim)
complex arrays.

Displacement matrices come from one batched kernel, ``displacement_stack``:
the two-term associated-Laguerre recurrence runs once for a whole batch of
alphas along diagonals of fixed ``m - n``, and the prefactors are assembled
in the log domain over the index triangle, so no factorial ratio is ever
formed directly. ``displacement_matrix`` is its batch of one. Every row is
bit-identical to a single build of the same alpha: |alpha| is taken with
``np.hypot`` and the unit phase componentwise as ``re/r + 1j*(im/r)``,
which round exactly like Python's ``abs(alpha)`` and ``alpha / r`` (numpy's
complex ``abs`` and division do not).
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import CutoffViolationError, TruncationError, ZeroNormError

__all__ = [
    "StateVector",
    "number_state",
    "coherent_state",
    "displacement_matrix",
    "displacement_stack",
    "TAIL_MASS_THRESHOLD",
]

# Relative amplitude-squared at the top level above which operations emit a
# truncation diagnostic. Non-fatal: callers near the cutoff see a warning,
# not an error.
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

    Amplitude arrays are copied and frozen so states are value-like.
    """

    __slots__ = ("amplitudes", "n_max")

    def __init__(self, amplitudes: np.ndarray, cutoff: int):
        n_max = _as_n_max(cutoff)
        amps = np.asarray(amplitudes, dtype=complex).copy()
        if amps.shape != (n_max + 1,):
            raise CutoffViolationError(
                f"amplitude vector of shape {amps.shape} does not match dim {n_max + 1}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "n_max", n_max)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("StateVector is immutable")

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def tail_mass(self) -> float:
        """Relative |a_{n_max}|^2, the truncation-quality diagnostic."""
        total = self.norm_sq()
        if total == 0.0:
            return 0.0
        return float(abs(self.amplitudes[-1]) ** 2 / total)

    def unit(self) -> "StateVector":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroNormError("cannot normalize a zero state")
        return StateVector(self.amplitudes / np.sqrt(n2), self.n_max)

    def __repr__(self) -> str:
        return f"StateVector(n_max={self.n_max}, norm_sq={self.norm_sq():.6g})"


def _as_unit(state: StateVector) -> StateVector:
    return state if abs(state.norm_sq() - 1.0) <= 1e-12 else state.unit()


def number_state(n: int, cutoff: int) -> StateVector:
    """Basis state |n>."""
    n_max = _as_n_max(cutoff)
    if not 0 <= n <= n_max:
        raise CutoffViolationError(f"level {n} outside [0, {n_max}]")
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[n] = 1.0
    return StateVector(amps, n_max)


def coherent_state(alpha: complex, cutoff: int) -> StateVector:
    """Truncated coherent state with amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    The exact Poisson mass above the cutoff is checked against
    ``TAIL_MASS_THRESHOLD``; exceeding it raises TruncationError because the
    requested state simply does not fit in the space.
    """
    n_max = _as_n_max(cutoff)
    alpha = complex(alpha)
    n = np.arange(n_max + 1)
    x = abs(alpha) ** 2
    if alpha == 0:
        return number_state(0, n_max)
    # log-domain magnitudes; phase applied as a unit complex power
    logmag = -0.5 * x + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1)
    phase = np.concatenate(([1.0 + 0j], np.cumprod(np.full(n_max, alpha / abs(alpha)))))
    amps = np.exp(logmag) * phase
    # regularized lower incomplete gamma = Poisson mass strictly above n_max
    tail = float(gammainc(n_max + 1, x))
    if tail > TAIL_MASS_THRESHOLD:
        raise TruncationError(
            f"coherent state |alpha|={abs(alpha):.4g} leaves mass {tail:.3e} above "
            f"n_max={n_max} (tolerance {TAIL_MASS_THRESHOLD:g})"
        )
    return StateVector(amps, n_max)


@functools.lru_cache(maxsize=None)
def _triangle(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (j, k) with j + k < dim and their 0.5 (ln j! - ln (j+k)!)."""
    j, k = np.nonzero(np.add.outer(np.arange(dim), np.arange(dim)) < dim)
    lg = gammaln(np.arange(dim) + 1.0)
    half_log_ratio = 0.5 * (lg[j] - lg[j + k])
    for arr in (j, k, half_log_ratio):
        arr.setflags(write=False)
    return j, k, half_log_ratio


def displacement_stack(alphas, cutoff: int) -> np.ndarray:
    """Matrices <m|D(alpha)|n> for a 1-D batch of alphas, shape (B, dim, dim).

    For m >= n the element is sqrt(n!/m!) alpha^{m-n} e^{-|a|^2/2}
    L_n^{(m-n)}(|a|^2); for m < n the same expression applies after swapping
    indices and alpha -> -conj(alpha). The stable two-term recurrence in the
    Laguerre degree j runs once for the whole batch, filling L[b, j, k] for
    the diagonal k = m - n; the sqrt(n!/m!)|alpha|^k prefactor is then formed
    from log-gamma differences over the triangle j + k < dim, so large
    cutoffs never overflow. D(-alpha) equals D(alpha)^dagger bit for bit by
    this construction, and alpha = 0 gives exactly the identity.
    """
    dim = _as_n_max(cutoff) + 1
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    re, im = alphas.real, alphas.imag
    # hypot and the componentwise unit phase round exactly like abs(alpha)
    # and alpha / abs(alpha) on a Python complex
    r = np.hypot(re, im)
    zero = r == 0.0
    r = np.where(zero, 1.0, r)  # alpha = 0 rows become the identity below
    x = r * r
    u = re / r + 1j * (im / r)
    # unit phases u^k and (-conj(u))^k via cumulative products (exact conj symmetry)
    ones = np.ones((alphas.size, 1), dtype=complex)
    steps = (alphas.size, dim - 1)
    lower_phase = np.concatenate((ones, np.cumprod(np.broadcast_to(u[:, None], steps), 1)), 1)
    upper_phase = np.concatenate(
        (ones, np.cumprod(np.broadcast_to(-np.conj(u)[:, None], steps), 1)), 1
    )

    # laguerre[b, j, k] = L_j^{(k)}(x_b), advanced in j for every k and b at once
    degree = np.arange(dim, dtype=float)
    laguerre = np.empty((alphas.size, dim, dim))
    L_prev = np.zeros((alphas.size, dim))
    L_cur = np.ones((alphas.size, dim))  # L_0^{(k)} = 1 for every k
    for j in range(dim):
        laguerre[:, j] = L_cur
        L_next = ((2 * j + 1 + degree - x[:, None]) * L_cur - (j + degree) * L_prev) / (j + 1)
        L_prev, L_cur = L_cur, L_next

    j, k, half_log_ratio = _triangle(dim)
    logmag = half_log_ratio + k * np.log(r)[:, None] - 0.5 * x[:, None]
    mag = np.exp(logmag) * laguerre[:, j, k]
    out = np.zeros((alphas.size, dim, dim), dtype=complex)
    out[:, j + k, j] = mag * lower_phase[:, k]
    out[:, j, j + k] = mag * upper_phase[:, k]
    out[zero] = np.eye(dim)
    return out


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """The displacement operator D(alpha), a read-only (dim, dim) complex
    array; row 0 of ``displacement_stack``."""
    mat = displacement_stack([alpha], cutoff)[0]
    mat.setflags(write=False)
    return mat

