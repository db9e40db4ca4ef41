"""Truncated Fock-space primitives: states, operators, and displacement.

Everything in the package works in a photon-number basis truncated at a
cutoff ``n_max`` (dimension ``n_max + 1``). Single-mode states are plain
complex amplitude vectors, multimode states are labelled tensors, and
operators are dense matrices.

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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import (
    CutoffMismatchError,
    CutoffViolationError,
    ModeLabelError,
    TruncationError,
    TruncationWarning,
    ZeroNormError,
)

__all__ = [
    "FockCutoff",
    "StateVector",
    "ModeOperator",
    "MultiModeState",
    "as_cutoff",
    "number_state",
    "coherent_state",
    "displacement_matrix",
    "displacement_stack",
    "annihilation_matrix",
    "identity_operator",
    "tensor_product",
    "apply_to_mode",
    "inner_product",
    "fidelity",
    "TAIL_MASS_THRESHOLD",
]

# Relative amplitude-squared at the top level above which operations emit a
# truncation diagnostic. Non-fatal: callers near the cutoff see a warning,
# not an error.
TAIL_MASS_THRESHOLD = 1e-9


@dataclass(frozen=True)
class FockCutoff:
    """Photon-number truncation level; the space spans |0> .. |n_max>."""

    n_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise CutoffViolationError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def check_level(self, n: int) -> None:
        if not 0 <= n <= self.n_max:
            raise CutoffViolationError(f"level {n} outside [0, {self.n_max}]")


def as_cutoff(cutoff: FockCutoff | int) -> FockCutoff:
    return cutoff if isinstance(cutoff, FockCutoff) else FockCutoff(int(cutoff))


def _require_same_cutoff(a: FockCutoff, b: FockCutoff) -> None:
    if a != b:
        raise CutoffMismatchError(f"cutoff mismatch: n_max {a.n_max} vs {b.n_max}")


class StateVector:
    """Single-mode state: complex amplitudes over levels 0..n_max.

    ``normalized`` records intent; when True the constructor checks the norm
    to 1e-12. Amplitude arrays are copied and frozen so states are
    value-like.
    """

    __slots__ = ("amplitudes", "cutoff", "normalized")

    def __init__(self, amplitudes: np.ndarray, cutoff: FockCutoff | int, normalized: bool = False):
        cutoff = as_cutoff(cutoff)
        amps = np.asarray(amplitudes, dtype=complex).copy()
        if amps.shape != (cutoff.dim,):
            raise CutoffViolationError(
                f"amplitude vector of shape {amps.shape} does not match dim {cutoff.dim}"
            )
        if normalized and abs(np.vdot(amps, amps).real - 1.0) > 1e-12:
            raise ZeroNormError(
                f"norm^2 = {np.vdot(amps, amps).real!r} but state was declared normalized"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "normalized", bool(normalized))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("StateVector is immutable")

    @property
    def n_max(self) -> int:
        return self.cutoff.n_max

    @property
    def dim(self) -> int:
        return self.cutoff.dim

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
        return StateVector(self.amplitudes / np.sqrt(n2), self.cutoff, normalized=True)

    def __repr__(self) -> str:
        return f"StateVector(n_max={self.n_max}, norm_sq={self.norm_sq():.6g})"


def _as_unit(state: StateVector) -> StateVector:
    return state if abs(state.norm_sq() - 1.0) <= 1e-12 else state.unit()


def _warn_if_tail_heavy(state: StateVector, where: str) -> StateVector:
    if state.tail_mass() > TAIL_MASS_THRESHOLD:
        warnings.warn(
            f"{where}: relative tail mass {state.tail_mass():.3e} exceeds "
            f"{TAIL_MASS_THRESHOLD:g}; increase n_max",
            TruncationWarning,
            stacklevel=3,
        )
    return state


def number_state(n: int, cutoff: FockCutoff | int) -> StateVector:
    """Basis state |n>."""
    cutoff = as_cutoff(cutoff)
    cutoff.check_level(n)
    amps = np.zeros(cutoff.dim, dtype=complex)
    amps[n] = 1.0
    return StateVector(amps, cutoff, normalized=True)


def coherent_state(
    alpha: complex,
    cutoff: FockCutoff | int,
    tail_tol: float = TAIL_MASS_THRESHOLD,
) -> StateVector:
    """Truncated coherent state with amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    The exact Poisson mass above the cutoff is checked against ``tail_tol``;
    exceeding it raises TruncationError because the requested state simply
    does not fit in the space.
    """
    cutoff = as_cutoff(cutoff)
    alpha = complex(alpha)
    n = np.arange(cutoff.dim)
    x = abs(alpha) ** 2
    if alpha == 0:
        amps = np.zeros(cutoff.dim, dtype=complex)
        amps[0] = 1.0
        return StateVector(amps, cutoff, normalized=True)
    # log-domain magnitudes; phase applied as a unit complex power
    logmag = -0.5 * x + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1)
    phase = np.concatenate(([1.0 + 0j], np.cumprod(np.full(cutoff.n_max, alpha / abs(alpha)))))
    amps = np.exp(logmag) * phase
    # regularized lower incomplete gamma = Poisson mass strictly above n_max
    tail = float(gammainc(cutoff.n_max + 1, x))
    if tail > tail_tol:
        raise TruncationError(
            f"coherent state |alpha|={abs(alpha):.4g} leaves mass {tail:.3e} above "
            f"n_max={cutoff.n_max} (tolerance {tail_tol:g})"
        )
    return StateVector(amps, cutoff, normalized=False)


class ModeOperator:
    """Dense single-mode operator over the truncated space."""

    __slots__ = ("matrix", "cutoff")

    def __init__(self, matrix: np.ndarray, cutoff: FockCutoff | int):
        cutoff = as_cutoff(cutoff)
        mat = np.asarray(matrix, dtype=complex).copy()
        if mat.shape != (cutoff.dim, cutoff.dim):
            raise CutoffViolationError(
                f"matrix of shape {mat.shape} does not match dim {cutoff.dim}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "cutoff", cutoff)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ModeOperator is immutable")

    def dagger(self) -> "ModeOperator":
        return ModeOperator(self.matrix.conj().T, self.cutoff)

    def apply(self, state: StateVector) -> StateVector:
        _require_same_cutoff(self.cutoff, state.cutoff)
        out = StateVector(self.matrix @ state.amplitudes, self.cutoff)
        return _warn_if_tail_heavy(out, "ModeOperator.apply")

    def compose(self, other: "ModeOperator") -> "ModeOperator":
        _require_same_cutoff(self.cutoff, other.cutoff)
        return ModeOperator(self.matrix @ other.matrix, self.cutoff)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


def identity_operator(cutoff: FockCutoff | int) -> ModeOperator:
    cutoff = as_cutoff(cutoff)
    return ModeOperator(np.eye(cutoff.dim, dtype=complex), cutoff)


def annihilation_matrix(cutoff: FockCutoff | int) -> ModeOperator:
    """Lowering operator a with a|n> = sqrt(n)|n-1>."""
    cutoff = as_cutoff(cutoff)
    mat = np.diag(np.sqrt(np.arange(1, cutoff.dim, dtype=float)), k=1)
    return ModeOperator(mat, cutoff)


@functools.lru_cache(maxsize=None)
def _triangle(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (j, k) with j + k < dim and their 0.5 (ln j! - ln (j+k)!)."""
    j, k = np.nonzero(np.add.outer(np.arange(dim), np.arange(dim)) < dim)
    lg = gammaln(np.arange(dim) + 1.0)
    half_log_ratio = 0.5 * (lg[j] - lg[j + k])
    for arr in (j, k, half_log_ratio):
        arr.setflags(write=False)
    return j, k, half_log_ratio


def displacement_stack(alphas, cutoff: FockCutoff | int) -> np.ndarray:
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
    cutoff = as_cutoff(cutoff)
    dim = cutoff.dim
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


def displacement_matrix(alpha: complex, cutoff: FockCutoff | int) -> ModeOperator:
    """The displacement operator D(alpha); one row of ``displacement_stack``."""
    return ModeOperator(displacement_stack([alpha], cutoff)[0], cutoff)


class MultiModeState:
    """Tensor state over named modes; axis order follows ``labels``."""

    __slots__ = ("labels", "amplitudes", "cutoff")

    def __init__(self, labels: tuple[str, ...], amplitudes: np.ndarray, cutoff: FockCutoff | int):
        cutoff = as_cutoff(cutoff)
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ModeLabelError(f"duplicate mode labels in {labels}")
        amps = np.asarray(amplitudes, dtype=complex).copy()
        if amps.shape != (cutoff.dim,) * len(labels):
            raise CutoffViolationError(
                f"tensor of shape {amps.shape} does not match labels {labels} at dim {cutoff.dim}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "cutoff", cutoff)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MultiModeState is immutable")

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ModeLabelError(f"unknown mode {label!r}; have {self.labels}") from None

    def norm_sq(self) -> float:
        flat = self.amplitudes.ravel()
        return float(np.vdot(flat, flat).real)


def tensor_product(factors: list[tuple[str, StateVector]]) -> MultiModeState:
    """Combine labelled single-mode states into one multimode tensor."""
    if not factors:
        raise ModeLabelError("tensor_product needs at least one factor")
    labels = tuple(label for label, _ in factors)
    if len(set(labels)) != len(labels):
        raise ModeLabelError(f"duplicate mode labels in {labels}")
    cutoff = factors[0][1].cutoff
    tensor = factors[0][1].amplitudes
    for _, state in factors[1:]:
        _require_same_cutoff(cutoff, state.cutoff)
        tensor = np.tensordot(tensor, state.amplitudes, axes=0)
    return MultiModeState(labels, tensor, cutoff)


def apply_to_mode(op: ModeOperator, label: str, state: MultiModeState) -> MultiModeState:
    """Apply a single-mode operator to one labelled mode of a tensor state."""
    _require_same_cutoff(op.cutoff, state.cutoff)
    ax = state.axis(label)
    moved = np.moveaxis(state.amplitudes, ax, 0)
    out = np.tensordot(op.matrix, moved, axes=([1], [0]))
    out = np.moveaxis(out, 0, ax)
    return MultiModeState(state.labels, out, state.cutoff)


def inner_product(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket> with the conjugation on the first argument."""
    _require_same_cutoff(bra.cutoff, ket.cutoff)
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 normalized by both norms."""
    na, nb = a.norm_sq(), b.norm_sq()
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("fidelity of a zero state is undefined")
    return float(abs(inner_product(a, b)) ** 2 / (na * nb))
