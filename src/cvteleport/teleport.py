"""Teleportation transfer operator and its closed forms.

The protocol teleports an unknown single-mode state through a two-mode
squeezed resource parameterized by q in [0, 1): the resource is
sqrt(1-q^2) sum_n q^n |n,n>, the joint field measurement projects onto the
displaced eigenstate (1/sqrt(pi)) sum_n D_A(beta)|n,n>, and the receiver
displaces by the measured beta. The whole conditional map is the transfer
operator

    T_q(beta) = sqrt((1-q^2)/pi) D(beta) q^{n} D(-beta),

which is hermitian and, at beta = 0, exactly diagonal. For a single-photon
input the output has a closed form (a displaced two-term superposition) and
the measurement-outcome density over beta is

    P_q(beta) = ((1-q^2)/pi) e^{-(1-q^2)|beta|^2} ((1-q^2)^2 |beta|^2 + q^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TruncationWarning
from .fock import (
    FockCutoff,
    ModeOperator,
    MultiModeState,
    StateVector,
    annihilation_matrix,
    as_cutoff,
    displacement_matrix,
    displacement_stack,
)

__all__ = [
    "EntanglementParam",
    "MeasurementOutcome",
    "as_entanglement",
    "as_outcome",
    "epr_state",
    "measurement_eigenstate",
    "measurement_eigenstate_defect",
    "transfer_operator",
    "teleport_output",
    "single_photon_output_closed_form",
    "single_photon_beta_density",
    "beta_density",
    "end_to_end_projection",
    "DENSITY_UNDERFLOW_EXPONENT",
]

# e^{-(1-q^2)|beta|^2} < 1e-300 marks the density as an exact 0 (see
# beta_density); 300*ln(10) in the exponent.
DENSITY_UNDERFLOW_EXPONENT = 300.0 * math.log(10.0)

# EPR norm defect q^{2(n_max+1)} above which projection paths emit a
# truncation diagnostic.
_EPR_DEFECT_THRESHOLD = 1e-8

# matrices per displacement or T_q stack (see _transfer_stack); bounds their peak memory
_STACK_BLOCK = 16


@dataclass(frozen=True)
class EntanglementParam:
    """Two-mode squeezing parameter q; q = 0 is classical, q -> 1 ideal."""

    q: float

    def __post_init__(self) -> None:
        q = float(self.q)
        if not 0.0 <= q < 1.0:
            raise ValueError(f"q must lie in [0, 1), got {q!r}")
        object.__setattr__(self, "q", q)


def as_entanglement(q: EntanglementParam | float) -> EntanglementParam:
    return q if isinstance(q, EntanglementParam) else EntanglementParam(float(q))


@dataclass(frozen=True)
class MeasurementOutcome:
    """Joint quadrature measurement record: beta = x_minus + i*y_plus."""

    x_minus: float
    y_plus: float

    @property
    def beta(self) -> complex:
        return complex(self.x_minus, self.y_plus)

    @classmethod
    def from_complex(cls, beta: complex) -> "MeasurementOutcome":
        beta = complex(beta)
        return cls(beta.real, beta.imag)


def as_outcome(beta: MeasurementOutcome | complex) -> MeasurementOutcome:
    if isinstance(beta, MeasurementOutcome):
        return beta
    return MeasurementOutcome.from_complex(complex(beta))


def epr_state(q: EntanglementParam | float, cutoff: FockCutoff | int) -> MultiModeState:
    """Two-mode squeezed resource sqrt(1-q^2) sum q^n |n,n> over modes R, B.

    The truncated norm^2 is (1-q^2) sum_{n<=n_max} q^{2n} = 1 - q^{2(n_max+1)},
    approaching 1 from below as the cutoff grows; no renormalization.
    """
    q = as_entanglement(q).q
    cutoff = as_cutoff(cutoff)
    coeff = math.sqrt(1.0 - q * q) * q ** np.arange(cutoff.dim)
    tensor = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    np.fill_diagonal(tensor, coeff)
    return MultiModeState(("R", "B"), tensor, cutoff)


def measurement_eigenstate(
    beta: MeasurementOutcome | complex, cutoff: FockCutoff | int
) -> MultiModeState:
    """Joint eigenstate (1/sqrt(pi)) sum_n D_A(beta)|n,n> over modes A, R.

    Unnormalizable by design (delta-normalized over outcomes); the tensor is
    (1/sqrt(pi)) times the displacement matrix laid out on axes (A, R).
    """
    beta = as_outcome(beta).beta
    cutoff = as_cutoff(cutoff)
    disp = displacement_matrix(beta, cutoff).matrix
    return MultiModeState(("A", "R"), disp / math.sqrt(math.pi), cutoff)


def measurement_eigenstate_defect(
    beta: MeasurementOutcome | complex, cutoff: FockCutoff | int
) -> tuple[float, float]:
    """Residuals of the defining eigenvalue equations for the eigenstate.

    With x = (a + a^dag)/2 and y = (a - a^dag)/(2i), the state |beta> on
    modes (A, R) satisfies (x_A - x_R)|beta> = Re(beta)|beta> and
    (y_A + y_R)|beta> = Im(beta)|beta> exactly in the untruncated space.
    Returns the max-norm residuals of both equations restricted to the
    leading half block, where truncation effects from the raising operators
    cannot reach.
    """
    out = as_outcome(beta)
    cutoff = as_cutoff(cutoff)
    a = annihilation_matrix(cutoff).matrix
    ad = a.conj().T
    x = (a + ad) / 2.0
    y = (a - ad) / 2.0j
    psi = measurement_eigenstate(out, cutoff).amplitudes
    x_res = x @ psi - psi @ x.T - out.x_minus * psi  # (x_A - x_R) psi
    y_res = y @ psi + psi @ y.T - out.y_plus * psi  # (y_A + y_R) psi
    half = cutoff.dim // 2
    return (
        float(np.max(np.abs(x_res[:half, :half]))),
        float(np.max(np.abs(y_res[:half, :half]))),
    )


def transfer_operator(
    q: EntanglementParam | float,
    beta: MeasurementOutcome | complex,
    cutoff: FockCutoff | int,
) -> ModeOperator:
    """T_q(beta) = sqrt((1-q^2)/pi) D(beta) diag(q^n) D(-beta).

    Hermitian by construction (D(-beta) is the exact conjugate transpose of
    D(beta) in this implementation); at beta = 0 the matrix is exactly
    diagonal with entries sqrt((1-q^2)/pi) q^n.
    """
    q = as_entanglement(q).q
    beta = as_outcome(beta).beta
    return ModeOperator(_transfer_stack(q, [beta], cutoff)[0], cutoff)


def _transfer_stack(q: float, betas, cutoff: FockCutoff | int) -> np.ndarray:
    """Matrices of T_q(beta) for a 1-D batch of betas, shape (B, dim, dim)."""
    cutoff = as_cutoff(cutoff)
    pref = math.sqrt((1.0 - q * q) / math.pi)
    weights = q ** np.arange(cutoff.dim)
    disp = displacement_stack(betas, cutoff)
    return pref * ((disp * weights) @ disp.conj().transpose(0, 2, 1))


def teleport_output(
    input_state: StateVector,
    q: EntanglementParam | float,
    beta: MeasurementOutcome | complex,
) -> StateVector:
    """Unnormalized conditional output T_q(beta) |input>.

    The squared norm of the result is the outcome density at beta.
    """
    op = transfer_operator(q, beta, input_state.cutoff)
    return op.apply(input_state)


def single_photon_output_closed_form(
    q: EntanglementParam | float,
    beta: MeasurementOutcome | complex,
    cutoff: FockCutoff | int,
) -> StateVector:
    """Closed form of T_q(beta)|1>: a displaced two-term superposition.

    sqrt((1-q^2)/pi) e^{-(1-q^2)|beta|^2/2} D((1-q) beta)
        ((1-q^2) conj(beta) |0> + q |1>).
    """
    q = as_entanglement(q).q
    beta = as_outcome(beta).beta
    cutoff = as_cutoff(cutoff)
    a = 1.0 - q * q
    pref = math.sqrt(a / math.pi) * math.exp(-0.5 * a * abs(beta) ** 2)
    core = np.zeros(cutoff.dim, dtype=complex)
    core[0] = a * np.conj(beta)
    core[1] = q
    disp = displacement_matrix((1.0 - q) * beta, cutoff)
    return StateVector(pref * (disp.matrix @ core), cutoff)


def single_photon_beta_density(
    q: EntanglementParam | float, beta: MeasurementOutcome | complex
) -> float:
    """Outcome density for the single-photon input, evaluated in closed form."""
    q = as_entanglement(q).q
    beta = as_outcome(beta).beta
    a = 1.0 - q * q
    t = abs(beta) ** 2
    if a * t > DENSITY_UNDERFLOW_EXPONENT:
        warnings.warn(
            f"beta density underflows at |beta|^2 = {t:.4g} for q = {q:g}; returning 0",
            TruncationWarning,
            stacklevel=2,
        )
        return 0.0
    return (a / math.pi) * math.exp(-a * t) * (a * a * t + q * q)


def _is_single_photon(state: StateVector) -> bool:
    amps = state.amplitudes
    return amps[1] == 1.0 and not np.any(amps[:1]) and not np.any(amps[2:])


def beta_density(
    input_state: StateVector,
    q: EntanglementParam | float,
    beta: MeasurementOutcome | complex,
) -> float:
    """Probability density of measuring beta for a normalized input.

    Generic path: squared norm of the conditional output. For the exact
    single-photon basis input the closed form is used instead. Densities in
    the far Gaussian tail (e^{-(1-q^2)|beta|^2} < 1e-300) are reported as
    exactly 0 with a diagnostic rather than relying on subnormal arithmetic.
    """
    qv = as_entanglement(q).q
    betac = as_outcome(beta).beta
    if _is_single_photon(input_state):
        return single_photon_beta_density(qv, betac)
    a = 1.0 - qv * qv
    if a * abs(betac) ** 2 > DENSITY_UNDERFLOW_EXPONENT:
        warnings.warn(
            f"beta density underflows at |beta|^2 = {abs(betac)**2:.4g} for q = {qv:g}; returning 0",
            TruncationWarning,
            stacklevel=2,
        )
        return 0.0
    return teleport_output(input_state, qv, betac).norm_sq()


def end_to_end_projection(
    input_state: StateVector,
    q: EntanglementParam | float,
    beta: MeasurementOutcome | complex,
) -> StateVector:
    """Route the teleportation literally instead of via the transfer operator.

    Builds the three-mode product state (input on A) x (resource on R, B),
    contracts the conjugated measurement eigenstate over modes A and R, and
    applies the receiver displacement D_B(beta), all at the input's cutoff.
    Exists as the independent cross-check of the transfer-operator route;
    the two agree to rounding at any shared cutoff.
    """
    qv = as_entanglement(q).q
    betac = as_outcome(beta).beta
    cutoff = input_state.cutoff
    defect = qv ** (2 * (cutoff.n_max + 1))
    if defect > _EPR_DEFECT_THRESHOLD:
        warnings.warn(
            f"EPR norm defect q^(2(n_max+1)) = {defect:.3e} at n_max={cutoff.n_max}; "
            "projection is under-resolved",
            TruncationWarning,
            stacklevel=2,
        )

    resource = epr_state(qv, cutoff)
    # full tensor: Psi[a, r, b] = input[a] * resource[r, b]
    psi = np.tensordot(input_state.amplitudes, resource.amplitudes, axes=0)
    eig = measurement_eigenstate(betac, cutoff).amplitudes
    projected = np.einsum("ar,arb->b", eig.conj(), psi)
    disp_b = displacement_matrix(betac, cutoff).matrix
    return StateVector(disp_b @ projected, cutoff)
