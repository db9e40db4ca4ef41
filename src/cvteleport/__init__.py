"""Truncated Fock-space simulator for continuous-variable teleportation
of single-photon and polarization-encoded states."""

from .errors import (
    CutoffViolationError,
    EnvelopeError,
    GridMismatchError,
    NoCrossingError,
    TruncationError,
    TruncationWarning,
    ZeroNormError,
)
from .fock import (
    StateVector,
    coherent_state,
    displacement_matrix,
    displacement_stack,
    number_state,
)
from .polarization import (
    PolarizationOutcomeBudget,
    polarization_budget,
    polarization_budget_numerical,
    polarized_output,
)
from .sampler import (
    OVERFLOW_COUNT,
    SamplerConfig,
    ShotRecord,
    ShotRunResult,
    run_shots,
)
from .statistics import (
    LossGainSplit,
    PhotonDistribution,
    conditional_beta_density,
    crossing_radius,
    loss_gain_split,
    photon_statistics_closed_form,
    photon_statistics_quadrature,
    squeezing_db_to_q,
    sweep_q,
)
from .tables import OutputTable
from .teleport import (
    beta_density,
    end_to_end_projection,
    epr_state,
    measurement_eigenstate,
    single_photon_beta_density,
    single_photon_output_closed_form,
    teleport_output,
    transfer_operator,
)

__version__ = "0.1.0"
