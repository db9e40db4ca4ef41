"""Truncated Fock-space simulator for continuous-variable teleportation
of single-photon and polarization-encoded states."""

from .errors import (
    CutoffMismatchError,
    CutoffViolationError,
    EnvelopeError,
    GridMismatchError,
    ModeLabelError,
    NoCrossingError,
    TruncationError,
    TruncationWarning,
    ZeroNormError,
)
from .fock import (
    FockCutoff,
    ModeOperator,
    MultiModeState,
    StateVector,
    annihilation_matrix,
    apply_to_mode,
    coherent_state,
    displacement_matrix,
    displacement_stack,
    fidelity,
    identity_operator,
    inner_product,
    number_state,
    tensor_product,
)
from .polarization import (
    DualModeMeasurement,
    PolarizationOutcomeBudget,
    polarization_budget,
    polarization_budget_numerical,
    polarized_output,
    two_mode_total_probability,
)
from .sampler import (
    OVERFLOW_COUNT,
    SamplerConfig,
    ShotRecord,
    ShotRunResult,
    category_for_count,
    run_shots,
    sample_photon_count,
)
from .statistics import (
    LossGainSplit,
    PhotonDistribution,
    conditional_beta_density,
    crossing_radius,
    integrate_over_plane,
    loss_gain_split,
    photon_statistics_closed_form,
    photon_statistics_quadrature,
    squeezing_db_to_q,
    sweep_q,
)
from .tables import OutputTable
from .teleport import (
    EntanglementParam,
    MeasurementOutcome,
    beta_density,
    end_to_end_projection,
    epr_state,
    measurement_eigenstate,
    measurement_eigenstate_defect,
    single_photon_beta_density,
    single_photon_output_closed_form,
    teleport_output,
    transfer_operator,
)

__version__ = "0.1.0"
