"""Nonlinear modes of an axially compressed beam.

Periods and orbits of the single-mode cubic oscillator, Floquet stability
of mode pairs, two-mode energy transfer, parameter-regime classification,
stationary profiles, and stability atlases over amplitude/energy grids.
"""

from .duffing import (
    DuffingOrbit,
    EnergyLevel,
    EnergyRegime,
    ModeParams,
    TurningRoots,
    classify_energy,
    constant_orbit,
    duffing_rhs,
    energy_from_initial_amplitude,
    energy_of,
    homoclinic,
    orbit_from_energy,
    period_of,
    turning_roots,
)
from .errors import (
    BeamModesError,
    ConsistencyError,
    DomainError,
    IntegrationError,
    NoCrossingError,
    NumericalQualityError,
    StepLimitError,
)
from .hill import (
    CriterionReport,
    HillProblem,
    MonodromyResult,
    StabilityReport,
    Verdict,
    build_hill,
    classify_stability,
    li_zhang_criterion,
    monodromy,
    negative_coefficient_criterion,
    zhukovskii_criterion,
)
from .integrate import IntegratorConfig, Trajectory, find_zero_crossing, integrate
from .regime import (
    FrequencyRatioClass,
    GammaMembership,
    RegimeReport,
    ResonanceDiagnostics,
    cazenave_limit_classify,
    classify_gamma,
    classify_gamma_value,
    resonance_diagnostics,
    resonance_quartic_scan,
    table_regime,
)
from .special import comparison_bounds, elliptic_k, sigma_constant
from .stationary import StationarySolution, residual_check, stationary_catalog
from .twomode import (
    EnergyChannels,
    SimulationResult,
    TransferReport,
    TwoModeConfig,
    simulate,
    transfer_report,
)
from .atlas import (CSV_HEADER, AtlasCell, SweepSpec, VerdictSource,
                    adaptive_amplitude_sweep, find_thresholds, sweep,
                    verdict_runs, write_cells_csv)

__version__ = "0.1.0"

__all__ = [
    "AtlasCell", "BeamModesError", "CSV_HEADER", "ConsistencyError",
    "CriterionReport",
    "DomainError", "DuffingOrbit", "EnergyChannels", "EnergyLevel",
    "EnergyRegime", "FrequencyRatioClass", "GammaMembership", "HillProblem",
    "IntegrationError", "IntegratorConfig", "ModeParams", "MonodromyResult",
    "NoCrossingError", "NumericalQualityError", "RegimeReport",
    "ResonanceDiagnostics", "SimulationResult",
    "StabilityReport", "StationarySolution", "StepLimitError", "SweepSpec",
    "Trajectory", "TransferReport", "TurningRoots", "TwoModeConfig",
    "Verdict", "VerdictSource", "adaptive_amplitude_sweep", "build_hill",
    "cazenave_limit_classify", "classify_energy", "classify_gamma",
    "classify_gamma_value", "classify_stability", "comparison_bounds",
    "constant_orbit", "duffing_rhs", "elliptic_k",
    "energy_from_initial_amplitude", "energy_of", "find_thresholds",
    "find_zero_crossing", "homoclinic", "integrate",
    "li_zhang_criterion", "monodromy", "negative_coefficient_criterion",
    "orbit_from_energy", "period_of", "residual_check",
    "resonance_diagnostics", "resonance_quartic_scan", "sigma_constant",
    "simulate", "stationary_catalog", "sweep", "table_regime",
    "transfer_report", "turning_roots", "verdict_runs", "write_cells_csv",
    "zhukovskii_criterion",
]
