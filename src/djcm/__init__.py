"""Deformed multi-photon Jaynes-Cummings dynamics.

Simulates a two-level atom coupled to one quantized field mode through a
k-photon, intensity-deformed, time-modulated interaction with optional
Kerr and Stark terms, and reports atomic inversion and entropy-squeezing
time series for coherent, squeezed-vacuum and thermal initial fields.
"""

from .errors import (
    ConfigError,
    IntegrationFailureError,
    InvalidNonlinearityError,
    InvalidParameterError,
    NumericalConsistencyError,
    OutputError,
    PhysicsValidationError,
    PresetLookupError,
    SimulationError,
)
from .field_states import (
    PhotonDistribution,
    choose_truncation,
    coherent_distribution,
    squeezed_distribution,
    thermal_distribution,
    thermal_nbar_from_temperature,
)
from .model import ModelParams
from .nonlinearity import Nonlinearity
from .observables import ObservableSeries, atomic_inversion_closed
from .oracle import evolve_ode_oracle, max_amplitude_deviation
from .scenario import (
    ScenarioConfig,
    ScenarioResult,
    available_presets,
    emit,
    iter_scenario,
    measure_revivals,
    parse_config,
    preset,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "IntegrationFailureError",
    "InvalidNonlinearityError",
    "InvalidParameterError",
    "ModelParams",
    "Nonlinearity",
    "NumericalConsistencyError",
    "ObservableSeries",
    "OutputError",
    "PhotonDistribution",
    "PhysicsValidationError",
    "PresetLookupError",
    "ScenarioConfig",
    "ScenarioResult",
    "SimulationError",
    "atomic_inversion_closed",
    "available_presets",
    "choose_truncation",
    "coherent_distribution",
    "emit",
    "evolve_ode_oracle",
    "iter_scenario",
    "max_amplitude_deviation",
    "measure_revivals",
    "parse_config",
    "preset",
    "run_scenario",
    "squeezed_distribution",
    "thermal_distribution",
    "thermal_nbar_from_temperature",
]
