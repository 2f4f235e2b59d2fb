"""Agent-based simulator of multi-municipality metropolitan economies.

Citizens, families, firms and municipalities interact monthly; five
taxes are collected and redistributed under four alternative policies; the
outcome variable is each municipality's Quality of Life Index, with an OLS
layer comparing the policies across a batch of synthetic regions.
"""
from .analytics import (
    FitResult,
    Observation,
    best_case,
    build_dataset,
    design_matrix,
    fit_model,
    normalize_qli,
    ols_fit,
    validation_report,
)
from .config import ScenarioConfig, default_config, parse_config, serialize_config
from .demographics import VitalRates, apply_fertility, apply_mortality, step_ages
from .economy import MarketParams
from .engine import RunResult, ScenarioResult, batch_tasks, run_batch, run_scenario
from .errors import (
    ConfigError,
    InvariantViolation,
    MetrosimError,
    ParseError,
    ValidationError,
)
from .fiscal import (
    ChannelWeights,
    DistributionPolicy,
    MpfTable,
    TaxKind,
    TaxLedger,
    TaxRates,
    distribute,
    equal_shares,
    invest,
    mpf_shares,
    policy_for_case,
)
from .housing import HousingParams
from .state import SimulationState
from .worldgen import (
    MunicipalitySpec,
    RegionSpec,
    WorldConfig,
    default_apc_batch,
    generate_region,
    instantiate_world,
    load_region,
    save_region,
)

__version__ = "1.0.0"

__all__ = [
    "HousingParams", "MarketParams",
    "MunicipalitySpec", "RegionSpec", "SimulationState", "WorldConfig",
    "TaxKind", "TaxLedger", "TaxRates",
    "ChannelWeights", "DistributionPolicy", "MpfTable",
    "policy_for_case", "equal_shares", "mpf_shares", "distribute", "invest",
    "step_ages", "apply_mortality", "apply_fertility",
    "VitalRates", "generate_region", "load_region", "save_region",
    "instantiate_world", "default_apc_batch",
    "ScenarioConfig", "parse_config", "serialize_config", "default_config",
    "RunResult", "ScenarioResult", "run_scenario", "run_batch", "batch_tasks",
    "Observation", "FitResult", "normalize_qli", "best_case", "build_dataset",
    "design_matrix", "ols_fit", "fit_model", "validation_report",
    "MetrosimError", "ParseError", "ValidationError", "ConfigError", "InvariantViolation",
    "__version__",
]
