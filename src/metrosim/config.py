"""Scenario configuration: one JSON file drives a whole experiment.

Every module's parameters appear under a named section with documented
defaults; unknown keys are rejected (or downgraded to warnings), type errors
name the full key path, and parse -> serialize -> parse is a fixpoint.
"""
from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field, fields
from typing import Any

from .economy import MarketParams
from .errors import ConfigError, ValidationError, count, finite, number
from .fiscal import CASES, TaxRates
from .housing import HousingParams
from .worldgen import WorldConfig

log = logging.getLogger(__name__)

REGION_MODES = ("generate", "file", "default-batch")


@dataclass
class RegionSource:
    """Where the region comes from: drawn, loaded, or the shipped batch."""

    mode: str = "default-batch"
    path: str | None = None  # mode == "file"
    n_municipalities: int = 4  # mode == "generate"
    total_population: int = 50_000
    skew: float = 1.2

    def validate(self) -> None:
        if self.mode not in REGION_MODES:
            raise ConfigError(f"region.mode must be one of {REGION_MODES}, got {self.mode!r}")
        if self.mode == "file" and not self.path:
            raise ConfigError("region.mode 'file' requires region.path")


@dataclass
class FiscalConfig:
    case_id: int = 1
    qli_unit_cost: float = 50.0
    mpf_table_file: str | None = None
    freeze_mpf_shares: bool = False  # freeze equal/bracket shares at month-0 populations
    profit_tax_cadence_months: int = 3

    def validate(self) -> None:
        if self.case_id not in CASES:
            raise ConfigError(f"fiscal.case_id must be one of {CASES}, got {self.case_id}")
        if self.qli_unit_cost <= 0:
            raise ConfigError("fiscal.qli_unit_cost must be positive")
        if self.profit_tax_cadence_months < 1:
            raise ConfigError("fiscal.profit_tax_cadence_months must be >= 1")


@dataclass
class EngineConfig:
    horizon_months: int = 240  # 20 years; use 252 for the inclusive end-year reading
    seed: int = 0
    runs_per_scenario: int = 3
    reinstantiate_per_run: bool = True  # False reuses one world draw for all runs

    def validate(self) -> None:
        if self.horizon_months < 1:
            raise ConfigError("engine.horizon_months must be >= 1")
        if self.runs_per_scenario < 1:
            raise ConfigError("engine.runs_per_scenario must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"engine.seed must be >= 0, got {self.seed}")


@dataclass
class ScenarioConfig:
    region: RegionSource = field(default_factory=RegionSource)
    world: WorldConfig = field(default_factory=WorldConfig)
    market: MarketParams = field(default_factory=MarketParams)
    housing: HousingParams = field(default_factory=HousingParams)
    tax_rates: TaxRates = field(default_factory=TaxRates)
    fiscal: FiscalConfig = field(default_factory=FiscalConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)

    def validate(self) -> None:
        self.region.validate()
        self.world.validate()
        self.market.validate()
        self.housing.validate()
        self.tax_rates.validate()
        self.fiscal.validate()
        self.engine.validate()


_SECTIONS: dict[str, type] = {
    "region": RegionSource,
    "world": WorldConfig,
    "market": MarketParams,
    "housing": HousingParams,
    "tax_rates": TaxRates,
    "fiscal": FiscalConfig,
    "engine": EngineConfig,
}


def _coerce(value: Any, target, path: str):
    """Check/convert one JSON value against a dataclass field annotation."""
    if target in ("int", int):
        return count(value, path)
    if target in ("float", float):
        return number(value, path)
    if target in ("bool", bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value
    if target in ("str", str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string, got {value!r}")
        return value
    if isinstance(target, str) and target.startswith("str | None"):
        if value is None or isinstance(value, str):
            return value
        raise ConfigError(f"{path}: expected string or null, got {value!r}")
    if isinstance(target, str) and target.startswith("tuple[float, float]"):
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
        ):
            raise ConfigError(f"{path}: expected a pair of numbers, got {value!r}")
        return (finite(value[0], path), finite(value[1], path))
    if isinstance(target, str) and target.startswith("tuple[float, ...]"):
        if value is None:
            return None
        if not isinstance(value, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
        ):
            raise ConfigError(f"{path}: expected a list of numbers or null, got {value!r}")
        return tuple(finite(v, path) for v in value)
    raise ConfigError(f"{path}: unsupported config field type {target!r}")


def _build_section(cls: type, raw: dict, section: str, strict: bool):
    if not isinstance(raw, dict):
        raise ConfigError(f"{section}: expected an object, got {raw!r}")
    spec = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        path = f"{section}.{key}"
        if key not in spec:
            if strict:
                raise ConfigError(f"unknown config key {path!r}")
            log.warning("ignoring unknown config key %r", path)
            continue
        kwargs[key] = _coerce(value, spec[key].type, path)
    return cls(**kwargs)


def config_from_dict(doc: dict, strict: bool = True) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    sections = {}
    for key, value in doc.items():
        if key not in _SECTIONS:
            if strict:
                raise ConfigError(f"unknown config section {key!r}")
            log.warning("ignoring unknown config section %r", key)
            continue
        sections[key] = _build_section(_SECTIONS[key], value, key, strict)
    cfg = ScenarioConfig(**sections)
    try:
        cfg.validate()
    except ValidationError as exc:  # a section's domain check: re-tag as config problem
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_config(path, strict: bool = True) -> ScenarioConfig:
    """Read a scenario config file; absent keys take the documented defaults."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(doc, strict=strict)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out: dict[str, dict] = {}
    for section, cls in _SECTIONS.items():
        block = getattr(cfg, section)
        raw = {}
        for f in fields(cls):
            value = getattr(block, f.name)
            if isinstance(value, tuple):
                value = list(value)
            raw[f.name] = value
        out[section] = raw
    return out


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical JSON text; parse(serialize(cfg)) reproduces cfg exactly."""
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"


def default_config() -> ScenarioConfig:
    return ScenarioConfig()
