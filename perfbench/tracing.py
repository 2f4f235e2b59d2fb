"""Span tracing of one in-process metrosim command, from outside the package.

Wrappers replace the names the caller looks up. ``metrosim.engine`` binds
``consume``, ``pay_wages``, ``distribute`` and the other phase functions
with ``from .economy import ...`` at import, so the consumption span goes on
``metrosim.engine.consume``: patching ``metrosim.economy.consume`` would
record nothing. Likewise ``metrosim.cli`` binds ``run_batch`` and
``run_scenario`` itself, and reaches the OLS layer as ``analytics.<name>``.

Spans stay in memory as four flat arrays and are written out once the run
ends. A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""
from __future__ import annotations

import importlib
import logging
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _births(args, result, counts):
    counts["demographics.births"] += result


def _deaths(args, result, counts):
    counts["demographics.deaths"] += result


def _labor(args, result, counts):
    # one vacancy per posting firm; each match is one hire
    counts["economy.vacancies"] += len(args[0])
    counts["economy.hires"] += len(result)


def _sales(args, result, counts):
    counts["housing.sales"] += len(result)


# (owner, attribute, span name, observer of (args, result, counts)). The
# cli-side spans that no metric reports on their own are there so that the
# self time of cli.main keeps only the CLI's own work: CSV and the manifest.
FULL_SPANS = (
    ("metrosim.cli", "parse_config", "config.parse_config", None),
    ("metrosim.cli", "default_apc_batch", "worldgen.default_apc_batch", None),
    ("metrosim.cli", "load_region", "worldgen.load_region", None),
    ("metrosim.cli", "batch_tasks", "engine.batch_tasks", None),
    ("metrosim.cli", "run_batch", "engine.run_batch", None),
    ("metrosim.cli", "run_scenario", "engine.run_scenario", None),
    ("metrosim.analytics", "region_qli", "analytics.region_qli", None),
    ("metrosim.analytics", "build_dataset", "analytics.build_dataset", None),
    ("metrosim.analytics", "fit_model", "analytics.fit_model", None),
    ("metrosim.analytics", "format_fit_report", "analytics.format_fit_report", None),
    # engine.run_scenario is what a batch task calls; cli.run_scenario is not a task
    ("metrosim.engine", "run_scenario", "engine.task", None),
    ("metrosim.engine", "instantiate_world", "worldgen.instantiate_world", None),
    ("metrosim.engine", "step_month", "engine.step_month", None),
    ("metrosim.engine", "produce", "economy.produce", None),
    ("metrosim.engine", "step_ages", "demographics.step_ages", None),
    ("metrosim.engine", "mature_qualifications", "demographics.mature_qualifications", None),
    ("metrosim.engine", "apply_mortality", "demographics.apply_mortality", _deaths),
    ("metrosim.engine", "apply_fertility", "demographics.apply_fertility", _births),
    ("metrosim.engine", "consume", "economy.consume", None),
    ("metrosim.engine", "run_labor_market", "economy.run_labor_market", _labor),
    ("metrosim.engine", "run_housing_market", "housing.run_housing_market", _sales),
    ("metrosim.engine", "pay_wages", "economy.pay_wages", None),
    ("metrosim.engine", "collect_property_tax", "housing.collect_property_tax", None),
    ("metrosim.engine", "distribute", "fiscal.distribute", None),
    ("metrosim.engine", "invest", "fiscal.invest", None),
    ("metrosim.state:SimulationState", "populations", "state.populations", None),
    ("metrosim.state:SimulationState", "unemployed_adults", "state.unemployed_adults", None),
    ("metrosim.state:SimulationState", "residences", "state.residences", None),
)

# (owner, attribute, counter name): counted, not timed (~600k calls per apc33 run)
FULL_COUNTERS = (("metrosim.fiscal:TaxLedger", "add", "fiscal.ledger_add_calls"),)

# Batch-boundary timers only: a few hundred calls, cheap enough for the
# runs that the traced run is compared against.
BOUNDARY_SPANS = (
    ("metrosim.cli", "run_batch", "engine.run_batch", None),
    ("metrosim.engine", "run_scenario", "engine.task", None),
)

DEMOGRAPHICS_PASSES = (
    "demographics.step_ages",
    "demographics.mature_qualifications",
    "demographics.apply_mortality",
    "demographics.apply_fertility",
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder plus event counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, observe=None):
        nid = self._intern(name)
        stack, counts = self._stack, self.counts
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result, counts)
            return result

        return traced

    def count(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, name: str, fn, *args):
        return self.wrap(fn, name)(*args)

    @contextmanager
    def patched(self, spans, counters=()):
        """Install wrappers on the caller-side names; restore them on exit."""
        saved = []
        try:
            for owner, attr, name, observe in spans:
                obj = _resolve(owner)
                saved.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, self.wrap(getattr(obj, attr), name, observe))
            for owner, attr, name in counters:
                obj = _resolve(owner)
                saved.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, self.count(getattr(obj, attr), name))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span with this name, in call order."""
        if name not in self._name_ids:
            return np.zeros(0)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return dur[ids == self._name_ids[name]]

    def total(self, name: str) -> float:
        return float(self.durations(name).sum())

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        if name not in self._name_ids:
            return 0.0
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        mine = ids == self._name_ids[name]
        children = np.isin(parents, np.flatnonzero(mine))
        return float(dur[mine].sum() - dur[children].sum())

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


class DepopulationCounter(logging.Handler):
    """Counts the engine's depopulation warnings and keeps them off stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.depopulated = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "depopulated" in record.getMessage():
            self.depopulated += 1


@contextmanager
def captured_engine_log():
    logger = logging.getLogger("metrosim.engine")
    handler = DepopulationCounter()
    saved = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.propagate = saved


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(traced: Tracer, boundary: Tracer, run_batch_jobs2_s: float, jobs: int) -> dict:
    """Per-layer figures from the traced jobs-1 run and the boundary-only runs."""
    c = traced.counts
    step_ms = traced.durations("engine.step_month") * 1e3
    tasks = boundary.durations("engine.task")
    vacancies = c["economy.vacancies"]
    return {
        "worldgen.default_apc_batch_s": (traced.total("worldgen.default_apc_batch"), "s"),
        "worldgen.instantiate_world_s": (traced.total("worldgen.instantiate_world"), "s"),
        "worldgen.instantiate_world_calls": (
            len(traced.durations("worldgen.instantiate_world")), "count"),
        "engine.step_month_self_s": (traced.self_time("engine.step_month"), "s"),
        "engine.step_month_p50_ms": (percentile(step_ms, 50), "ms"),
        "engine.step_month_p95_ms": (percentile(step_ms, 95), "ms"),
        "economy.consume_s": (traced.total("economy.consume"), "s"),
        "economy.pay_wages_s": (traced.total("economy.pay_wages"), "s"),
        "economy.produce_s": (traced.total("economy.produce"), "s"),
        "economy.run_labor_market_s": (traced.total("economy.run_labor_market"), "s"),
        "economy.hires": (c["economy.hires"], "count"),
        "economy.vacancies": (vacancies, "count"),
        "economy.labor_fill_ratio": (
            c["economy.hires"] / vacancies if vacancies else 0.0, "ratio"),
        "housing.collect_property_tax_s": (traced.total("housing.collect_property_tax"), "s"),
        "housing.run_housing_market_s": (traced.total("housing.run_housing_market"), "s"),
        "housing.sales": (c["housing.sales"], "count"),
        "demographics.s": (sum(traced.total(n) for n in DEMOGRAPHICS_PASSES), "s"),
        "demographics.births": (c["demographics.births"], "count"),
        "demographics.deaths": (c["demographics.deaths"], "count"),
        "fiscal.distribute_s": (traced.total("fiscal.distribute"), "s"),
        "fiscal.invest_s": (traced.total("fiscal.invest"), "s"),
        "fiscal.ledger_add_calls": (c["fiscal.ledger_add_calls"], "count"),
        "state.populations_s": (traced.total("state.populations"), "s"),
        "state.unemployed_adults_s": (traced.total("state.unemployed_adults"), "s"),
        "state.residences_s": (traced.total("state.residences"), "s"),
        "engine.run_batch_s": (traced.total("engine.run_batch"), "s"),
        "engine.run_batch_jobs2_s": (run_batch_jobs2_s, "s"),
        "engine.task_p50_s": (percentile(tasks, 50), "s"),
        "engine.task_p90_s": (percentile(tasks, 90), "s"),
        "engine.pool_efficiency": (
            float(tasks.sum()) / (jobs * run_batch_jobs2_s) if run_batch_jobs2_s else 0.0,
            "ratio"),
        "analytics.build_dataset_s": (traced.total("analytics.build_dataset"), "s"),
        "analytics.fit_model_s": (traced.total("analytics.fit_model"), "s"),
        "cli.self_s": (traced.self_time("cli.main"), "s"),
        "engine.run_months": (len(step_ms), "count"),
    }
