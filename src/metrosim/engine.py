"""Monthly event loop, per-run metric series, and the parallel batch layer.

A month runs the phase functions of ``PHASES`` in order and closes with a
money audit; a violation aborts the run naming the month and the broken
invariant.
"""
from __future__ import annotations

import logging
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import groupby
from statistics import median
from typing import NamedTuple

import numpy as np

from .config import ScenarioConfig
from .demographics import (
    DEFAULT_VITAL_BRACKETS,
    VitalRates,
    apply_fertility,
    apply_mortality,
    mature_qualifications,
    step_ages,
)
from .economy import (
    consume,
    output_per_worker,
    pay_wages,
    produce,
    rank_samples,
    run_labor_market,
    set_price,
    set_wage_and_vacancy,
    settle_profit_tax,
    shopping_budgets,
)
from .errors import InvariantViolation
from .fiscal import (
    TAX_KINDS,
    DistributionPolicy,
    MpfTable,
    TaxEntries,
    TaxKind,
    TaxLedger,
    distribute,
    invest,
    pay_procurement,
    policy_for_case,
    read_mpf_table,
    sequential_sum,
)
from .housing import collect_property_tax, hedonic_prices, run_housing_market, vacancies
from .rng import RngStreams
from .state import SimulationState
from .worldgen import RegionSpec, instantiate_world

log = logging.getLogger(__name__)

CURRENCY_UNIT = 0.01  # smallest money unit the conservation audit resolves


@dataclass(eq=False)
class RunResult:
    """Everything one run records: one entry per month in every series. A
    per-municipality series is an array of month x municipality index, and
    ``inflows`` has the kinds, in ``TAX_KINDS`` order, between the two."""

    apc_id: str
    case_id: int
    seed: int
    municipality_ids: list[str] = field(default_factory=list)
    # per-municipality series
    qli: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    populations: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int64))
    inflows: np.ndarray = field(default_factory=lambda: np.zeros((0, len(TAX_KINDS), 0)))
    # region-wide series
    gdp_value: list[float] = field(default_factory=list)
    gdp_index: list[float] = field(default_factory=list)
    inflation: list[float] = field(default_factory=list)
    unemployment: list[float] = field(default_factory=list)
    avg_workers_per_firm: list[float] = field(default_factory=list)
    avg_firm_profit: list[float] = field(default_factory=list)
    units_consumed: list[float] = field(default_factory=list)
    taxes_by_kind: dict[str, list[float]] = field(default_factory=dict)
    housing_sales: list[int] = field(default_factory=list)

    def __eq__(self, other) -> bool:
        """Equal in every field, the series arrays value by value."""
        if not isinstance(other, RunResult):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in zip(vars(self).values(), vars(other).values())
        )


@dataclass
class _Runtime:
    """The run beside its world: constants derived once from the config and the
    initial world, the run's random streams, and counters kept across months."""

    config: ScenarioConfig
    rng: RngStreams
    policy: DistributionPolicy
    mpf_table: MpfTable
    vital_rates: VitalRates
    # by municipality index, the ids of the firms paid for its public works:
    # its own in id order, or the region's where it has none; firms are fixed
    # (see SimulationState), so this holds all run
    contractors: list[list[int]]
    output_per_worker: np.ndarray  # q**beta by qualification q
    frozen_populations: list[int] | None = None
    money_ops: int = 0  # cumulative count of money-moving events, for audit tolerance
    prev_unit_value: float = math.nan  # last month's mean price paid, for inflation
    depopulated: set[int] = field(default_factory=set)  # municipalities already reported empty


@dataclass
class _Month:
    """What one month's phases hand on to the later phases, its taxes included."""

    ledger: TaxLedger
    gdp_value: float = 0.0
    units_consumed: float = 0.0
    spent_total: float = 0.0
    vacancies: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))  # firm ids
    house_prices: np.ndarray = field(default_factory=lambda: np.zeros(0))  # by house id
    sales: int = 0
    populations: list[int] = field(default_factory=list)  # by municipality index
    collected: dict[TaxKind, float] = field(default_factory=dict)
    employed: int = 0  # employed adults, counted by ``metrics``


def production(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Firms turn employee qualification into inventory, valued at last month's price."""
    units = produce(state, runtime.output_per_worker, runtime.config.market)
    month.gdp_value = sequential_sum((units * state.price).tolist())
    state.revenue_this_month[:] = 0.0


def demographics(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Ageing, maturation, deaths and births, all from the demographics stream."""
    step_ages(state)
    mature_qualifications(state, runtime.rng.demographics)
    apply_mortality(state, runtime.vital_rates, runtime.rng.demographics)
    apply_fertility(state, runtime.vital_rates, runtime.rng.demographics)


def consumption(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Every live family buys from a uniform sample of firms, cheapest first."""
    market = runtime.config.market
    family_ids = np.flatnonzero(state.live)
    n_firms = len(state.employees)
    k = min(market.consumption_firm_sample, n_firms)
    sample_matrix = runtime.rng.consumption.integers(0, n_firms, size=(len(family_ids), k))
    # one draw per family, in family order: the same stream values as a
    # scalar draw per family
    savings_rates = runtime.rng.consumption.uniform(
        *market.savings_rate_bounds, size=len(family_ids)
    )
    shopping, budgets = shopping_budgets(state.savings, family_ids, savings_rates)
    # prices hold until set_price, so one ranking serves every shopper
    ranked, rank_rows = rank_samples(state.price, sample_matrix[shopping])
    month.units_consumed, month.spent_total, *taxes = consume(
        state, family_ids[shopping], budgets, ranked, rank_rows, runtime.config.tax_rates,
    )
    month.ledger.add_all(TaxKind.CONSUMPTION, *taxes)


def firm_decisions(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Price from the inventory signal, then the wage offer and vacancy."""
    set_price(state, runtime.config.market)
    month.vacancies = set_wage_and_vacancy(state, runtime.config.market)


def labor(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """The unemployed adults fill the vacancies; highest wage offers pick first."""
    if not len(month.vacancies):
        return
    matches = run_labor_market(
        month.vacancies, state.unemployed_adults(), state, state.residences(),
        runtime.config.market, runtime.rng.labor,
    )
    for firm, citizen_id in matches:
        state.employer[citizen_id] = firm
        state.wage[citizen_id] = state.wage_offer[firm]
        state.employees[firm].append(citizen_id)


def housing(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Hedonic listing prices, midpoint settlement; the property tax reuses the price
    table, since QLI only moves in ``invest``."""
    cfg = runtime.config
    month.house_prices = hedonic_prices(state, cfg.housing)
    taxes: TaxEntries = ([], [])
    month.sales = len(run_housing_market(
        state, month.house_prices, cfg.housing, cfg.tax_rates, runtime.rng.housing, taxes,
    ))
    month.ledger.add_all(TaxKind.TRANSMISSION, *taxes)


def taxes(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Wages (income tax), property, and company profit on its cadence."""
    cfg = runtime.config
    month.ledger.add_all(TaxKind.PERSONAL_INCOME, *pay_wages(state, cfg.tax_rates))
    property_taxes = collect_property_tax(state, month.house_prices, cfg.tax_rates)
    month.ledger.add_all(TaxKind.PROPERTY, *property_taxes)
    if (state.month + 1) % cfg.fiscal.profit_tax_cadence_months == 0:
        month.ledger.add_all(TaxKind.COMPANY, *settle_profit_tax(state, cfg.tax_rates))


def distribution(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Route the month's taxes under the case, invest them, and pay local firms for the works."""
    cfg = runtime.config
    month.populations = state.populations()
    month.collected = month.ledger.total_by_kind()
    share_base = runtime.frozen_populations or month.populations
    if sum(share_base) <= 0:
        raise InvariantViolation(state.month, "region-population", "no citizens left in region")
    allocations = distribute(month.ledger, runtime.policy, share_base, runtime.mpf_table)
    # both dicts are keyed in TAX_KINDS order
    rows = list(allocations.values())
    for kind, pool, row in zip(TAX_KINDS, month.collected.values(), rows):
        allocated = sequential_sum(row)
        if abs(pool - allocated) > CURRENCY_UNIT:
            raise InvariantViolation(
                state.month, "distribution-conservation",
                f"{kind.value}: collected {pool!r} vs allocated {allocated!r}",
            )
    result.inflows[state.month] = rows  # kind x municipality
    populations = np.array(month.populations)
    for m in sorted(set(np.flatnonzero(populations <= 0).tolist()) - runtime.depopulated):
        runtime.depopulated.add(m)
        log.warning(
            "municipality %s depopulated at month %d; its allocations escheat from here on"
            " (region %s, case %d, seed %d)",
            state.municipality_ids[m], state.month, result.apc_id, result.case_id, result.seed,
        )
    # each municipality's allocation folds its inflows in TAX_KINDS order
    allocation = np.add.accumulate(result.inflows[state.month], axis=0)[-1]
    procured = invest(state, allocation, populations, cfg.fiscal.qli_unit_cost)
    # public procurement: the works are bought from the municipality's firms,
    # or the region's where it has none, so taxes recirculate
    pay_procurement(state, procured.tolist(), runtime.contractors)
    runtime.money_ops += (
        month.ledger.event_count + month.sales + int(np.count_nonzero(state.live))
    )


def metrics(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Append the month's row to every series of the result."""
    adult = state.alive & (state.age >= state.labor_entry_age_months)
    adults = int(np.count_nonzero(adult))
    employed = int(np.count_nonzero(adult & (state.employer >= 0)))
    month.employed = employed
    profit_total = sequential_sum((state.revenue_this_month - state.payroll_this_month).tolist())
    result.gdp_value.append(month.gdp_value)
    base = result.gdp_value[0]
    result.gdp_index.append(100.0 * month.gdp_value / base if base > 0 else 0.0)
    units = month.units_consumed
    unit_value = month.spent_total / units if units > 0 else math.nan
    prev = runtime.prev_unit_value
    if math.isfinite(unit_value) and math.isfinite(prev) and prev > 0:
        result.inflation.append((unit_value - prev) / prev)
    else:
        result.inflation.append(0.0)
    if math.isfinite(unit_value):
        runtime.prev_unit_value = unit_value
    result.unemployment.append((adults - employed) / adults if adults else 0.0)
    n_firms = len(state.employees)
    result.avg_workers_per_firm.append(sum(map(len, state.employees)) / n_firms)
    result.avg_firm_profit.append(profit_total / n_firms)
    result.units_consumed.append(units)
    for kind in TAX_KINDS:
        result.taxes_by_kind[kind.value].append(month.collected[kind])
    result.housing_sales.append(month.sales)
    result.qli[state.month] = state.qli
    result.populations[state.month] = month.populations


def audit(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Close the month: advance the clock, then check money, payrolls and vacancies."""
    closed = state.month
    state.month = closed + 1
    drift = abs(state.money_in_circulation() - state.money_base)
    if drift > CURRENCY_UNIT * (1.0 + runtime.money_ops / 1e6):
        raise InvariantViolation(closed, "money-conservation", f"audit drift {drift!r}")
    employed = month.employed  # adults only, so an employed minor fails too
    on_payroll = sum(map(len, state.employees))
    if employed != on_payroll:
        raise InvariantViolation(
            closed, "employment-consistency", f"{employed} employed vs {on_payroll} on payrolls"
        )
    vacant_by_muni = vacancies(state).tolist()
    # a municipality has families exactly when it has citizens
    for muni, people, vacant in zip(state.municipality_ids, month.populations, vacant_by_muni):
        if people > 0 and vacant < 1:
            raise InvariantViolation(closed, "housing-vacancy", f"no vacant house in {muni}")


# One month, in order. Every phase takes (state, runtime, result, month) and
# calls the model's functions through this module's globals, so a wrapper
# patched onto ``metrosim.engine.<name>`` sees every call.
PHASES = (
    production, demographics, consumption, firm_decisions, labor, housing, taxes,
    distribution, metrics, audit,
)


def step_month(state: SimulationState, runtime: _Runtime, result: RunResult) -> None:
    """Advance the world by one month: every phase of ``PHASES``, in order."""
    month = _Month(TaxLedger(len(state.municipality_ids)))
    for phase in PHASES:
        phase(state, runtime, result, month)


def start_run(
    config: ScenarioConfig, state: SimulationState, seed: int, apc_id: str
) -> tuple[_Runtime, RunResult]:
    """The run state of ``config`` at ``seed`` for a world at month 0, and the run's
    result: month ``m`` writes row ``m`` of each per-municipality series."""
    months, n = config.engine.horizon_months, len(state.municipality_ids)
    result = RunResult(
        apc_id=apc_id,
        case_id=config.fiscal.case_id,
        seed=seed,
        municipality_ids=list(state.municipality_ids),
        qli=np.zeros((months, n)),
        populations=np.zeros((months, n), dtype=np.int64),
        inflows=np.zeros((months, len(TAX_KINDS), n)),
        taxes_by_kind={kind.value: [] for kind in TAX_KINDS},
    )
    path = config.fiscal.mpf_table_file
    municipality = state.firm_municipality
    local = [np.flatnonzero(municipality == m).tolist() for m in range(n)]
    runtime = _Runtime(
        config=config,
        rng=RngStreams(seed),
        policy=policy_for_case(config.fiscal.case_id),
        mpf_table=read_mpf_table(path) if path else MpfTable(),
        vital_rates=VitalRates(DEFAULT_VITAL_BRACKETS),
        contractors=[firms or list(range(len(state.employees))) for firms in local],
        output_per_worker=output_per_worker(config.market, state.qualification_levels),
        frozen_populations=state.populations() if config.fiscal.freeze_mpf_shares else None,
    )
    return runtime, result


def _world_seed(config: ScenarioConfig, seed: int) -> int:
    """The seed whose worldgen stream draws the initial world of a run at ``seed``.

    With ``engine.reinstantiate_per_run`` off, it is always the base seed, so
    repeated runs share one world and differ only in the monthly dynamics.
    """
    return seed if config.engine.reinstantiate_per_run else config.engine.seed


def draw_world(config: ScenarioConfig, seed: int, region: RegionSpec) -> SimulationState:
    """Instantiate ``region`` as the initial world of a run at ``seed``."""
    streams = RngStreams(_world_seed(config, seed))
    return instantiate_world(region, config.world, streams.worldgen)


def run_scenario(
    config: ScenarioConfig, seed: int, region: RegionSpec, world: SimulationState | None = None
) -> RunResult:
    """Run ``region`` from its initial world to the horizon, recording every month.

    ``world`` is that initial world, as ``draw_world`` returns it, and is
    consumed by the run; without it the world is drawn here.
    """
    state = world if world is not None else draw_world(config, seed, region)
    runtime, result = start_run(config, state, seed, region.id)
    for _ in range(config.engine.horizon_months):
        step_month(state, runtime, result)
    return result


# ---------------------------------------------------------------------------
# Batch layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunTask:
    """One picklable unit of batch work: a case's config, a region and a run seed.

    It carries no world; the process that runs it draws the initial world
    (see ``_initial_world``).
    """

    config: ScenarioConfig
    region: RegionSpec
    seed: int


class RunFailure(NamedTuple):
    """A batch run stopped by an invariant violation; ``error`` names the month and invariant."""

    seed: int
    error: str


@dataclass
class ScenarioResult:
    """One (region, case) cell: its completed runs, its failures and their median aggregates."""

    apc_id: str
    case_id: int
    runs: list[RunResult]
    failures: list[RunFailure] = field(default_factory=list)
    flagged: bool = False
    median_final_qli: dict[str, float] = field(default_factory=dict)
    controls: dict[str, float] = field(default_factory=dict)


def _world_key(task: RunTask) -> tuple:
    # everything draw_world reads: equal keys draw equal worlds
    return task.region, _world_seed(task.config, task.seed), task.config.world


# (world key, pickled world) of the initial world this process drew last
_last_world: tuple[tuple, bytes] | None = None


def _initial_world(task: RunTask) -> SimulationState:
    """A fresh copy of the task's initial world, drawn only when the key changes.

    Tasks come world-major, so each process draws each world once, and every
    run unpickles its own copy: no run sees what another did to its world.
    """
    global _last_world
    key = _world_key(task)
    if _last_world is None or _last_world[0] != key:
        _last_world = (key, pickle.dumps(draw_world(task.config, task.seed, task.region)))
    return pickle.loads(_last_world[1])


def _execute_task(task: RunTask) -> RunResult | RunFailure:
    world = _initial_world(task)  # a world that cannot be drawn stops the batch
    # a broken model invariant is batch data; any other exception is a bug
    # and propagates out of the batch
    try:
        return run_scenario(task.config, task.seed, task.region, world)
    except InvariantViolation as exc:
        return RunFailure(task.seed, str(exc))


def summarize_runs(
    apc_id: str, case_id: int, runs: list[RunResult], failures: list[RunFailure]
) -> ScenarioResult:
    """Median-aggregate one scenario cell; flag it when most runs failed."""
    scenario = ScenarioResult(apc_id=apc_id, case_id=case_id, runs=runs, failures=failures)
    if len(runs) < len(failures) or not runs:
        scenario.flagged = True
        return scenario
    munis = runs[0].municipality_ids
    finals = [r.qli[-1].tolist() for r in runs]
    scenario.median_final_qli = {m: median(qli) for m, qli in zip(munis, zip(*finals))}

    def run_mean(series: list[float]) -> float:
        return sequential_sum(series) / len(series)

    scenario.controls = {
        "avg_workers_per_firm": median([run_mean(r.avg_workers_per_firm) for r in runs]),
        "avg_firm_profit": median([run_mean(r.avg_firm_profit) for r in runs]),
        "gdp_index": median([r.gdp_index[-1] for r in runs]),
        "inflation": median([run_mean(r.inflation) for r in runs]),
        "unemployment": median([run_mean(r.unemployment) for r in runs]),
        "municipality_count": float(len(munis)),
    }
    return scenario


def run_batch(tasks: list[RunTask], jobs: int = 1) -> dict[tuple[str, int], ScenarioResult]:
    """Execute tasks, grouped by (apc_id, case_id), and median-aggregate.

    A pool gets the tasks largest region first, so no large world starts
    last. ``batch_tasks`` orders them world-major with the same number of runs
    per world, so with at least two worlds per worker one chunk is one world's
    runs, drawn once; with fewer, tasks go one at a time to keep the workers
    busy.
    Results are reduced in task order regardless of scheduling, so the output
    is identical for any ``jobs`` value. A run that breaks a model invariant
    becomes a ``RunFailure`` of its cell; any other exception stops the batch.
    """
    global _last_world
    _last_world = None  # one batch only: its key holds the mutable config.world
    # never more workers than tasks: a fork-context pool starts all of them at once
    workers = min(jobs, len(tasks))
    if workers <= 1:
        raw = [_execute_task(task) for task in tasks]
    else:
        # largest region first; the sort is stable, so a world's runs stay adjacent
        order = sorted(range(len(tasks)), key=lambda i: -tasks[i].region.total_population)
        worlds = sum(1 for _ in groupby(tasks, _world_key))
        chunksize = len(tasks) // worlds if worlds >= 2 * workers else 1
        raw = [None] * len(tasks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = pool.map(_execute_task, [tasks[i] for i in order], chunksize=chunksize)
            for i, outcome in zip(order, outcomes):
                raw[i] = outcome
    grouped: dict[tuple[str, int], tuple[list[RunResult], list[RunFailure]]] = {}
    for task, outcome in zip(tasks, raw):
        key = (task.region.id, task.config.fiscal.case_id)
        runs, failures = grouped.setdefault(key, ([], []))
        (failures if isinstance(outcome, RunFailure) else runs).append(outcome)
    return {key: summarize_runs(*key, *cell) for key, cell in sorted(grouped.items())}


def batch_tasks(
    config: ScenarioConfig,
    regions: list[RegionSpec],
    cases: list[int],
    runs_per_scenario: int | None = None,
) -> list[RunTask]:
    """Expand (regions x cases x runs) into matched-seed tasks, world-major.

    Run r of every (region, case) cell uses seed ``engine.seed + r``, so
    comparisons across cases see identical worlds and identical demographic
    draws; only the fiscal routing differs. Tasks come region by region, then
    run seed by run seed, then case by case, so the tasks that share an
    initial world are adjacent. Nothing is drawn here: the process that runs
    a task draws its world.
    """
    runs = runs_per_scenario or config.engine.runs_per_scenario
    case_cfgs = [replace(config, fiscal=replace(config.fiscal, case_id=c)) for c in cases]
    return [
        RunTask(case_cfg, region, config.engine.seed + r)
        for region in regions
        for r in range(runs)
        for case_cfg in case_cfgs
    ]
