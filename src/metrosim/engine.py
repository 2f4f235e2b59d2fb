"""Monthly event loop, per-run metric series, and the parallel batch layer.

One month executes the fixed order: production, population dynamics,
consumption, firm decisions, labor market, housing market, tax collection,
fiscal distribution, investment. Every month closes with a money audit; a
violation aborts the run naming the month and the broken invariant.
"""
from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
    pay_wages,
    produce,
    run_labor_market,
    set_price,
    set_wage_and_vacancy,
    settle_profit_tax,
)
from .errors import InvariantViolation
from .fiscal import (
    TAX_KINDS,
    DistributionPolicy,
    MpfTable,
    distribute,
    invest,
    load_mpf_table,
    policy_for_case,
)
from .housing import Transaction, collect_property_tax, run_housing_market
from .rng import RngStreams
from .state import SimulationState
from .worldgen import RegionSpec, instantiate_world

log = logging.getLogger(__name__)

CURRENCY_UNIT = 0.01  # smallest money unit the conservation audit resolves


@dataclass
class RunResult:
    """Everything one run records: per-month series plus a final snapshot."""

    apc_id: str
    case_id: int
    seed: int
    horizon: int
    municipality_ids: list[str] = field(default_factory=list)
    # per-municipality series
    qli: dict[str, list[float]] = field(default_factory=dict)
    populations: dict[str, list[int]] = field(default_factory=dict)
    inflows: dict[str, dict[str, list[float]]] = field(default_factory=dict)
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
    transactions: list[Transaction] = field(default_factory=list)
    final_snapshot: dict = field(default_factory=dict)

    def final_qli(self) -> dict[str, float]:
        return {m: series[-1] for m, series in self.qli.items()}


@dataclass
class _Runtime:
    """Per-run constants derived once from the config."""

    config: ScenarioConfig
    policy: DistributionPolicy
    mpf_table: MpfTable
    vital_rates: VitalRates
    frozen_populations: dict[str, int] | None = None
    money_ops: int = 0  # cumulative count of money-moving events, for audit tolerance
    prev_unit_value: float = math.nan  # last month's mean price paid, for inflation
    depopulated: set[str] = field(default_factory=set)  # munis already reported empty


def _build_runtime(config: ScenarioConfig) -> _Runtime:
    policy = policy_for_case(config.fiscal.case_id)
    if config.fiscal.mpf_table_file:
        table = load_mpf_table(config.fiscal.mpf_table_file)
    else:
        table = MpfTable()
    return _Runtime(
        config=config,
        policy=policy,
        mpf_table=table,
        vital_rates=VitalRates(DEFAULT_VITAL_BRACKETS),
    )


def _audit_tolerance(runtime: _Runtime) -> float:
    return CURRENCY_UNIT * (1.0 + runtime.money_ops / 1e6)


def _check_invariants(state: SimulationState, runtime: _Runtime, month: int) -> None:
    drift = abs(state.money_in_circulation() - state.money_base)
    if drift > _audit_tolerance(runtime):
        raise InvariantViolation(month, "money-conservation", f"audit drift {drift!r}")
    employed = sum(1 for c in state.citizens.values() if c.employer_id is not None)
    on_payroll = sum(len(f.employees) for f in state.firms.values())
    if employed != on_payroll:
        raise InvariantViolation(
            month, "employment-consistency", f"{employed} employed vs {on_payroll} on payrolls"
        )
    vacancies: dict[str, int] = {m: 0 for m in state.treasuries}
    occupied_munis: set[str] = set()
    for house in state.houses.values():
        if house.resident_family_id is None:
            vacancies[house.municipality_id] += 1
    for family in state.families.values():
        occupied_munis.add(family.municipality_id)
    for muni in occupied_munis:
        if vacancies.get(muni, 0) < 1:
            raise InvariantViolation(month, "housing-vacancy", f"no vacant house in {muni}")


def step_month(state: SimulationState, runtime: _Runtime, result: RunResult) -> None:
    """Advance the world by one month, recording the metric row."""
    cfg = runtime.config
    market = cfg.market
    month = state.month
    streams = state.rng

    # production: firms turn employee qualification into inventory
    gdp_value = 0.0
    for firm in state.firms.values():
        quals = [state.citizens[cid].qualification for cid in firm.employees]
        units = produce(firm, quals, market)
        gdp_value += units * firm.price
        firm.revenue_this_month = 0.0

    # population dynamics
    step_ages(state)
    mature_qualifications(state, streams.demographics)
    apply_mortality(state, runtime.vital_rates, streams.demographics)
    apply_fertility(state, runtime.vital_rates, streams.demographics)

    # consumption from a uniform sample of firms per family
    firm_ids = sorted(state.firms)
    family_ids = sorted(state.families)
    units_consumed = 0.0
    spent_total = 0.0
    if firm_ids and family_ids:
        k = min(market.consumption_firm_sample, len(firm_ids))
        sample_matrix = streams.consumption.integers(0, len(firm_ids), size=(len(family_ids), k))
        # one draw per family, in family order: the same stream values as a
        # scalar draw inside each consume call
        savings_rates = streams.consumption.uniform(
            *market.savings_rate_bounds, size=len(family_ids)
        ).tolist()
        firms = [state.firms[fid] for fid in firm_ids]
        for fam_id, picks, savings_rate in zip(family_ids, sample_matrix.tolist(), savings_rates):
            units, spent = consume(
                state.families[fam_id], [firms[j] for j in picks], savings_rate,
                cfg.tax_rates, state.ledger,
            )
            units_consumed += units
            spent_total += spent

    # firm decisions: price from inventory signal, wage offer and vacancy
    vacancy_firms = []
    for fid in firm_ids:
        firm = state.firms[fid]
        set_price(firm, market)
        if set_wage_and_vacancy(firm, market):
            vacancy_firms.append(firm)

    # labor market: highest wage offers pick first
    if vacancy_firms:
        candidates = [state.citizens[cid] for cid in state.unemployed_adults()]
        matches = run_labor_market(
            vacancy_firms, candidates, state.residences(), market, streams.labor
        )
        for firm_id, citizen_id in matches:
            firm = state.firms[firm_id]
            citizen = state.citizens[citizen_id]
            citizen.employer_id = firm_id
            citizen.monthly_wage = firm.wage_offer
            firm.employees.append(citizen_id)

    # housing market: hedonic listing prices, midpoint settlement
    transactions = run_housing_market(
        state, cfg.housing, cfg.tax_rates, streams.housing, state.ledger
    )
    result.transactions.extend(transactions)

    # tax collection: wages (income tax), property, company on its cadence
    for fid in firm_ids:
        pay_wages(state.firms[fid], state.citizens, state.families, cfg.tax_rates, state.ledger)
    collect_property_tax(state, cfg.housing, cfg.tax_rates, state.ledger)
    if (month + 1) % cfg.fiscal.profit_tax_cadence_months == 0:
        for fid in firm_ids:
            settle_profit_tax(state.firms[fid], cfg.tax_rates, state.ledger)

    # fiscal distribution and investment
    populations = state.populations()
    collected_by_kind = state.ledger.total_by_kind()
    share_base = runtime.frozen_populations or populations
    if sum(share_base.values()) <= 0:
        raise InvariantViolation(month, "region-population", "no citizens left in region")
    muni_order = sorted(state.treasuries)
    allocations = distribute(
        state.ledger, runtime.policy, share_base, runtime.mpf_table, muni_order
    )
    for kind in TAX_KINDS:
        pool = sum(state.ledger.by_kind(kind).values())
        allocated = sum(allocations[kind].values())
        if abs(pool - allocated) > CURRENCY_UNIT:
            raise InvariantViolation(
                month, "distribution-conservation",
                f"{kind.value}: collected {pool!r} vs allocated {allocated!r}",
            )
    pool_cell = [state.escheat_pool]
    firms_by_muni: dict[str, list] = {m: [] for m in muni_order}
    for fid in firm_ids:
        firms_by_muni[state.firms[fid].municipality_id].append(state.firms[fid])
    for muni in muni_order:
        total_alloc = 0.0
        for kind in TAX_KINDS:
            amount = allocations[kind][muni]
            result.inflows[muni][kind.value].append(amount)
            total_alloc += amount
        if populations[muni] <= 0 and muni not in runtime.depopulated:
            runtime.depopulated.add(muni)
            log.warning(
                "municipality %s depopulated at month %d; its allocations escheat from here on",
                muni, month,
            )
        spent = invest(
            state.treasuries[muni],
            total_alloc,
            populations[muni],
            cfg.fiscal.qli_unit_cost,
            pool_cell,
        )
        # public procurement: the invested money pays the municipality's
        # firms in equal parts, so taxes recirculate instead of vanishing
        if spent > 0.0:
            local_firms = firms_by_muni[muni] or [state.firms[fid] for fid in firm_ids]
            if not local_firms:
                pool_cell[0] += spent  # no firms anywhere to pay; park the money
                continue
            share = spent / len(local_firms)
            paid = 0.0
            for firm in local_firms[1:]:
                firm.cash += share
                firm.cumulative_profit += share
                firm.revenue_this_month += share
                paid += share
            first = local_firms[0]
            first.cash += spent - paid
            first.cumulative_profit += spent - paid
            first.revenue_this_month += spent - paid
    state.escheat_pool = pool_cell[0]
    runtime.money_ops += state.ledger.event_count + len(transactions) + len(state.families)
    state.ledger.clear(month + 1)

    # metric row
    employed = 0
    adults = 0
    for citizen in state.citizens.values():
        if citizen.age_months >= state.labor_entry_age_months:
            adults += 1
            if citizen.employer_id is not None:
                employed += 1
    n_firms = len(state.firms)
    profit_total = 0.0
    for firm in state.firms.values():
        profit_total += firm.revenue_this_month - firm.payroll_this_month
    result.gdp_value.append(gdp_value)
    base = result.gdp_value[0]
    result.gdp_index.append(100.0 * gdp_value / base if base > 0 else 0.0)
    unit_value = spent_total / units_consumed if units_consumed > 0 else math.nan
    prev = runtime.prev_unit_value
    if math.isfinite(unit_value) and math.isfinite(prev) and prev > 0:
        result.inflation.append((unit_value - prev) / prev)
    else:
        result.inflation.append(0.0)
    if math.isfinite(unit_value):
        runtime.prev_unit_value = unit_value
    result.unemployment.append((adults - employed) / adults if adults else 0.0)
    result.avg_workers_per_firm.append(
        sum(len(f.employees) for f in state.firms.values()) / n_firms if n_firms else 0.0
    )
    result.avg_firm_profit.append(profit_total / n_firms if n_firms else 0.0)
    result.units_consumed.append(units_consumed)
    for kind in TAX_KINDS:
        result.taxes_by_kind[kind.value].append(collected_by_kind[kind])
    result.housing_sales.append(len(transactions))
    for muni in muni_order:
        result.qli[muni].append(state.treasuries[muni].qli)
        result.populations[muni].append(populations[muni])

    state.month = month + 1
    _check_invariants(state, runtime, month)


def run_scenario(config: ScenarioConfig, seed: int, region: RegionSpec) -> RunResult:
    """Instantiate ``region`` as a world and run it to the horizon, recording every month.

    With ``engine.reinstantiate_per_run`` off, the initial world is always
    drawn from the base seed, so repeated runs share one world and differ
    only in the monthly dynamics.
    """
    streams = RngStreams(seed)
    world_streams = (
        streams if config.engine.reinstantiate_per_run else RngStreams(config.engine.seed)
    )
    state = instantiate_world(region, config.world, world_streams.worldgen)
    state.rng = streams
    runtime = _build_runtime(config)
    if config.fiscal.freeze_mpf_shares:
        runtime.frozen_populations = state.populations()

    result = RunResult(
        apc_id=region.id,
        case_id=config.fiscal.case_id,
        seed=seed,
        horizon=config.engine.horizon_months,
        municipality_ids=sorted(state.treasuries),
    )
    for muni in result.municipality_ids:
        result.qli[muni] = []
        result.populations[muni] = []
        result.inflows[muni] = {kind.value: [] for kind in TAX_KINDS}
    for kind in TAX_KINDS:
        result.taxes_by_kind[kind.value] = []

    for _ in range(config.engine.horizon_months):
        step_month(state, runtime, result)

    result.final_snapshot.update(
        {
            "family_savings_total": sum(f.savings for f in state.families.values()),
            "firm_cash_total": sum(f.cash for f in state.firms.values()),
            "treasury_invested_total": state.total_invested(),
            "escheat_pool": state.escheat_pool,
            "citizen_count": len(state.citizens),
            "money_base": state.money_base,
        }
    )
    return result


# ---------------------------------------------------------------------------
# Batch layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunTask:
    """One picklable unit of batch work."""

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


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _execute_task(task: RunTask) -> RunResult | RunFailure:
    # a broken model invariant is batch data; any other exception is a bug
    # and propagates out of the batch
    try:
        return run_scenario(task.config, task.seed, task.region)
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
    scenario.median_final_qli = {
        m: _median([r.qli[m][-1] for r in runs]) for m in munis
    }

    def run_mean(series: list[float]) -> float:
        return sum(series) / len(series)

    scenario.controls = {
        "avg_workers_per_firm": _median([run_mean(r.avg_workers_per_firm) for r in runs]),
        "avg_firm_profit": _median([run_mean(r.avg_firm_profit) for r in runs]),
        "gdp_index": _median([r.gdp_index[-1] for r in runs]),
        "inflation": _median([run_mean(r.inflation) for r in runs]),
        "unemployment": _median([run_mean(r.unemployment) for r in runs]),
        "municipality_count": float(len(munis)),
    }
    return scenario


def run_batch(tasks: list[RunTask], jobs: int = 1) -> dict[tuple[str, int], ScenarioResult]:
    """Execute tasks, grouped by (apc_id, case_id), and median-aggregate.

    Results are reduced in task order regardless of scheduling, so the
    output is identical for any ``jobs`` value. A run that breaks a model
    invariant becomes a ``RunFailure`` of its cell; any other exception
    stops the batch.
    """
    # never more workers than tasks: a fork-context pool starts all of them at once
    workers = min(jobs, len(tasks))
    if workers <= 1:
        raw = [_execute_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_execute_task, tasks, chunksize=1))
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
    """Expand (regions x cases x runs) into matched-seed tasks.

    Run r of every (region, case) cell uses seed ``engine.seed + r``, so
    comparisons across cases see identical worlds and identical demographic
    draws; only the fiscal routing differs.
    """
    runs = runs_per_scenario or config.engine.runs_per_scenario
    tasks = []
    for region in regions:
        for case_id in cases:
            case_cfg = replace(config, fiscal=replace(config.fiscal, case_id=case_id))
            for r in range(runs):
                tasks.append(RunTask(case_cfg, region, config.engine.seed + r))
    return tasks
