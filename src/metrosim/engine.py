"""Monthly event loop, per-run metric series, and the parallel batch layer.

A month runs the phase functions of ``PHASES`` in order and closes with a
money audit; a violation aborts the run naming the month and the broken
invariant.
"""
from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from statistics import median
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
    Firm,
    consume,
    pay_wages,
    produce,
    rank_samples,
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
    TaxKind,
    distribute,
    invest,
    pay_procurement,
    policy_for_case,
    read_mpf_table,
    sequential_sum,
)
from .housing import (
    HedonicUnits,
    collect_property_tax,
    hedonic_prices,
    hedonic_units,
    run_housing_market,
)
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
    final_snapshot: dict = field(default_factory=dict)

    def final_qli(self) -> dict[str, float]:
        return {m: series[-1] for m, series in self.qli.items()}


@dataclass
class _Runtime:
    """Per-run constants derived once from the config and the initial world."""

    config: ScenarioConfig
    policy: DistributionPolicy
    mpf_table: MpfTable
    vital_rates: VitalRates
    hedonic: HedonicUnits  # houses are fixed (see SimulationState): units hold all run
    frozen_populations: dict[str, int] | None = None
    money_ops: int = 0  # cumulative count of money-moving events, for audit tolerance
    prev_unit_value: float = math.nan  # last month's mean price paid, for inflation
    depopulated: set[str] = field(default_factory=set)  # munis already reported empty


@dataclass
class _Month:
    """What one month's phases hand on to the later phases."""

    gdp_value: float = 0.0
    units_consumed: float = 0.0
    spent_total: float = 0.0
    vacancy_firms: list[Firm] = field(default_factory=list)
    house_prices: list[float] = field(default_factory=list)  # by house id
    sales: int = 0
    populations: dict[str, int] = field(default_factory=dict)
    collected: dict[TaxKind, float] = field(default_factory=dict)
    employed: int = 0  # employed adults, counted by ``metrics``


def production(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Firms turn employee qualification into inventory, valued at last month's price."""
    for firm in state.firms:
        quals = [state.citizens[cid].qualification for cid in firm.employees]
        units = produce(firm, quals, runtime.config.market)
        month.gdp_value += units * firm.price
        firm.revenue_this_month = 0.0


def demographics(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Ageing, maturation, deaths and births, all from the demographics stream."""
    step_ages(state)
    mature_qualifications(state, state.rng.demographics)
    apply_mortality(state, runtime.vital_rates, state.rng.demographics)
    apply_fertility(state, runtime.vital_rates, state.rng.demographics)


def consumption(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Every family buys from a uniform sample of firms, cheapest first."""
    market = runtime.config.market
    family_ids = sorted(state.families)
    k = min(market.consumption_firm_sample, len(state.firms))
    sample_matrix = state.rng.consumption.integers(0, len(state.firms), size=(len(family_ids), k))
    # one draw per family, in family order: the same stream values as a
    # scalar draw inside each consume call
    savings_rates = state.rng.consumption.uniform(
        *market.savings_rate_bounds, size=len(family_ids)
    ).tolist()
    # prices hold until set_price, so one ranking serves every family; each
    # family walks its sample lazily
    ranked, rank_rows = rank_samples(state.firms, sample_matrix)
    taxes: list[tuple[str, float]] = []
    for fam_id, row, savings_rate in zip(family_ids, rank_rows, savings_rates):
        units, spent = consume(
            state.families[fam_id], map(ranked.__getitem__, row), savings_rate,
            runtime.config.tax_rates, taxes,
        )
        month.units_consumed += units
        month.spent_total += spent
    state.ledger.add_all(TaxKind.CONSUMPTION, taxes)


def firm_decisions(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Price from the inventory signal, then the wage offer and vacancy."""
    for firm in state.firms:
        set_price(firm, runtime.config.market)
        if set_wage_and_vacancy(firm, runtime.config.market):
            month.vacancy_firms.append(firm)


def labor(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """The unemployed adults fill the vacancies; highest wage offers pick first."""
    if not month.vacancy_firms:
        return
    candidates = [state.citizens[cid] for cid in state.unemployed_adults()]
    matches = run_labor_market(
        month.vacancy_firms, candidates, state.residences(), runtime.config.market,
        state.rng.labor,
    )
    for firm_id, citizen_id in matches:
        firm = state.firms[firm_id]
        citizen = state.citizens[citizen_id]
        citizen.employer_id = firm_id
        citizen.monthly_wage = firm.wage_offer
        firm.employees.append(citizen_id)


def housing(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Hedonic listing prices, midpoint settlement; the property tax reuses the price
    table, since QLI only moves in ``invest``."""
    cfg = runtime.config
    month.house_prices = hedonic_prices(state, cfg.housing, runtime.hedonic)
    taxes: list[tuple[str, float]] = []
    month.sales = len(run_housing_market(
        state, month.house_prices, cfg.housing, cfg.tax_rates, state.rng.housing, taxes
    ))
    state.ledger.add_all(TaxKind.TRANSMISSION, taxes)


def taxes(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Wages (income tax), property, and company profit on its cadence."""
    cfg = runtime.config
    wage_taxes: list[tuple[str, float]] = []
    for firm in state.firms:
        pay_wages(firm, state.citizens, state.families, cfg.tax_rates, wage_taxes)
    state.ledger.add_all(TaxKind.PERSONAL_INCOME, wage_taxes)
    property_taxes: list[tuple[str, float]] = []
    collect_property_tax(state, month.house_prices, cfg.tax_rates, property_taxes)
    state.ledger.add_all(TaxKind.PROPERTY, property_taxes)
    if (state.month + 1) % cfg.fiscal.profit_tax_cadence_months == 0:
        profit_taxes: list[tuple[str, float]] = []
        for firm in state.firms:
            settle_profit_tax(firm, cfg.tax_rates, profit_taxes)
        state.ledger.add_all(TaxKind.COMPANY, profit_taxes)


def distribution(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Route the month's taxes under the case, invest them, and pay local firms for the works."""
    cfg = runtime.config
    month.populations = state.populations()
    month.collected = state.ledger.total_by_kind()
    share_base = runtime.frozen_populations or month.populations
    if sum(share_base.values()) <= 0:
        raise InvariantViolation(state.month, "region-population", "no citizens left in region")
    muni_order = result.municipality_ids
    allocations = distribute(
        state.ledger, runtime.policy, share_base, runtime.mpf_table, muni_order
    )
    for kind in TAX_KINDS:
        pool = month.collected[kind]
        allocated = sequential_sum(allocations[kind].values())
        if abs(pool - allocated) > CURRENCY_UNIT:
            raise InvariantViolation(
                state.month, "distribution-conservation",
                f"{kind.value}: collected {pool!r} vs allocated {allocated!r}",
            )
    firms_by_muni: dict[str, list[Firm]] = {m: [] for m in muni_order}
    for firm in state.firms:
        firms_by_muni[firm.municipality_id].append(firm)
    for muni in muni_order:
        total_alloc = 0.0
        for kind in TAX_KINDS:
            amount = allocations[kind][muni]
            result.inflows[muni][kind.value].append(amount)
            total_alloc += amount
        population = month.populations[muni]
        if population <= 0 and muni not in runtime.depopulated:
            runtime.depopulated.add(muni)
            log.warning(
                "municipality %s depopulated at month %d; its allocations escheat from here on",
                muni, state.month,
            )
        spent, escheated = invest(
            state.treasuries[muni], total_alloc, population, cfg.fiscal.qli_unit_cost
        )
        state.escheat_pool += escheated
        # public procurement: the works are bought from the municipality's
        # firms, or the region's where it has none, so taxes recirculate
        if spent > 0.0:
            pay_procurement(spent, firms_by_muni[muni] or state.firms)
    runtime.money_ops += state.ledger.event_count + month.sales + len(state.families)
    state.ledger.clear()


def metrics(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Append the month's row to every series of the result."""
    employed = 0
    adults = 0
    for citizen in state.citizens.values():
        if citizen.age_months >= state.labor_entry_age_months:
            adults += 1
            if citizen.employer_id is not None:
                employed += 1
    month.employed = employed
    profit_total = 0.0
    for firm in state.firms:
        profit_total += firm.revenue_this_month - firm.payroll_this_month
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
    result.avg_workers_per_firm.append(
        sum(len(f.employees) for f in state.firms) / len(state.firms)
    )
    result.avg_firm_profit.append(profit_total / len(state.firms))
    result.units_consumed.append(units)
    for kind in TAX_KINDS:
        result.taxes_by_kind[kind.value].append(month.collected[kind])
    result.housing_sales.append(month.sales)
    for muni in result.municipality_ids:
        result.qli[muni].append(state.treasuries[muni].qli)
        result.populations[muni].append(month.populations[muni])


def audit(state: SimulationState, runtime: _Runtime, result: RunResult, month: _Month):
    """Close the month: advance the clock, then check money, payrolls and vacancies."""
    closed = state.month
    state.month = closed + 1
    drift = abs(state.money_in_circulation() - state.money_base)
    if drift > CURRENCY_UNIT * (1.0 + runtime.money_ops / 1e6):
        raise InvariantViolation(closed, "money-conservation", f"audit drift {drift!r}")
    employed = month.employed  # adults only, so an employed minor fails too
    on_payroll = sum(len(f.employees) for f in state.firms)
    if employed != on_payroll:
        raise InvariantViolation(
            closed, "employment-consistency", f"{employed} employed vs {on_payroll} on payrolls"
        )
    vacancies: dict[str, int] = {m: 0 for m in state.treasuries}
    for house in state.houses:
        if house.resident_family_id is None:
            vacancies[house.municipality_id] += 1
    for muni in {family.municipality_id for family in state.families.values()}:
        if vacancies.get(muni, 0) < 1:
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
    month = _Month()
    for phase in PHASES:
        phase(state, runtime, result, month)


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
    path = config.fiscal.mpf_table_file
    runtime = _Runtime(
        config=config,
        policy=policy_for_case(config.fiscal.case_id),
        mpf_table=read_mpf_table(path) if path else MpfTable(),
        vital_rates=VitalRates(DEFAULT_VITAL_BRACKETS),
        hedonic=hedonic_units(state, config.housing),
    )
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
            "family_savings_total": sequential_sum(f.savings for f in state.families.values()),
            "firm_cash_total": sequential_sum(f.cash for f in state.firms),
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
        m: median([r.qli[m][-1] for r in runs]) for m in munis
    }

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
