"""Whole-run behavior: determinism, conservation, aggregation, batching."""
import copy
from dataclasses import replace

import pytest

from metrosim import engine
from metrosim.config import EngineConfig, FiscalConfig, default_config
from metrosim.demographics import VitalRates
from metrosim.economy import consume
from metrosim.engine import (
    RunFailure,
    RunResult,
    batch_tasks,
    run_batch,
    run_scenario,
    summarize_runs,
)
from metrosim.errors import InvariantViolation
from metrosim.fiscal import TAX_KINDS, MpfTable, TaxKind, TaxRates, distribute, policy_for_case
from metrosim.housing import hedonic_units
from metrosim.rng import RngStreams
from metrosim.worldgen import WorldConfig, default_apc_batch, generate_region, instantiate_world

from conftest import add_family, add_firm, break_invariant, ledger_entries, region_of, rng


def with_case(cfg, case_id):
    return replace(cfg, fiscal=replace(cfg.fiscal, case_id=case_id))


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


def test_smoke_three_citizen_world(gen_config):
    cfg = gen_config(n_municipalities=1, total_population=3, skew=0.0,
                     population_fraction=1.0, horizon=12)
    result = run_scenario(cfg, seed=0, region=region_of(cfg))
    assert result.horizon == 12
    assert len(result.gdp_value) == 12
    snap = result.final_snapshot
    held = snap["family_savings_total"] + snap["firm_cash_total"] + snap["escheat_pool"]
    assert held == pytest.approx(snap["money_base"], abs=0.05)


def test_series_lengths_match_horizon(gen_config):
    cfg = gen_config(horizon=7)
    result = run_scenario(cfg, seed=1, region=region_of(cfg))
    for series in (result.gdp_value, result.gdp_index, result.inflation,
                   result.unemployment, result.units_consumed, result.housing_sales):
        assert len(series) == 7
    for muni in result.municipality_ids:
        assert len(result.qli[muni]) == 7
        assert len(result.populations[muni]) == 7
    for kind in TAX_KINDS:
        assert len(result.taxes_by_kind[kind.value]) == 7


def test_same_seed_same_run(gen_config):
    cfg = gen_config(horizon=8)
    region = region_of(cfg)
    a = run_scenario(cfg, seed=3, region=region)
    b = run_scenario(cfg, seed=3, region=region)
    assert a == b


def test_different_seeds_differ(gen_config):
    cfg = gen_config(horizon=8)
    region = region_of(cfg)
    a = run_scenario(cfg, seed=3, region=region)
    b = run_scenario(cfg, seed=4, region=region)
    assert a.gdp_value != b.gdp_value


def test_gdp_index_starts_at_hundred(gen_config):
    cfg = gen_config(horizon=3)
    result = run_scenario(cfg, seed=0, region=region_of(cfg))
    assert result.gdp_index[0] == 100.0


def test_qli_never_decreases(gen_config):
    cfg = gen_config(horizon=18)
    result = run_scenario(cfg, seed=2, region=region_of(cfg))
    for muni in result.municipality_ids:
        series = result.qli[muni]
        assert all(b >= a for a, b in zip(series, series[1:]))
        assert series[-1] > 0.0  # some tax money reached every municipality


def test_zero_tax_rates_freeze_public_sector(gen_config):
    cfg = gen_config(horizon=12, tax_rates=TaxRates(0.0, 0.0, 0.0, 0.0, 0.0))
    result = run_scenario(cfg, seed=0, region=region_of(cfg))
    for muni in result.municipality_ids:
        assert result.qli[muni] == [0.0] * 12
    for kind in TAX_KINDS:
        assert result.taxes_by_kind[kind.value] == [0.0] * 12
    assert result.final_snapshot["treasury_invested_total"] == 0.0


def test_single_municipality_cases_identical(gen_config):
    # with one municipality every channel routes to the same treasury, so the
    # four distribution cases cannot differ
    base = gen_config(n_municipalities=1, total_population=2_000, skew=0.0, horizon=12)
    region = region_of(base)
    runs = {c: run_scenario(with_case(base, c), seed=5, region=region) for c in (1, 2, 3, 4)}
    reference = runs[1]
    for case_id in (2, 3, 4):
        assert runs[case_id].qli == reference.qli
        assert runs[case_id].gdp_value == reference.gdp_value


def test_frozen_world_mode_shares_world_draw(gen_config):
    frozen = gen_config(horizon=4)
    frozen.engine = EngineConfig(horizon_months=4, seed=0, reinstantiate_per_run=False)
    region = region_of(frozen)
    a = run_scenario(frozen, seed=11, region=region)
    b = run_scenario(frozen, seed=22, region=region)
    # money_base is fixed at instantiation, so equal bases mean one shared
    # world; the monthly dynamics still use the per-run seed
    assert a.final_snapshot["money_base"] == b.final_snapshot["money_base"]

    fresh = gen_config(horizon=4)
    c = run_scenario(fresh, seed=11, region=region)
    d = run_scenario(fresh, seed=22, region=region)
    assert c.final_snapshot["money_base"] != d.final_snapshot["money_base"]


def test_frozen_shares_split_by_month_zero_populations(gen_config, monkeypatch):
    cfg = gen_config(horizon=24)
    cfg.fiscal = replace(cfg.fiscal, freeze_mpf_shares=True)
    region = region_of(cfg)
    frozen = instantiate_world(region, cfg.world, RngStreams(0).worldgen).populations()
    calls = []

    def recording(ledger, policy, populations, table, order):
        calls.append((copy.deepcopy(ledger), dict(populations)))
        return distribute(ledger, policy, populations, table, order)

    monkeypatch.setattr(engine, "distribute", recording)
    result = run_scenario(cfg, seed=0, region=region)
    munis = result.municipality_ids
    policy = policy_for_case(cfg.fiscal.case_id)
    moved = 0
    for month, (ledger, share_base) in enumerate(calls):
        assert share_base == frozen
        current = {m: result.populations[m][month] for m in munis}
        if current == frozen:
            continue
        moved += 1
        expected = distribute(ledger, policy, frozen, MpfTable(), munis)
        for kind in TAX_KINDS:
            for m in munis:
                assert result.inflows[m][kind.value][month] == expected[kind][m]
        # the equal and MPF channels would split differently by the current populations
        assert expected != distribute(ledger, policy, current, MpfTable(), munis)
    assert moved > 0  # births and deaths moved the populations in some month


def test_audit_rejects_an_employed_minor():
    state, runtime, result, _ = apc33_month()
    minor = next(c for c in state.citizens.values() if c.age_months < 12)
    firm = max(state.firms, key=lambda f: f.cash)
    minor.employer_id = firm.id
    minor.monthly_wage = firm.wage_offer
    firm.employees.append(minor.id)
    with pytest.raises(InvariantViolation, match="employment-consistency"):
        engine.step_month(state, runtime, result)


def test_citizen_ids_stay_ascending_every_month(gen_config, monkeypatch):
    # mature_qualifications draws in sorted(simulation_born) order and
    # unemployed_adults sorts nothing away: both rely on this order
    cfg = gen_config(horizon=60)
    closed = []

    def checked_step(state, runtime, result):
        step_month(state, runtime, result)
        assert list(state.citizens) == sorted(state.citizens)
        closed.append(state.month)

    step_month = engine.step_month
    monkeypatch.setattr(engine, "step_month", checked_step)
    run_scenario(cfg, 0, region_of(cfg))
    assert closed == list(range(1, 61))


class _AddEachEntry(list):
    """A tax list that writes each entry to the ledger the moment it is appended."""

    def __init__(self, ledger, kind):
        super().__init__()
        self.ledger = ledger
        self.kind = kind

    def append(self, entry):
        self.ledger.add(self.kind, *entry)


def apc33_month(months_done=0):
    """An apc33 world at seed 0 after ``months_done`` whole months, with the next month open."""
    cfg = default_config()
    region = next(r for r in default_apc_batch() if r.id == "apc33")
    state = instantiate_world(region, cfg.world, RngStreams(0).worldgen)
    state.rng = RngStreams(0)
    runtime = engine._Runtime(
        cfg, policy_for_case(1), MpfTable(), VitalRates(), hedonic_units(state, cfg.housing)
    )
    result = RunResult(apc_id=region.id, case_id=1, seed=0, horizon=months_done + 1,
                       municipality_ids=sorted(state.treasuries))
    result.inflows = {m: {kind.value: [] for kind in TAX_KINDS} for m in result.municipality_ids}
    result.taxes_by_kind = {kind.value: [] for kind in TAX_KINDS}
    result.qli = {m: [] for m in result.municipality_ids}
    result.populations = {m: [] for m in result.municipality_ids}
    for _ in range(months_done):
        engine.step_month(state, runtime, result)
    month = engine._Month()
    return state, runtime, result, month


def test_batched_consumption_ledger_matches_per_purchase_adds(monkeypatch):
    state, runtime, result, month = apc33_month()
    engine.production(state, runtime, result, month)
    per_purchase = copy.deepcopy((state, month))

    engine.consumption(state, runtime, result, month)

    ref_state, ref_month = per_purchase

    def consume_adding_each(family, sample, savings_rate, rates, taxes):
        return consume(family, list(sample), savings_rate, rates,
                       _AddEachEntry(ref_state.ledger, TaxKind.CONSUMPTION))

    monkeypatch.setattr(engine, "consume", consume_adding_each)
    engine.consumption(ref_state, runtime, result, ref_month)
    assert ref_state.ledger.event_count > 100
    assert ledger_entries(state.ledger) == ledger_entries(ref_state.ledger)
    assert state.ledger.event_count == ref_state.ledger.event_count
    assert month.spent_total.hex() == ref_month.spent_total.hex()
    assert [f.savings for f in state.families.values()] == [
        f.savings for f in ref_state.families.values()
    ]


def test_housing_and_tax_phases_match_per_entry_adds(monkeypatch):
    # month 95 is a profit-tax month (cadence 3); at seed 0 it has 8 house
    # sales and 23 profit-tax payers, so all four kinds get several entries
    state, runtime, result, month = apc33_month(months_done=95)
    assert (state.month + 1) % runtime.config.fiscal.profit_tax_cadence_months == 0
    for phase in engine.PHASES[:engine.PHASES.index(engine.housing)]:
        phase(state, runtime, result, month)
    ref_state, ref_month = copy.deepcopy((state, month))

    engine.housing(state, runtime, result, month)
    engine.taxes(state, runtime, result, month)

    def adding_each(fn, kind):
        def wrapped(*args):
            return fn(*args[:-1], _AddEachEntry(ref_state.ledger, kind))
        return wrapped

    for name, kind in (
        ("run_housing_market", TaxKind.TRANSMISSION),
        ("pay_wages", TaxKind.PERSONAL_INCOME),
        ("collect_property_tax", TaxKind.PROPERTY),
        ("settle_profit_tax", TaxKind.COMPANY),
    ):
        monkeypatch.setattr(engine, name, adding_each(getattr(engine, name), kind))
    engine.housing(ref_state, runtime, result, ref_month)
    engine.taxes(ref_state, runtime, result, ref_month)

    kinds = (TaxKind.TRANSMISSION, TaxKind.PERSONAL_INCOME, TaxKind.PROPERTY, TaxKind.COMPANY)
    for kind in kinds:
        assert len(ref_state.ledger.by_kind(kind)) > 1, kind
    assert ledger_entries(state.ledger) == ledger_entries(ref_state.ledger)
    assert {k: a.hex() for k, a in state.ledger.total_by_kind().items()} == {
        k: a.hex() for k, a in ref_state.ledger.total_by_kind().items()
    }
    assert state.ledger.event_count == ref_state.ledger.event_count
    assert month.sales == ref_month.sales > 1


def test_depopulated_municipality_escheats_into_the_pool(make_state, caplog):
    state = make_state(("m00", "m01"))
    add_family(state, "m00", [10])
    firm = add_firm(state, "m00")
    state.ledger.add(TaxKind.PROPERTY, "m01", 4.0)  # case 3 keeps it in empty m01
    cfg = replace(default_config(), fiscal=FiscalConfig(case_id=3))
    runtime = engine._Runtime(
        cfg, policy_for_case(3), MpfTable(), VitalRates(), hedonic_units(state, cfg.housing)
    )
    result = RunResult("r", 3, 0, 1, municipality_ids=["m00", "m01"])
    result.inflows = {m: {kind.value: [] for kind in TAX_KINDS} for m in ("m00", "m01")}
    engine.distribution(state, runtime, result, engine._Month())
    assert state.escheat_pool == 4.0
    assert state.treasuries["m01"].balance == 0.0
    assert firm.cash == 100.0  # nothing was invested, so nothing was procured
    assert "municipality m01 depopulated at month 0" in caplog.text


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def fake_run(final_qli, seed=0):
    run = RunResult(apc_id="r", case_id=1, seed=seed, horizon=3,
                    municipality_ids=["m00"])
    run.qli["m00"] = [0.0, 0.0, final_qli]
    run.gdp_index = [100.0, 101.0, 102.0]
    run.inflation = [0.0, 0.01, 0.01]
    run.unemployment = [0.1, 0.1, 0.1]
    run.avg_workers_per_firm = [5.0, 5.0, 5.0]
    run.avg_firm_profit = [1.0, 1.0, 1.0]
    return run


def fake_failure(seed):
    return RunFailure(seed, "month 0: invariant 'money-conservation' violated")


def test_median_of_three_runs():
    runs = [fake_run(q, seed=i) for i, q in enumerate((0.9, 0.4, 0.5))]
    scenario = summarize_runs("r", 1, runs, [])
    assert not scenario.flagged
    assert scenario.median_final_qli == {"m00": 0.5}
    assert scenario.controls["municipality_count"] == 1.0


def test_even_run_count_averages_middle_pair():
    runs = [fake_run(q, seed=i) for i, q in enumerate((0.1, 0.2, 0.6, 0.8))]
    scenario = summarize_runs("r", 1, runs, [])
    assert scenario.median_final_qli == {"m00": pytest.approx(0.4)}


def test_minority_failures_tolerated():
    runs = [fake_run(0.4), fake_run(0.6, seed=1)]
    scenario = summarize_runs("r", 1, runs, [fake_failure(2)])
    assert not scenario.flagged
    assert scenario.median_final_qli == {"m00": pytest.approx(0.5)}  # over survivors


def test_majority_failures_flag_scenario():
    scenario = summarize_runs("r", 1, [fake_run(0.4)], [fake_failure(1), fake_failure(2)])
    assert scenario.flagged
    assert scenario.median_final_qli == {}


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


def test_batch_tasks_matched_seeds(gen_config):
    cfg = gen_config()
    region = generate_region(2, 2_000, 0.5, rng(1), WorldConfig())
    tasks = batch_tasks(cfg, [region], cases=[1, 3], runs_per_scenario=2)
    assert len(tasks) == 4
    seeds = {}
    for task in tasks:
        assert task.region is region
        seeds.setdefault(task.config.fiscal.case_id, []).append(task.seed)
    assert seeds[1] == seeds[3] == [cfg.engine.seed, cfg.engine.seed + 1]


def test_parallel_batch_equals_serial(gen_config):
    cfg = gen_config(horizon=4, total_population=2_000, n_municipalities=2)
    region = generate_region(2, 2_000, 0.5, rng(1), WorldConfig())
    tasks = batch_tasks(cfg, [region], cases=[1, 2], runs_per_scenario=2)
    serial = run_batch(tasks, jobs=1)
    parallel = run_batch(tasks, jobs=2)
    assert serial.keys() == parallel.keys()
    for key in serial:
        assert serial[key] == parallel[key]


def test_pool_never_larger_than_task_list(gen_config, monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", SerialPool)
    cfg = gen_config(horizon=2, total_population=2_000, n_municipalities=2)
    tasks = batch_tasks(cfg, [region_of(cfg)], cases=[1], runs_per_scenario=2)
    run_batch(tasks, jobs=8)
    assert started == [2]


def test_failed_cell_is_flagged_not_fatal(gen_config, monkeypatch):
    monkeypatch.setattr(engine, "step_month", break_invariant)
    cfg = gen_config()
    region = generate_region(1, 500, 0.0, rng(0), WorldConfig())
    tasks = batch_tasks(cfg, [region], cases=[1], runs_per_scenario=2)
    results = run_batch(tasks, jobs=1)
    scenario = results[(tasks[0].region.id, 1)]
    assert scenario.flagged
    assert scenario.runs == []
    assert [f.seed for f in scenario.failures] == [cfg.engine.seed, cfg.engine.seed + 1]
    assert all("invariant 'money-conservation'" in f.error for f in scenario.failures)


def test_programming_error_stops_the_batch(gen_config, monkeypatch):
    def bug(state, runtime, result):
        raise TypeError("not model data")

    monkeypatch.setattr(engine, "step_month", bug)
    cfg = gen_config()
    region = generate_region(1, 500, 0.0, rng(0), WorldConfig())
    tasks = batch_tasks(cfg, [region], cases=[1], runs_per_scenario=2)
    with pytest.raises(TypeError, match="not model data"):
        run_batch(tasks, jobs=1)
