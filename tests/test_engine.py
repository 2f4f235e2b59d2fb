"""Whole-run behavior: determinism, conservation, aggregation, batching."""
import copy
import pickle
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metrosim import engine
from metrosim.config import EngineConfig, FiscalConfig, default_config
from metrosim.demographics import VitalBracket, VitalRates
from metrosim.economy import consume
from metrosim.engine import (
    RunFailure,
    RunResult,
    batch_tasks,
    run_batch,
    run_scenario,
    summarize_runs,
)
from metrosim.errors import InvariantViolation, ValidationError
from metrosim.fiscal import (
    TAX_KINDS, MpfTable, TaxKind, TaxLedger, TaxRates, distribute, policy_for_case,
)
from metrosim.housing import HousingParams
from metrosim.rng import RngStreams
from metrosim.worldgen import WorldConfig, default_apc_batch, generate_region, instantiate_world

from conftest import (
    add_family, add_firm, break_invariant, firm_records, kind_sums, ledger_entries, living,
    region_of, rng,
)


def with_case(cfg, case_id):
    return replace(cfg, fiscal=replace(cfg.fiscal, case_id=case_id))


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


def start_run(cfg, region, seed):
    """A world at month 0 with its run state and an empty result, as ``run_scenario``
    builds them."""
    state = engine.draw_world(cfg, seed, region)
    runtime, result = engine.start_run(cfg, state, seed, region.id)
    return state, runtime, result


def test_smoke_three_citizen_world(gen_config):
    cfg = gen_config(n_municipalities=1, total_population=3, skew=0.0,
                     population_fraction=1.0, horizon=12)
    state, runtime, result = start_run(cfg, region_of(cfg), seed=0)
    for _ in range(12):
        engine.step_month(state, runtime, result)
        assert state.money_in_circulation() == pytest.approx(state.money_base, abs=0.05)
    assert len(result.gdp_value) == 12
    assert result == run_scenario(cfg, seed=0, region=region_of(cfg))


def test_series_lengths_match_horizon(gen_config):
    cfg = gen_config(horizon=7)
    result = run_scenario(cfg, seed=1, region=region_of(cfg))
    for series in (result.gdp_value, result.gdp_index, result.inflation,
                   result.unemployment, result.units_consumed, result.housing_sales):
        assert len(series) == 7
    n = len(result.municipality_ids)
    assert result.qli.shape == result.populations.shape == (7, n)
    assert result.inflows.shape == (7, len(TAX_KINDS), n)
    assert result.taxes_by_kind.shape == (7, len(TAX_KINDS))
    assert (result.qli.dtype, result.populations.dtype) == (np.float64, np.int64)


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
    assert (np.diff(result.qli, axis=0) >= 0.0).all()
    assert (result.qli[-1] > 0.0).all()  # some tax money reached every municipality


def test_zero_tax_rates_freeze_public_sector(gen_config):
    cfg = gen_config(horizon=12, tax_rates=TaxRates(0.0, 0.0, 0.0, 0.0, 0.0))
    result = run_scenario(cfg, seed=0, region=region_of(cfg))
    assert not result.qli.any() and not result.inflows.any()
    assert result.qli.shape[0] == result.inflows.shape[0] == 12
    assert result.taxes_by_kind.tolist() == [[0.0] * len(TAX_KINDS)] * 12


def test_single_municipality_cases_identical(gen_config):
    # with one municipality every channel routes to the same treasury, so the
    # four distribution cases cannot differ
    base = gen_config(n_municipalities=1, total_population=2_000, skew=0.0, horizon=12)
    region = region_of(base)
    runs = {c: run_scenario(with_case(base, c), seed=5, region=region) for c in (1, 2, 3, 4)}
    reference = runs[1]
    for case_id in (2, 3, 4):
        assert runs[case_id].qli.tobytes() == reference.qli.tobytes()
        assert runs[case_id].gdp_value == reference.gdp_value


def test_frozen_world_mode_shares_world_draw(gen_config):
    frozen = gen_config(horizon=4)
    frozen.engine = EngineConfig(horizon_months=4, seed=0, reinstantiate_per_run=False)
    region = region_of(frozen)
    # money_base is fixed at instantiation, so equal bases mean one shared world
    a = engine.draw_world(frozen, 11, region)
    b = engine.draw_world(frozen, 22, region)
    assert a.money_base == b.money_base

    fresh = gen_config(horizon=4)
    c = engine.draw_world(fresh, 11, region)
    d = engine.draw_world(fresh, 22, region)
    assert c.money_base != d.money_base


def test_frozen_shares_split_by_month_zero_populations(gen_config, monkeypatch):
    cfg = gen_config(horizon=24)
    cfg.fiscal = replace(cfg.fiscal, freeze_mpf_shares=True)
    region = region_of(cfg)
    frozen = instantiate_world(region, cfg.world, RngStreams(0).worldgen).populations()
    share_vectors = engine.share_vectors
    frozen_shares = share_vectors(0, frozen, MpfTable())
    calls, share_bases = [], []

    def recording(sums, policy, equal, mpf):
        calls.append((sums.copy(), equal, mpf))
        return distribute(sums, policy, equal, mpf)

    def sharing(month, populations, table):
        share_bases.append(list(populations))
        return share_vectors(month, populations, table)

    monkeypatch.setattr(engine, "distribute", recording)
    monkeypatch.setattr(engine, "share_vectors", sharing)
    result = run_scenario(cfg, seed=0, region=region)
    assert share_bases == [frozen]  # computed once, when the run starts
    policy = policy_for_case(cfg.fiscal.case_id)
    moved = 0
    assert len(calls) == 24
    for month, (sums, equal, mpf) in enumerate(calls):
        assert [equal.tobytes(), mpf.tobytes()] == [s.tobytes() for s in frozen_shares]
        expected = distribute(sums, policy, *frozen_shares)
        assert result.inflows[month].tobytes() == expected.tobytes()
        current = result.populations[month].tolist()
        if current == frozen:
            continue
        moved += 1
        # the equal and MPF channels would split differently by the current populations
        by_current = distribute(sums, policy, *share_vectors(month, current, MpfTable()))
        assert not np.array_equal(expected, by_current)
    assert moved > 0  # births and deaths moved the populations in some month


def test_audit_rejects_an_employed_minor():
    state, runtime, result, _ = apc33_month()
    minor = next(cid for cid in living(state) if state.age[cid] < 12)
    state.hire([int(state.cash.argmax())], [minor])
    with pytest.raises(InvariantViolation, match="employment-consistency"):
        engine.step_month(state, runtime, result)


def test_audit_rejects_a_nan_in_savings(gen_config):
    # a NaN drift compares false with the tolerance, so it must fail the audit
    cfg = gen_config(horizon=2)
    state, runtime, result = start_run(cfg, region_of(cfg), seed=0)
    engine.step_month(state, runtime, result)
    state.savings[np.flatnonzero(state.live)[0]] = np.nan
    with pytest.raises(InvariantViolation, match="money-conservation"):
        engine.step_month(state, runtime, result)


def assert_columns_agree(state, living_before, births, deaths):
    """The citizen, family and house columns and the payrolls tell the same story.

    ``living_before`` is the living count when the month began, and ``births``
    and ``deaths`` are the counts its fertility and mortality passes returned.
    """
    ids = living(state)
    assert len(ids) - living_before == births - deaths
    # every living citizen's family is live, and every live family has a
    # living member
    families = np.flatnonzero(state.live).tolist()
    assert all(state.live[state.family[ids]])
    assert sorted(set(state.family[ids].tolist())) == families
    dead = ~state.alive
    assert np.all(state.family[dead] == -1)
    assert not np.any(state.provisional[dead])
    # only the living are on a payroll, and a payroll's positions order it
    # fully: no two employees share one
    staff, _ = state.payroll_order()
    assert state.alive[staff].all()
    assert len(np.unique(state.payroll_position[staff])) == len(staff)
    walked = [0] * len(state.municipality_ids)
    for cid in ids:
        walked[state.house_municipality[state.home[state.family[cid]]]] += 1
    assert state.populations() == walked
    unemployed = state.alive & (state.employer < 0)
    assert not np.any(state.wage[unemployed])  # wage 0.0 without an employer
    quals = state.qualification[state.alive]
    assert np.all((quals >= 1) & (quals <= state.qualification_levels))
    # a live family lives in a house it owns, and only there
    for f in families:
        assert state.owner[state.home[f]] == f
        assert state.resident[state.home[f]] == f
    occupied = np.flatnonzero(state.resident >= 0)
    assert sorted(state.home[state.live].tolist()) == occupied.tolist()
    # no two of the owned houses share a purchase position
    houses, _ = state.purchase_order()
    assert len(np.unique(state.purchase_position[houses])) == len(houses)
    # an escheated row (and the padding after the last family) holds nothing
    gone = ~state.live
    assert not state.savings[gone].any() and not state.arrears[gone].any()
    assert np.all(state.home[gone] == -1)
    assert state.live[state.owner[state.owner >= 0]].all()
    assert np.all(state.arrears >= 0.0)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_municipalities=st.integers(2, 4),
    total_population=st.integers(2_000, 8_000),
    skew=st.floats(0.0, 2.0),
    horizon=st.integers(1, 24),
    case_id=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_citizen_columns_hold_every_month(
    gen_config, n_municipalities, total_population, skew, horizon, case_id, seed
):
    cfg = gen_config(n_municipalities=n_municipalities, total_population=total_population,
                     skew=skew, horizon=horizon, case_id=case_id, seed=seed)
    region = region_of(cfg)
    step_month = engine.step_month
    vital = {}

    def counted(apply, key):
        def recording(*args):
            count = apply(*args)
            vital[key] += count
            return count
        return recording

    labor_market = engine.run_labor_market

    def hired(*args):
        matches = labor_market(*args)
        vital["hires"] += len(matches)
        return matches

    def watched(phase, key, left):
        # counts the citizens, employed and living as ``phase`` began, that it
        # moved out: ``left(alive, employer)`` over those rows after the phase
        def run(state, *rest):
            before = state.alive & (state.employer >= 0)
            phase(state, *rest)
            n = len(before)
            vital[key] += np.count_nonzero(before & left(state.alive[:n], state.employer[:n]))
        return run

    watch = {
        engine.demographics: ("employed_deaths", lambda alive, employer: ~alive),
        engine.taxes: ("layoffs", lambda alive, employer: alive & (employer < 0)),
    }
    phases = tuple(watched(phase, *watch[phase]) if phase in watch else phase
                   for phase in engine.PHASES)

    def checked_step(state, runtime, result):
        living_before = np.count_nonzero(state.alive)
        on_payroll_before = np.count_nonzero(state.employer >= 0)
        vital.update(births=0, deaths=0, hires=0, layoffs=0, employed_deaths=0)
        step_month(state, runtime, result)  # raises if the audit fires
        assert_columns_agree(state, living_before, vital["births"], vital["deaths"])
        # the labor flows reconcile with the payrolls
        on_payroll = np.count_nonzero(state.employer >= 0)
        assert (vital["hires"] - vital["layoffs"] - vital["employed_deaths"]
                == on_payroll - on_payroll_before)

    with (
        mock.patch.object(engine, "step_month", checked_step),
        mock.patch.object(engine, "PHASES", phases),
        mock.patch.object(engine, "run_labor_market", hired),
        mock.patch.object(engine, "apply_mortality", counted(engine.apply_mortality, "deaths")),
        mock.patch.object(engine, "apply_fertility", counted(engine.apply_fertility, "births")),
    ):
        result = run_scenario(cfg, seed, region)
    assert len(result.gdp_value) == horizon
    assert run_scenario(cfg, seed, region) == result


def test_family_columns_hold_across_escheats(gen_config, monkeypatch):
    # everyone dies at 5% a month, and houses are cheap enough that half the
    # families bid each month, so families that bought a second house die out
    cfg = gen_config(horizon=24,
                     housing=HousingParams(market_entry_rate=0.5, hedonic_base=0.1))
    state, runtime, result = start_run(cfg, region_of(cfg), seed=0)
    runtime.vital_rates = VitalRates([VitalBracket(0, 101, 0.05, 0.0)])
    deaths = []
    mortality = engine.apply_mortality

    def counted(*args):
        deaths.append(mortality(*args))
        return deaths[-1]

    monkeypatch.setattr(engine, "apply_mortality", counted)
    escheated_owners = 0
    for _ in range(24):
        owned = np.bincount(state.owner[state.owner >= 0], minlength=len(state.live))
        living_before = np.count_nonzero(state.alive)
        engine.step_month(state, runtime, result)
        assert_columns_agree(state, living_before, 0, deaths[-1])
        escheated_owners += np.count_nonzero((owned >= 2) & ~state.live[:len(owned)])
    assert escheated_owners > 0


class _AddEachAmount(list):
    """The amounts list of a tax-entries pair: each amount goes to the ledger the
    moment it is appended, with the municipality index appended before it."""

    def __init__(self, ledger, kind, munis):
        super().__init__()
        self.ledger = ledger
        self.kind = kind
        self.munis = munis

    def append(self, amount):
        self.ledger.add(self.kind, self.munis[len(self)], amount)
        super().append(amount)

    def extend(self, amounts):
        for amount in amounts:
            self.append(amount)


def add_each_entry(ledger, kind):
    """A tax-entries pair that writes each entry to ``ledger`` one ``add`` at a time."""
    munis = []
    return munis, _AddEachAmount(ledger, kind, munis)


def apc33_month(months_done=0):
    """An apc33 world at seed 0 after ``months_done`` whole months, with the next month open."""
    region = next(r for r in default_apc_batch() if r.id == "apc33")
    state, runtime, result = start_run(default_config(), region, seed=0)
    for _ in range(months_done):
        engine.step_month(state, runtime, result)
    month = engine._Month(TaxLedger(len(state.municipality_ids)))
    return state, runtime, result, month


def test_batched_consumption_ledger_matches_per_purchase_adds(monkeypatch):
    state, runtime, result, month = apc33_month()
    engine.production(state, runtime, result, month)
    # the phase draws from the run's streams, so the replay copies them too
    per_purchase = copy.deepcopy((state, runtime, month))

    engine.consumption(state, runtime, result, month)

    ref_state, ref_runtime, ref_month = per_purchase

    def consume_adding_each(*args):
        # add each returned entry in turn, and hand the engine none
        units, spent, munis, amounts = consume(*args)
        entries = add_each_entry(ref_month.ledger, TaxKind.CONSUMPTION)
        entries[0].extend(munis.tolist())
        entries[1].extend(amounts.tolist())
        return units, spent, [], []

    monkeypatch.setattr(engine, "consume", consume_adding_each)
    engine.consumption(ref_state, ref_runtime, result, ref_month)
    assert ref_month.ledger.event_count > 100
    assert ledger_entries(month.ledger) == ledger_entries(ref_month.ledger)
    assert month.ledger.event_count == ref_month.ledger.event_count
    assert month.spent_total.hex() == ref_month.spent_total.hex()
    assert [s.hex() for s in state.savings.tolist()] == [
        s.hex() for s in ref_state.savings.tolist()
    ]


def test_housing_and_tax_phases_match_per_entry_adds(monkeypatch):
    # month 95 is a profit-tax month (cadence 3); at seed 0 it has 8 house
    # sales and 23 profit-tax payers, so all four kinds get several entries
    state, runtime, result, month = apc33_month(months_done=95)
    assert (state.month + 1) % runtime.config.fiscal.profit_tax_cadence_months == 0
    for phase in engine.PHASES[:engine.PHASES.index(engine.housing)]:
        phase(state, runtime, result, month)
    ref_state, ref_runtime, ref_month = copy.deepcopy((state, runtime, month))

    engine.housing(state, runtime, result, month)
    engine.taxes(state, runtime, result, month)

    def adding_each(fn, kind):
        def wrapped(*args):
            return fn(*args[:-1], add_each_entry(ref_month.ledger, kind))
        return wrapped

    def returning_adding_each(fn, kind):
        # the payroll, the property tax and the profit tax return their
        # entries: add each, and hand the engine none
        def wrapped(*args):
            munis, amounts = fn(*args)
            entries = add_each_entry(ref_month.ledger, kind)
            entries[0].extend(munis.tolist())
            entries[1].extend(amounts.tolist())
            return [], []
        return wrapped

    monkeypatch.setattr(engine, "run_housing_market",
                        adding_each(engine.run_housing_market, TaxKind.TRANSMISSION))
    for name, kind in (
        ("pay_wages", TaxKind.PERSONAL_INCOME),
        ("collect_property_tax", TaxKind.PROPERTY),
        ("settle_profit_tax", TaxKind.COMPANY),
    ):
        monkeypatch.setattr(engine, name, returning_adding_each(getattr(engine, name), kind))
    engine.housing(ref_state, ref_runtime, result, ref_month)
    engine.taxes(ref_state, ref_runtime, result, ref_month)

    kinds = (TaxKind.TRANSMISSION, TaxKind.PERSONAL_INCOME, TaxKind.PROPERTY, TaxKind.COMPANY)
    for kind in kinds:
        assert len(kind_sums(ref_month.ledger, kind)) > 1, kind
    assert ledger_entries(month.ledger) == ledger_entries(ref_month.ledger)
    assert month.ledger.total_by_kind().tobytes() == ref_month.ledger.total_by_kind().tobytes()
    assert month.ledger.event_count == ref_month.ledger.event_count
    assert month.sales == ref_month.sales > 1


@pytest.mark.parametrize("seed", range(25))
def test_gdp_and_profit_folds_match_per_firm_loops_bit_for_bit(seed):
    # random prices (some at the floor) and month figures (zero payrolls,
    # losses) on a drawn world; each month sum folds firm by firm from 0.0
    gen = rng(seed)
    region = generate_region(3, 6_000, 1.0, gen, WorldConfig())
    state = instantiate_world(region, WorldConfig(population_fraction=0.05), gen)
    runtime, result = engine.start_run(default_config(), state, seed, region.id)
    n = len(state.cash)
    state.price[:] = np.where(gen.random(n) < 0.3, 0.01, gen.uniform(0.01, 3.0, size=n))
    state.inventory[:] = gen.uniform(0.0, 5.0, size=n)
    records = firm_records(state)
    month = engine._Month(TaxLedger(len(state.municipality_ids)))
    engine.production(state, runtime, result, month)
    market = runtime.config.market
    gdp = 0.0
    for firm in records:
        total = 0.0
        for cid in firm.employees:
            total += state.qualification.item(cid) ** market.qualification_exponent_beta
        gdp += market.productivity_alpha * total * firm.price
    assert type(month.gdp_value) is float and month.gdp_value.hex() == gdp.hex()
    assert not state.revenue_this_month.any()

    for column in (state.revenue_this_month, state.payroll_this_month):
        column[:] = np.where(gen.random(n) < 0.3, 0.0, gen.uniform(0.0, 50.0, size=n))
    profit = 0.0
    for firm in firm_records(state):
        profit += firm.revenue_this_month - firm.payroll_this_month
    month.populations = state.populations()
    engine.metrics(state, runtime, result, month)
    assert result.gdp_value == [month.gdp_value]
    [average] = result.avg_firm_profit
    assert type(average) is float and average.hex() == (profit / n).hex()


def test_depopulated_municipality_escheats_into_the_pool(make_state, caplog):
    state = make_state(("m00", "m01"))
    add_family(state, 0, [10])
    firm = add_firm(state, 0)
    month = engine._Month(TaxLedger(2))
    month.ledger.add(TaxKind.PROPERTY, 1, 4.0)  # case 3 keeps it in empty m01
    cfg = replace(default_config(), fiscal=FiscalConfig(case_id=3))
    runtime, result = engine.start_run(cfg, state, 0, "r")
    engine.distribution(state, runtime, result, month)
    assert state.escheat_pool == 4.0
    assert state.treasury[1] == 0.0
    assert state.cash[firm] == 100.0  # nothing was invested, so nothing was procured
    assert "municipality m01 depopulated at month 0" in caplog.text
    assert "(region r, case 3, seed 0)" in caplog.text  # names the run


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def fake_run(final_qli, seed=0):
    run = RunResult(apc_id="r", case_id=1, seed=seed, municipality_ids=["m00"],
                    qli=np.array([[0.0], [0.0], [final_qli]]))
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


@pytest.mark.parametrize("reinstantiate", [True, False])
def test_batch_draws_each_world_once(gen_config, monkeypatch, reinstantiate):
    # the four cases of a run share one world; with reinstantiate_per_run off
    # so do all runs of a region
    calls = []

    def counting(region, world_config, stream):
        calls.append(region.id)
        return instantiate_world(region, world_config, stream)

    monkeypatch.setattr(engine, "instantiate_world", counting)
    cfg = gen_config(horizon=2, total_population=2_000, n_municipalities=2)
    cfg.engine = replace(cfg.engine, reinstantiate_per_run=reinstantiate)
    regions = [generate_region(2, 2_000, 0.5, rng(i), WorldConfig()) for i in (1, 2)]
    regions[1] = replace(regions[1], id="other")
    tasks = batch_tasks(cfg, regions, cases=[1, 2, 3, 4], runs_per_scenario=3)
    run_batch(tasks, jobs=1)
    runs_drawn = 3 if reinstantiate else 1
    assert sorted(calls) == sorted([regions[0].id, "other"] * runs_drawn)


@pytest.mark.parametrize("reinstantiate", [True, False])
@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_runs_equal_fresh_runs(gen_config, reinstantiate, jobs):
    # a task starts from its own copy of the shared world, so no case sees
    # what an earlier case did to it
    cfg = gen_config(horizon=4, total_population=2_000, n_municipalities=2)
    cfg.engine = replace(cfg.engine, reinstantiate_per_run=reinstantiate)
    region = generate_region(2, 2_000, 0.5, rng(1), WorldConfig())
    tasks = batch_tasks(cfg, [region], cases=[1, 2, 3, 4], runs_per_scenario=2)
    results = run_batch(tasks, jobs=jobs)
    assert len(results) == 4
    for (apc_id, case_id), scenario in results.items():
        fresh = [run_scenario(t.config, t.seed, t.region) for t in tasks
                 if t.config.fiscal.case_id == case_id]
        assert len(fresh) == 2
        assert scenario.runs == fresh


def test_an_unpickled_world_holds_canonical_arrays(gen_config):
    # numpy unpickles each array with a non-canonical dtype instance, on
    # which np.add.at is about ten times slower; every batch run starts from
    # an unpickled world
    cfg = gen_config(horizon=1)
    world = pickle.loads(pickle.dumps(engine.draw_world(cfg, 0, region_of(cfg))))
    arrays = [value for value in vars(world).values() if isinstance(value, np.ndarray)]
    # the citizen, family and house columns, the firms', then the municipalities'
    assert len(arrays) == 20 + 12 + 2
    for array in arrays:
        assert array.dtype is np.dtype(array.dtype.str)
    # the agents are columns: besides the municipality ids, a world holds no
    # Python container, whose unpickling would cost every batch task per agent
    others = {name: type(value) for name, value in vars(world).items()
              if not isinstance(value, (np.ndarray, int, float)) and name != "municipality_ids"}
    assert others == {}


def test_run_task_carries_no_world(gen_config):
    # the worker draws the world; a task ships only config, region and seed
    cfg = gen_config(horizon=2, total_population=2_000, n_municipalities=2)
    task = batch_tasks(cfg, [region_of(cfg)], cases=[1], runs_per_scenario=1)[0]
    assert b"SimulationState" not in pickle.dumps(task)
    assert repr(task).endswith(f"seed={task.seed})")


def test_parallel_batch_equals_serial(gen_config):
    cfg = gen_config(horizon=4, total_population=2_000, n_municipalities=2)
    region = generate_region(2, 2_000, 0.5, rng(1), WorldConfig())
    tasks = batch_tasks(cfg, [region], cases=[1, 2], runs_per_scenario=2)
    serial = run_batch(tasks, jobs=1)
    parallel = run_batch(tasks, jobs=2)
    assert serial.keys() == parallel.keys()
    for key in serial:
        assert serial[key] == parallel[key]


class RecordingPool:
    """Stand-in for ``ProcessPoolExecutor`` that records its size and what
    ``map`` is handed, and runs the work in this process."""

    started = []
    handed = []

    def __init__(self, max_workers):
        RecordingPool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        items = list(items)
        RecordingPool.handed.append((items, chunksize))
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.started, RecordingPool.handed = [], []
    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


def test_pool_never_larger_than_task_list(gen_config, recording_pool):
    cfg = gen_config(horizon=2, total_population=2_000, n_municipalities=2)
    tasks = batch_tasks(cfg, [region_of(cfg)], cases=[1], runs_per_scenario=2)
    run_batch(tasks, jobs=8)
    assert recording_pool.started == [2]


def dispatched(pool, tasks, jobs):
    """(chunks as lists of tasks, chunksize) that ``run_batch`` hands its pool."""
    pooled = run_batch(tasks, jobs=jobs)
    assert pooled == run_batch(tasks, jobs=1)  # outcomes back in task order
    [(items, chunksize)] = pool.handed
    assert sorted(map(id, items)) == sorted(map(id, tasks))
    return [items[i:i + chunksize] for i in range(0, len(items), chunksize)], chunksize


def test_pool_gets_one_world_per_chunk_largest_first(gen_config, recording_pool):
    cfg = gen_config(horizon=1, total_population=2_000, n_municipalities=2)
    # four regions, smallest first in task order
    regions = [replace(generate_region(2, 1_000 * (k + 1), 0.5, rng(k), WorldConfig()), id=f"r{k}")
               for k in range(4)]
    tasks = batch_tasks(cfg, regions, cases=[1, 2], runs_per_scenario=2)
    chunks, chunksize = dispatched(recording_pool, tasks, jobs=2)
    assert chunksize == 2  # 8 worlds for 2 workers: one chunk per world
    worlds = [{(t.region.id, t.seed) for t in chunk} for chunk in chunks]
    assert all(len(world) == 1 for world in worlds)
    assert [sorted(t.config.fiscal.case_id for t in chunk) for chunk in chunks] == [[1, 2]] * 8
    sizes = [chunk[0].region.total_population for chunk in chunks]
    assert sizes == sorted(sizes, reverse=True)
    assert chunks[0][0].region.id == "r3"


def test_pool_gets_single_tasks_when_worlds_are_few(gen_config, recording_pool):
    cfg = gen_config(horizon=1, total_population=2_000, n_municipalities=2)
    tasks = batch_tasks(cfg, [region_of(cfg)], cases=[1, 2, 3, 4], runs_per_scenario=3)
    chunks, chunksize = dispatched(recording_pool, tasks, jobs=2)
    assert chunksize == 1  # 3 worlds for 2 workers
    assert [chunk[0] for chunk in chunks] == tasks  # one region: task order kept


def test_each_batch_draws_its_own_worlds(gen_config):
    # a world config changed in place between batches must not hit the
    # world the last batch left in this process
    cfg = gen_config(horizon=1, total_population=2_000, n_municipalities=2)
    region = region_of(cfg)
    run_batch(batch_tasks(cfg, [region], cases=[1], runs_per_scenario=1))
    cfg.world.population_fraction = 0.1
    [task] = batch_tasks(cfg, [region], cases=[1], runs_per_scenario=1)
    [scenario] = run_batch([task]).values()
    assert scenario.runs == [run_scenario(task.config, task.seed, region)]


def test_empty_batch_is_empty():
    assert run_batch([], jobs=2) == {}


@pytest.mark.parametrize("jobs", [1, 2])
def test_undrawable_world_stops_the_batch(gen_config, monkeypatch, jobs):
    # the world is drawn in the process that runs the task; its error is not run data
    def invalid(region, world_config, stream):
        raise ValidationError("cannot draw this world")

    monkeypatch.setattr(engine, "instantiate_world", invalid)
    cfg = gen_config(horizon=1, total_population=2_000, n_municipalities=2)
    tasks = batch_tasks(cfg, [region_of(cfg)], cases=[1, 2], runs_per_scenario=2)
    with pytest.raises(ValidationError, match="cannot draw this world"):
        run_batch(tasks, jobs=jobs)


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
