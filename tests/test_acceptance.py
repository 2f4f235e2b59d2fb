"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single "criterion N: PASS" line on success (run with -s to
see them); a failure shows up as the usual pytest FAILED line. The expensive
default batch is computed once and shared by the two tests that need it.
"""
import json
import math
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

from metrosim import analytics, cli, engine
from metrosim.analytics import best_case, build_dataset, fit_model, region_table
from metrosim.config import (
    EngineConfig,
    RegionSource,
    ScenarioConfig,
    WorldConfig,
    default_config,
)
from metrosim.economy import MarketParams
from metrosim.engine import batch_tasks, run_batch, run_scenario
from metrosim.fiscal import TAX_KINDS, MpfTable, TaxKind, mpf_shares, policy_for_case
from metrosim.housing import HousingParams, run_housing_market
from metrosim.worldgen import default_apc_batch, generate_region

from conftest import region_of

CURRENCY_UNIT = 0.01

# Table of channel weights per case: (local, equal, bracket-fund) per tax kind
EXPECTED_WEIGHTS = {
    1: {
        TaxKind.CONSUMPTION: (0.1875, 0.8125, 0.0),
        TaxKind.PERSONAL_INCOME: (0.0, 0.765, 0.235),
        TaxKind.TRANSMISSION: (1.0, 0.0, 0.0),
        TaxKind.COMPANY: (0.0, 0.765, 0.235),
        TaxKind.PROPERTY: (1.0, 0.0, 0.0),
    },
    2: {
        TaxKind.CONSUMPTION: (0.0, 1.0, 0.0),
        TaxKind.PERSONAL_INCOME: (0.0, 0.765, 0.235),
        TaxKind.TRANSMISSION: (0.0, 1.0, 0.0),
        TaxKind.COMPANY: (0.0, 0.765, 0.235),
        TaxKind.PROPERTY: (0.0, 1.0, 0.0),
    },
    3: {kind: (1.0, 0.0, 0.0) for kind in TAX_KINDS},
    4: {kind: (0.0, 1.0, 0.0) for kind in TAX_KINDS},
}


def generated_scenario(n_munis, population, skew, fraction, horizon, **engine_kw):
    return ScenarioConfig(
        region=RegionSource(mode="generate", n_municipalities=n_munis,
                            total_population=population, skew=skew),
        world=WorldConfig(population_fraction=fraction),
        engine=EngineConfig(horizon_months=horizon, **engine_kw),
    )


@pytest.fixture(scope="session")
def default_batch():
    """The shipped 40-region batch: 4 cases x 3 runs x 240 months at 2%, on two
    worker processes (``--jobs`` does not move outputs: criterion 10 and the
    jobs-2 golden digests)."""
    cfg = default_config()
    regions = default_apc_batch()
    tasks = batch_tasks(cfg, regions, cases=[1, 2, 3, 4])
    start = perf_counter()
    scenarios = run_batch(tasks, jobs=2)
    elapsed = perf_counter() - start
    return regions, scenarios, elapsed


def test_criterion_01_policy_weight_matrix():
    start = perf_counter()
    for case_id, expected in EXPECTED_WEIGHTS.items():
        weights = policy_for_case(case_id).weights
        for kind, (local, equal, mpf) in expected.items():
            w = weights[kind]
            assert (w.local, w.equal, w.mpf) == (local, equal, mpf)
            assert abs((w.local + w.equal + w.mpf) - 1.0) <= 1e-12
    assert policy_for_case(1).weights[TaxKind.CONSUMPTION].local == 0.1875
    assert perf_counter() - start < 1.0
    print("criterion 1: PASS")


@pytest.mark.slow
def test_criterion_02_conservation_at_scale():
    region = generate_region(6, 1_000_000, 1.2, np.random.default_rng(7), WorldConfig())
    cfg = generated_scenario(6, 1_000_000, 1.2, fraction=0.02, horizon=240)
    start = perf_counter()
    # the engine audits money conservation every month and raises on drift,
    # so a completed run certifies the global audit closed 240 times
    result = run_scenario(cfg, seed=0, region=region)
    elapsed = perf_counter() - start
    assert sum(series[-1] for series in result.populations.values()) > 15_000
    for kind in TAX_KINDS:
        collected = result.taxes_by_kind[kind.value]
        for month in range(cfg.engine.horizon_months):
            distributed = sum(
                result.inflows[m][kind.value][month] for m in result.municipality_ids
            )
            assert abs(distributed - collected[month]) <= CURRENCY_UNIT
    assert elapsed < 60.0, f"20k-agent run took {elapsed:.1f}s"
    print("criterion 2: PASS")


def test_criterion_03_single_municipality_case_invariance():
    start = perf_counter()
    seeds = np.random.default_rng(2026).integers(0, 2**31, size=10)
    cfg = generated_scenario(1, 5_000, 0.0, fraction=0.05, horizon=240)
    region = region_of(cfg)
    for seed in seeds:
        runs = {
            case_id: run_scenario(replace(cfg, fiscal=replace(cfg.fiscal, case_id=case_id)),
                                  seed=int(seed), region=region)
            for case_id in (1, 2, 3, 4)
        }
        reference = runs[1]
        for case_id in (2, 3, 4):
            assert runs[case_id].qli == reference.qli  # bit-identical trajectories
    assert perf_counter() - start < 60.0
    print("criterion 3: PASS")


def test_criterion_04_per_capita_share_monotone():
    start = perf_counter()
    table = MpfTable()
    rng = np.random.default_rng(1105)
    for _ in range(1_000):
        small, large = sorted(int(p) for p in rng.integers(1, 300_001, size=2))
        if small == large:
            continue
        share_small, share_large = mpf_shares([small, large], table)
        per_capita_small = share_small / small
        per_capita_large = share_large / large
        assert per_capita_small >= per_capita_large * (1.0 - 1e-9)
    assert perf_counter() - start < 10.0
    print("criterion 4: PASS")


def test_criterion_05_midpoint_settlement_exact(monkeypatch):
    region = default_apc_batch()[0]
    cfg = default_config()
    transactions = []

    def recording_market(*args):
        settled = run_housing_market(*args)
        transactions.extend(settled)
        return settled

    monkeypatch.setattr(engine, "run_housing_market", recording_market)
    result = run_scenario(cfg, seed=0, region=region)
    assert transactions, "a default run should see housing turnover"
    assert len(transactions) == sum(result.housing_sales)
    for t in transactions:
        midpoint = (t.hedonic + t.offer) / 2.0
        assert abs(t.price - midpoint) <= 1e-12 * max(1.0, abs(t.price))
    print("criterion 5: PASS")


def test_criterion_06_ols_against_normal_equations():
    start = perf_counter()
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(25, 201))
        k = int(rng.integers(2, 21))
        X = rng.normal(size=(n, k))
        X[:, 0] = 1.0
        beta = rng.normal(size=k)
        y = X @ beta + rng.normal(scale=0.3, size=n)
        fit = analytics.ols_fit(X, y)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(fit.coefficients, oracle, rtol=1e-8, atol=1e-10)
        assert fit.aic == 2.0 * fit.n_parameters - 2.0 * fit.loglik
        assert fit.bic == fit.n_parameters * math.log(fit.n_observations) - 2.0 * fit.loglik
        exact = analytics.ols_fit(X, X @ beta)
        assert abs(exact.r_squared - 1.0) <= 1e-10
    assert perf_counter() - start < 10.0
    print("criterion 6: PASS")


@pytest.mark.slow
def test_criterion_07_policy_coefficient_signs(default_batch):
    _, scenarios, elapsed = default_batch
    assert elapsed < 1800.0, f"default batch took {elapsed:.0f}s"
    observations = build_dataset(scenarios)
    assert len(observations) == 160  # 40 regions x 4 cases, none dropped
    fit = fit_model(observations, "simul1")
    assert fit.coefficient("alternative0") < 0.0
    assert fit.coefficient("mpf_distribution") > 0.0
    print("criterion 7: PASS")


@pytest.mark.slow
def test_criterion_08_winner_histogram_shape(default_batch):
    regions, scenarios, _ = default_batch
    tally = {1: 0, 2: 0, 3: 0, 4: 0}
    rows = region_table(scenarios, [1, 2, 3, 4])
    assert [apc_id for apc_id, _, _ in rows] == [region.id for region in regions]
    for _, raw, _ in rows:
        tally[best_case(dict(zip((1, 2, 3, 4), raw)))] += 1
    assert sum(tally.values()) == 40
    others = [tally[c] for c in (1, 3, 4)]
    assert tally[2] > max(others), f"case 2 not modal: {tally}"
    assert tally[3] == min(tally.values()), f"case 3 not rarest: {tally}"
    print("criterion 8: PASS")


@pytest.mark.slow
def test_criterion_09_comparative_statics():
    start = perf_counter()
    base = generated_scenario(4, 50_000, 1.2, fraction=0.02, horizon=240)
    seeds = range(100, 110)

    def medians(cfg):
        units, volumes = [], []
        for seed in seeds:
            result = run_scenario(cfg, seed=seed, region=region_of(cfg))
            units.append(sum(result.units_consumed))
            volumes.append(sum(result.housing_sales))
        mid = len(units) // 2
        return (sorted(units)[mid], sorted(volumes)[mid])

    base_units, base_volume = medians(base)
    productive = replace(base, market=MarketParams(productivity_alpha=2.0))
    prod_units, _ = medians(productive)
    assert prod_units >= base_units * (1.0 - 1e-12), (
        f"doubling productivity cut consumption: {base_units} -> {prod_units}"
    )
    busier = replace(base, housing=HousingParams(market_entry_rate=0.10))
    _, busy_volume = medians(busier)
    assert busy_volume >= base_volume, (
        f"doubling entry rate cut transactions: {base_volume} -> {busy_volume}"
    )
    assert perf_counter() - start < 600.0
    print("criterion 9: PASS")


def test_criterion_10_jobs_independence(tmp_path):
    doc = {
        "region": {"mode": "generate", "n_municipalities": 3,
                   "total_population": 6_000, "skew": 1.0},
        "world": {"population_fraction": 0.05},
        "engine": {"horizon_months": 24, "seed": 5, "runs_per_scenario": 3},
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    trees = {}
    for jobs in (1, 8):
        out_dir = tmp_path / f"jobs{jobs}"
        code = cli.main(["compare", "--config", str(cfg_path), "--out", str(out_dir),
                         "--export-runs", "--jobs", str(jobs)])
        assert code == 0
        trees[jobs] = {
            p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()
        }
    assert trees[1].keys() == trees[8].keys()
    assert trees[1] == trees[8]
    print("criterion 10: PASS")
