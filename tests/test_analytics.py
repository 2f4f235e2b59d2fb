"""Dataset assembly, the three regression layouts, OLS itself, and reports."""
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metrosim.analytics import (
    CASE_FLAGS,
    CASES,
    CONTROL_NAMES,
    FitResult,
    Observation,
    best_case,
    build_dataset,
    design_matrix,
    fit_model,
    format_fit_report,
    load_covariates,
    normalize_qli,
    ols_fit,
    region_qli,
    validation_report,
)
from metrosim.engine import RunFailure, RunResult, ScenarioResult, summarize_runs
from metrosim.errors import ValidationError


# ---------------------------------------------------------------------------
# Normalization and winner selection
# ---------------------------------------------------------------------------


def test_normalize_worked_example():
    assert normalize_qli([1.0, 2.0, 3.0, 4.0]) == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]


def test_normalize_all_equal_maps_to_half():
    assert normalize_qli([2.5, 2.5, 2.5, 2.5]) == [0.5, 0.5, 0.5, 0.5]


def test_normalize_rejects_non_finite():
    with pytest.raises(ValidationError):
        normalize_qli([1.0, math.nan, 2.0, 3.0])
    with pytest.raises(ValidationError):
        normalize_qli([1.0, math.inf, 2.0, 3.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
def test_normalize_preserves_argmax_and_range(values):
    ordered = sorted(values, reverse=True)
    span = ordered[0] - ordered[-1]
    assume(span > 0)
    # near-ties can collapse to the same normalized float; demand a real gap
    assume(ordered[0] - ordered[1] > 1e-9 * span)
    normalized = normalize_qli(values)
    assert normalized.index(max(normalized)) == values.index(max(values))
    assert min(normalized) == 0.0 and max(normalized) == 1.0


def test_best_case_worked_example():
    assert best_case({1: 0.1, 2: 0.9, 3: 0.2, 4: 0.3}) == 2


def test_best_case_tie_keeps_lower_id_and_logs(caplog):
    with caplog.at_level(logging.INFO, logger="metrosim.analytics"):
        winner = best_case({1: 0.9, 2: 0.9, 3: 0.1, 4: 0.2})
    assert winner == 1
    assert any("tie" in record.message for record in caplog.records)


def test_best_case_empty_rejected():
    with pytest.raises(ValidationError):
        best_case({})


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


def fake_scenario(apc, case_id, qli_by_muni, flagged=False, control_seed=0.0):
    controls = {name: 1.0 + control_seed + 0.1 * i for i, name in enumerate(CONTROL_NAMES)}
    controls["municipality_count"] = float(len(qli_by_muni))
    return ScenarioResult(
        apc_id=apc, case_id=case_id, runs=[], flagged=flagged,
        median_final_qli=dict(qli_by_muni), controls=controls,
    )


def three_region_cells(flag=None):
    scenarios = {}
    base = {"a": 0.2, "b": 0.5, "c": 0.8}
    for apc, lift in base.items():
        for case_id in CASES:
            qli = {"m00": lift + 0.1 * case_id, "m01": lift + 0.05 * case_id}
            flagged = flag == (apc, case_id)
            scenarios[(apc, case_id)] = fake_scenario(
                apc, case_id, qli, flagged=flagged, control_seed=lift + 0.01 * case_id
            )
    return scenarios


def test_region_qli_unweighted_mean():
    scenario = fake_scenario("a", 1, {"m00": 0.2, "m01": 0.4})
    assert region_qli(scenario) == pytest.approx(0.3)


def test_region_qli_requires_values():
    with pytest.raises(ValidationError):
        region_qli(ScenarioResult(apc_id="a", case_id=1, runs=[]))


def test_build_dataset_full_grid():
    observations = build_dataset(three_region_cells())
    assert len(observations) == 12
    assert [o.apc_id for o in observations[:4]] == ["a"] * 4
    assert [o.case_id for o in observations[:4]] == list(CASES)
    for obs in observations:
        assert (obs.alternative0, obs.mpf_distribution) == CASE_FLAGS[obs.case_id]
    # per-region normalization spans [0, 1]: case 4 lifts QLI most here
    per_a = [o.qli_final for o in observations if o.apc_id == "a"]
    assert min(per_a) == 0.0 and max(per_a) == 1.0
    assert per_a.index(1.0) == CASES.index(4)


def test_build_dataset_drops_flagged_region(caplog):
    with caplog.at_level(logging.WARNING, logger="metrosim.analytics"):
        observations = build_dataset(three_region_cells(flag=("b", 3)))
    assert len(observations) == 8
    assert {o.apc_id for o in observations} == {"a", "c"}
    assert any("dropped" in record.message for record in caplog.records)


def test_build_dataset_joins_covariates():
    covariates = {"a": {"area": 10.0}, "b": {"area": 20.0}, "c": {"area": 30.0}}
    observations = build_dataset(three_region_cells(), covariates)
    assert all(o.covariates == covariates[o.apc_id] for o in observations)


def test_build_dataset_missing_covariates_lists_regions():
    with pytest.raises(ValidationError, match="b, c"):
        build_dataset(three_region_cells(), {"a": {"area": 10.0}})


def test_load_covariates_round_trip(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("apc_id,area,density\na,10,1.5\nb,20,2.5\n", encoding="utf-8")
    assert load_covariates(path) == {
        "a": {"area": 10.0, "density": 1.5},
        "b": {"area": 20.0, "density": 2.5},
    }
    bad = tmp_path / "bad.csv"
    bad.write_text("region,area\na,10\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="apc_id"):
        load_covariates(bad)


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------


def test_simul1_design():
    X, y, names = design_matrix(build_dataset(three_region_cells()), "simul1")
    assert names == ["intercept", "alternative0", "mpf_distribution", "apc[b]", "apc[c]"]
    assert X.shape == (12, 5)
    assert (X[:, 0] == 1.0).all()
    # rows come sorted by (apc, case): the first four are region a, cases 1-4
    assert X[:4, 1].tolist() == [1.0, 0.0, 1.0, 0.0]
    assert X[:4, 2].tolist() == [1.0, 1.0, 0.0, 0.0]
    assert X[:4, 3].tolist() == [0.0] * 4
    assert X[4:8, 3].tolist() == [1.0] * 4
    assert len(y) == 12


def test_simul2_adds_controls_without_municipality_count():
    X, _, names = design_matrix(build_dataset(three_region_cells()), "simul2")
    assert names[:3] == ["intercept", "alternative0", "mpf_distribution"]
    assert list(CONTROL_NAMES) == names[3:8]
    assert "municipality_count" not in names
    assert names[8:] == ["apc[b]", "apc[c]"]
    assert X.shape == (12, 10)


def test_simul3_keeps_count_drops_dummies():
    X, _, names = design_matrix(build_dataset(three_region_cells()), "simul3")
    assert names == ["intercept", "alternative0", "mpf_distribution",
                     *CONTROL_NAMES, "municipality_count"]
    assert not any(name.startswith("apc[") for name in names)
    assert (X[:, names.index("municipality_count")] == 2.0).all()


def test_design_matrix_rejects_unknown_model_and_empty_data():
    observations = build_dataset(three_region_cells())
    with pytest.raises(ValidationError, match="unknown model"):
        design_matrix(observations, "simul9")
    with pytest.raises(ValidationError, match="empty"):
        design_matrix([], "simul1")


def test_covariates_become_columns():
    covariates = {a: {"area": 10.0 * (i + 1)} for i, a in enumerate(("a", "b", "c"))}
    observations = build_dataset(three_region_cells(), covariates)
    _, _, names = design_matrix(observations, "simul1")
    assert "covariate_area" in names


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------


def random_problem(rng, n=None, k=None):
    n = n or int(rng.integers(25, 60))
    k = k or int(rng.integers(2, 8))
    X = rng.normal(size=(n, k))
    X[:, 0] = 1.0
    y = rng.normal(size=n)
    return X, y


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(42)
    for _ in range(20):
        X, y = random_problem(rng)
        fit = ols_fit(X, y)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(fit.coefficients, oracle, rtol=1e-8, atol=1e-12)
        residuals = y - X @ fit.coefficients
        sigma2 = residuals @ residuals / (len(y) - X.shape[1])
        se_oracle = np.sqrt(np.diag(sigma2 * np.linalg.inv(X.T @ X)))
        np.testing.assert_allclose(fit.standard_errors, se_oracle, rtol=1e-8)


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(7)
    X, y = random_problem(rng, n=50, k=6)
    fit = ols_fit(X, y)
    residuals = y - X @ fit.coefficients
    assert np.max(np.abs(X.T @ residuals)) <= 1e-8 * np.linalg.norm(y)


def test_exact_fit_r_squared_one():
    rng = np.random.default_rng(3)
    X, _ = random_problem(rng, n=30, k=4)
    beta = np.array([0.5, -1.0, 2.0, 0.25])
    y = X @ beta
    fit = ols_fit(X, y)
    assert abs(fit.r_squared - 1.0) <= 1e-10
    np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-8, atol=1e-10)


def test_intercept_only_model_estimates_mean():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    fit = ols_fit(np.ones((4, 1)), y)
    assert fit.coefficient("x0") == pytest.approx(3.0, rel=1e-12)


def test_information_criteria_identities():
    rng = np.random.default_rng(11)
    X, y = random_problem(rng, n=40, k=5)
    fit = ols_fit(X, y)
    assert fit.aic == 2.0 * fit.n_parameters - 2.0 * fit.loglik
    assert fit.bic == fit.n_parameters * math.log(fit.n_observations) - 2.0 * fit.loglik


def test_rank_deficiency_names_the_columns():
    rng = np.random.default_rng(5)
    X, y = random_problem(rng, n=30, k=3)
    X = np.column_stack([X, X[:, 1]])  # duplicate a column
    with pytest.raises(ValidationError, match="dependent columns") as excinfo:
        ols_fit(X, y, names=["intercept", "slope", "noise", "slope_copy"])
    assert "slope" in str(excinfo.value)


def test_ols_shape_and_size_errors():
    with pytest.raises(ValidationError, match="bad shapes"):
        ols_fit(np.ones(4), np.ones(4))
    with pytest.raises(ValidationError, match="bad shapes"):
        ols_fit(np.ones((4, 2)), np.ones(3))
    with pytest.raises(ValidationError, match="more observations"):
        ols_fit(np.ones((3, 3)), np.ones(3))
    with pytest.raises(ValidationError, match="names"):
        ols_fit(np.ones((4, 2)) + np.arange(4)[:, None], np.ones(4), names=["only_one"])


def planted_observations():
    rng = np.random.default_rng(3)
    observations = []
    for i, apc in enumerate(("a", "b", "c")):
        region_effect = (0.0, 0.1, -0.05)[i]
        for case_id in CASES:
            alt0, mpf = CASE_FLAGS[case_id]
            controls = {name: float(rng.uniform(0.5, 2.0)) for name in CONTROL_NAMES}
            controls["municipality_count"] = float(2 + i)
            value = 0.2 - 0.3 * alt0 + 0.4 * mpf + region_effect
            observations.append(
                Observation(apc_id=apc, case_id=case_id, alternative0=alt0,
                            mpf_distribution=mpf, qli_final=value, qli_raw=value,
                            controls=controls)
            )
    return observations


def test_fit_model_recovers_planted_effects():
    fit = fit_model(planted_observations(), "simul1")
    assert fit.coefficient("intercept") == pytest.approx(0.2, abs=1e-10)
    assert fit.coefficient("alternative0") == pytest.approx(-0.3, abs=1e-10)
    assert fit.coefficient("mpf_distribution") == pytest.approx(0.4, abs=1e-10)
    assert fit.coefficient("apc[b]") == pytest.approx(0.1, abs=1e-10)
    assert fit.coefficient("apc[c]") == pytest.approx(-0.05, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_stars_thresholds():
    fit = FitResult(
        names=["a", "b", "c", "d"],
        coefficients=np.zeros(4), standard_errors=np.ones(4),
        t_statistics=np.zeros(4), p_values=np.array([0.005, 0.03, 0.07, 0.5]),
        r_squared=0.0, adj_r_squared=0.0, loglik=0.0, aic=0.0, bic=0.0,
        n_observations=10, n_parameters=4,
    )
    assert [fit.stars(n) for n in fit.names] == ["***", "**", "*", ""]


def test_format_fit_report_layout():
    fits = {"simul1": fit_model(planted_observations(), "simul1"),
            "simul3": fit_model(planted_observations(), "simul3")}
    report = format_fit_report(fits)
    assert "simul1" in report and "simul3" in report
    assert "alternative0" in report
    assert "region dummies" in report
    assert "2 (+ref)" in report and "none" in report
    assert "stars: *** p<0.01" in report
    assert "apc[" not in report  # dummies live in the CSV, not the table
    assert "n_observations" in report and "bic" in report


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------


def macro_run(consumption=10.0, income=5.0):
    run = RunResult(apc_id="r", case_id=1, seed=0, horizon=2)
    run.taxes_by_kind = {
        "consumption": [consumption, consumption],
        "personal_income": [income, income],
        "transmission": [0.0, 0.0],
        "company": [0.0, 0.0],
        "property": [0.0, 0.0],
    }
    run.gdp_value = [100.0, 100.0]
    run.inflation = [0.0, 0.01]
    run.unemployment = [0.1, 0.2]
    return run


def test_validation_report_shares_and_ratios():
    report = validation_report([macro_run()])
    shares = report.shares_by_kind
    assert shares["consumption"] == pytest.approx(20.0 / 30.0)
    assert shares["personal_income"] == pytest.approx(10.0 / 30.0)
    assert sum(s for s in shares.values() if s) == pytest.approx(1.0)
    assert report.tax_to_gdp == pytest.approx(30.0 / 200.0)
    assert report.inflation_mean == pytest.approx(0.005)
    assert report.unemployment_mean == pytest.approx(0.15)
    assert report.runs_used == 1


def test_validation_report_all_failed_rejected():
    # a cell whose every run failed holds no completed run to report on
    scenario = summarize_runs("r", 1, [], [RunFailure(0, "month 3: invariant 'x' violated")])
    with pytest.raises(ValidationError):
        validation_report(scenario.runs)


def test_validation_report_zero_collection_undefined():
    report = validation_report([macro_run(consumption=0.0, income=0.0)])
    assert all(share is None for share in report.shares_by_kind.values())
    assert set(report.share_flags.values()) == {"undefined"}
    assert "undefined" in report.render()
