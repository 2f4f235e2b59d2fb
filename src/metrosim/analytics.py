"""Result pipeline: per-region QLI normalization, winner tallies, OLS models.

One observation per (region, case) carries the region's median final Quality
of Life Index (unweighted mean over its municipalities, then min-max
normalized within the region across the four cases) plus macro controls.
Three regression layouts mirror the published comparison: dummies only,
dummies plus controls, controls only.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .engine import ScenarioResult
from .errors import ValidationError
from .fiscal import sequential_sum

log = logging.getLogger(__name__)

CASES = (1, 2, 3, 4)

# (alternative0, mpf_distribution) per case: alternative0 marks the status quo
# of separate municipal fiscal identities; mpf marks the bracket-fund channel.
CASE_FLAGS: dict[int, tuple[bool, bool]] = {
    1: (True, True),
    2: (False, True),
    3: (True, False),
    4: (False, False),
}

CONTROL_NAMES = (
    "avg_workers_per_firm",
    "avg_firm_profit",
    "gdp_index",
    "inflation",
    "unemployment",
)


def normalize_qli(per_case_values: Sequence[float]) -> list[float]:
    """Min-max normalize one region's per-case values to [0, 1].

    All-equal input maps to all 0.5 by convention so downstream tallies and
    regressions see a defined value.
    """
    values = [float(v) for v in per_case_values]
    if any(not math.isfinite(v) for v in values):
        raise ValidationError(f"cannot normalize non-finite values {values}")
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.5] * len(values)
    span = hi - lo
    return [(v - lo) / span for v in values]


def best_case(per_case_values: Mapping[int, float]) -> int:
    """Case with the highest value; ties break toward the lower case id."""
    best_id = None
    best_value = -math.inf
    tied = False
    for case_id in sorted(per_case_values):
        value = per_case_values[case_id]
        if value > best_value:
            best_id, best_value, tied = case_id, value, False
        elif value == best_value:
            tied = True
    if best_id is None:
        raise ValidationError("best_case needs at least one value")
    if tied:
        log.info("best_case tie at %r; keeping case %d", best_value, best_id)
    return best_id


@dataclass
class Observation:
    """One (region, case) row of the regression dataset."""

    apc_id: str
    case_id: int
    alternative0: bool
    mpf_distribution: bool
    qli_final: float  # normalized within the region across cases
    qli_raw: float  # unweighted municipal mean of median final QLI
    controls: dict[str, float] = field(default_factory=dict)
    covariates: dict[str, float] = field(default_factory=dict)


def region_qli(scenario: ScenarioResult) -> float:
    """A region's headline QLI: the unweighted mean over its municipalities.

    Unweighted, so that small municipalities count as much as the primate
    city and routing differences between the channels stay visible instead
    of being averaged away by population weights.
    """
    values = scenario.median_final_qli
    if not values:
        raise ValidationError(f"scenario {scenario.apc_id}/{scenario.case_id} has no QLI")
    return sequential_sum(values.values()) / len(values)


def load_covariates(path) -> dict[str, dict[str, float]]:
    """Read an apc_id-keyed covariate CSV: extra per-region regressors."""
    out: dict[str, dict[str, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "apc_id" not in reader.fieldnames:
            raise ValidationError("covariate file needs an 'apc_id' column")
        names = [c for c in reader.fieldnames if c != "apc_id"]
        for i, row in enumerate(reader):
            try:
                out[row["apc_id"]] = {c: float(row[c]) for c in names}
            except (TypeError, ValueError):
                raise ValidationError(f"covariate row {i + 1}: non-numeric value") from None
    return out


def build_dataset(
    scenarios: Mapping[tuple[str, int], ScenarioResult],
    covariates: Mapping[str, Mapping[str, float]] | None = None,
) -> list[Observation]:
    """One observation per (region, case): normalized QLI plus controls.

    Regions missing any healthy case are dropped (logged); a covariate table
    that fails to cover every surviving region is an error listing the gaps.
    """
    by_apc: dict[str, dict[int, ScenarioResult]] = {}
    for (apc_id, case_id), scenario in scenarios.items():
        by_apc.setdefault(apc_id, {})[case_id] = scenario

    observations: list[Observation] = []
    for apc_id in sorted(by_apc):
        cell = by_apc[apc_id]
        if any(c not in cell or cell[c].flagged for c in CASES):
            log.warning("region %s dropped: incomplete or flagged cases", apc_id)
            continue
        raw = [region_qli(cell[c]) for c in CASES]
        normalized = normalize_qli(raw)
        for case_id, raw_v, norm_v in zip(CASES, raw, normalized):
            alt0, mpf = CASE_FLAGS[case_id]
            observations.append(
                Observation(
                    apc_id=apc_id,
                    case_id=case_id,
                    alternative0=alt0,
                    mpf_distribution=mpf,
                    qli_final=norm_v,
                    qli_raw=raw_v,
                    controls=dict(cell[case_id].controls),
                )
            )

    if covariates is not None:
        present = {o.apc_id for o in observations}
        missing = sorted(present - set(covariates))
        if missing:
            raise ValidationError(f"covariate file misses regions: {', '.join(missing)}")
        for obs in observations:
            obs.covariates = dict(covariates[obs.apc_id])
    return observations


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------

MODELS = ("simul1", "simul2", "simul3")


def design_matrix(
    observations: Sequence[Observation],
    model: str,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Assemble (X, y, column names) for one model layout.

    simul1: intercept, the two policy booleans, region dummies (first region
    alphabetically is the reference). simul2 adds the macro controls; the
    municipality count is left out there because it is constant within a
    region and thus exactly collinear with the dummies. simul3 drops the
    dummies and keeps the controls plus the municipality count.
    """
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}; expected one of {MODELS}")
    if not observations:
        raise ValidationError("empty dataset")
    obs = sorted(observations, key=lambda o: (o.apc_id, o.case_id))
    apcs = sorted({o.apc_id for o in obs})
    covariate_names = sorted(obs[0].covariates) if obs[0].covariates else []

    names = ["intercept", "alternative0", "mpf_distribution"]
    with_dummies = model in ("simul1", "simul2")
    with_controls = model in ("simul2", "simul3")
    if with_controls:
        names.extend(CONTROL_NAMES)
        if model == "simul3":
            names.append("municipality_count")
    names.extend(f"covariate_{c}" for c in covariate_names)
    dummy_apcs = apcs[1:] if with_dummies else []
    names.extend(f"apc[{a}]" for a in dummy_apcs)

    rows = []
    y = []
    for o in obs:
        row = [1.0, float(o.alternative0), float(o.mpf_distribution)]
        if with_controls:
            row.extend(o.controls[c] for c in CONTROL_NAMES)
            if model == "simul3":
                row.append(o.controls["municipality_count"])
        row.extend(o.covariates[c] for c in covariate_names)
        row.extend(1.0 if o.apc_id == a else 0.0 for a in dummy_apcs)
        rows.append(row)
        y.append(o.qli_final)
    return np.asarray(rows, dtype=float), np.asarray(y, dtype=float), names


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    names: list[str]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_statistics: np.ndarray
    p_values: np.ndarray
    r_squared: float
    adj_r_squared: float
    loglik: float
    aic: float
    bic: float
    n_observations: int
    n_parameters: int

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])

    def stars(self, name: str) -> str:
        p = float(self.p_values[self.names.index(name)])
        if p < 0.01:
            return "***"
        if p < 0.05:
            return "**"
        if p < 0.1:
            return "*"
        return ""


RANK_TOL = 1e-10


def ols_fit(X: np.ndarray, y: np.ndarray, names: Sequence[str] | None = None) -> FitResult:
    """Least squares through a QR decomposition, with the usual diagnostics.

    Rank deficiency is detected from the pivoted QR and reported by column
    name. The Gaussian log-likelihood uses the ML variance RSS/n, so
    AIC = 2k - 2 loglik and BIC = k ln(n) - 2 loglik hold by construction.
    """
    # scipy is imported here, not at module level: only ``regress`` fits, and
    # importing it costs every other command about a second of start-up
    from scipy import linalg as sla
    from scipy import stats as sstats

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValidationError(f"bad shapes: X {X.shape}, y {y.shape}")
    n, k = X.shape
    if names is None:
        names = [f"x{i}" for i in range(k)]
    names = list(names)
    if len(names) != k:
        raise ValidationError(f"{k} columns but {len(names)} names")
    if n <= k:
        raise ValidationError(f"need more observations than parameters (n={n}, k={k})")

    # pivoted QR exposes rank deficiency and names the dependent columns
    _, R_piv, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R_piv))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > RANK_TOL * scale))
    if rank < k:
        dependent = sorted(names[j] for j in piv[rank:])
        raise ValidationError(f"design matrix is rank deficient; dependent columns: {', '.join(dependent)}")

    Q, R = np.linalg.qr(X)
    coef = sla.solve_triangular(R, Q.T @ y)
    residuals = y - X @ coef
    rss = float(residuals @ residuals)
    dof = n - k

    Rinv = sla.solve_triangular(R, np.eye(k))
    xtx_inv = Rinv @ Rinv.T
    sigma2 = rss / dof
    se = np.sqrt(np.clip(sigma2 * np.diag(xtx_inv), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.where(se > 0, coef / se, np.inf * np.sign(coef))
    pvals = 2.0 * sstats.t.sf(np.abs(tstat), dof)

    centered = y - y.mean()
    tss = float(centered @ centered)
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof if dof > 0 else math.nan
    if rss > 0:
        loglik = -0.5 * n * (math.log(2.0 * math.pi) + math.log(rss / n) + 1.0)
    else:
        loglik = math.inf
    aic = 2.0 * k - 2.0 * loglik
    bic = k * math.log(n) - 2.0 * loglik
    return FitResult(
        names=names,
        coefficients=coef,
        standard_errors=se,
        t_statistics=tstat,
        p_values=pvals,
        r_squared=r2,
        adj_r_squared=adj_r2,
        loglik=loglik,
        aic=aic,
        bic=bic,
        n_observations=n,
        n_parameters=k,
    )


def fit_model(observations: Sequence[Observation], model: str) -> FitResult:
    X, y, names = design_matrix(observations, model)
    return ols_fit(X, y, names)


def format_fit_report(fits: Mapping[str, FitResult]) -> str:
    """Plain-text coefficient table: one model per column, stars and (se)."""
    model_names = list(fits)
    all_rows: list[str] = []
    for fit in fits.values():
        for name in fit.names:
            if name not in all_rows:
                all_rows.append(name)
    width = max(len(r) for r in all_rows) + 2
    col = 22
    lines = []
    header = " " * width + "".join(m.rjust(col) for m in model_names)
    lines.append(header)
    for row_name in all_rows:
        if row_name.startswith("apc["):
            continue  # dummies are reported in the CSV, not the headline table
        cells, se_cells = [], []
        for m in model_names:
            fit = fits[m]
            if row_name in fit.names:
                i = fit.names.index(row_name)
                cells.append(f"{fit.coefficients[i]:+.5f}{fit.stars(row_name)}".rjust(col))
                se_cells.append(f"({fit.standard_errors[i]:.5f})".rjust(col))
            else:
                cells.append("".rjust(col))
                se_cells.append("".rjust(col))
        lines.append(row_name.ljust(width) + "".join(cells))
        lines.append(" " * width + "".join(se_cells))
    dummy_note = {
        m: sum(1 for nm in fits[m].names if nm.startswith("apc[")) for m in model_names
    }
    lines.append("region dummies".ljust(width) + "".join(
        (f"{dummy_note[m]} (+ref)" if dummy_note[m] else "none").rjust(col) for m in model_names
    ))
    for stat, fmt in (
        ("n_observations", "{:d}"),
        ("adj_r_squared", "{:.4f}"),
        ("loglik", "{:.2f}"),
        ("aic", "{:.2f}"),
        ("bic", "{:.2f}"),
    ):
        lines.append(stat.ljust(width) + "".join(
            fmt.format(getattr(fits[m], stat)).rjust(col) for m in model_names
        ))
    lines.append("stars: *** p<0.01, ** p<0.05, * p<0.1")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation report: tax shares and macro summaries
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    tax_to_gdp: float
    shares_by_kind: dict[str, float | None]
    inflation_mean: float
    unemployment_mean: float
    runs_used: int

    def render(self) -> str:
        lines = ["tax collection validation", "========================="]
        lines.append(f"runs used: {self.runs_used}")
        lines.append(f"total tax / GDP: {self.tax_to_gdp:.4f}")
        for kind, share in self.shares_by_kind.items():
            if share is None:
                lines.append(f"  {kind:<16} share: undefined (no tax collected)")
            else:
                lines.append(f"  {kind:<16} share: {share:7.2%}")
        lines.append(f"mean inflation (monthly): {self.inflation_mean:+.5f}")
        lines.append(f"mean unemployment: {self.unemployment_mean:.2%}")
        return "\n".join(lines) + "\n"


def validation_report(runs: Sequence) -> ValidationReport:
    """Aggregate tax shares and macro outcomes over completed runs.

    Shares are fractions of total tax by kind. With zero collection, shares
    are None and render as undefined rather than silently zero.
    """
    if not runs:
        raise ValidationError("validation needs at least one completed run")
    totals: dict[str, float] = {}
    for run in runs:
        for kind, series in run.taxes_by_kind.items():
            totals[kind] = totals.get(kind, 0.0) + sequential_sum(series)
    grand = sequential_sum(totals.values())
    shares = {kind: totals[kind] / grand if grand > 0 else None for kind in sorted(totals)}
    gdp_total = sequential_sum(sequential_sum(r.gdp_value) for r in runs)
    tax_to_gdp = grand / gdp_total if gdp_total > 0 else math.nan

    def mean_over_runs(attr: str) -> float:
        per_run = [sequential_sum(getattr(r, attr)) / len(getattr(r, attr)) for r in runs]
        return sequential_sum(per_run) / len(per_run)

    return ValidationReport(
        tax_to_gdp=tax_to_gdp,
        shares_by_kind=shares,
        inflation_mean=mean_over_runs("inflation"),
        unemployment_mean=mean_over_runs("unemployment"),
        runs_used=len(runs),
    )
