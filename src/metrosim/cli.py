"""Command-line entry point: generate regions, run scenarios, compare cases,
fit the regression models, and validate tax shares.

All file outputs are UTF-8 with LF endings and headers, and byte-stable for
a given (config, seed) regardless of the --jobs value.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytics
from .config import (
    ScenarioConfig,
    WorldConfig,
    config_to_dict,
    default_config,
    parse_config,
    serialize_config,
)
from .engine import RunResult, batch_tasks, run_batch, run_scenario
from .errors import ConfigError, InvariantViolation, MetrosimError, ParseError, ValidationError
from .fiscal import CASES, TAX_KINDS, read_mpf_table
from .worldgen import RegionSpec, default_apc_batch, generate_region, load_region, save_region

OUTPUT_DIR_ENV = "METROSIM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_PARTIAL = 3

LOG_LEVELS = ("debug", "info", "warning", "error")


def _fmt(value) -> str:
    """Stable CSV cell formatting; floats keep their shortest round-trip form."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header) + "\n"]
    lines += [",".join(map(_fmt, row)) + "\n" for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _config_epilog() -> str:
    lines = ["config keys and defaults (JSON sections):"]
    for section, block in config_to_dict(default_config()).items():
        lines.append(f"  [{section}]")
        for key, value in block.items():
            lines.append(f"    {key} = {json.dumps(value)}")
    return "\n".join(lines)


def _use_path(path, use):
    """Read one input file, or make one output path, before any run; a path
    that cannot be read, written or parsed is a config error naming it."""
    try:
        return use(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, ParseError, ValidationError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_config(args) -> ScenarioConfig:
    if args.config:
        cfg = _use_path(args.config, lambda path: parse_config(path, strict=not args.lax))
    else:
        cfg = default_config()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, engine=replace(cfg.engine, seed=args.seed))
    if getattr(args, "runs", None) is not None:
        cfg = replace(cfg, engine=replace(cfg.engine, runs_per_scenario=args.runs))
    if getattr(args, "case", None) is not None:
        cfg = replace(cfg, fiscal=replace(cfg.fiscal, case_id=args.case))
    cfg.validate()  # the overrides above are checked like the keys they replace
    cases = getattr(args, "cases", None)
    if cases is not None and (len(set(cases)) != len(cases) or not set(cases) <= set(CASES)):
        raise ConfigError(f"--cases must be distinct values of {CASES}, got {cases}")
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if cfg.fiscal.mpf_table_file:
        # read once here, so a bad table is an input error found before any
        # run; the runs of this process (and of forked workers) reuse the read
        _use_path(cfg.fiscal.mpf_table_file, read_mpf_table)
    return cfg


def _output_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "metrosim-out"
    path = Path(out)
    _use_path(path, lambda path: path.mkdir(parents=True, exist_ok=True))
    return path


def resolve_regions(cfg: ScenarioConfig) -> list[RegionSpec]:
    """The regions a config names, for every command that simulates.

    A generated region is drawn once from ``engine.seed`` and shared by every
    run and case, so ``run --seed S`` reproduces run 0 of ``compare --seed S``.
    """
    src = cfg.region
    if src.mode == "default-batch":
        return default_apc_batch()
    if src.mode == "file":
        return [_use_path(src.path, load_region)]
    rng = np.random.default_rng(cfg.engine.seed)
    return [generate_region(src.n_municipalities, src.total_population, src.skew, rng, cfg.world)]


def _run_export_rows(result: RunResult) -> tuple[list[str], list[list]]:
    header = ["month", "municipality", "qli", "population"]
    header += [f"inflow_{k.value}" for k in TAX_KINDS]
    header += [
        "gdp_index", "inflation", "unemployment",
        "avg_workers_per_firm", "avg_firm_profit", "units_consumed", "housing_sales",
    ]
    rows = []
    for month in range(len(result.gdp_index)):
        # Python numbers, which _fmt writes in their shortest round-trip form
        qli, populations, inflows = (
            series[month].tolist() for series in (result.qli, result.populations, result.inflows)
        )
        for m, muni in enumerate(result.municipality_ids):
            row = [month, muni, qli[m], populations[m]]
            row += [by_kind[m] for by_kind in inflows]
            row += [
                result.gdp_index[month], result.inflation[month], result.unemployment[month],
                result.avg_workers_per_firm[month], result.avg_firm_profit[month],
                result.units_consumed[month], result.housing_sales[month],
            ]
            rows.append(row)
    return header, rows


def _export_run(result: RunResult, directory: Path) -> Path:
    path = directory / f"{result.apc_id}_case{result.case_id}_{result.seed}.csv"
    header, rows = _run_export_rows(result)
    _write_csv(path, header, rows)
    return path


def _write_manifest(directory: Path, payload: dict) -> None:
    with open(directory / "MANIFEST.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_region(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not math.isfinite(args.skew):
        raise ConfigError(f"--skew must be finite, got {args.skew}")
    rng = np.random.default_rng(args.seed)
    region = generate_region(args.municipalities, args.population, args.skew, rng, WorldConfig(),
                             region_id=args.id, name=args.name or f"synthetic region {args.id}")
    _use_path(args.out, lambda path: save_region(region, path))
    print(f"wrote {args.out}: {len(region.municipalities)} municipalities, "
          f"population {region.total_population}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args)
    if cfg.region.mode == "default-batch":
        raise ConfigError(
            "region.mode 'default-batch' cannot run as a single scenario; "
            "use a 'generate' or 'file' region, or a batch command"
        )
    [region] = resolve_regions(cfg)
    out_dir = _output_dir(args)
    result = run_scenario(cfg, cfg.engine.seed, region)
    path = _export_run(result, out_dir)
    print(f"run complete: {result.apc_id} case {result.case_id} seed {result.seed}")
    for muni, final in zip(result.municipality_ids, result.qli[-1].tolist()):
        print(f"  {muni}: final QLI {final:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


def _batch_command(args) -> int:
    """The steps every batch command takes, in this order.

    Every input is checked before the output directory exists or any run
    starts. Once the batch has run, MANIFEST.json is always written, and the
    exit code is 0 exactly when it says the batch is complete. A writer that
    cannot produce its output raises ValidationError, which marks the batch
    incomplete.
    """
    cfg = _load_config(args)
    regions = resolve_regions(cfg)
    cases, write = args.prepare(args, cfg, regions)
    out_dir = _output_dir(args)
    scenarios = run_batch(batch_tasks(cfg, regions, cases), jobs=args.jobs)

    files: list[str] = []
    try:
        write(out_dir, scenarios, files)
        written = True
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        written = False
    flagged = sorted(f"{apc}/case{case}" for (apc, case), s in scenarios.items() if s.flagged)
    failed_runs = sorted(
        f"{apc}/case{case}/seed{f.seed}: {f.error}"
        for (apc, case), s in scenarios.items()
        for f in s.failures
    )
    complete = written and not flagged
    _write_manifest(out_dir, {
        "cases": cases,
        "seed": cfg.engine.seed,
        "runs_per_scenario": cfg.engine.runs_per_scenario,
        "scenarios": len(scenarios),
        "flagged_scenarios": flagged,
        "failed_runs": failed_runs,
        "complete": complete,
        "files": sorted(files),
    })
    if flagged:
        print("batch incomplete: " + ", ".join(flagged), file=sys.stderr)
    return EXIT_OK if complete else EXIT_PARTIAL


# Each batch command takes (args, cfg, regions), checks the inputs that are its
# own, and returns the cases to run and a writer(out_dir, scenarios, files) that
# writes its outputs and appends their names to files.


def cmd_compare(args, cfg: ScenarioConfig, regions: list[RegionSpec]):
    cases = args.cases

    def write(out_dir: Path, scenarios, files: list[str]) -> None:
        qli_rows = []
        tally = {c: 0 for c in cases}
        for apc_id, raw, normalized in analytics.region_table(scenarios, cases):
            winner = analytics.best_case(dict(zip(cases, raw)))
            tally[winner] += 1
            for c, raw_v, norm in zip(cases, raw, normalized):
                qli_rows.append([apc_id, c, raw_v, norm, winner == c])
        _write_csv(out_dir / "qli_normalized.csv",
                   ["apc_id", "case_id", "qli_raw", "qli_normalized", "is_best"], qli_rows)
        files.append("qli_normalized.csv")

        _write_csv(out_dir / "best_case_histogram.csv", ["case_id", "wins"],
                   [[c, tally[c]] for c in cases])
        files.append("best_case_histogram.csv")

        long_rows = []
        for (apc_id, case_id) in sorted(scenarios):
            scenario = scenarios[(apc_id, case_id)]
            for run in scenario.runs:
                months = len(run.gdp_index)
                stride_months = [m for m in range(months) if (m + 1) % 12 == 0 or m == months - 1]
                qli = run.qli.tolist()
                for month in stride_months:
                    for muni, value in zip(run.municipality_ids, qli[month]):
                        long_rows.append([apc_id, case_id, run.seed, month, muni, "qli", value])
                last = months - 1
                for metric in ("gdp_index", "inflation", "unemployment",
                               "avg_workers_per_firm", "avg_firm_profit"):
                    long_rows.append(
                        [apc_id, case_id, run.seed, last, "", metric, getattr(run, metric)[last]]
                    )
        _write_csv(out_dir / "long.csv",
                   ["apc_id", "case_id", "run_seed", "month", "municipality", "metric", "value"],
                   long_rows)
        files.append("long.csv")

        if args.export_runs:
            runs_dir = out_dir / "runs"
            runs_dir.mkdir(exist_ok=True)
            for scenario in scenarios.values():
                for run in scenario.runs:
                    files.append(str(_export_run(run, runs_dir).relative_to(out_dir)))

        print(f"compared cases {cases} over {len(regions)} regions -> {out_dir}")
        for c in cases:
            print(f"  case {c}: best in {tally[c]} regions")

    return cases, write


def cmd_regress(args, cfg: ScenarioConfig, regions: list[RegionSpec]):
    models = args.models
    if len(set(models)) != len(models) or not set(models) <= set(analytics.MODELS):
        raise ConfigError(
            f"--models must be distinct names from {','.join(analytics.MODELS)}, "
            f"got {','.join(models)}"
        )
    covariates = None
    if args.covariates:
        covariates = _use_path(args.covariates, analytics.load_covariates)
        missing = sorted({region.id for region in regions} - set(covariates))
        if missing:
            raise ConfigError(f"{args.covariates}: misses regions: {', '.join(missing)}")

    def write(out_dir: Path, scenarios, files: list[str]) -> None:
        observations = analytics.build_dataset(scenarios, covariates)
        if not observations:
            raise ValidationError("no healthy region to regress")
        obs_rows = [
            [o.apc_id, o.case_id, o.alternative0, o.mpf_distribution, o.qli_final, o.qli_raw]
            + [o.controls[c] for c in analytics.CONTROL_NAMES]
            + [o.controls["municipality_count"]]
            for o in observations
        ]
        _write_csv(
            out_dir / "dataset.csv",
            ["apc_id", "case_id", "alternative0", "mpf_distribution", "qli_normalized", "qli_raw"]
            + list(analytics.CONTROL_NAMES) + ["municipality_count"],
            obs_rows,
        )
        files.append("dataset.csv")

        fits = {}
        coef_rows = []
        for model in models:
            fit = analytics.fit_model(observations, model)
            fits[model] = fit
            for i, name in enumerate(fit.names):
                coef_rows.append([
                    model, name, float(fit.coefficients[i]), float(fit.standard_errors[i]),
                    float(fit.t_statistics[i]), float(fit.p_values[i]),
                ])
        _write_csv(out_dir / "coefficients.csv",
                   ["model", "term", "coefficient", "std_error", "t_stat", "p_value"], coef_rows)
        files.append("coefficients.csv")

        report = analytics.format_fit_report(fits)
        with open(out_dir / "regression_report.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"observations: {len(observations)} "
                     f"({len({o.apc_id for o in observations})} regions x {len(CASES)} cases)\n")
            fh.write("note: simul2 omits municipality_count (constant within region, "
                     "collinear with the region dummies)\n\n")
            fh.write(report)
        files.append("regression_report.txt")
        print(report)
        print(f"wrote regression outputs -> {out_dir}")

    return list(CASES), write


def cmd_validate(args, cfg: ScenarioConfig, regions: list[RegionSpec]):
    def write(out_dir: Path, scenarios, files: list[str]) -> None:
        report = analytics.validation_report([r for s in scenarios.values() for r in s.runs])
        with open(out_dir / "validation_report.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.render())
        files.append("validation_report.txt")
        print(report.render())

    return [cfg.fiscal.case_id], write


def cmd_echo_config(args) -> int:
    cfg = _load_config(args)
    sys.stdout.write(serialize_config(cfg))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p, batch: bool) -> None:
    p.add_argument("--config", help="scenario config JSON (defaults apply when omitted)")
    p.add_argument("--lax", action="store_true",
                   help="downgrade unknown config keys from errors to warnings")
    p.add_argument("--seed", type=int, help="override engine.seed")
    p.add_argument("--out", "-o", help=f"output directory (or ${OUTPUT_DIR_ENV})")
    if batch:
        p.add_argument("--runs", type=int, help="override engine.runs_per_scenario")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")


class _Parser(argparse.ArgumentParser):
    """A malformed flag is a config error: usage, then exit 1 (argparse exits 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metrosim",
        description="Multi-municipality tax distribution simulator",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="least severe log message printed on stderr (default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-region", help="draw a synthetic region file")
    p.add_argument("--municipalities", type=int, required=True)
    p.add_argument("--population", type=int, required=True)
    p.add_argument("--skew", type=float, default=1.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--id", default="region")
    p.add_argument("--name", default=None)
    p.add_argument("--out", "-o", required=True, help="output file path")
    p.set_defaults(func=cmd_gen_region)

    p = sub.add_parser("run", help="run one scenario and export its series")
    _add_common(p, batch=False)
    p.add_argument("--case", type=int, choices=CASES, help="override fiscal.case_id")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run the batch across cases and tally winners")
    _add_common(p, batch=True)
    p.add_argument("--cases", type=lambda s: [int(c) for c in s.split(",")], default=list(CASES),
                   help=f"comma-separated subset of {','.join(map(str, CASES))}")
    p.add_argument("--export-runs", action="store_true", help="also write per-run CSVs")
    p.set_defaults(func=_batch_command, prepare=cmd_compare)

    p = sub.add_parser("regress", help="fit the three regression layouts on a batch")
    _add_common(p, batch=True)
    p.add_argument("--covariates", help="optional per-region covariate CSV (apc_id key)")
    p.add_argument("--models", type=lambda s: s.split(","),
                   default=["simul1", "simul2", "simul3"])
    p.set_defaults(func=_batch_command, prepare=cmd_regress)

    p = sub.add_parser("validate", help="tax share and macro validation report")
    _add_common(p, batch=True)
    p.set_defaults(func=_batch_command, prepare=cmd_validate)

    p = sub.add_parser("echo-config", help="print the effective config (round-trip check)")
    _add_common(p, batch=False)
    p.set_defaults(func=cmd_echo_config)

    return parser


class _StderrHandler(logging.Handler):
    """Writes each record to the ``sys.stderr`` of the moment it is logged."""

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


_LOG_HANDLER = _StderrHandler()


def _configure_logging(level: str) -> None:
    """Print the package's log messages at ``level`` and above on stderr."""
    logger = logging.getLogger("metrosim")
    logger.setLevel(level.upper())
    if _LOG_HANDLER not in logger.handlers:
        logger.addHandler(_LOG_HANDLER)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    try:
        return args.func(args)
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MetrosimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
