"""Config parsing and the command-line surface, including exit codes."""
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metrosim import cli, engine
from metrosim.config import (
    config_from_dict,
    config_to_dict,
    default_config,
    parse_config,
    serialize_config,
)
from metrosim.demographics import MAX_AGE_MONTHS
from metrosim.errors import ConfigError, ValidationError
from metrosim.fiscal import CASES
from metrosim.worldgen import WorldConfig, load_region

from conftest import break_invariant


SMALL_SCENARIO = {
    "region": {"mode": "generate", "n_municipalities": 2,
               "total_population": 2_000, "skew": 0.5},
    "world": {"population_fraction": 0.05},
    "engine": {"horizon_months": 6, "seed": 1, "runs_per_scenario": 2},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_defaults_validate():
    default_config().validate()


def test_empty_document_yields_defaults():
    assert config_from_dict({}) == default_config()


def test_partial_section_keeps_other_defaults():
    cfg = config_from_dict({"engine": {"horizon_months": 6}})
    assert cfg.engine.horizon_months == 6
    assert cfg.engine.seed == default_config().engine.seed
    assert cfg.tax_rates == default_config().tax_rates


def test_unknown_key_is_error_with_path():
    with pytest.raises(ConfigError, match="market.bogus"):
        config_from_dict({"market": {"bogus": 1}})


def test_unknown_section_is_error():
    with pytest.raises(ConfigError, match="unknown config section"):
        config_from_dict({"bogus": {}})


def test_lax_mode_warns_instead(caplog):
    with caplog.at_level(logging.WARNING, logger="metrosim.config"):
        cfg = config_from_dict({"market": {"bogus": 1}, "extra": {}}, strict=False)
    assert cfg == default_config()
    assert sum("ignoring unknown" in r.message for r in caplog.records) == 2


@pytest.mark.parametrize("flags, printed", [
    ([], True), (["--log-level", "warning"], True), (["--log-level", "error"], False),
])
def test_log_level_switch_filters_stderr(tmp_path, capsys, flags, printed):
    package_log = logging.getLogger("metrosim")
    level = package_log.level
    path = write_config(tmp_path, {"market": {"bogus": 1}})
    try:
        assert cli.main([*flags, "echo-config", "--lax", "--config", str(path)]) == 0
    finally:
        package_log.setLevel(level)  # the switch must not outlive its command here
    assert ("ignoring unknown config key 'market.bogus'" in capsys.readouterr().err) == printed


def test_bad_log_level_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--log-level", "loud", "echo-config"])
    assert exc.value.code == 1
    assert "config error" in capsys.readouterr().err


def test_type_mismatches_name_the_path():
    with pytest.raises(ConfigError, match="engine.seed"):
        config_from_dict({"engine": {"seed": "zero"}})
    with pytest.raises(ConfigError, match="pair of numbers"):
        config_from_dict({"market": {"savings_rate_bounds": [0.1]}})
    with pytest.raises(ConfigError, match="expected integer"):
        config_from_dict({"engine": {"horizon_months": 6.5}})
    with pytest.raises(ConfigError, match="expected true/false"):
        config_from_dict({"fiscal": {"freeze_mpf_shares": "yes"}})
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ConfigError, match="fiscal.qli_unit_cost: expected a finite"):
            config_from_dict({"fiscal": {"qli_unit_cost": bad}})
        with pytest.raises(ConfigError, match="market.savings_rate_bounds: expected a finite"):
            config_from_dict({"market": {"savings_rate_bounds": [0.1, bad]}})
        with pytest.raises(ConfigError,
                           match="world.initial_qualification_distribution: expected a finite"):
            config_from_dict({"world": {"qualification_levels": 1,
                                        "initial_qualification_distribution": [bad]}})


def test_semantic_errors_become_config_errors():
    with pytest.raises(ConfigError, match="case"):
        config_from_dict({"fiscal": {"case_id": 5}})
    with pytest.raises(ConfigError):
        config_from_dict({"tax_rates": {"consumption": 1.5}})
    # 0 leaves no age to draw; 2000 outlives the vital rate table
    for age in (0, 2000):
        with pytest.raises(ConfigError, match="max_initial_age_months"):
            config_from_dict({"world": {"max_initial_age_months": age}})


def test_programming_error_in_validate_propagates(monkeypatch):
    def broken(self):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(WorldConfig, "validate", broken)
    with pytest.raises(TypeError, match="a bug"):
        config_from_dict({})


def test_serialize_parse_round_trip():
    cfg = default_config()
    text = serialize_config(cfg)
    again = config_from_dict(json.loads(text))
    assert again == cfg
    assert serialize_config(again) == text  # fixpoint


def test_parse_config_reads_files(tmp_path):
    path = write_config(tmp_path, SMALL_SCENARIO)
    cfg = parse_config(path)
    assert cfg.region.total_population == 2_000
    assert cfg.engine.horizon_months == 6

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(broken)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_gen_region_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "region.json"
    code = cli.main(["gen-region", "--municipalities", "3", "--population", "5000",
                     "--skew", "1.0", "--seed", "4", "--out", str(out)])
    assert code == 0
    region = load_region(out)
    assert len(region.municipalities) == 3
    assert region.total_population == 5000
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],
    ["--skew", "nan"],
    ["--skew", "inf"],
    ["--out", "{tmp}/missing/region.json"],  # an unwritable output path
])
def test_gen_region_bad_flags_exit_one(tmp_path, capsys, flags):
    out = tmp_path / "region.json"
    code = cli.main(["gen-region", "--municipalities", "3", "--population", "5000",
                     "--out", str(out), *[f.format(tmp=tmp_path) for f in flags]])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_run_exports_monthly_series(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", cfg_path, "--out", str(out_dir)])
    assert code == 0
    exports = list(out_dir.glob("*case1*.csv"))
    assert len(exports) == 1
    lines = exports[0].read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("month,municipality,qli,population,inflow_consumption")
    assert len(lines) == 1 + 6 * 2  # header + horizon x municipalities
    assert "final QLI" in capsys.readouterr().out


def test_run_rejects_default_batch_mode(tmp_path, capsys):
    code = cli.main(["run", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "batch" in capsys.readouterr().err


def test_run_reproduces_compare_run_zero(tmp_path):
    # both commands draw the generated region once, from engine.seed
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    code = cli.main(["run", "--config", cfg_path, "--case", "1", "--seed", "5",
                     "--out", str(tmp_path / "run")])
    assert code == 0
    code = cli.main(["compare", "--config", cfg_path, "--cases", "1", "--runs", "1",
                     "--export-runs", "--seed", "5", "--out", str(tmp_path / "cmp")])
    assert code == 0
    name = "region_case1_5.csv"
    assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "cmp" / "runs" / name).read_bytes()


def main_code(argv):
    """``cli.main``'s exit code, also where argparse exits through SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("flags", [
    ["--runs", "0"],
    ["--runs", "-2"],
    ["--seed", "-1"],
    ["--cases", "1,5"],
    ["--cases", "1,1"],
    ["--jobs", "0"],
    ["--cases", "1,x"],
    ["--jobs", "two"],
    ["--out", "{file}"],  # an output path that is a file
])
def test_bad_flags_exit_one_before_any_run(tmp_path, capsys, flags):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out_dir = tmp_path / "cmp"
    file = tmp_path / "file"
    file.write_text("")
    flags = [f.format(file=file) for f in flags]
    assert main_code(["compare", "--config", cfg_path, "--out", str(out_dir), *flags]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()
    assert file.read_text() == ""


def test_run_out_path_that_is_a_file_exits_one(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "file"
    out.write_text("")
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {out}: ")
    assert "run complete" not in captured.out


@pytest.mark.parametrize("argv", [
    ["run", "--case", "5", "--out", "{out}"],
    ["gen-region", "--municipalities", "x", "--population", "100", "--out", "{out}"],
    ["--out", "{out}"],  # no subcommand
])
def test_malformed_flags_exit_one(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(out=out) for arg in argv])
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: metrosim") and "config error: " in err
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--help"])
    assert exc.value.code == 0
    assert "--cases" in capsys.readouterr().out


def test_case_flags_offer_the_cases():
    [commands] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    [case] = [a for a in commands.choices["run"]._actions if a.dest == "case"]
    assert tuple(case.choices) == CASES
    assert commands.choices["compare"].parse_args([]).cases == list(CASES)


def test_out_of_range_initial_age_exits_one_before_any_run(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dict(SMALL_SCENARIO, world={"max_initial_age_months": 0}))
    out_dir = tmp_path / "cmp"
    code = cli.main(["compare", "--config", cfg_path, "--out", str(out_dir)])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("key, value", [
    ("wage_step", 2.5), ("price_step", 1.0), ("price_step", -0.05),
    ("inventory_glut_months", -1.0), ("sold_out_level", -1e-9),
])
def test_market_step_out_of_range_exits_one_before_any_run(tmp_path, capsys, monkeypatch,
                                                           command, key, value):
    # a wage_step of 2.5 once ran until a wage went negative, then failed mid-run
    calls = []
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **kw: calls.append(a))
    monkeypatch.setattr(cli, "run_batch", lambda *a, **kw: calls.append(a) or {})
    cfg_path = write_config(tmp_path, dict(SMALL_SCENARIO, market={key: value}))
    out_dir = tmp_path / "out"
    code = cli.main([command, "--config", cfg_path, "--out", str(out_dir)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out_dir.exists()
    assert calls == []


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("key, value", [
    ("initial_firm_cash", -5), ("initial_cash_months_of_payroll", -0.5),
    ("labor_entry_age_months", 5000), ("labor_entry_age_months", MAX_AGE_MONTHS),
    ("labor_entry_age_months", -1),
    ("initial_savings_bounds", [6.0, 2.0]), ("house_size_bounds", [-1.0, 2.0]),
    ("initial_wage_bounds", [0.8, math.inf]), ("house_quality_bounds", [math.nan, 2.0]),
])
def test_bad_world_value_exits_one_before_any_run(tmp_path, capsys, monkeypatch,
                                                  command, key, value):
    # each of these once ran to the end: a firm starting in debt, a region
    # with no adults, newborns on the labor market
    calls = []
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **kw: calls.append(a))
    monkeypatch.setattr(cli, "run_batch", lambda *a, **kw: calls.append(a) or {})
    world = {**SMALL_SCENARIO["world"], key: value}
    cfg_path = write_config(tmp_path, dict(SMALL_SCENARIO, world=world))
    out_dir = tmp_path / "out"
    code = cli.main([command, "--config", cfg_path, "--out", str(out_dir)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out_dir.exists()
    assert calls == []


@pytest.mark.parametrize("bounds", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0),
                                    (2.0, 1.0), (-0.5, 1.0)])
def test_world_draw_bounds_rejected_before_any_draw(bounds):
    # instantiate_world draws lo + (hi - lo) * u, which raises for none of
    # these, so its validation is all that stops them
    cfg = WorldConfig(initial_wage_bounds=bounds)
    with pytest.raises(ValidationError, match="initial_wage_bounds"):
        cfg.validate()
    WorldConfig(initial_wage_bounds=(1.0, 1.0)).validate()


def test_bad_config_exits_one(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"market": {"bogus": 1}})
    code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_compare_outputs_and_manifest(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out_dir = tmp_path / "cmp"
    code = cli.main(["compare", "--config", cfg_path, "--out", str(out_dir)])
    assert code == 0
    for name in ("qli_normalized.csv", "best_case_histogram.csv", "long.csv", "MANIFEST.json"):
        assert (out_dir / name).exists()
    histogram = (out_dir / "best_case_histogram.csv").read_text(encoding="utf-8").splitlines()
    assert histogram[0] == "case_id,wins"
    assert len(histogram) == 5
    assert sum(int(line.split(",")[1]) for line in histogram[1:]) == 1  # one region
    manifest = json.loads((out_dir / "MANIFEST.json").read_text(encoding="utf-8"))
    assert manifest["complete"] is True
    assert manifest["cases"] == [1, 2, 3, 4]
    assert manifest["flagged_scenarios"] == []
    assert "qli_normalized.csv" in manifest["files"]


def test_compare_jobs_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    trees = {}
    for jobs in (1, 2):
        out_dir = tmp_path / f"jobs{jobs}"
        code = cli.main(["compare", "--config", cfg_path, "--out", str(out_dir),
                         "--export-runs", "--jobs", str(jobs)])
        assert code == 0
        trees[jobs] = {
            p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()
        }
    assert trees[1] == trees[2]


def test_compare_flags_broken_batch_with_exit_three(tmp_path, capsys, caplog, monkeypatch):
    monkeypatch.setattr(engine, "step_month", break_invariant)
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out_dir = tmp_path / "cmp"
    code = cli.main(["compare", "--config", cfg_path, "--out", str(out_dir)])
    assert code == cli.EXIT_PARTIAL
    assert "batch incomplete" in capsys.readouterr().err
    # the region drops out of the comparison with the warning regress gives
    assert "region region dropped: incomplete or flagged cases" in caplog.messages
    manifest = json.loads((out_dir / "MANIFEST.json").read_text(encoding="utf-8"))
    assert manifest["complete"] is False
    assert len(manifest["flagged_scenarios"]) == 4
    assert manifest["failed_runs"]
    assert len(manifest["failed_runs"]) == 4 * 2  # 4 cases x 2 runs
    for entry in manifest["failed_runs"]:
        assert "month 0: invariant 'money-conservation'" in entry


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("table", [
    None,
    b"max_population\n10\n",
    b"\xff\xfe\x00max_population,coefficient\n",
    b"max_population,coefficient\n100,1.0\n50,2.0\n",
    b"max_population,coefficient\nnan,0.6\n",
    b"max_population,coefficient\n100,1.0\ninf,2.0\n",
    b"max_population,coefficient,coefficient\n100,nan,1.0\n",
], ids=["missing", "no-coefficient-column", "not-utf8", "not-ascending", "nan-row", "inf-row",
        "repeated-column"])
def test_bad_mpf_table_exits_one_before_any_run(tmp_path, capsys, command, table):
    table_path = tmp_path / "mpf.csv"
    if table is not None:
        table_path.write_bytes(table)
    doc = dict(SMALL_SCENARIO, fiscal={"mpf_table_file": str(table_path)})
    cfg_path = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    code = cli.main([command, "--config", cfg_path, "--out", str(out_dir)])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()


GOOD_MUNICIPALITY = {"id": "m00", "population": 3000, "firm_count": 20,
                     "housing_stock": 1500, "centroid": [10.0, 20.0]}


# each holds one number that the config's rules reject -> what the error names
@pytest.mark.parametrize("field, error", [
    ({"centroid": [math.nan, 20.0]}, "centroid: expected a finite number"),
    ({"centroid": [10.0, math.inf]}, "centroid: expected a finite number"),
    ({"population": 3000.9}, "population: expected integer"),
    ({"population": True}, "population: expected integer"),
    ({"firm_count": "20"}, "firm_count: expected integer"),
], ids=["nan-centroid", "infinity-centroid", "fractional-population", "bool-population",
        "string-firm-count"])
def test_region_file_bad_number_exits_one_before_any_run(tmp_path, capsys, monkeypatch,
                                                          field, error):
    calls = []
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **kw: calls.append(a))
    region_path = tmp_path / "region.json"
    region_path.write_text(json.dumps({"id": "r", "name": "r", "municipalities": [
        dict(GOOD_MUNICIPALITY, **field), dict(GOOD_MUNICIPALITY, id="m01")]}), encoding="utf-8")
    cfg_path = write_config(tmp_path, dict(SMALL_SCENARIO, region={
        "mode": "file", "path": str(region_path)}))
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", cfg_path, "--out", str(out_dir)])
    assert code == cli.EXIT_CONFIG
    assert f"config error: {region_path}: municipality #0 {error}" in capsys.readouterr().err
    assert not out_dir.exists()
    assert calls == []


def test_mpf_table_read_once_per_batch(tmp_path, monkeypatch):
    table_path = tmp_path / "mpf.csv"
    table_path.write_text("max_population,coefficient\n1000,1.0\n2000,1.5\n", encoding="utf-8")
    reads = []
    real_open = open

    def spy_open(file, *args, **kwargs):
        if str(file) == str(table_path):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy_open)
    doc = dict(SMALL_SCENARIO, fiscal={"mpf_table_file": str(table_path)})
    code = cli.main(["compare", "--cases", "1", "--runs", "2", "--jobs", "1", "--config",
                     write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert len(reads) == 1


def test_run_never_imports_scipy(tmp_path):
    # only regress fits a model; scipy costs every other command a second of start-up
    script = """
import sys
import metrosim.cli
assert "scipy" not in sys.modules, "import metrosim.cli loaded scipy"
code = metrosim.cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
assert code == 0, code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, write_config(tmp_path, SMALL_SCENARIO),
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_regress_never_imports_scipy_stats(tmp_path):
    # the OLS fit needs scipy's linalg and special modules only; stats would
    # cost regress another ~0.7 s of start-up
    script = """
import sys
import metrosim.cli
code = metrosim.cli.main(["regress", "--config", sys.argv[1], "--out", sys.argv[2],
                          "--models", "simul1"])
assert code == 0, code
assert "scipy.special" in sys.modules, "regress fitted nothing"
assert "scipy.stats" not in sys.modules, "regress loaded scipy.stats"
"""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, write_config(tmp_path, SMALL_SCENARIO),
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# case -> (config file, extra regress flags); "{dir}" stands for the test's tmp_path
LATE_INPUTS = {
    "unknown-model": ("config.json", ["--models", "bogus"]),
    "repeated-model": ("config.json", ["--models", "simul1,simul1"]),
    "missing-covariates": ("config.json", ["--covariates", "{dir}/nosuch.csv"]),
    "malformed-covariates": ("config.json", ["--covariates", "{dir}/no_key.csv"]),
    "covariates-miss-region": ("config.json", ["--covariates", "{dir}/other_region.csv"]),
    "nan-covariate": ("config.json", ["--covariates", "{dir}/nan.csv"]),
    "repeated-covariate-id": ("config.json", ["--covariates", "{dir}/repeated.csv"]),
    "repeated-covariate-column": ("config.json", ["--covariates", "{dir}/repeated_column.csv"]),
    "missing-config": ("nosuch.json", []),
    "missing-region-path": ("file_mode.json", []),
}


@pytest.mark.parametrize("case", sorted(LATE_INPUTS))
def test_late_inputs_exit_one_before_any_run(tmp_path, capsys, monkeypatch, case):
    calls = []
    monkeypatch.setattr(cli, "run_batch", lambda *a, **kw: calls.append(a) or {})
    write_config(tmp_path, SMALL_SCENARIO)
    write_config(tmp_path, dict(SMALL_SCENARIO, region={
        "mode": "file", "path": str(tmp_path / "nosuch_region.json")}), "file_mode.json")
    (tmp_path / "no_key.csv").write_text("region,x\nregion,1.0\n", encoding="utf-8")
    (tmp_path / "other_region.csv").write_text("apc_id,x\nother,1.0\n", encoding="utf-8")
    (tmp_path / "nan.csv").write_text("apc_id,x\nregion,nan\n", encoding="utf-8")
    (tmp_path / "repeated.csv").write_text("apc_id,x\nregion,1.0\nregion,99\n",
                                           encoding="utf-8")
    (tmp_path / "repeated_column.csv").write_text("apc_id,x,x\nregion,1,2\n",
                                                  encoding="utf-8")
    config, flags = LATE_INPUTS[case]
    out_dir = tmp_path / "out"
    code = cli.main(["regress", "--config", str(tmp_path / config), "--out", str(out_dir),
                     *(flag.format(dir=tmp_path) for flag in flags)])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()
    assert calls == []


@pytest.mark.parametrize("target", ["config", "region"])
@pytest.mark.parametrize("problem", ["missing", "directory", "not-utf8"])
def test_run_unreadable_input_file_exits_one(tmp_path, capsys, target, problem):
    bad = tmp_path / "bad.json"
    if problem == "directory":
        bad.mkdir()
    elif problem == "not-utf8":
        bad.write_bytes(b"\xff\xfe{}")
    cfg_path = bad
    if target == "region":
        cfg_path = write_config(tmp_path, dict(SMALL_SCENARIO, region={
            "mode": "file", "path": str(bad)}))
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == cli.EXIT_CONFIG
    assert f"config error: {bad}: " in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["regress", "validate"])
def test_broken_batch_exits_three_with_manifest(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(engine, "step_month", break_invariant)
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out_dir = tmp_path / "out"
    code = cli.main([command, "--config", cfg_path, "--out", str(out_dir)])
    assert code == cli.EXIT_PARTIAL
    assert "error: " in capsys.readouterr().err
    manifest = json.loads((out_dir / "MANIFEST.json").read_text(encoding="utf-8"))
    assert manifest["complete"] is False
    assert manifest["files"] == []
    assert manifest["failed_runs"]
    for entry in manifest["failed_runs"]:
        assert "invariant 'money-conservation'" in entry


def test_regress_unfittable_model_exits_three_with_manifest(tmp_path, capsys):
    # one region gives 4 observations, fewer than simul2 has parameters
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out_dir = tmp_path / "reg"
    code = cli.main(["regress", "--config", cfg_path, "--out", str(out_dir)])
    assert code == cli.EXIT_PARTIAL
    assert "error: need more observations than parameters" in capsys.readouterr().err
    manifest = json.loads((out_dir / "MANIFEST.json").read_text(encoding="utf-8"))
    assert manifest["complete"] is False
    assert manifest["flagged_scenarios"] == []
    assert manifest["files"] == ["dataset.csv"]


def test_regress_writes_dataset_and_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out_dir = tmp_path / "reg"
    code = cli.main(["regress", "--config", cfg_path, "--out", str(out_dir),
                     "--models", "simul1"])
    assert code == 0
    dataset = (out_dir / "dataset.csv").read_text(encoding="utf-8").splitlines()
    assert dataset[0].startswith("apc_id,case_id,alternative0,mpf_distribution,qli_normalized")
    assert len(dataset) == 1 + 4  # one region, four cases
    coefficients = (out_dir / "coefficients.csv").read_text(encoding="utf-8").splitlines()
    assert coefficients[0] == "model,term,coefficient,std_error,t_stat,p_value"
    assert len(coefficients) == 1 + 3  # intercept + two policy terms, no dummies
    report = (out_dir / "regression_report.txt").read_text(encoding="utf-8")
    assert "observations: 4 (1 regions x 4 cases)" in report
    assert "alternative0" in report
    assert "simul1" in capsys.readouterr().out


def test_validate_writes_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out_dir = tmp_path / "val"
    code = cli.main(["validate", "--config", cfg_path, "--out", str(out_dir)])
    assert code == 0
    report = (out_dir / "validation_report.txt").read_text(encoding="utf-8")
    assert "total tax / GDP" in report
    assert "share" in report
    assert "share" in capsys.readouterr().out


def test_echo_config_round_trips(tmp_path, capsys):
    assert cli.main(["echo-config"]) == 0
    assert capsys.readouterr().out == serialize_config(default_config())

    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    assert cli.main(["echo-config", "--config", cfg_path, "--seed", "9"]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["engine"]["seed"] == 9
    assert echoed["region"]["total_population"] == 2_000


def test_output_dir_env_var(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    assert cli.main(["run", "--config", cfg_path]) == 0
    assert list(env_dir.glob("*.csv"))


def test_help_documents_every_config_key():
    text = cli.build_parser().format_help()
    for section, block in config_to_dict(default_config()).items():
        assert f"[{section}]" in text
        for key in block:
            assert key in text
