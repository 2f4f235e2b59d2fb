"""Config parsing and the command-line surface, including exit codes."""
import json
import logging
import math

import pytest

from metrosim import cli, engine
from metrosim.config import (
    config_from_dict,
    config_to_dict,
    default_config,
    parse_config,
    serialize_config,
)
from metrosim.errors import ConfigError
from metrosim.worldgen import load_region

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
])
def test_gen_region_bad_flags_exit_one(tmp_path, capsys, flags):
    out = tmp_path / "region.json"
    code = cli.main(["gen-region", "--municipalities", "3", "--population", "5000",
                     "--out", str(out), *flags])
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


@pytest.mark.parametrize("flags", [
    ["--runs", "0"],
    ["--runs", "-2"],
    ["--seed", "-1"],
    ["--cases", "1,5"],
    ["--cases", "1,1"],
    ["--jobs", "0"],
])
def test_bad_flags_exit_one_before_any_run(tmp_path, capsys, flags):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out_dir = tmp_path / "cmp"
    code = cli.main(["compare", "--config", cfg_path, "--out", str(out_dir), *flags])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (out_dir / "MANIFEST.json").exists()


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


def test_compare_flags_broken_batch_with_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "step_month", break_invariant)
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out_dir = tmp_path / "cmp"
    code = cli.main(["compare", "--config", cfg_path, "--out", str(out_dir)])
    assert code == cli.EXIT_PARTIAL
    assert "batch incomplete" in capsys.readouterr().err
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
], ids=["missing", "no-coefficient-column", "not-utf8", "not-ascending"])
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
