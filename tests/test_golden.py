"""Golden SHA-256 digests of every CLI output file on small configs.

A refactor of the CLI or the engine that keeps behaviour keeps these bytes.
The main config is criterion 10's (3 municipalities, 24 months, seed 5); one
more `run` covers `apc33`, the largest default region (8 municipalities), at
24 months and seed 0. A slow test digests whole 240-month runs field by
field, which also covers values that no output file prints.
"""
import dataclasses
import hashlib
import json

import pytest

from metrosim import cli
from metrosim.config import EngineConfig, FiscalConfig, ScenarioConfig
from metrosim.engine import run_scenario
from metrosim.fiscal import TAX_KINDS
from metrosim.worldgen import default_apc_batch, save_region

CONFIG = {
    "region": {"mode": "generate", "n_municipalities": 3,
               "total_population": 6_000, "skew": 1.0},
    "world": {"population_fraction": 0.05},
    "engine": {"horizon_months": 24, "seed": 5, "runs_per_scenario": 3},
}

COMMANDS = {
    "compare": ["compare", "--export-runs"],
    "regress": ["regress", "--models", "simul1"],
    "validate": ["validate"],
    "run": ["run"],
}

GOLDEN = {
    "compare": {
        "MANIFEST.json":
            "b43ffc32d94584885861edad447e349d29cc2107503dd8f98976b25ae510ade0",
        "best_case_histogram.csv":
            "69f53a67fc99e384c7627f877b23d0a37054c6d630ff8f8874d74023aecc81d3",
        "long.csv":
            "601f643ee9c5064b1f4248c2b9ed8fbbc8cde595d6c8424967234677617d2ed1",
        "qli_normalized.csv":
            "5573526bb6f6dea9e489130fccb71e4adf0ee5557360a3289a378b5f68078703",
        "runs/region_case1_5.csv":
            "c2a56e937d512a49e28ec8f442c7aa5325aa90cbd4ba2bedc146b454bfa3eb2b",
        "runs/region_case1_6.csv":
            "7b655c59c5bae13f149de9d5fd188536f55b1640b0fc955c14ecaee2c8b10891",
        "runs/region_case1_7.csv":
            "ad549d1c549a15dace5548de6873d707fb6d48171dce39acc09eac05a69b03da",
        "runs/region_case2_5.csv":
            "c3e308857eba895af6aaf53286b0dcd04a3bf485d1fbb1db50d8f86d95f7a6df",
        "runs/region_case2_6.csv":
            "a541929d9fa4dd6780e728f1d80986335f746006706f18a3edd417dca0714d68",
        "runs/region_case2_7.csv":
            "fd59614b9d6e8578a8174d3fc15b95b6b568b6373c0e6f14bb1d9fbeebf534d0",
        "runs/region_case3_5.csv":
            "37de67b76e27372571efe80f6c6769403f7329a2ff0bbb29444a8c55a9ffd870",
        "runs/region_case3_6.csv":
            "ec55cece93757101b05afc096a7b9b278b89282d40152595d35ea3981f8ef089",
        "runs/region_case3_7.csv":
            "a2725027ab33bd0910c536706632964b5061b7110acbdd7d7c096795e753c27b",
        "runs/region_case4_5.csv":
            "4871c1772614233dc41741969d5b2ec5e57e03d2da9043fa0bcc3a96901ade37",
        "runs/region_case4_6.csv":
            "02335fa8f752b50f81ecca1ef1e618abf7aae18402b04dcea818a05cf14eddba",
        "runs/region_case4_7.csv":
            "4658d90b93b2769b8a6317f1efdf822b7673b016c1bcb7e7c4271b1c382c7e74",
    },
    "regress": {
        "MANIFEST.json":
            "89c80c265bae61d510be095afeb2f0d679452e59376a2c40e6c20a4eed8c7a75",
        "coefficients.csv":
            "7bff8e2d39147e9a8b0e6f7bff1bb5107183f41cdac32a2975689f6d09315a31",
        "dataset.csv":
            "1ec782cc29514893291c614cc125819c201269001c5c22f0b4fd7a650184bffd",
        "regression_report.txt":
            "95fcf471da06505498d19b53fcdaeb23393740762991de7db5cd3136183c0e32",
    },
    "validate": {
        "MANIFEST.json":
            "d7417bd17307cab69bb238d5be364d9cef6f287704cac2b30c7b4c9c669269d2",
        "validation_report.txt":
            "05ebacacf5d1e681520cc6027413010d888390f09967f9c7497a477608f07351",
    },
    "run": {
        "region_case1_5.csv":
            "c2a56e937d512a49e28ec8f442c7aa5325aa90cbd4ba2bedc146b454bfa3eb2b",
    },
}


APC33_RUN = {
    "apc33_case1_0.csv":
        "adb4fb0d92a8b044aa13c9302a239055ab1ab7583723e49bde534e28dbc51f94",
}


def tree_digests(directory):
    return {
        p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


# every command at --jobs 1, and the batch commands again through a 2-worker
# pool (3 worlds for 2 workers: one run per task), against the same digests
COMMAND_JOBS = [pytest.param(c, 1, id=c) for c in sorted(COMMANDS)] + [
    pytest.param(c, 2, id=f"{c}-jobs2") for c in ("compare", "regress", "validate")]


@pytest.mark.parametrize("command,jobs", COMMAND_JOBS)
def test_output_digests(tmp_path, command, jobs):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = [*COMMANDS[command], "--config", str(cfg_path), "--out", str(out_dir)]
    code = cli.main(argv if jobs == 1 else [*argv, "--jobs", str(jobs)])
    assert code == cli.EXIT_OK
    assert tree_digests(out_dir) == GOLDEN[command], (
        f"{command} output bytes changed; if no code changed, a numpy upgrade "
        "(new random streams or float kernels) can also move these digests"
    )


def test_apc33_run_digest(tmp_path):
    region_path = tmp_path / "apc33.json"
    save_region(next(r for r in default_apc_batch() if r.id == "apc33"), region_path)
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({
        "region": {"mode": "file", "path": str(region_path)},
        "engine": {"horizon_months": 24, "seed": 0},
    }), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    assert tree_digests(out_dir) == APC33_RUN, "apc33 run output bytes changed"


# sha256 over ``repr`` of every RunResult field, run after run: regions
# apc33, apc00, apc17, apc39 x cases 1-4 x 240 months, default config.
# Recorded without the fields ``horizon`` and ``final_snapshot``, which the
# record no longer has; the runs are the same as with them (297a5355... at
# seed 0 and 3508091b... at seed 7 over every field then). The
# per-municipality series were recorded as dicts by municipality id (and by
# kind within it for the inflows), so ``recorded_form`` hashes them so.
RUN_RESULT_DIGESTS = {
    0: "7cda998a9d3e198879d6b3dc498a60d0c99d36e79a2fa27b0f32e6d4cf68bb4c",
    7: "71735bb1d2994154dd8d266bb6e2f12038ebf88f7e992a817fd47628f1e260b0",
}


def recorded_form(result):
    """Every field of ``result`` as the digests were recorded, in field order:
    each per-municipality array back to its dict of Python lists."""
    fields = {field.name: getattr(result, field.name) for field in dataclasses.fields(result)}
    munis = result.municipality_ids
    for name in ("qli", "populations"):
        fields[name] = dict(zip(munis, fields[name].T.tolist()))
    fields["inflows"] = {
        muni: {kind.value: series for kind, series in zip(TAX_KINDS, by_kind)}
        for muni, by_kind in zip(munis, result.inflows.transpose(2, 1, 0).tolist())
    }
    return fields.values()


@pytest.mark.slow
@pytest.mark.parametrize("seed", sorted(RUN_RESULT_DIGESTS))
def test_run_result_digest(seed):
    regions = {region.id: region for region in default_apc_batch()}
    digest = hashlib.sha256()
    for region_id in ("apc33", "apc00", "apc17", "apc39"):
        for case_id in (1, 2, 3, 4):
            config = ScenarioConfig(fiscal=FiscalConfig(case_id=case_id),
                                    engine=EngineConfig(horizon_months=240, seed=seed))
            result = run_scenario(config, seed, regions[region_id])
            for value in recorded_form(result):
                digest.update(repr(value).encode())
    assert digest.hexdigest() == RUN_RESULT_DIGESTS[seed], f"seed {seed}: run results changed"
