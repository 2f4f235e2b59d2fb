"""The benchmark's tracer, set-up probe and command lines still name functions
and flags of the package."""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from metrosim import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SETUP_PROBE = PERFBENCH / "setup_probe.py"
RUN = PERFBENCH / "run.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while they are built
    spec.loader.exec_module(module)
    return module


tracing = load("perfbench_tracing", TRACING)
run = load("perfbench_run", RUN)


@pytest.mark.parametrize(
    "owner, attribute",
    sorted({entry[:2] for entry in
            tracing.FULL_SPANS + tracing.FULL_COUNTERS + tracing.BOUNDARY_SPANS}),
)
def test_every_traced_name_resolves(owner, attribute):
    # the tracer replaces these by name; a rename would leave its span empty
    assert callable(getattr(tracing._resolve(owner), attribute, None))


def probe_imports():
    """(module, name) for every metrosim import of the set-up probe; name None
    for a plain ``import module``."""
    found = []
    for node in ast.walk(ast.parse(SETUP_PROBE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.module, alias.name) for alias in node.names]
    return sorted((m, n) for m, n in found if m.split(".")[0] == "metrosim")


def test_setup_probe_imports_resolve():
    # every benchmark command starts with this probe; a renamed import fails them all
    imports = probe_imports()
    assert {m for m, _ in imports} >= {"metrosim.cli", "metrosim.config", "metrosim.rng",
                                        "metrosim.worldgen"}
    assert {n for _, n in imports} >= {"parse_config", "RngStreams", "default_apc_batch",
                                       "instantiate_world", "load_region"}
    for module, name in imports:
        owner = importlib.import_module(module)
        assert name is None or callable(getattr(owner, name, None)), f"{module}.{name}"


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_command_lines_parse(tmp_path, name):
    # each workload's command line reaches the command it is meant to time
    workload = run.WORKLOADS[name]
    argv = run.command_argv(workload, tmp_path / "config.json", 0, tmp_path / "out", run.JOBS)
    args = cli.build_parser().parse_args(argv)
    expected = {"run": cli.cmd_run, "regress": cli.cmd_regress, "compare": cli.cmd_compare}
    command = workload.args[0]
    if workload.pooled:
        assert (args.func, args.prepare, args.jobs) == (cli._batch_command, expected[command],
                                                        run.JOBS)
    else:
        assert args.func is expected[command]
