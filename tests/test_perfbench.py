"""The benchmark's tracer and set-up probe still name functions of the package."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SETUP_PROBE = PERFBENCH / "setup_probe.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


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
