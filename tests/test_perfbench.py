"""The benchmark tracer's patch targets still name functions of the package."""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
