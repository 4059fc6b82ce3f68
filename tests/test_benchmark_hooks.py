"""The traced benchmark run rebinds library functions by name; every name
it lists must still resolve on the qchar2 package."""

import importlib.util
from pathlib import Path

import qchar2
import qchar2.cli  # noqa: F401  (the tracer reaches cli and suites as package attributes)
import qchar2.suites  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    tracing = load_tracing()
    for mod, attr in tracing.FUNCTION_SPANS + [tracing.SUITE_RUNNER, tracing.CLI_OUTPUT]:
        assert callable(getattr(getattr(qchar2, mod), attr)), f"{mod}.{attr}"
    for mod, cls_name, methods in tracing.METHOD_SPANS:
        cls = getattr(getattr(qchar2, mod), cls_name)
        for m in methods:
            assert callable(cls.__dict__[m]), f"{mod}.{cls_name}.{m}"
    mod, cls_name = tracing.SAMPLER
    assert isinstance(getattr(getattr(qchar2, mod), cls_name), type)
