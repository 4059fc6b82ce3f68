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


def sampler_draws(tw):
    """One draw of each `Sampler` method, printed, and an oracle run."""
    from qchar2.sampling import Sampler

    s = Sampler(tw, 3)
    f = s.nonsingular_form(4)
    out = [s._build_units(), s.unit(), s.tame_b(), s.tame_a(), s.nonzero(), f, s.pfister(2),
           s.anisotropic_pfister(2), s.iqn_form(2, 2), s.linked_pfister_pair(3, 2),
           s.symbol_sum(2, 2), s.rechain(f, 3)]
    return [str(x) for x in out], qchar2.suites.run_suite("oracle", samples=2).to_json()


def test_traced_run_gives_the_untraced_results():
    # the tracer wraps every callable in the class dict of Sampler as a
    # method, so a staticmethod or classmethod there would fail here
    from qchar2.sampling import Sampler

    tw = qchar2.tower(1, ("t",))
    methods = {m for m, fn in vars(Sampler).items() if callable(fn) and not m.startswith("__")}
    plain = sampler_draws(tw)
    tracer = load_tracing().Tracer()
    tracer.install(qchar2)
    try:
        traced = sampler_draws(tw)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert sampler_draws(tw) == plain
    spans = tracer.aggregate()
    assert {f"sampling.{m}" for m in methods} <= spans.keys()
    assert spans["suites.oracle"][0] == 1 and spans["witt.brute_search"][0] >= 1
