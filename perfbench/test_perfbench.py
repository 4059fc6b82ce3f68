"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


# -- op_tail_ms percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n, label", [
    (20000, "p99.9"), (10000, "p99.9"), (9999, "p99"), (1000, "p99"),
    (999, "p90"), (100, "p90"), (99, "p89.9"), (11, "p9.091"), (10, "max"), (1, "max"),
])
def test_tail_picks_highest_percentile_with_ten_samples_beyond(n, label):
    values = list(range(1, n + 1))          # value == rank
    value, got = worker.tail(values[::-1])
    assert got == label
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10 or label == "max"
    if label == "max":
        assert value == n


def test_tail_values_are_nearest_rank():
    values = list(range(1, 1001))
    assert worker.tail(values) == (990, "p99")
    assert worker.percentile(values, 0.5) == 500


# -- self time on a synthetic span tree ----------------------------------------------


def test_self_time_subtracts_children_once():
    #        root [0,10]
    #       /     |      \
    #  a [1,4]  b [5,6]  c [8,12] (runs past its parent: clipped to [8,10])
    #     |
    #  d [2,3]
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 5.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert tracing.self_times(parent, start, end) == [4.0, 2.0, 1.0, 4.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    parent = [-1, 0, 0]
    start = [0.0, 1.0, 2.0]
    end = [10.0, 5.0, 6.0]
    assert tracing.self_times(parent, start, end)[0] == 5.0


def test_tracer_spans_nest_and_aggregate():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    agg = tracer.aggregate()
    # outer [0,5]; inner [1,2] and [3,4]
    assert agg["m.outer"][:3] == [1, 3.0, 5.0]
    assert agg["m.inner"][:3] == [2, 2.0, 2.0]


# -- BENCHMARK.json ---------------------------------------------------------------------


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(worker.TRACE_PASSES)
    assert set(workloads.OPS) == set(worker.TRACE_PASSES)
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- smoke runs -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def src():
    return str(ROOT / "src")


@pytest.mark.parametrize("workload", list(worker.TRACE_PASSES))
def test_smoke_every_metric_appears_with_its_unit(src, workload):
    q, inputs, setup_times = worker.setup(src, workload, seed=0)
    plain = worker.Phase(q, workload, inputs).run(count=1).check()
    assert plain.error_lines() == []
    metrics, _ = worker.end_to_end(plain, setup_times)
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())

    traced = worker.Phase(q, workload, inputs, reference=plain.summaries)
    tracer = tracing.Tracer()
    tracer.install(q)
    try:
        traced.run(count=1)
    finally:
        tracer.uninstall()
    assert traced.error_lines() == []
    layers = worker.per_layer(tracer, plain, traced)
    assert {k: u for k, (_, u) in layers.items()} == declared("per_layer")
    assert q.fields.FieldElement.__mul__.__qualname__.startswith("FieldElement.")


def test_cache_counts_cover_the_phase_only(src):
    q, inputs, _ = worker.setup(src, "decide", seed=0)
    few = inputs[:4]
    once = worker.Phase(q, "decide", few).run(count=4)
    reuse = worker.Phase(q, "decide", few).run(count=8)
    fresh = worker.Phase(q, "wild", few).run(count=8)      # wild clears the cache before each pass
    assert once.cache_misses > 0
    assert reuse.cache_misses == once.cache_misses
    assert fresh.cache_misses == 2 * once.cache_misses
    ratio = fresh.hit_ratio()
    fresh.check()
    assert fresh.hit_ratio() == ratio


def test_run_prints_result_line():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "3",
                           "--seconds", "0.2"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
