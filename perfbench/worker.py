"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/worker.py --root <checkout> --workload decide --seed 1 --seconds 25 --trace 0

Started by run.py.  It sets up the workload several times (import of
qchar2 plus input generation), runs the closed-loop timed phase on the
last set-up, checks every result, and prints one JSON object with the
measurements as its last line of output.

With --trace 1 it runs a fixed number of operations twice, plain and
then with the tracer installed, and reports per-layer metrics and the
traced/plain wall ratio instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

import tracing
import workloads

SETUP_REPEATS = 11
# Passes over the inputs per traced run: fixed, so the counts of a traced
# run depend only on the seed and the code, never on the speed of the machine.
TRACE_PASSES = {"decide": 2, "oracle": 1, "wild": 1, "verify-all": 1}
TAIL_PERCENTILES = (0.999, 0.99, 0.90)
MIN_BEYOND = 10


def rank(p, n):
    """1-based nearest rank of percentile p among n samples (p * n is
    rounded first, so that 0.9 * 100 gives rank 90 and not 91)."""
    return max(1, math.ceil(round(p * n, 9)))


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[rank(p, len(sorted_values)) - 1]


def tail(values):
    """The highest of p90, p99 and p99.9 with at least ten samples above
    its rank, as (value, label).  With fewer than 100 samples none of them
    qualifies; the tail is then the highest rank that still leaves ten
    samples above it, and with ten samples or fewer the maximum."""
    vs = sorted(values)
    n = len(vs)
    for p in TAIL_PERCENTILES:
        if n - rank(p, n) >= MIN_BEYOND:
            return percentile(vs, p), f"p{100 * p:g}"
    if n > MIN_BEYOND:
        return vs[n - MIN_BEYOND - 1], f"p{100 * (n - MIN_BEYOND) / n:.4g}"
    return vs[-1], "max"


def fresh_import(src):
    """Import qchar2 from `src` as if for the first time in this process."""
    for name in [m for m in sys.modules if m == "qchar2" or m.startswith("qchar2.")]:
        del sys.modules[name]
    q = importlib.import_module("qchar2")
    if not os.path.realpath(q.__file__).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"qchar2 imported from {q.__file__}, not from {src}")
    importlib.import_module("qchar2.cli")
    return q


def setup(src, workload, seed):
    """Import and build the inputs SETUP_REPEATS times; keep the last."""
    if src not in sys.path:
        sys.path.insert(0, src)
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        q = fresh_import(src)
        inputs = workloads.MAKERS[workload](q, seed)
        times.append(time.perf_counter() - t0)
    return q, inputs, times


class Phase:
    """The closed loop: one caller, the next operation only after the last."""

    def __init__(self, q, workload, inputs, reference=None):
        self.q, self.workload, self.inputs = q, workload, inputs
        self.cache = q.fields.wp_reduce         # the lru_cache; build phases before tracing
        self.clear_each_pass = workload in workloads.CLEAR_CACHE_EACH_PASS
        self.cache_hits = self.cache_misses = 0  # over the phase, across cache clears
        self.op = workloads.OPS[workload]
        self.times = []
        self.starts = []             # start of each operation, from the start of the phase
        self.first = {}              # input index -> full result, kept for the checks
        self.summaries = {}          # input index -> summary of the first result
        self.reference = reference   # summaries an earlier phase produced
        self.errors = []             # (op number, reason) for operations that raised or disagreed
        self.bad_inputs = {}         # input index -> checks its result failed
        self.wall = 0.0

    def run(self, seconds=None, count=None):
        q, op, inputs, n = self.q, self.op, self.inputs, len(self.inputs)
        clock = time.perf_counter
        gc.collect()
        self.cache.cache_clear()     # drops the counts of earlier calls too
        t_start = clock()
        i = 0
        # with `seconds`, at least one whole pass, so that every run covers every input
        while (count is None or i < count) and (seconds is None or i < n or clock() - t_start < seconds):
            if i and i % n == 0 and self.clear_each_pass:
                self._clear_cache()
            inp = inputs[i % n]
            t0 = clock()
            self.starts.append(t0 - t_start)
            try:
                result = op(q, inp)
            except Exception as exc:  # an unexpected error is a measured failure
                self.times.append(clock() - t0)
                self.errors.append((i, f"raised {type(exc).__name__}: {exc}"))
                i += 1
                continue
            self.times.append(clock() - t0)
            self._record(i, i % n, result)
            i += 1
        self.wall = clock() - t_start
        self._clear_cache()
        return self

    def _clear_cache(self):
        """Clear the wp_reduce cache, keeping its hit and miss counts."""
        info = self.cache.cache_info()
        self.cache_hits += info.hits
        self.cache_misses += info.misses
        self.cache.cache_clear()

    def hit_ratio(self):
        return self.cache_hits / max(1, self.cache_hits + self.cache_misses)

    def _record(self, i, k, result):
        summary = workloads.summarize(self.workload, result)
        expected = self.summaries.get(k)
        if expected is None and self.reference is not None:
            expected = self.reference.get(k)
        if expected is None:
            self.summaries[k] = summary
            self.first[k] = result
        elif summary != expected:
            self.errors.append((i, "result differs from an earlier operation on the same input"))

    def latencies(self):
        """One time per input: the median of the operations on it.  Inputs
        run several times then give their typical cost, not a moment when
        the machine was busy elsewhere."""
        n = len(self.inputs)
        per_input = {}
        for i, t in enumerate(self.times):
            per_input.setdefault(i % n, []).append(t)
        return [statistics.median(ts) for ts in per_input.values()]

    def pass_wall(self):
        """Median wall time of the complete passes over the inputs, caller
        overhead included; extrapolated from the whole phase when not even
        one pass completed."""
        size = len(self.inputs)
        bounds = self.starts[::size] + [self.wall]
        walls = [b - a for a, b in zip(bounds, bounds[1:])][: len(self.starts) // size]
        if not walls:
            return self.wall * size / len(self.starts)
        return statistics.median(walls)

    def undecided(self):
        """(Undecided answers, answers that could have been) over the
        inputs the phase reached, one result per input."""
        counts = [workloads.undecided(self.workload, r) for r in self.first.values()]
        return sum(u for u, _ in counts), sum(p for _, p in counts)

    def check(self):
        for k, result in sorted(self.first.items()):
            try:
                bad = workloads.check(self.q, self.workload, self.inputs[k], result)
            except Exception as exc:
                bad = [f"check raised {type(exc).__name__}: {exc}"]
            if bad:
                self.bad_inputs[k] = bad
        return self

    def failed_ops(self, bad_inputs):
        """Operations that raised, disagreed with an earlier result, or ran
        on an input whose result failed a check."""
        n = len(self.inputs)
        return {i for i, _ in self.errors} | {i for i in range(len(self.times)) if i % n in bad_inputs}

    def error_lines(self):
        return [f"op {i}: {reason}" for i, reason in self.errors] + [
            f"input {k}: {', '.join(bad)}" for k, bad in sorted(self.bad_inputs.items())]


def end_to_end(phase, setup_times):
    n = len(phase.times)
    latencies = phase.latencies()
    tail_s, tail_label = tail(latencies)
    und, possible = phase.undecided()
    failed = len(phase.failed_ops(phase.bad_inputs))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (phase.pass_wall(), "s"),
        "ops_per_s": (n / phase.wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "decided_frac": (1.0 - und / possible if possible else 1.0, "ratio"),
        "ok_frac": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "ops": n,
        "inputs_timed": len(latencies),
        "passes": n / len(phase.inputs),
        "phase_wall_s": phase.wall,
        "op_tail_percentile": tail_label,
        "undecided_frac": und / possible if possible else 0.0,
        "undecided_answers": und,
        "undecidable_answers": possible,
        "error_frac": failed / n,
        "setup_s_each": setup_times,
    }
    if phase.workload == "verify-all":
        shas = {str(phase.inputs[k]): sha for k, (_, sha) in sorted(phase.summaries.items())}
        details["verify_all_sha256"] = shas
        gate = shas.get(str(workloads.VERIFY_ALL_GATE_SEED))
        details["gate_sha256_matches"] = None if gate is None else gate == workloads.VERIFY_ALL_GATE_SHA256
    return metrics, details


# The distinct suites `verify all` runs, by the name it calls them with.
SUITES = ("coru", "hauptsatz", "invariance", "length-pipeline", "lift", "oracle", "pfister-dichotomy",
          "symbol-bound", "theoremd", "theoremu", "u-witness", "wittindex", "wittlemma")
CALLS = ("forms.evaluate", "forms.polar", "witt.brute_search", "witt.isotropy", "witt.witt_decompose",
         "parsing.format_element", "cohomology.class_trivial", "symlen.class_decompose")
SELF_S = ("fields.wp_reduce", "forms.evaluate", "forms.polar", "witt.brute_search", "witt.isotropy",
          "witt.witt_decompose", "parsing.format_element", "invariants.arf", "invariants.clifford",
          "invariants.clifford_trivial", "cohomology.class_trivial", "symlen.class_decompose",
          "symlen.wedge_decompose", "linkage.max_separable_linkage", "linkage.inseparably_linked",
          "linkage.lift_linkage", "linkage.augmented_sum_index_check")
FIELD_COUNTS = ("mul.l0", "mul.l1", "mul.l2", "add.l1", "add.l2", "eq", "hash", "inverse")


def per_layer(tracer, plain, traced):
    """Per-layer metrics from the spans and counters of the traced phase."""
    agg = tracer.aggregate()
    empty = [0, 0.0, 0.0, []]

    def layer(prefix, col):
        return sum((row[col] for name, row in agg.items() if name.startswith(prefix + ".")), 0.0)

    m = {f"fields.{k}": (tracer.counts[k], "count") for k in FIELD_COUNTS}
    m["fields.wp_reduce.calls"] = (agg.get("fields.wp_reduce", empty)[0], "count")
    m["fields.wp_reduce.hit_ratio"] = (traced.hit_ratio(), "ratio")
    m.update({f"{name}.calls": (agg.get(name, empty)[0], "count") for name in CALLS})
    m.update({f"{name}.self_s": (agg.get(name, empty)[1], "s") for name in SELF_S})
    searches = agg.get("witt.brute_search", empty)[3]
    reports = [r.budget_report or {} for r in searches]
    m["witt.brute_search.pairs_covered"] = (sum(r.get("pairs_covered", 0) for r in reports), "count")
    m["witt.brute_search.hensel_tried"] = (sum(r.get("hensel_tried", 0) for r in reports), "count")
    found = sum(1 for r in searches if r.is_isotropic)
    m["witt.brute_search.found_ratio"] = (found / max(1, len(searches)), "ratio")
    classes = agg.get("cohomology.class_trivial", empty)[3]
    m["cohomology.class_trivial.undecided"] = (sum(1 for r in classes if r is None), "count")
    m["linalg.self_s"] = (layer("linalg", 1), "s")
    m["sampling.self_s"] = (layer("sampling", 1), "s")
    m.update({f"suites.{s}.wall_s": (agg.get(f"suites.{s}", empty)[2], "s") for s in SUITES})
    m["cli.output_s"] = (agg.get("cli.output", empty)[2], "s")
    m["trace.overhead_ratio"] = (traced.wall / plain.wall, "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    q, inputs, setup_times = setup(src, args.workload, args.seed)
    out = {"workload": args.workload, "seed": args.seed, "inputs": workloads.describe(q, args.workload, inputs)}

    if not args.trace:
        phase = Phase(q, args.workload, inputs).run(seconds=args.seconds).check()
        metrics, details = end_to_end(phase, setup_times)
        out["inputs"]["wp_reduce_hit_ratio"] = phase.hit_ratio()
        failed = len(phase.failed_ops(phase.bad_inputs))
        errors = phase.error_lines()
        attempted = len(phase.times)
    else:
        count = TRACE_PASSES[args.workload] * len(inputs)
        plain = Phase(q, args.workload, inputs).run(count=count)
        traced = Phase(q, args.workload, inputs, reference=plain.summaries)
        tracer = tracing.Tracer()
        tracer.install(q)
        try:
            traced.run(count=count)
        finally:
            tracer.uninstall()
        plain.check()
        metrics = per_layer(tracer, plain, traced)
        details = {"ops": count, "spans": len(tracer.start)}
        failed = len(plain.failed_ops(plain.bad_inputs)) + len(traced.failed_ops(plain.bad_inputs))
        errors = plain.error_lines() + [f"traced {line}" for line in traced.error_lines()]
        attempted = 2 * count
        if args.spans_out:
            tracer.dump(args.spans_out)
            details["spans_file"] = args.spans_out

    out["details"] = details
    out["errors"] = errors[:20]
    out["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
