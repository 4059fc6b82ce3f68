"""The qchar2 benchmark.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the root of a source checkout; qchar2 is imported from its
`src/` directory, never from an installed copy.  Each workload runs in a
fresh child process (worker.py) driven by one closed-loop caller.  The
last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The lines before it
record the environment, the input properties and the raw fractions.

The exit code is 0 only when every run completed; a failed check is
reported through `correct` and `failed`, not through the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide", "oracle", "wild", "verify-all")
CHILD_TIMEOUT_S = 170


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_sha256(root):
    """Hash of the library sources, to identify the code measured even in
    a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "qchar2").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root, seed):
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": commit(root),
        "src_sha256": source_sha256(root),
        "seed": seed,
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_child(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = ROOT / ".bench_trace"
        spans_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans_dir / f"{workload}.spans")]
    # subprocess.run kills the child and waits for it when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = declared_metrics(trace)
    got = {k: v["unit"] for k, v in out["result"]["metrics"].items()}
    if got != declared:
        raise RuntimeError(f"{workload}: metrics {sorted(set(got) ^ set(declared))} differ from BENCHMARK.json")
    return out


def report(out):
    """The lines printed before the result: what was run and how it went."""
    print(f"# {out['workload']} seed={out['seed']}")
    print("inputs " + json.dumps(out["inputs"], sort_keys=True))
    print("details " + json.dumps(out["details"], sort_keys=True))
    for err in out["errors"]:
        print("error " + err)
    for name, m in out["result"]["metrics"].items():
        print(f"  {out['workload']:<10} {name:<44} {m['value']:>16.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qchar2" / "__init__.py").is_file():
        print(f"no qchar2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("environment " + json.dumps(environment(ROOT, args.seed), sort_keys=True))
    results = []
    for name in names:
        try:
            out = run_child(name, args.seed, seconds, args.trace)
        except (RuntimeError, ValueError, KeyError, IndexError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        report(out)
        results.append(out)
    if len(results) == 1:
        final = results[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in results),
            "attempted": sum(r["result"]["attempted"] for r in results),
            "failed": sum(r["result"]["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
