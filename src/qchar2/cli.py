"""Command-line interface: parse expressions, dispatch, emit reports.

Exit codes: 0 success/verified; 1 undecided or search-exhausted
outcomes; 2 usage or parse errors; 3 refutation candidates (a theorem
check failing with a verified counter-instance).  Reports are plain text
by default and versioned JSON with --format json; identical argv and
seed produce byte-identical JSON when --no-meta strips the timestamp.
Each command declares only the options its handler reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import (
    ParseError,
    QChar2Error,
    RefutationCandidate,
    SearchExhausted,
    UndecidableInstance,
)
from .forms import QuadraticPfister, normalize_presentation
from .invariants import arf, clifford, clifford_trivial, e_map, in_iqn, pfister_hyperbolic
from .parsing import (
    format_form,
    format_symbol_sum,
    parse_field,
    parse_form,
    parse_form_expr,
    parse_symbol_sum,
)
from .suites import SUITES, run_suite, suite_takes_budget
from .symlen import class_decompose, splitting_slots, symbol_length_bound, two_rank_bound
from .witt import isotropy, witt_decompose, witt_equivalent

EXIT_OK = 0
EXIT_UNDECIDED = 1
EXIT_USAGE = 2
EXIT_REFUTATION = 3


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a count of at least 1, got {text!r}")
    return int(text)


def _budget(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a budget of at least 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    output.add_argument("--no-meta", action="store_true",
                        help="omit timestamps/versions for byte-stable output")
    top = argparse.ArgumentParser(
        prog="qchar2",
        description="Exact quadratic form theory and symbol calculus in characteristic 2.",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    # a string default goes through `type`, so a malformed QCHAR2_BUDGET
    # is a usage error of the command that relies on it
    env_budget = os.environ.get("QCHAR2_BUDGET", "20000")

    def leaf(group, name, field=True, budget=False, **kw):
        p = group.add_parser(name, parents=[output], **kw)
        if field:
            p.add_argument("--field", required=True, help='e.g. "F2((t))" or "F2^2"')
        if budget:
            p.add_argument("--budget", type=_budget, default=env_budget,
                           help="search budget (default: $QCHAR2_BUDGET, else 20000)")
        return p

    def ops(name, summary):
        return sub.add_parser(name, help=summary).add_subparsers(dest="op", required=True)

    leaf(sub, "isotropy", budget=True, help="decide isotropy of a form").add_argument("form")

    witt = ops("witt", "Witt-group operations")
    leaf(witt, "isotropy", budget=True).add_argument("form")
    for op in ("decompose", "index", "hyperbolic"):
        leaf(witt, op).add_argument("form")
    p = leaf(witt, "equivalent")
    p.add_argument("form")
    p.add_argument("other")

    pfister = ops("pfister", "Pfister form operations")
    for op in ("expand", "hyperbolic", "invariant"):
        leaf(pfister, op).add_argument("form")

    p = leaf(sub, "invariants", help="Arf, Clifford, filtration membership")
    p.add_argument("form")
    p.add_argument("--n", type=int, default=None, help="membership degree to test")

    symbol = ops("symbol", "symbol-sum operations")
    for op in ("simplify", "trivial", "rewrite"):
        leaf(symbol, op).add_argument("sum")
    leaf(symbol, "length", budget=True).add_argument("sum")

    symlen = ops("symlen", "symbol-length machinery")
    p = leaf(symlen, "bound", field=False)
    p.add_argument("--u", required=True, type=_int_list, help="comma-separated u^2,...,u^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int, default=None,
                   help="also report the 2-rank bound for this rank")
    p = leaf(symlen, "split")
    p.add_argument("form")
    p.add_argument("--n", type=int, required=True)
    p = leaf(symlen, "decompose", budget=True)
    p.add_argument("form")
    p.add_argument("--n", type=int, default=2)

    linkage = ops("linkage", "linkage of Pfister forms")
    for op in ("max", "check"):
        p = leaf(linkage, op, budget=True)
        p.add_argument("--p", required=True, dest="p_form")
        p.add_argument("--q", required=True, dest="q_form")
    p.add_argument("--k", type=int, default=None,      # `check` only
                   help="common fold (default: fold of p minus 1)")

    p = leaf(sub, "u-invariant", help="u-invariant of the tower, with its checked witness")
    p.add_argument("--n", type=int, default=1)

    p = leaf(sub, "verify", field=False, help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--field", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_count, default=None)
    p.add_argument("--budget", type=_budget, default=None,
                   help="overrides the budget of every suite that searches"
                        " (default: keep each suite's own)")
    return top


def _report(args, payload: dict, code: int, meta: dict | None = None) -> int:
    """Print the report; `meta` adds run facts (timings) that --no-meta
    leaves out with the version and the timestamp."""
    payload = {"schema": 1, **payload}
    if not args.no_meta:
        payload["meta"] = {
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            **(meta or {}),
        }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        _print_text(payload)
    return code


def _print_text(payload, indent=0):
    pad = "  " * indent
    for key, value in payload.items():
        if key in ("schema", "meta"):
            continue
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, list):
            print(f"{pad}{key}: [{len(value)} entries]")
            for item in value[:5]:
                if isinstance(item, dict):
                    _print_text(item, indent + 1)
                else:
                    print(f"{pad}  {item}")
        else:
            print(f"{pad}{key}: {value}")


def _verdict_payload(verdict) -> dict:
    out = {"verdict": verdict.kind}
    if verdict.witness is not None:
        out["witness"] = [str(x) for x in verdict.witness]
    if verdict.certificate is not None:
        out["certificate"] = verdict.certificate
    if verdict.budget_report is not None:
        out["budget_report"] = verdict.budget_report
    return out


def _verdict_code(verdict) -> int:
    return EXIT_OK if verdict.decided else EXIT_UNDECIDED


# -- handlers -------------------------------------------------------------------------


def _run_isotropy(args):
    tw = parse_field(args.field)
    f = parse_form(tw, args.form)
    verdict = isotropy(f, args.budget)
    payload = {"command": "isotropy", "field": tw.descriptor(), "form": format_form(f)}
    payload.update(_verdict_payload(verdict))
    return _report(args, payload, _verdict_code(verdict))


def _run_witt(args):
    tw = parse_field(args.field)
    f = parse_form(tw, args.form)
    payload = {"command": f"witt {args.op}", "field": tw.descriptor(),
               "form": format_form(f)}
    code = EXIT_OK
    if args.op == "isotropy":
        verdict = isotropy(f, args.budget)
        payload.update(_verdict_payload(verdict))
        code = _verdict_code(verdict)
    elif args.op == "equivalent":
        g = parse_form(tw, args.other)
        payload["other"] = format_form(g)
        payload["equivalent"] = witt_equivalent(f, g)
    else:
        dec = witt_decompose(f)
        if args.op == "index":
            payload["witt_index"] = dec.index
        elif args.op == "hyperbolic":
            payload["hyperbolic"] = dec.kernel_dim == 0 and not f.quasilinear
        else:
            payload["witt_index"] = dec.index
            payload["kernel"] = format_form(dec.kernel)
            payload["proof"] = list(dec.proof)
    return _report(args, payload, code)


def _run_pfister(args):
    tw = parse_field(args.field)
    val = parse_form_expr(tw, args.form)
    if not isinstance(val, QuadraticPfister):
        raise ParseError(f"{args.form!r} is not a Pfister expression")
    payload = {"command": f"pfister {args.op}", "field": tw.descriptor(),
               "pfister": format_form(val)}
    code = EXIT_OK
    if args.op == "expand":
        payload["expansion"] = format_form(val.expand())
    elif args.op == "hyperbolic":
        payload["hyperbolic"] = pfister_hyperbolic(val)
    else:
        from .cohomology import SymbolSum

        sym = e_map(val)
        payload["invariant"] = format_symbol_sum(SymbolSum(sym.degree, (sym,)))
    return _report(args, payload, code)


def _run_invariants(args):
    tw = parse_field(args.field)
    f = parse_form(tw, args.form)
    r = arf(f)
    c = clifford(f)
    payload = {
        "command": "invariants",
        "field": tw.descriptor(),
        "form": format_form(f),
        "arf": {"reduced": str(r.reduced), "trivial": r.is_in_wp},
        "clifford": {"symbols": str(c), "trivial": clifford_trivial(c)},
    }
    code = EXIT_OK
    if args.n is not None:
        member = in_iqn(f, args.n)
        payload["membership"] = {"degree": args.n, "member": member}
        if member is None:
            code = EXIT_UNDECIDED
    return _report(args, payload, code)


def _run_symbol(args):
    from .cohomology import basis_rewrite, class_trivial, simplify, symbol_length, to_differential

    tw = parse_field(args.field)
    s = parse_symbol_sum(tw, args.sum)
    payload = {"command": f"symbol {args.op}", "field": tw.descriptor(),
               "input": format_symbol_sum(s)}
    code = EXIT_OK
    if args.op == "simplify":
        payload["result"] = format_symbol_sum(simplify(s))
    elif args.op == "trivial":
        payload["trivial"] = class_trivial(s)
    elif args.op == "rewrite":
        out = basis_rewrite(to_differential(s), tw)
        payload["result"] = format_symbol_sum(out)
        payload["symbols"] = len(out.symbols)
    else:
        try:
            res = symbol_length(s, args.budget)
            payload["length"] = res.value
            payload["exact"] = res.exact
            if res.expression is not None:
                payload["expression"] = format_symbol_sum(res.expression)
        except QChar2Error as exc:
            payload["error"] = str(exc)
            code = EXIT_UNDECIDED
    return _report(args, payload, code)


def _run_symlen(args):
    if args.op == "bound":
        payload = {
            "command": "symlen bound",
            "u_values": list(args.u),
            "degree": args.n,
            "bound": symbol_length_bound(args.u, args.n),
        }
        if args.rank is not None:
            payload["two_rank_bound"] = two_rank_bound(args.rank, args.n)
        return _report(args, payload, EXIT_OK)
    tw = parse_field(args.field)
    f = parse_form(tw, args.form)
    if args.op == "split":
        nf = normalize_presentation(f).form
        slots, proof = splitting_slots(nf, args.n)
        payload = {
            "command": "symlen split",
            "field": tw.descriptor(),
            "normalized": format_form(nf),
            "slots": [str(b) for b in slots],
            "proof": {"witt_chain": list(proof.witt_chain),
                      "hauptsatz": proof.hauptsatz_step},
        }
        return _report(args, payload, EXIT_OK)
    try:
        out = class_decompose(f, args.n, args.budget)
    except SearchExhausted as exc:
        payload = {"command": "symlen decompose", "field": tw.descriptor(),
                   "form": format_form(f), "outcome": "search-exhausted",
                   "report": exc.report}
        return _report(args, payload, EXIT_UNDECIDED)
    payload = {
        "command": "symlen decompose",
        "field": tw.descriptor(),
        "form": format_form(f),
        "degree": args.n,
        "symbols": len(out.symbols),
        "expression": format_symbol_sum(out),
    }
    return _report(args, payload, EXIT_OK)


def _run_linkage(args):
    from .linkage import inseparably_linked, max_separable_linkage

    tw = parse_field(args.field)
    p = parse_form_expr(tw, args.p_form)
    q = parse_form_expr(tw, args.q_form)
    if not isinstance(p, QuadraticPfister) or not isinstance(q, QuadraticPfister):
        raise ParseError("linkage operands must be Pfister expressions")
    payload = {"command": f"linkage {args.op}", "field": tw.descriptor(),
               "p": format_form(p), "q": format_form(q)}
    code = EXIT_OK
    if args.op == "max":
        res = max_separable_linkage(p, q, witness_budget=args.budget)
        payload["max_separable_linkage"] = res.r
        payload["witt_index"] = res.witt_index
        if res.witness is not None:
            payload["witness"] = res.witness.describe()
    else:
        k = args.k if args.k is not None else p.fold - 1
        rep = inseparably_linked(p, q, k, args.budget)
        payload["k"] = k
        payload["linked"] = rep.verdict
        payload["rationale"] = rep.rationale
        if rep.witness is not None:
            payload["witness"] = rep.witness.describe()
        if rep.verdict is None:
            code = EXIT_UNDECIDED
    return _report(args, payload, code)


def _run_u_invariant(args):
    from .linkage import u_invariant_estimate

    tw = parse_field(args.field)
    est = u_invariant_estimate(tw, args.n)
    payload = {
        "command": "u-invariant",
        "field": tw.descriptor(),
        "degree": args.n,
        "value": est.value,
        "witness": str(est.witness) if est.witness else None,
        "provenance": est.provenance,
    }
    return _report(args, payload, EXIT_OK)


def _suite_job(name, tw, samples, seed, budget):
    """One suite of `verify`: its report and the seconds it took.  Defined
    at module level, so that a worker process unpickles it by name."""
    t0 = time.perf_counter()
    rep = run_suite(name, tw, samples=samples, seed=seed, budget=budget)
    return rep, time.perf_counter() - t0


def _run_jobs(jobs):
    """(the results of `_suite_job` in job order, the number of processes
    that ran them).  The jobs run in forked workers, one per usable CPU, or
    in this process when there is one job, one usable CPU, no fork, or a
    second thread, which a fork could catch holding a lock.  A forked
    worker, unlike a spawned one, keeps this process's hash seed, towers
    and caches, so its report has the same bytes; a worker's exception is
    raised here, the first one in job order."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cpus)
    if workers > 1:
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
            # multiprocessing flushes stdout and stderr before each fork, so
            # a worker never writes out a copy of unwritten output
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                return list(pool.map(_suite_job, *zip(*jobs))), workers
    return [_suite_job(*job) for job in jobs], 1


def _run_verify(args):
    if args.suite == "all":
        seen = set()
        names = []
        for name in sorted(SUITES):
            fn = SUITES[name]
            if fn not in seen:
                seen.add(fn)
                names.append(name)
    else:
        names = [args.suite]
    tw = parse_field(args.field) if args.field else None
    # `verify all --budget` reaches the suites that search; naming a suite
    # that does not is an error raised by run_suite
    jobs = [(name, tw, args.samples, args.seed,
             args.budget if args.suite != "all" or suite_takes_budget(name) else None)
            for name in names]
    results, workers = _run_jobs(jobs)
    reports = [rep for rep, _ in results]
    worst = EXIT_OK
    for rep in reports:
        if rep.has_refutation:
            worst = max(worst, EXIT_REFUTATION)
        elif not rep.passed:
            worst = max(worst, EXIT_UNDECIDED)
    payload = {
        "command": f"verify {args.suite}",
        "passed": all(r.passed for r in reports),
        "suites": [r.to_json() for r in reports],
    }
    meta = {"suite_seconds": {name: seconds for name, (_, seconds) in zip(names, results)},
            "workers": workers}
    return _report(args, payload, worst, meta)


HANDLERS = {
    "isotropy": _run_isotropy,
    "witt": _run_witt,
    "pfister": _run_pfister,
    "invariants": _run_invariants,
    "symbol": _run_symbol,
    "symlen": _run_symlen,
    "linkage": _run_linkage,
    "u-invariant": _run_u_invariant,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return HANDLERS[args.verb](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SearchExhausted, UndecidableInstance) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except RefutationCandidate as exc:
        print(f"refutation candidate: {exc}", file=sys.stderr)
        return EXIT_REFUTATION
    except QChar2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
