"""Seeded inputs, operations and correctness checks for the four workloads.

Inputs are built only through qchar2's public constructors (`tower`,
`gen`, `base_element`, field arithmetic and `QuadraticForm`), never
through `qchar2.sampling`, so a change to the library's own samplers
cannot silently change what the benchmark measures.

Every function takes the imported `qchar2` package as its first
argument and reaches the library through it.  The traced run rebinds
the package's public names, so going through the package keeps every
call visible to the tracer, and the benchmark can import the library
afresh for each set-up repetition.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter

# `qchar2 verify all --format json --no-meta --seed 0` must print exactly
# these bytes; it is the behaviour gate for refactors of the library.
VERIFY_ALL_GATE_SHA256 = "12e7a400990c705066cf6fef034d46f6bcc005959cc92c08e669197d8f39806e"
VERIFY_ALL_GATE_SEED = 0

ORACLE_BUDGET = 100000

# Fixed input mixes: the seed picks the forms, never the mix, so run-to-run
# spread comes from the code and the machine rather than from a different
# share of cheap and expensive inputs.  Every run goes through its whole
# input list at least once and cycles it, so every run times the same
# inputs however fast the machine or the code.
#
# decide: equal (field, dimension) cells.  The acceptance suites run equal
# sample counts on F2((t)) and F2((t1))((t2)), and the library's oracle
# suite draws the dimension uniformly; decide extends that draw to dim 8.
DECIDE_DIMS = (2, 4, 6, 8)
DECIDE_PER_CELL = 250          # forms per (field, dimension) cell
# oracle: anisotropic forms per dimension, in the shares the oracle suite's
# stream (dimension uniform over 2/4/6, tame pairs over F2((t1))((t2)))
# yields them: 66.8%, 27.5% and 5.8% of 3339 anisotropic forms among
# 10000 drawn (suite seeds 0-19, 500 draws each).  The stream below draws
# exactly as that suite's sampler does.
ORACLE_COUNTS = {2: 47, 4: 19, 6: 4}
ORACLE_DIMS = tuple(ORACLE_COUNTS)
# wild: (base exponent k of F_{2^k}((t)), lowest a-slot valuation, a-slots
# with a pole, a-slots without): over F2((t)) one pole alone, a pole beside
# a tame slot, and two poles; over F4((t)) one pole.  The library has no
# wild sampler to take a mix from, so the four cells have equal shares.
# (An F4((t)) share of one half would put the median latency in the gap
# between the F2((t)) and F4((t)) costs, where it jumps from seed to seed.)
# Wild F4((t)) forms of dimension 4 are left out: one takes 0.3-0.8 s, so
# too few would fit in a run to give steady figures.
WILD_CELLS = [(1, -5, 1, 0), (1, -5, 1, 1), (1, -5, 2, 0), (2, -3, 1, 0)]
WILD_PER_CELL = 100
# Workloads whose wp_reduce cache is cleared before every pass over the
# inputs, so that each pass sees the low reuse of freshly drawn forms.
CLEAR_CACHE_EACH_PASS = ("wild",)


# -- fields and elements ----------------------------------------------------------


def tame_towers(q):
    return [q.tower(1, ("t",)), q.tower(1, ("t1", "t2"))]


def unit_pool(tw):
    """Valuation-0 elements: base units and 1 + small monomials."""
    one = tw.one()
    pool = [tw.base_element(b) for b in range(1, tw.order)]
    gens = [tw.gen(i) for i in range(1, tw.height + 1)]
    for g in gens:
        pool.append(one + g)
        pool.append(one + g * g)
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            pool.append(one + g * h)
            pool.append(one + g + h)
    return pool


def tame_pair(tw, rng, units):
    """b is a unit or t_j * unit; a has nonnegative valuation everywhere."""
    b = rng.choice(units)
    if rng.random() < 0.5:
        b = b * tw.gen(rng.randrange(1, tw.height + 1))
    a = rng.choice([tw.zero(), tw.one(), rng.choice(units)])
    if rng.random() < 0.6:
        a = a + tw.gen(rng.randrange(1, tw.height + 1)) * rng.choice(units)
    return b, a


def random_poly(tw, rng, degree):
    """A polynomial in t of the given degree, nonzero constant term."""
    t = tw.gen(1)
    out = tw.base_element(rng.randrange(1, tw.order))
    for i in range(1, degree + 1):
        bits = rng.randrange(1 if i == degree else 0, tw.order)
        out = out + tw.base_element(bits) * t ** i
    return out


def random_unit(tw, rng):
    """A valuation-0 fraction with random numerator and denominator."""
    return random_poly(tw, rng, rng.randrange(4)) / random_poly(tw, rng, rng.randrange(3))


def wild_pair(tw, rng, pole):
    """b = t^e * unit, e in {0, 1}; a = unit / t^pole, so v(a) = -pole."""
    t = tw.gen(1)
    return random_unit(tw, rng) * t ** rng.randrange(2), random_unit(tw, rng) / t ** pole


# -- input sets -------------------------------------------------------------------


def _round_robin(cells):
    """Interleave the cells so that every prefix of the input list, and so
    the partial last pass of a run, holds them in equal shares."""
    cells = [list(c) for c in cells]
    return [cell[i] for i in range(max(map(len, cells))) for cell in cells if i < len(cell)]


def make_decide(q, seed):
    rng = random.Random(seed)
    cells = []
    for tw in tame_towers(q):
        units = unit_pool(tw)
        for dim in DECIDE_DIMS:
            cells.append([
                q.QuadraticForm(tw, tuple(tame_pair(tw, rng, units) for _ in range(dim // 2)))
                for _ in range(DECIDE_PER_CELL)
            ])
    return _round_robin(cells)


def make_oracle(q, seed):
    """The first ORACLE_COUNTS[dim] forms of each dimension, in stream order,
    of a tame stream over F2((t1))((t2)) that the decider calls anisotropic."""
    rng = random.Random(seed)
    tw = q.tower(1, ("t1", "t2"))
    units = unit_pool(tw)
    chosen = {dim: 0 for dim in ORACLE_DIMS}
    out = []
    while any(chosen[dim] < n for dim, n in ORACLE_COUNTS.items()):
        dim = rng.choice(ORACLE_DIMS)
        f = q.QuadraticForm(tw, tuple(tame_pair(tw, rng, units) for _ in range(dim // 2)))
        if chosen[dim] < ORACLE_COUNTS[dim] and q.isotropy(f).is_anisotropic:
            chosen[dim] += 1
            out.append(f)
    return out


def make_wild(q, seed):
    rng = random.Random(seed)
    cells = []
    for k, low, wild, tame in WILD_CELLS:
        tw = q.tower(k, ("t",))
        cells.append([
            q.QuadraticForm(tw, tuple(
                wild_pair(tw, rng, rng.randrange(1, 1 - low) if j < wild else 0)
                for j in range(wild + tame)))
            for _ in range(WILD_PER_CELL)
        ])
    return _round_robin(cells)


def make_verify_all(q, seed):
    """Suite seeds: the gate seed, then one drawn from the seed."""
    return [VERIFY_ALL_GATE_SEED, random.Random(seed).randrange(1, 1 << 31)]


def describe(q, workload, inputs):
    """Input properties printed with the results."""
    if workload == "verify-all":
        return {"suite_seeds": inputs}
    fields = Counter(f.tower.descriptor() for f in inputs)
    dims = Counter(f.dim for f in inputs)
    slots = [a for f in inputs for _, a in f.pairs]
    wild = sum(1 for a in slots if not a.is_zero() and a.level >= 1 and a.valuation(a.level) < 0)
    return {
        "forms": len(inputs),
        "field_mix": dict(sorted(fields.items())),
        "dim_histogram": {str(k): v for k, v in sorted(dims.items())},
        "wild_slot_share": wild / len(slots),
    }


# -- operations -------------------------------------------------------------------


def decide_op(q, f):
    """What `qchar2 witt decompose` plus `qchar2 invariants` compute."""
    iso = q.isotropy(f)
    try:
        wd = q.witt_decompose(f)
    except q.errors.UndecidableInstance:
        wd = None
    arf = q.arf(f)
    trivial = q.clifford_trivial(q.clifford(f))
    return iso, wd, arf, trivial


def oracle_op(q, f):
    return q.brute_search(f, ORACLE_BUDGET)


def verify_all_op(q, suite_seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = q.cli.main(["verify", "all", "--format", "json", "--no-meta", "--seed", str(suite_seed)])
    return code, out.getvalue()


OPS = {"decide": decide_op, "wild": decide_op, "oracle": oracle_op, "verify-all": verify_all_op}
MAKERS = {"decide": make_decide, "wild": make_wild, "oracle": make_oracle, "verify-all": make_verify_all}


# -- summaries and checks ---------------------------------------------------------
#
# The timed loop keeps the full result of the first operation on each input
# for the checks and for `undecided`; every later operation on that input
# must summarise identically.


def summarize(workload, result):
    if workload in ("decide", "wild"):
        iso, wd, arf, trivial = result
        return (iso.kind, None if wd is None else (wd.index, wd.kernel_dim), arf.reduced, trivial)
    if workload == "oracle":
        return (result.kind, tuple(sorted((result.budget_report or {}).items())))
    code, text = result
    return (code, hashlib.sha256(text.encode()).hexdigest())


def undecided(workload, result):
    """(answers that were Undecided, answers that could have been)."""
    if workload in ("decide", "wild"):
        iso, wd, _, trivial = result
        return (iso.kind == "undecided") + (wd is None) + (trivial is None), 3
    if workload == "oracle":
        return 0, 0       # budget exhaustion is the expected answer
    report = json.loads(result[1])
    suites = report["suites"]
    open_ = sum(1 for s in suites if not s["passed"]
                and not any(x.get("kind") == "refutation" for x in s["failures"]))
    return open_, len(suites)


def check(q, workload, inp, result):
    """Names of the checks the result fails (empty when it is correct)."""
    if workload in ("decide", "wild"):
        return _check_decide(q, inp, result)
    if workload == "oracle":
        return [] if result.kind == "undecided" else [f"oracle-found-{result.kind}"]
    return _check_verify_all(inp, result)


def _check_decide(q, f, result):
    iso, wd, arf, _ = result
    bad = []
    if iso.witness is not None:
        v = iso.witness
        if not f.evaluate(v).is_zero() or all(x.is_zero() for x in v):
            bad.append("witness-not-zero")
    if not q.verify_certificate(f, iso):
        bad.append("certificate-rejected")
    if wd is not None:
        if wd.kernel_dim + 2 * wd.index != f.dim:
            bad.append("dimension-count")
        if iso.decided and iso.is_isotropic != (wd.index > 0):
            bad.append("isotropy-vs-index")
    total = f.tower.zero()
    for _, a in f.pairs:
        total = total + a
    if not arf.check(total):
        bad.append("arf-identity")
    return bad


def _check_verify_all(suite_seed, result):
    code, text = result
    try:
        report = json.loads(text)
    except ValueError:
        return ["invalid-json"]
    bad = []
    if code == 3 or any(x.get("kind") == "refutation" for s in report["suites"] for x in s["failures"]):
        bad.append("refutation")
    if suite_seed == VERIFY_ALL_GATE_SEED and hashlib.sha256(text.encode()).hexdigest() != VERIFY_ALL_GATE_SHA256:
        bad.append("gate-sha256")
    return bad
