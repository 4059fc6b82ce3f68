"""Spans and counters for the traced run, installed from outside qchar2.

`Tracer.install` rebinds each layer entry point in every qchar2 module
that holds it (`from .fields import wp_reduce` binds a local name in the
importing module, so patching `qchar2.fields` alone would miss those
calls), wraps `QuadraticForm.evaluate`/`polar` and the `Sampler` methods
at class level, and counts `FieldElement` operations by operand level
through class-level wrappers.  `uninstall` restores every binding.  The
plain run installs nothing.

Spans are kept in memory as parallel arrays (name, parent, start, end)
and written out by `dump` once the run is over.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute) entry points wrapped as spans named "<module>.<attribute>".
FUNCTION_SPANS = [
    ("fields", "wp_reduce"),
    ("witt", "isotropy"),
    ("witt", "witt_decompose"),
    ("witt", "brute_search"),
    ("invariants", "arf"),
    ("invariants", "clifford"),
    ("invariants", "clifford_trivial"),
    ("cohomology", "class_trivial"),
    ("parsing", "format_element"),
    ("linalg", "rank_profile"),
    ("linalg", "kernel_vector"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve"),
    ("linalg", "square_coordinates"),
    ("linalg", "square_dependence"),
    ("linalg", "square_span_rank"),
    ("symlen", "class_decompose"),
    ("symlen", "wedge_decompose"),
    ("linkage", "max_separable_linkage"),
    ("linkage", "inseparably_linked"),
    ("linkage", "lift_linkage"),
    ("linkage", "augmented_sum_index_check"),
]
# The suite runner gets one span per suite, named after the suite.
SUITE_RUNNER = ("suites", "run_suite")
# The CLI's report writer: JSON encoding and printing.
CLI_OUTPUT = ("cli", "_report")
METHOD_SPANS = [("forms", "QuadraticForm", ("evaluate", "polar"))]
SAMPLER = ("sampling", "Sampler")

# Spans whose return values are kept: search reports and Undecided answers.
KEEP_RESULTS = ("witt.brute_search", "cohomology.class_trivial")

LEVEL_KEYS = ("l0", "l1", "l2")      # level >= 2 is counted as l2


def self_times(parent, start, end):
    """Each span's duration minus the part of it that its children cover.

    `parent[i]` is the index of span i's parent, or -1.  Children are
    clipped to the parent's interval and overlapping children are counted
    once, so the result never goes negative.
    """
    children = [[] for _ in parent]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(start[k], start[i]), min(end[k], end[i])) for k in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, end[i] - start[i] - covered))
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.results = {}            # span index -> return value, for chosen spans
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- spans ------------------------------------------------------------------

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, keep_result=False, name_from_arg=False):
        """`fn` with a span around each call.  With `name_from_arg` the span
        is named `name + "." + first argument` (used for suites)."""
        nid = self._nid(name)
        stack, clock = self._stack, self.clock
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        results = self.results

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(self._nid(f"{name}.{args[0]}") if name_from_arg else nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if keep_result:
                results[idx] = out
            return out

        return traced

    def aggregate(self):
        """name -> [calls, self seconds, inclusive seconds, kept results]."""
        out = {}
        selfs = self_times(self.parent, self.start, self.end)
        for i, (nid, s, e) in enumerate(zip(self.name_id, self.start, self.end)):
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0, []])
            row[0] += 1
            row[1] += selfs[i]
            row[2] += e - s
            if i in self.results:
                row[3].append(self.results[i])
        return out

    # -- installation -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qchar2" or mod_name.startswith("qchar2.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self, q):
        """Wrap qchar2's layer entry points; `q` is the imported package."""
        mods = {name: getattr(q, name) for name in (
            "fields", "forms", "witt", "invariants", "cohomology", "parsing", "linalg",
            "symlen", "linkage", "sampling", "suites", "cli")}
        for mod, attr in FUNCTION_SPANS:
            fn = getattr(mods[mod], attr)
            name = f"{mod}.{attr}"
            self._rebind_everywhere(fn, self.wrap(name, fn, keep_result=name in KEEP_RESULTS))
        mod, attr = SUITE_RUNNER
        fn = getattr(mods[mod], attr)
        self._rebind_everywhere(fn, self.wrap(mod, fn, name_from_arg=True))
        mod, attr = CLI_OUTPUT
        fn = getattr(mods[mod], attr)
        self._rebind_everywhere(fn, self.wrap("cli.output", fn))
        for mod, cls_name, methods in METHOD_SPANS:
            cls = getattr(mods[mod], cls_name)
            for m in methods:
                self._set(cls, m, self.wrap(f"{mod}.{m}", cls.__dict__[m]))
        mod, cls_name = SAMPLER
        cls = getattr(mods[mod], cls_name)
        for m, fn in list(cls.__dict__.items()):
            if callable(fn) and not m.startswith("__"):
                self._set(cls, m, self.wrap(f"sampling.{m}", fn))
        self._count_field_ops(mods["fields"].FieldElement)

    def _count_field_ops(self, cls):
        counts = self.counts
        d = cls.__dict__

        def by_level(op, fn):
            keys = [f"{op}.{k}" for k in LEVEL_KEYS]

            def counted(a, b):
                lv = a.level
                bl = getattr(b, "level", 0)
                counts[keys[min(2, lv if lv > bl else bl)]] += 1
                return fn(a, b)
            return counted

        def total(op, fn):
            def counted(*args):
                counts[op] += 1
                return fn(*args)
            return counted

        mul = by_level("mul", d["__mul__"])
        add = by_level("add", d["__add__"])
        for attr, value in (("__mul__", mul), ("__rmul__", mul), ("__add__", add), ("__radd__", add),
                            ("__sub__", add), ("__rsub__", add),
                            ("__eq__", total("eq", d["__eq__"])), ("__hash__", total("hash", d["__hash__"])),
                            ("inverse", total("inverse", d["inverse"]))):
            self._set(cls, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------------

    def dump(self, path):
        """Write the spans: one JSON header line (span names, array type
        codes, span count), then the name-id, parent, start and end arrays
        as raw machine bytes, in that order."""
        header = {
            "names": self.names, "spans": len(self.start), "byteorder": sys.byteorder,
            "arrays": [["name_id", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
