"""Splitting slots, verified class decompositions, and symbol-length
bounds.

The pipeline: a normalized form of dimension 2m inside the degree-n
subgroup becomes hyperbolic over K = F[sqrt(b_1), ..., sqrt(b_l)] with
l = m + 1 - 2^(n-1) (the first l unit pairs merge away and the residual
form has dimension 2^n - 2, hence is hyperbolic by the minimal-dimension
property).  Its class therefore splits as sum_i w_i ^ d(b_i)/b_i with
degree-(n-1) classes w_i; existence is a guarantee steering a *verified*
search, and a pool that is too small reports SearchExhausted rather than
fabricating output.  Iterating gives class decompositions whose length
is controlled by the product bound on the u-invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

from .cohomology import (
    Symbol,
    SymbolSum,
    class_trivial,
    simplify,
    symbol_pool,
    zero_sum,
)
from .errors import (
    DimensionTooSmall,
    HypothesisViolated,
    NotNormalized,
    RefutationCandidate,
    SearchExhausted,
    UndecidableClass,
    UndecidableInstance,
)
from .fields import wp_reduce
from .forms import (
    QuadraticForm,
    QuadraticPfister,
    is_normalized,
    move_wp_shift_to,
    normalize_presentation,
    scale,
)
from .invariants import clifford, in_iqn
from .witt import witt_decompose, witt_equivalent


# -- splitting slots --------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionProof:
    witt_chain: tuple
    hauptsatz_step: dict


def splitting_slots(f: QuadraticForm, n: int):
    """First l = m + 1 - 2^(n-1) coefficients of a normalized dim-2m form,
    with the proof object for hyperbolicity over the associated extension."""
    if n < 1:
        raise HypothesisViolated(f"splitting slots are defined for degree n >= 1, not {n}")
    if not is_normalized(f):
        raise NotNormalized("apply normalize_presentation first")
    m = len(f.pairs)
    if 2 * m < 2 ** n:
        raise DimensionTooSmall(f"dimension {2 * m} < 2^{n}")
    ell = m + 1 - 2 ** (n - 1)
    slots = tuple(f.pairs[i][0] for i in range(ell))
    a_entries = [a for _, a in f.pairs]
    residual_dim = 2 * m - 2 * ell
    chain = (
        {
            "step": "adjoin-roots",
            "slots": [str(b) for b in slots],
            "effect": "pairs 1..l lose their coefficients over the extension",
        },
        {
            "step": "merge-unit-pairs",
            "count": ell + 1,
            "planes_split": ell,
            "merged_a": str(sum(a_entries[ell:-1], f.tower.zero())),
        },
        {
            "step": "residual",
            "pairs": [[str(b), str(a)] for b, a in f.pairs[ell:-1]]
                     + [["1", str(sum(a_entries[ell:-1], f.tower.zero()))]],
            "dim": residual_dim,
        },
    )
    hauptsatz = {
        "step": "minimal-dimension",
        "dim": residual_dim,
        "bound": 2 ** n,
        "conclusion": "anisotropic part would need dimension >= 2^n; residual is hyperbolic",
    }
    if residual_dim != 2 ** n - 2:
        raise RefutationCandidate(
            f"the residual of {f} at fold {n} has dimension {residual_dim}, not 2^{n} - 2"
        )
    return slots, DecompositionProof(chain, hauptsatz)


# -- the verified wedge decomposition ----------------------------------------------


def wedge_with(sums, slots, degree: int = 2):
    """sum_i w_i ^ d(b_i)/b_i as one symbol sum of the given degree."""
    out = []
    for w, b in zip(sums, slots):
        for sym in w.symbols:
            out.append(Symbol(sym.degree + 1, sym.coefficient, sym.slots + (b,)))
            degree = sym.degree + 1
    return SymbolSum(degree, tuple(out))


def wedge_decompose(class_sum: SymbolSum, slots, budget: int = 100000, extra_pool=()):
    """Write class_sum as sum_i w_i ^ d(b_i)/b_i by verified search.

    The class must restrict trivially to the extension by the square
    roots of the slots (guaranteed when the slots come from
    splitting_slots); the search checks every candidate through
    class_trivial and raises SearchExhausted when the pool is too small.
    """
    n = class_sum.degree
    if not slots:
        if class_trivial(class_sum):
            return []
        raise SearchExhausted("no slots and a nontrivial class", {"slots": 0})
    tw = slots[0].tower
    ell = len(slots)
    coeffs = list(dict.fromkeys(
        x for x in list(extra_pool) + symbol_pool(tw, budget) if not x.is_zero()
    ))
    if n == 2:
        candidates = [zero_sum(1)] + [SymbolSum(1, (Symbol(1, a),)) for a in coeffs]
    else:
        slot_cands = coeffs[: max(4, budget // 4096)]
        singles = [zero_sum(n - 1)]
        for a in coeffs:
            for bs in combinations(slot_cands, n - 2):
                singles.append(SymbolSum(n - 1, (Symbol(n - 1, a, bs),)))
        candidates = singles
    tried = 0
    for assignment in _assignments(candidates, ell):
        tried += 1
        if tried > budget:
            break
        diff = class_sum + wedge_with(assignment, slots, degree=n)
        if class_trivial(diff):
            return list(assignment)
    raise SearchExhausted(
        "wedge decomposition not found in the searched pool",
        {"budget": budget, "tried": tried, "pool": len(coeffs), "slots": ell},
    )


def _assignments(candidates, ell):
    """Assignments layered by support size, so sparse solutions and the
    guided head of the pool surface first; candidates[0] must be zero."""
    zero = candidates[0]
    nonzero = candidates[1:]
    for k in range(ell + 1):
        for positions in combinations(range(ell), k):
            for choices in product(nonzero, repeat=k):
                asg = [zero] * ell
                for pos, c in zip(positions, choices):
                    asg[pos] = c
                yield tuple(asg)


# -- full class decomposition --------------------------------------------------------


def class_decompose(f: QuadraticForm, n: int, budget: int = 100000) -> SymbolSum:
    """Short symbol expression for the degree-n class of f, verified.

    Degree 2 runs the full pipeline (Witt reduction, normalization,
    splitting slots, verified wedge decomposition).  For n >= 3 the class
    is not formula-computable from a presentation, but over supported
    towers anisotropic kernels in the degree-n subgroup have the minimal
    dimension 2^n, so slot recovery plus the invariant map covers every
    reachable case.
    """
    if n < 2:
        raise HypothesisViolated("decomposition starts at degree 2")
    member = in_iqn(f, n)
    if member is False:
        raise UndecidableClass(f"form is not in the degree-{n} subgroup")
    dec = witt_decompose(f)
    kernel = dec.kernel
    if kernel.dim == 0:
        return zero_sum(n)
    if n == 2:
        target = clifford(f)
        out = _decompose_degree_two(kernel, budget)
        if not class_trivial(out + target):
            raise UndecidableClass("decomposition failed its final verification")
        return out
    # n >= 3: kernel must be a scalar multiple of a fold-n Pfister form
    if kernel.dim != 2 ** n:
        raise UndecidableClass(
            f"degree-{n} kernels of dimension {kernel.dim} are outside the"
            " supported search fragment"
        )
    sym = pfister_slot_recovery(kernel, n, budget)
    return simplify(SymbolSum(n, (sym,)))


def _decompose_degree_two(kernel: QuadraticForm, budget: int) -> SymbolSum:
    if kernel.dim == 4:
        # dim-4 kernel with trivial Arf: align the two a-slots and read the
        # quaternion symbol off the presentation
        (c1, e1), (c2, e2) = kernel.pairs
        move_wp_shift_to(kernel, 1, e1)   # validates e2 = e1 modulo wp
        sym = Symbol(2, e1, (c2 / c1,))
        return simplify(SymbolSum(2, (sym,)))
    nf = normalize_presentation(kernel).form
    slots, _proof = splitting_slots(nf, 2)
    target = clifford(nf)
    guided = [a for _, a in nf.pairs] + [wp_reduce(a).reduced for _, a in nf.pairs]
    omegas = wedge_decompose(target, slots, budget, extra_pool=guided)
    return simplify(wedge_with(omegas, slots))


def pfister_slot_recovery(kernel: QuadraticForm, n: int, budget: int) -> Symbol:
    """The symbol of a fold-n form <<bs, last]] with kernel Witt equivalent
    to b_1 * <<bs, last]], found by search; SearchExhausted past `budget`."""
    tw = kernel.tower
    guided = []
    for b, a in kernel.pairs:
        guided.append(b)
        guided.append(a)
    base = kernel.pairs[0][0]
    guided.extend(b / base for b, _ in kernel.pairs[1:])
    pool = list(dict.fromkeys(x for x in guided + symbol_pool(tw, budget) if not x.is_zero()))
    coeff_pool = [wp_reduce(a).reduced for _, a in kernel.pairs] + pool
    tried = 0
    for last in coeff_pool:
        if wp_reduce(last).is_in_wp:
            continue
        for bs in combinations(pool[: max(6, budget // 8192)], n - 1):
            tried += 1
            if tried > budget:
                raise SearchExhausted(
                    "Pfister slot recovery exhausted", {"tried": tried}
                )
            p = QuadraticPfister(bs, last)
            cand = scale(base, p.expand())
            try:
                if witt_equivalent(kernel, cand):
                    return Symbol(n, last, bs)
            except UndecidableInstance:
                continue
    raise SearchExhausted("Pfister slot recovery exhausted", {"tried": tried})


# -- numeric bounds ---------------------------------------------------------------------


def symbol_length_bound(u_values, n: int) -> int:
    """prod_{i=2..n} (u_i/2 + 1 - 2^(i-1)) for u_values = (u^2, ..., u^n)."""
    if n < 2:
        raise HypothesisViolated("the bound starts at degree 2")
    if len(u_values) != n - 1:
        raise HypothesisViolated(f"need u^2..u^{n}, got {len(u_values)} values")
    out = 1
    for i, u in zip(range(2, n + 1), u_values):
        if u % 2:
            raise HypothesisViolated(f"u^{i} = {u} must be even")
        if u < 2 ** i:
            raise HypothesisViolated(f"u^{i} = {u} below 2^{i}")
        out *= u // 2 + 1 - 2 ** (i - 1)
    return out


def two_rank_bound(m: int, degree: int) -> int:
    """binom(m, degree-1): the basis-coordinate count over a 2-rank-m field."""
    if degree < 1:
        raise HypothesisViolated("degree must be >= 1")
    if m < 0:
        raise HypothesisViolated("2-rank must be >= 0")
    return math.comb(m, degree - 1)
