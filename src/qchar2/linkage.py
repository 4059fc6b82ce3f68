"""Linkage of Pfister forms, the u-invariant, and the executable forms of
the dimension/linkage theorems.

Every question about a Pfister form is asked of its symbol: isometry and
hyperbolicity (equivalently isotropy) are exact at every height through
`class_trivial`, by Kato's isomorphism and the Arason-Pfister Hauptsatz.
Field-global hypotheses ("every two fold-n forms are linked") are never
assumed: every theorem check is conditional on its recorded inputs.
Witness searches are verified before anything is returned; exhaustion
is reported, never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cohomology import SymbolSum, class_trivial, simplify, symbol_length
from .errors import (
    HypothesisViolated,
    LinkageHypothesisFailed,
    OracleFailure,
    RefutationCandidate,
    SearchExhausted,
    UndecidableInstance,
    UnsupportedField,
)
from .fields import FieldElement, FieldTower
from .forms import (
    BilinearPfister,
    QuadraticForm,
    QuadraticPfister,
    move_wp_shift_to,
    orth_sum,
    scale,
)
from .invariants import clifford, e_map, in_iqn, iqn_vanishes, pfister_hyperbolic
from .witt import isotropy, witt_decompose, witt_equivalent, witt_index


# -- Pfister equality through the invariant map -----------------------------------


def pfisters_isometric(p: QuadraticPfister, q: QuadraticPfister) -> bool:
    """Whether two Pfister forms are isometric, decided by their symbols.

    Equal folds and e(p) = e(q) put p + q in the degree-(n+1) subgroup
    (Kato, Invent. Math. 66, 1982).  It has dimension 2^(n+1) and is
    isotropic, since both forms represent 1, so it is hyperbolic by the
    Arason-Pfister Hauptsatz (Elman-Karpenko-Merkurjev 2008, Thm 23.7),
    and p is isometric to q.  The converse holds because e is well defined.
    """
    return p.fold == q.fold and class_trivial(SymbolSum(p.fold, (e_map(p), e_map(q))))


# -- linkage witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class LinkageWitness:
    kind: str                      # "separable" | "inseparable"
    common: object                 # QuadraticPfister | BilinearPfister
    complements: tuple             # per input form

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "common": str(self.common),
            "complements": [str(c) for c in self.complements],
        }


def verify_linkage_witness(p: QuadraticPfister, q: QuadraticPfister, w: LinkageWitness) -> bool:
    """Reassemble both inputs from the witness and compare."""
    candidates = [
        QuadraticPfister(c.slots + w.common.bilinear_slots, w.common.last_slot)
        if w.kind == "separable"
        else QuadraticPfister(w.common.slots + c.bilinear_slots, c.last_slot)
        for c in w.complements
    ]
    return all(pfisters_isometric(*pair) for pair in zip((p, q), candidates))


@dataclass(frozen=True)
class LinkageResult:
    r: int
    witt_index: int
    witness: LinkageWitness | None = None


def max_separable_linkage(
    p: QuadraticPfister, q: QuadraticPfister, witness_budget: int = 0
) -> LinkageResult:
    """r with i_W(p + q) = 2^r; both expansions must be anisotropic.

    The numeric answer comes straight from the Witt index; a verified
    separable witness is searched for only when a budget is given, and
    the number stands even if that search exhausts.
    """
    for name, form in (("first", p), ("second", q)):
        if pfister_hyperbolic(form):
            raise HypothesisViolated(
                f"{name} form is isotropic; linkage indices need anisotropic inputs")
    ep, eq = p.expand(), q.expand()
    iw = witt_index(orth_sum(ep, eq))
    r = iw.bit_length() - 1
    if 1 << r != iw:
        raise RefutationCandidate(
            f"Witt index {iw} of {orth_sum(ep, eq)}, a sum of anisotropic Pfister"
            " forms, is not a power of 2"
        )
    witness = None
    if witness_budget:
        witness = separable_link_witness(p, q, r, witness_budget)
    return LinkageResult(r, iw, witness)


def separable_link_witness(p, q, r, budget):
    """Common quadratic r-fold with bilinear complements, or None."""
    if r < 1:
        return None
    n = p.fold
    tried = 0
    rho_cands = []
    for src in (p, q):
        for s in combinations(src.bilinear_slots, r - 1):
            rho_cands.append(QuadraticPfister(s, src.last_slot))
    pool = list(dict.fromkeys(
        list(p.bilinear_slots) + list(q.bilinear_slots)
        + [x * y for x in p.bilinear_slots for y in q.bilinear_slots]
    ))
    for rho in rho_cands:
        comps = []
        ok = True
        for src in (p, q):
            comp = _bilinear_complement(src, rho, pool, budget)
            tried += 1
            if comp is None:
                ok = False
                break
            comps.append(comp)
        if ok:
            w = LinkageWitness("separable", rho, tuple(comps))
            if verify_linkage_witness(p, q, w):
                return w
        if tried > budget:
            break
    return None


def _bilinear_complement(src, rho, pool, budget):
    """Bilinear slots c with <<c..>> x rho isometric to src, or None."""
    need = src.fold - rho.fold
    if need < 0:
        return None
    if need == 0:
        if pfisters_isometric(src, rho):
            return BilinearPfister(())
        return None
    tried = 0
    for slots in combinations(list(dict.fromkeys(list(src.bilinear_slots) + pool)), need):
        tried += 1
        if tried > max(64, budget // 16):
            return None
        cand = QuadraticPfister(tuple(slots) + rho.bilinear_slots, rho.last_slot)
        if pfisters_isometric(src, cand):
            return BilinearPfister(tuple(slots))
    return None


# -- inseparable linkage ----------------------------------------------------------------


@dataclass(frozen=True)
class InsepLinkageReport:
    verdict: object               # True | False | None
    witness: LinkageWitness | None
    rationale: dict


def inseparably_linked(
    p: QuadraticPfister, q: QuadraticPfister, k: int, budget: int = 20000
) -> InsepLinkageReport:
    """Common bilinear k-fold factor: direct search, with the vanishing
    shortcut (separable (n-1)-linkage upgrades when the degree-(n+1)
    subgroup is zero).  A common factor leaves each form a quadratic
    complement of fold at least 1, so 0 <= k <= min(folds) - 1."""
    tw = p.tower
    n = p.fold
    if not 0 <= k <= min(n, q.fold) - 1:
        raise HypothesisViolated(
            f"a common bilinear factor of a {n}-fold and a {q.fold}-fold has fold"
            f" 0 to {min(n, q.fold) - 1}, not {k}"
        )
    if p == q and len(p.bilinear_slots) >= k:
        common = BilinearPfister(p.bilinear_slots[:k])
        complement = QuadraticPfister(p.bilinear_slots[k:], p.last_slot)
        w = LinkageWitness("inseparable", common, (complement, complement))
        return InsepLinkageReport(True, w, {"route": "identical inputs"})
    shortcut = None
    if k == n - 1 and q.fold == n and iqn_vanishes(tw, n + 1):
        sep = max_separable_linkage(p, q)
        if sep.r >= n - 1:
            shortcut = {
                "route": "separable-to-inseparable upgrade",
                "witt_index": sep.witt_index,
                "vanishing": f"degree-{n + 1} subgroup is zero over {tw.descriptor()}",
            }
    witness = _insep_witness_search(p, q, k, budget)
    if witness is not None:
        rationale = shortcut or {"route": "direct witness search"}
        return InsepLinkageReport(True, witness, rationale)
    if shortcut is not None:
        return InsepLinkageReport(True, None, shortcut)
    return InsepLinkageReport(
        None, None, {"route": "search exhausted", "budget": budget}
    )


def _insep_witness_search(p, q, k, budget):
    tried = 0
    slot_pool = list(dict.fromkeys(
        list(p.bilinear_slots) + list(q.bilinear_slots)
        + [x * y for x in p.bilinear_slots for y in q.bilinear_slots if x != y]
    ))
    last_pool = list(dict.fromkeys(
        [p.last_slot, q.last_slot, p.last_slot + q.last_slot, p.tower.zero(),
         p.tower.one()]
    ))
    for slots in combinations(slot_pool, k):
        common = BilinearPfister(tuple(slots))
        comp_p = _quadratic_complement(p, common, last_pool)
        if comp_p is None:
            continue
        comp_q = _quadratic_complement(q, common, last_pool)
        tried += 1
        if comp_q is not None:
            w = LinkageWitness("inseparable", common, (comp_p, comp_q))
            if verify_linkage_witness(p, q, w):
                return w
        if tried > budget:
            break
    return None


def _quadratic_complement(src, common, last_pool):
    """Quadratic (fold - k)-factor: src isometric to common x result."""
    need = src.fold - common.fold
    if need < 1:
        return None
    extra = need - 1
    slot_cands = list(dict.fromkeys(list(src.bilinear_slots) + list(common.slots)))
    for slots in combinations(slot_cands, extra):
        for last in last_pool:
            cand = QuadraticPfister(common.slots + tuple(slots), last)
            if pfisters_isometric(src, cand):
                return QuadraticPfister(tuple(slots), last)
    return None


def lift_linkage(
    p: QuadraticPfister,
    q: QuadraticPfister,
    oracle=None,
    budget: int = 20000,
) -> LinkageWitness:
    """Inseparable (fold-1)-linkage witness for two fold-(n+1) forms over a
    field whose fold-n forms are separably linked.

    The n = 2 case verifies the degree-4 vanishing and searches directly;
    n >= 3 runs the constructive chain (peel a slot, link the fold-n
    parts through the oracle, re-wedge, upgrade through the vanishing
    shortcut).  No witness is ever fabricated: OracleFailure or
    SearchExhausted propagate.
    """
    if p.fold != q.fold or p.fold < 3:
        raise ValueError("lift needs two Pfister forms of equal fold >= 3")
    tw = p.tower
    n = p.fold - 1
    if p == q:
        common = BilinearPfister(p.bilinear_slots[:n])
        complement = QuadraticPfister(p.bilinear_slots[n:], p.last_slot)
        return LinkageWitness("inseparable", common, (complement, complement))
    if n == 2:
        if not iqn_vanishes(tw, 4):
            raise LinkageHypothesisFailed(
                f"no degree-4 vanishing evidence over {tw.descriptor()}"
            )
        witness = _insep_witness_search(p, q, 2, budget)
        if witness is None:
            raise SearchExhausted(
                "no common bilinear 2-fold found", {"budget": budget}
            )
        return witness
    oracle = oracle or (lambda a, b: _default_sep_oracle(a, b, budget))
    beta_p, phi1 = p.bilinear_slots[-1], QuadraticPfister(p.bilinear_slots[:-1], p.last_slot)
    beta_q, psi1 = q.bilinear_slots[-1], QuadraticPfister(q.bilinear_slots[:-1], q.last_slot)
    first = oracle(phi1, psi1)
    if first is None:
        raise OracleFailure("fold-n oracle failed on the peeled parts")
    gamma_p, gamma_q, pi = first
    if pi.fold < 2:
        raise OracleFailure("oracle returned a fold too small to peel")
    delta = pi.bilinear_slots[-1]
    pi1 = QuadraticPfister(pi.bilinear_slots[:-1], pi.last_slot)
    left = QuadraticPfister((beta_p, gamma_p) + pi1.bilinear_slots, pi1.last_slot)
    right = QuadraticPfister((beta_q, gamma_q) + pi1.bilinear_slots, pi1.last_slot)
    second = oracle(left, right)
    if second is None:
        raise OracleFailure("fold-n oracle failed on the re-wedged parts")
    alpha_p, alpha_q, rho = second
    # now p ~ <<alpha_p, delta>> x rho and q ~ <<alpha_q, delta>> x rho:
    # separable n-linkage with common <<delta>> x rho
    sep_common = QuadraticPfister((delta,) + rho.bilinear_slots, rho.last_slot)
    for src, alpha in ((p, alpha_p), (q, alpha_q)):
        cand = QuadraticPfister((alpha,) + sep_common.bilinear_slots, sep_common.last_slot)
        if not pfisters_isometric(src, cand):
            raise OracleFailure("constructive chain failed verification")
    if not iqn_vanishes(tw, n + 2):
        raise LinkageHypothesisFailed(
            f"no degree-{n + 2} vanishing evidence over {tw.descriptor()}"
        )
    witness = _insep_witness_search(p, q, n, budget)
    if witness is None:
        raise SearchExhausted(
            "separable n-linkage established but no inseparable witness found",
            {"budget": budget},
        )
    return witness


def _default_sep_oracle(a: QuadraticPfister, b: QuadraticPfister, budget):
    w = separable_link_witness(a, b, a.fold - 1, budget)
    if w is None:
        return None
    ca, cb = w.complements
    if len(ca.slots) != 1 or len(cb.slots) != 1:
        return None
    return ca.slots[0], cb.slots[0], w.common


# -- u-invariant estimation ---------------------------------------------------------


@dataclass(frozen=True)
class UEstimate:
    value: int
    witness: QuadraticPfister | None
    provenance: str


def canonical_witness(tw: FieldTower, fold: int | None = None) -> QuadraticPfister:
    """<<t_1, ..., t_m, c]] with c the canonical trace-one base element."""
    m = tw.height
    fold = fold if fold is not None else m + 1
    slots = tuple(tw.gen(i) for i in range(1, fold))
    return QuadraticPfister(slots, tw.trace_one_element())


def u_invariant_estimate(tw: FieldTower, n: int) -> UEstimate:
    """u^n of a height-m tower: 2^(m+1) for n <= m+1, and 0 beyond.

    F_q((t_1))...((t_m)) is C_(m+1) (Lang), so every form of dimension
    above 2^(m+1) is isotropic and u <= 2^(m+1); the canonical witness, an
    anisotropic fold-(m+1) form whose class lies in every degree n <= m+1,
    gives equality.  For n >= m+2 the degree-n subgroup is zero.
    """
    m = tw.height
    if n < 1:
        raise UnsupportedField("degree must be >= 1")
    if n >= m + 2:
        return UEstimate(0, None, "derived: the subgroup vanishes (minimal dimension exceeds u)")
    witness = canonical_witness(tw)
    if pfister_hyperbolic(witness):
        raise RefutationCandidate(
            f"canonical witness {witness.expand()} over {tw.descriptor()} is not anisotropic")
    return UEstimate(
        2 ** (m + 1),
        witness,
        f"theorem: F_q((t_1))...((t_m)) is C_{m + 1} (Lang), with the anisotropic"
        " witness checked by its symbol",
    )


# -- the dimension theorem -------------------------------------------------------------


@dataclass(frozen=True)
class PairDecomposition:
    pi: QuadraticPfister | None
    psi_kernel: QuadraticForm | None     # None when psi is trivial
    dims_ok: bool
    report: dict


def pfister_pair_decompose(
    f: QuadraticForm, n: int, budget: int = 20000
) -> PairDecomposition:
    """Split an anisotropic member of the degree-n subgroup as a fold-n
    form plus a fold-(n+1) part, verifying the dimension dichotomy.

    A dimension outside {2^n, 2^(n+1)} is reported as a refutation
    candidate (dims_ok False, full instance dump), never silently fixed.
    """
    tw = f.tower
    verdict = isotropy(f, budget)
    if not verdict.decided:
        raise UndecidableInstance("input form undecidable")
    if verdict.is_isotropic:
        raise ValueError("decomposition expects an anisotropic input")
    member = in_iqn(f, n)
    if member is False:
        raise ValueError(f"form is not in the degree-{n} subgroup")
    dims = {2 ** n, 2 ** (n + 1)}
    if f.dim not in dims:
        return PairDecomposition(
            None, None, False,
            {
                "refutation_candidate": True,
                "dim": f.dim,
                "expected": sorted(dims),
                "form": str(f),
            },
        )
    if f.dim == 2 ** n:
        pi = _extract_similar_pfister(f, n, budget)
        report = {"route": "minimal dimension", "psi": "trivial"}
        return PairDecomposition(pi, None, True, report)
    pi = _merge_class_to_pfister(f, n, budget)
    rest = witt_decompose(orth_sum(f, pi.expand())).kernel
    if rest.dim not in (0, 2 ** (n + 1)):
        return PairDecomposition(
            pi, rest, False,
            {
                "refutation_candidate": True,
                "psi_kernel_dim": rest.dim,
                "form": str(f),
            },
        )
    psi_ok = rest.dim == 0 or in_iqn(rest, n + 1)
    report = {
        "route": "class merge",
        "psi_kernel_dim": rest.dim,
        "psi_in_next_subgroup": psi_ok,
    }
    return PairDecomposition(pi, rest if rest.dim else None, True, report)


def _extract_similar_pfister(f: QuadraticForm, n: int, budget: int) -> QuadraticPfister:
    """f anisotropic of dimension 2^n in the degree-n subgroup is a scalar
    multiple of a fold-n form; recover the slots."""
    if n == 2:
        (c1, e1), (c2, e2) = f.pairs
        move_wp_shift_to(f, 1, e1)   # validates e2 = e1 modulo wp
        pi = QuadraticPfister((c2 / c1,), e1)
        if pfister_multiple_check(f, pi, c1) is not True:
            raise UndecidableInstance("syntactic extraction failed verification")
        return pi
    from .symlen import pfister_slot_recovery

    sym = pfister_slot_recovery(f, n, budget)
    return QuadraticPfister(sym.slots, sym.coefficient)


def pfister_multiple_check(f: QuadraticForm, pi: QuadraticPfister, c: FieldElement):
    try:
        return witt_equivalent(f, scale(c, pi.expand()))
    except UndecidableInstance:
        return None


def _merge_class_to_pfister(f: QuadraticForm, n: int, budget: int) -> QuadraticPfister:
    """One fold-n form representing the degree-n class of f."""
    if n == 2:
        target = simplify(clifford(f))
        if target.is_empty():
            tw = f.tower
            return QuadraticPfister((tw.one(),), tw.zero())
        if len(target.symbols) == 1:
            sym = target.symbols[0]
            return QuadraticPfister(sym.slots, sym.coefficient)
        res = symbol_length(target, budget)
        if res.value == 1 and res.exact and res.expression is not None:
            sym = res.expression.symbols[0]
            return QuadraticPfister(sym.slots, sym.coefficient)
        raise LinkageHypothesisFailed(
            "class did not merge to a single symbol within budget; the"
            " separable-linkage hypothesis may fail or the pool is too small"
        )
    from .symlen import class_decompose

    out = class_decompose(f, n, budget)
    if len(out.symbols) != 1:
        raise LinkageHypothesisFailed("class did not merge to a single symbol")
    sym = out.symbols[0]
    return QuadraticPfister(sym.slots, sym.coefficient)


# -- the d-invariant ---------------------------------------------------------------------


@dataclass(frozen=True)
class DEstimate:
    value: int
    matches_u: bool | None
    evidence: dict


def d_invariant_estimate(tw: FieldTower, n: int, samples: int = 100, seed: int = 0) -> DEstimate:
    """Sampled maximum anisotropic dimension of (degree-n member) + [1, a].

    For n = 2 this samples the plain u-invariant; for n = 3 the invariant
    of forms with trivial Clifford class.
    """
    from .sampling import Sampler

    sampler = Sampler(tw, seed)
    best = 0
    undecided = 0
    for _ in range(samples):
        if iqn_vanishes(tw, n):
            phi = QuadraticForm(tw, ())
        else:
            phi = sampler.iqn_form(n, pieces=sampler.rng.choice([1, 2]))
        alpha = sampler.tame_a()
        tau = orth_sum(phi, QuadraticForm(tw, ((tw.one(), alpha),)))
        try:
            dec = witt_decompose(tau)
        except UndecidableInstance:
            undecided += 1
            continue
        best = max(best, dec.kernel_dim)
    u_value = u_invariant_estimate(tw, n).value
    matches = best == u_value if u_value else None
    return DEstimate(
        best,
        matches,
        {"samples": samples, "seed": seed, "undecided": undecided, "degree": n},
    )


# -- the augmented Witt-index check ---------------------------------------------------


@dataclass(frozen=True)
class IndexCheckResult:
    ok: bool
    index_lower: int
    target: int
    chain: tuple


def augmented_sum_index_check(
    rho: QuadraticPfister,
    alpha: FieldElement,
    beta: FieldElement,
    gamma: FieldElement,
) -> IndexCheckResult:
    """Witt-index lower bound 2^(n-1) + 1 for psi + pi + <1> where
    pi = <<alpha>> x rho and psi = <<beta, gamma>> x rho.

    The doubled rho accounts for 2^(n-1) planes exactly.  The remainder
    <alpha,beta,gamma,beta*gamma> x rho + <1>, of dimension 2^(n+1) + 1,
    is a subform of the fold-(n+2) ambient form <<alpha,beta,gamma>> x rho,
    decided by its symbol (`pfister_hyperbolic`).  The rule is exact both
    ways (Elman-Karpenko-Merkurjev, The Algebraic and Geometric Theory of
    Quadratic Forms, AMS 2008): a hyperbolic ambient form has a totally
    isotropic subspace of dimension 2^(n+1), which the remainder meets, so
    the remainder is isotropic; an isotropic Pfister form is hyperbolic, so
    a non-hyperbolic ambient form is anisotropic, and so is every subform,
    the remainder among them.
    """
    n = rho.fold + 1
    ambient = QuadraticPfister((alpha, beta, gamma) + rho.bilinear_slots, rho.last_slot)
    hyperbolic = pfister_hyperbolic(ambient)
    chain = (
        {
            "step": "doubling",
            "planes": 2 ** (n - 1),
            "reason": "psi + pi contains rho + rho, hyperbolic in characteristic 2",
        },
        {
            "step": "neighbor",
            "ambient": str(BilinearPfister((alpha, beta, gamma))) + " x " + str(rho),
            "ambient_hyperbolic": hyperbolic,
        },
        {
            "step": "remainder-isotropy",
            "rule": "hyperbolic-pfister-neighbor",
            "found": hyperbolic,
        },
    )
    return IndexCheckResult(hyperbolic, 2 ** (n - 1) + hyperbolic, 2 ** (n - 1) + 1, chain)
