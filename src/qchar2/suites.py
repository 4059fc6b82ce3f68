"""Seeded verification suites: the executable desk-scale checks.

Every suite samples with an explicit seed, verifies each instance
through the library's own certificates, and reports one record per
failure.  Failure kinds distinguish refutation candidates (a verified
counter-instance to a claimed property: the most valuable outcome) from
honest resource exhaustion (undecided instances, search budgets).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from .cohomology import basis_rewrite, class_trivial, to_differential
from .errors import (
    HypothesisViolated,
    LinkageHypothesisFailed,
    QChar2Error,
    SearchExhausted,
    UndecidableClass,
    UndecidableInstance,
)
from .fields import FieldTower, tower
from .forms import QuadraticPfister
from .invariants import arf, clifford, clifford_trivial, pfister_hyperbolic
from .linkage import (
    augmented_sum_index_check,
    canonical_witness,
    d_invariant_estimate,
    inseparably_linked,
    lift_linkage,
    max_separable_linkage,
    pfister_pair_decompose,
    u_invariant_estimate,
    verify_linkage_witness,
)
from .sampling import Sampler
from .symlen import class_decompose, symbol_length_bound, two_rank_bound
from .witt import (
    brute_search,
    is_hyperbolic,
    isotropy,
    witt_decompose,
)

F4 = tower(2)
F2T = tower(1, ("t",))
F2TT = tower(1, ("t1", "t2"))

DEFAULT_FIELDS = (F4, F2T, F2TT)
TOWERS = (F2T, F2TT)


@dataclass
class SuiteReport:
    name: str
    passed: bool
    stats: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "stats": self.stats,
            "failures": self.failures,
        }

    @property
    def has_refutation(self) -> bool:
        return any(f.get("kind") == "refutation" for f in self.failures)


def _fail(kind: str, **data) -> dict:
    return {"kind": kind, **data}


# -- 1: Pfister dichotomy ---------------------------------------------------------


def suite_pfister_dichotomy(tw: FieldTower = F2T, samples: int = 200, seed: int = 0,
                            budget: int = 4096) -> SuiteReport:
    """isotropic <=> hyperbolic on random tame Pfister expansions."""
    sampler = Sampler(tw, seed)
    failures = []
    max_fold = min(3, tw.height + 2)
    for i in range(samples):
        fold = 1 + sampler.rng.randrange(max_fold)
        p = sampler.pfister(fold)
        f = p.expand()
        verdict = isotropy(f, budget)
        if not verdict.decided:
            failures.append(_fail("undecided", instance=str(p)))
            continue
        hyp = is_hyperbolic(f)
        if verdict.is_isotropic != hyp:
            failures.append(_fail(
                "refutation", instance=str(p),
                isotropic=verdict.is_isotropic, hyperbolic=hyp,
            ))
    return SuiteReport(
        "pfister-dichotomy",
        passed=not failures,
        stats={"field": tw.descriptor(), "samples": samples, "seed": seed},
        failures=failures,
    )


# -- 2: invariant well-definedness ---------------------------------------------------


def suite_invariance(tw: FieldTower = F2T, samples: int = 100, seed: int = 0) -> SuiteReport:
    """Arf class and Clifford triviality survive elementary-move rechains."""
    sampler = Sampler(tw, seed)
    failures = []
    for i in range(samples):
        dim = 2 * (2 + sampler.rng.randrange(2))
        base = sampler.nonsingular_form(dim)
        ref_arf = arf(base).reduced
        ref_cliff = clifford_trivial(clifford(base))
        g = sampler.rechain(base, moves=8)
        if arf(g).reduced != ref_arf:
            failures.append(_fail("refutation", instance=str(base), moved=str(g),
                                  invariant="arf"))
        got = clifford_trivial(clifford(g))
        if got != ref_cliff:
            failures.append(_fail("refutation", instance=str(base), moved=str(g),
                                  invariant="clifford"))
    return SuiteReport(
        "invariance",
        passed=not failures,
        stats={"field": tw.descriptor(), "samples": samples, "seed": seed},
        failures=failures,
    )


# -- 3: oracle consistency -------------------------------------------------------------


def suite_oracle(tw: FieldTower = F2T, samples: int = 500, seed: int = 0,
                 budget: int = 100000) -> SuiteReport:
    """The residue decider never calls a form anisotropic when the brute
    oracle can produce a witness."""
    sampler = Sampler(tw, seed)
    failures = []
    anisotropic = 0
    for i in range(samples):
        dim = 2 * (1 + sampler.rng.randrange(3))
        f = sampler.nonsingular_form(dim)
        verdict = isotropy(f, budget)
        if not verdict.decided:
            failures.append(_fail("undecided", instance=str(f)))
            continue
        if verdict.is_anisotropic:
            anisotropic += 1
            found = brute_search(f, budget)
            if found.is_isotropic:
                failures.append(_fail(
                    "refutation", instance=str(f),
                    witness=found.certificate,
                ))
    return SuiteReport(
        "oracle",
        passed=not failures,
        stats={"field": tw.descriptor(), "samples": samples, "seed": seed,
               "anisotropic_checked": anisotropic, "budget": budget},
        failures=failures,
    )


# -- 4: minimal-dimension desk check ------------------------------------------------


def suite_hauptsatz(tw: FieldTower = F2T, samples: int = 100, seed: int = 0) -> SuiteReport:
    """Anisotropic kernels of degree-n members have dimension 0 or >= 2^n."""
    sampler = Sampler(tw, seed)
    failures = []
    checked = 0
    for n in (2, 3):
        for i in range(samples):
            f = sampler.iqn_form(n, pieces=1 + sampler.rng.randrange(2))
            try:
                dec = witt_decompose(f)
            except UndecidableInstance:
                failures.append(_fail("undecided", instance=str(f), degree=n))
                continue
            checked += 1
            if dec.kernel_dim not in (0,) and dec.kernel_dim < 2 ** n:
                failures.append(_fail(
                    "refutation", instance=str(f), degree=n,
                    kernel_dim=dec.kernel_dim,
                ))
    return SuiteReport(
        "hauptsatz",
        passed=not failures,
        stats={"field": tw.descriptor(), "samples": samples, "seed": seed,
               "kernels_checked": checked},
        failures=failures,
    )


# -- 5: Witt-index criterion ------------------------------------------------------------


def suite_wittindex(tw: FieldTower = F2TT, samples: int = 100, seed: int = 0) -> SuiteReport:
    """Constructed r-linked pairs: i_W(p + q) = 2^(max linkage) >= 2^r."""
    sampler = Sampler(tw, seed)
    failures = []
    built = 0
    equalities = 0
    combos = [(2, 1)] if tw.height < 2 else [(2, 1), (3, 1), (3, 2)]
    attempts = 0
    while built < samples and attempts < samples * 60:
        attempts += 1
        fold, r = combos[sampler.rng.randrange(len(combos))]
        p, q, _rho = sampler.linked_pfister_pair(fold, r)
        if pfister_hyperbolic(p) or pfister_hyperbolic(q):
            continue
        built += 1
        try:
            res = max_separable_linkage(p, q)
        except UndecidableInstance:
            failures.append(_fail("undecided", p=str(p), q=str(q)))
            continue
        if res.witt_index != 1 << res.r:
            failures.append(_fail("refutation", p=str(p), q=str(q),
                                  witt_index=res.witt_index))
            continue
        if res.r < r:
            failures.append(_fail(
                "refutation", p=str(p), q=str(q), built_linkage=r,
                observed=res.r, witt_index=res.witt_index,
            ))
        elif res.r == r:
            equalities += 1
    return SuiteReport(
        "wittindex",
        passed=not failures and built >= samples,
        stats={"field": tw.descriptor(), "pairs": built, "seed": seed,
               "exact_equalities": equalities},
        failures=failures,
    )


# -- 6: u-invariant witnesses -------------------------------------------------------


def suite_u_witness(tw: FieldTower = F2T, samples: int = 200, seed: int = 0,
                    budget: int = 4096) -> SuiteReport:
    """Canonical witness anisotropic; all sampled forms two dimensions up
    are isotropic."""
    failures = []
    witness = canonical_witness(tw)
    wv = isotropy(witness.expand(), budget)
    if not wv.is_anisotropic:
        failures.append(_fail("refutation", instance=str(witness),
                              expected="anisotropic"))
    u = 2 ** (tw.height + 1)
    sampler = Sampler(tw, seed)
    for i in range(samples):
        f = sampler.nonsingular_form(u + 2)
        verdict = isotropy(f, budget)
        if not verdict.decided:
            failures.append(_fail("undecided", instance=str(f)))
        elif verdict.is_anisotropic:
            failures.append(_fail("refutation", instance=str(f),
                                  claimed_u=u, dim=u + 2))
    return SuiteReport(
        "u-witness",
        passed=not failures,
        stats={"field": tw.descriptor(), "witness": str(witness),
               "claimed_u": u, "samples": samples, "seed": seed},
        failures=failures,
    )


# -- 7: basis-coordinate bound ----------------------------------------------------------


def suite_symbol_bound(tw: FieldTower = F2TT, samples: int = 100, seed: int = 0) -> SuiteReport:
    """Rewrites over the 2-basis stay within binom(m, n-1) symbols and
    preserve the class."""
    sampler = Sampler(tw, seed)
    failures = []
    m = tw.height
    for degree in (2, 3):
        bound = two_rank_bound(m, degree)
        for i in range(samples):
            s = sampler.symbol_sum(degree, count=1 + sampler.rng.randrange(3))
            out = basis_rewrite(to_differential(s), tw)
            if len(out.symbols) > bound:
                failures.append(_fail("refutation", instance=str(s),
                                      count=len(out.symbols), bound=bound))
                continue
            if not class_trivial(s + out):
                failures.append(_fail("refutation", instance=str(s),
                                      rewritten=str(out)))
    return SuiteReport(
        "symbol-bound",
        passed=not failures,
        # every class is decided; the key keeps the report's schema
        stats={"field": tw.descriptor(), "samples": samples, "seed": seed,
               "undecided": 0},
        failures=failures,
    )


# -- 8: the length pipeline ---------------------------------------------------------


def suite_length_pipeline(tw: FieldTower = F2TT, samples: int = 50, seed: int = 0,
                          budget: int = 100000) -> SuiteReport:
    """Bound values exact; sampled degree-2 classes decompose within the
    bound, every success verified."""
    failures = []
    if symbol_length_bound((8, 8), 3) != 3:
        failures.append(_fail("refutation", value="bound(8,8;3)"))
    if symbol_length_bound((8,), 2) != 3:
        failures.append(_fail("refutation", value="bound(8;2)"))
    sampler = Sampler(tw, seed)
    succeeded = 0
    exhausted = 0
    bound = symbol_length_bound((2 ** (tw.height + 1),), 2)
    for i in range(samples):
        f = sampler.iqn_form(2, pieces=1 + sampler.rng.randrange(2))
        try:
            out = class_decompose(f, 2, budget)
        except (SearchExhausted, UndecidableClass, UndecidableInstance) as exc:
            exhausted += 1
            failures.append(_fail("exhausted", instance=str(f), error=str(exc)))
            continue
        if not class_trivial(out + clifford(f)):
            failures.append(_fail("refutation", instance=str(f),
                                  decomposition=str(out)))
            continue
        if len(out.symbols) > bound:
            failures.append(_fail("refutation", instance=str(f),
                                  length=len(out.symbols), bound=bound))
            continue
        succeeded += 1
    hard = [f for f in failures if f["kind"] == "refutation"]
    return SuiteReport(
        "length-pipeline",
        passed=not hard and succeeded >= max(1, samples * 9 // 10),
        stats={"field": tw.descriptor(), "samples": samples, "seed": seed,
               "succeeded": succeeded, "exhausted": exhausted, "bound": bound},
        failures=failures,
    )


# -- 9: the dimension-theorem suite over a linked field -----------------------------------


def suite_theoremu(tw: FieldTower = F2T, samples: int = 100, seed: int = 0,
                   budget: int = 20000) -> SuiteReport:
    """Anisotropic degree-2 members over the height-1 tower all have
    dimension 4, and the fold-2 part accounts for everything."""
    sampler = Sampler(tw, seed)
    failures = []
    collected = 0
    attempts = 0
    while collected < samples and attempts < samples * 10:
        attempts += 1
        f = sampler.iqn_form(2, pieces=1 + sampler.rng.randrange(2))
        try:
            dec = witt_decompose(f)
        except UndecidableInstance:
            continue
        kernel = dec.kernel
        if kernel.dim == 0:
            continue
        collected += 1
        if kernel.dim != 4:
            failures.append(_fail("refutation", instance=str(f),
                                  kernel_dim=kernel.dim, expected=[4]))
            continue
        try:
            out = pfister_pair_decompose(kernel, 2, budget)
        except (UndecidableInstance, LinkageHypothesisFailed) as exc:
            failures.append(_fail("undecided", instance=str(kernel), error=str(exc)))
            continue
        if not out.dims_ok:
            failures.append(_fail("refutation", instance=str(kernel),
                                  report=out.report))
        elif out.psi_kernel is not None:
            failures.append(_fail("refutation", instance=str(kernel),
                                  psi_dim=out.psi_kernel.dim,
                                  note="psi must vanish where the degree-3 subgroup is zero"))
    return SuiteReport(
        "theoremu",
        passed=not failures and collected >= samples,
        stats={"field": tw.descriptor(), "anisotropic_samples": collected,
               "seed": seed},
        failures=failures,
    )


def suite_insep(tw: FieldTower = F2T, samples: int = 100, seed: int = 0,
                budget: int = 8000) -> SuiteReport:
    """Inseparable 1-linkage of sampled anisotropic 2-fold pairs (the
    u = 4 direction of the equivalence)."""
    sampler = Sampler(tw, seed)
    failures = []
    for i in range(samples):
        p = sampler.anisotropic_pfister(2)
        q = sampler.anisotropic_pfister(2)
        rep = inseparably_linked(p, q, 1, budget)
        if rep.verdict is not True:
            failures.append(_fail("undecided" if rep.verdict is None else "refutation",
                                  p=str(p), q=str(q), rationale=rep.rationale))
            continue
        if rep.witness is not None and not verify_linkage_witness(p, q, rep.witness):
            failures.append(_fail("refutation", p=str(p), q=str(q),
                                  witness=rep.witness.describe()))
    return SuiteReport(
        "insep",
        passed=not failures,
        stats={"field": tw.descriptor(), "samples": samples, "seed": seed},
        failures=failures,
    )


def suite_wittlemma(tw: FieldTower = F2T, samples: int = 50, seed: int = 0) -> SuiteReport:
    """Witt index of psi + pi + <1> reaches 2^(n-1) + 1 on constructed
    shared-factor pairs.  A miss is decided, not searched for: its ambient
    Pfister form is anisotropic, so the index is exactly 2^(n-1)."""
    sampler = Sampler(tw, seed)
    failures = []
    for i in range(samples):
        rho = sampler.anisotropic_pfister(1)
        alpha = sampler.nonzero()
        beta = sampler.nonzero()
        gamma = sampler.nonzero()
        res = augmented_sum_index_check(rho, alpha, beta, gamma)
        if not res.ok:
            failures.append(_fail("anisotropic-ambient", rho=str(rho), alpha=str(alpha),
                                  beta=str(beta), gamma=str(gamma),
                                  index_lower=res.index_lower, target=res.target))
    return SuiteReport(
        "wittlemma",
        passed=not failures,
        stats={"field": tw.descriptor(), "samples": samples, "seed": seed},
        failures=failures,
    )


def suite_theoremd(tw: FieldTower = F2T, samples: int = 100, seed: int = 0) -> SuiteReport:
    """Sampled d-invariant agrees with the u-invariant of the tower.  The
    sample gives a lower bound on d: above u it is a counter-instance,
    below u it is missing evidence."""
    est = d_invariant_estimate(tw, 2, samples=samples, seed=seed)
    u_est = u_invariant_estimate(tw, 2)
    failures = []
    if est.value != u_est.value:
        failures.append(_fail("refutation" if est.value > u_est.value else "undecided",
                              d=est.value, u=u_est.value, evidence=est.evidence))
    return SuiteReport(
        "theoremd",
        passed=not failures,
        stats={"field": tw.descriptor(), "d": est.value, "u": u_est.value,
               "samples": samples, "seed": seed},
        failures=failures,
    )


# -- 10: the lift -------------------------------------------------------------------------


def suite_lift(tw: FieldTower = F2TT, samples: int = 50, seed: int = 0,
               budget: int = 30000) -> SuiteReport:
    """Constructed fold-3 pairs with linked fold-2 parts get verified
    inseparable 2-witnesses."""
    sampler = Sampler(tw, seed)
    failures = []
    built = 0
    for i in range(samples):
        omega = sampler.anisotropic_pfister(1)
        p = QuadraticPfister(
            (sampler.nonzero(), sampler.nonzero()) + omega.bilinear_slots,
            omega.last_slot,
        )
        q = QuadraticPfister(
            (sampler.nonzero(), sampler.nonzero()) + omega.bilinear_slots,
            omega.last_slot,
        )
        built += 1
        try:
            w = lift_linkage(p, q, budget=budget)
        except SearchExhausted as exc:
            failures.append(_fail("exhausted", p=str(p), q=str(q),
                                  error=str(exc)))
            continue
        if not verify_linkage_witness(p, q, w):
            failures.append(_fail("refutation", p=str(p), q=str(q),
                                  witness=w.describe()))
    return SuiteReport(
        "lift",
        passed=not failures,
        stats={"field": tw.descriptor(), "pairs": built, "seed": seed},
        failures=failures,
    )


# -- registry ---------------------------------------------------------------------------


SUITES = {
    "pfister-dichotomy": suite_pfister_dichotomy,
    "invariance": suite_invariance,
    "oracle": suite_oracle,
    "hauptsatz": suite_hauptsatz,
    "wittindex": suite_wittindex,
    "u-witness": suite_u_witness,
    "symbol-bound": suite_symbol_bound,
    "length-pipeline": suite_length_pipeline,
    "theoremu": suite_theoremu,
    "insep": suite_insep,
    "coru": suite_insep,          # alias: the inseparable-linkage direction
    "wittlemma": suite_wittlemma,
    "theoremd": suite_theoremd,
    "lift": suite_lift,
}


def suite_takes_budget(name: str) -> bool:
    """Whether the suite runs a bounded search, i.e. accepts a budget."""
    return "budget" in inspect.signature(SUITES[name]).parameters


def run_suite(name: str, tw: FieldTower | None = None, samples: int | None = None,
              seed: int = 0, budget: int | None = None) -> SuiteReport:
    """Run one suite; `tw`, `samples` and `budget` override the suite's own
    defaults only when given."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    kwargs = {"seed": seed}
    if tw is not None:
        kwargs["tw"] = tw
    if samples is not None:
        kwargs["samples"] = samples
    if budget is not None:
        if not suite_takes_budget(name):
            raise QChar2Error(f"suite {name!r} runs no bounded search and takes no budget")
        if budget < 0:
            raise HypothesisViolated(f"a search budget is a count of at least 0, got {budget}")
        kwargs["budget"] = budget
    return SUITES[name](**kwargs)
