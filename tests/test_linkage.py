"""Linkage indices, witnesses, u-invariant estimation, theorem checks."""

import random

import pytest

import qchar2.linkage as linkage
import qchar2.symlen as symlen
import qchar2.witt as witt
from qchar2.errors import UndecidableClass, UndecidableInstance
from qchar2.fields import tower
from qchar2.forms import QuadraticForm, QuadraticPfister, orth_sum, scale
from qchar2.linkage import (
    augmented_sum_index_check,
    canonical_witness,
    d_invariant_estimate,
    inseparably_linked,
    lift_linkage,
    max_separable_linkage,
    pfister_pair_decompose,
    pfisters_isometric,
    u_invariant_estimate,
    verify_linkage_witness,
)
from qchar2.invariants import pfister_hyperbolic
from qchar2.parsing import parse_element, parse_field, parse_form_expr
from qchar2.sampling import Sampler
from qchar2.witt import brute_search, is_hyperbolic, isotropy, witt_equivalent

F2 = tower(1)
F2T = tower(1, ("t",))
F2TT = tower(1, ("t1", "t2"))


def el(tw, s):
    return parse_element(tw, s)


def pf(tw, s):
    return parse_form_expr(tw, s)


class TestPfistersIsometric:
    def test_reordered_slots(self):
        p = pf(F2TT, "<<t1,t2,1]]")
        q = pf(F2TT, "<<t2,t1,1]]")
        assert pfisters_isometric(p, q) is True

    def test_distinct_anisotropic_over_m1(self):
        p = pf(F2T, "<<t,1]]")
        q = pf(F2T, "<<t+t^2,1]]")
        got = pfisters_isometric(p, q)
        assert got in (True, False)
        assert got == is_hyperbolic(orth_sum(p.expand(), q.expand()))

    def test_fold_mismatch(self):
        assert pfisters_isometric(pf(F2T, "<<t,1]]"), pf(F2T, "<<1]]")) is False


def _random_pfister(rng, sampler, fold, wild):
    """Slots mostly t_i times a unit, and a trace-one constant in the last
    slot more often than not, so that many forms are anisotropic; a wild
    last slot gets an odd pole in the top variable."""
    tw = sampler.tower
    gens = [tw.gen(i) for i in range(1, tw.height + 1)]
    slots = tuple(rng.choice(gens) * sampler.unit() if rng.random() < 0.7 else sampler.unit()
                  for _ in range(fold - 1))
    last = sampler.tame_a() + (tw.trace_one_element() if rng.random() < 0.6 else tw.zero())
    if wild:
        last = last + sampler.unit() * tw.monomial(tw.height, -rng.choice([1, 3]))
    return QuadraticPfister(slots, last)


def _isometric_variant(rng, sampler, p):
    """p with its last slot moved by wp(y), its slots shuffled, the first
    scaled by a square and <<b1, b2>> rewritten as <<b1, b1 b2>>."""
    y = sampler.tame_a()
    slots = list(p.bilinear_slots)
    rng.shuffle(slots)
    if slots:
        u = sampler.unit()
        slots[0] = slots[0] * u * u
    if len(slots) > 1:
        slots[1] = slots[0] * slots[1]
    return QuadraticPfister(tuple(slots), p.last_slot + y * y + y)


def test_symbol_route_agrees_with_the_witt_route():
    # the form deciders stay the reference: wherever they decide, the
    # symbol must give the same isotropy and isometry answers
    F4T = tower(2, ("t",))
    seen = {"isotropy": 0, "isometry": 0, "isometric anisotropic": 0, "not isometric": 0}
    for tw in (F2T, F4T, F2TT):
        rng = random.Random(11)
        sampler = Sampler(tw, 11)
        for fold in (1, 2, 3):
            for i in range(20):
                p = _random_pfister(rng, sampler, fold, wild=i % 2 == 1)
                if rng.random() < 0.5:
                    q = _isometric_variant(rng, sampler, p)
                else:
                    q = _random_pfister(rng, sampler, fold, wild=rng.random() < 0.5)
                hyperbolic = pfister_hyperbolic(p)
                verdict = isotropy(p.expand())
                if verdict.decided:
                    seen["isotropy"] += 1
                    assert verdict.is_isotropic == hyperbolic, p
                try:
                    equivalent = witt_equivalent(p.expand(), q.expand())
                except UndecidableInstance:
                    continue
                seen["isometry"] += 1
                seen["isometric anisotropic"] += equivalent and not hyperbolic
                seen["not isometric"] += not equivalent
                assert pfisters_isometric(p, q) == equivalent, (p, q)
    # the draw reaches both answers of each question
    assert seen["isotropy"] >= 120 and seen["isometry"] >= 120, seen
    assert seen["isometric anisotropic"] >= 20 and seen["not isometric"] >= 20, seen


class TestMaxSeparableLinkage:
    def test_equal_forms_full_linkage(self):
        p = pf(F2T, "<<t,1]]")
        res = max_separable_linkage(p, p)
        assert res.r == p.fold == 2
        assert res.witt_index == 4

    def test_spec_two_variable_example(self):
        p = pf(F2TT, "<<t1,1]]")
        q = pf(F2TT, "<<t2,1]]")
        res = max_separable_linkage(p, q)
        assert res.r >= 1
        assert res.witt_index == 2 ** res.r

    def test_isotropic_input_rejected(self):
        p = pf(F2T, "<<t,0]]")
        with pytest.raises(ValueError):
            max_separable_linkage(p, p)

    def test_witness_search(self):
        p = pf(F2TT, "<<t1,1]]")
        q = pf(F2TT, "<<t2,1]]")
        res = max_separable_linkage(p, q, witness_budget=2000)
        if res.witness is not None:
            assert verify_linkage_witness(p, q, res.witness) is True
            assert res.witness.common.fold == res.r

    def test_constructed_pairs_lower_bound(self):
        sampler = Sampler(F2TT, 99)
        for _ in range(10):
            p, q, rho = sampler.linked_pfister_pair(2, 1)
            ep, eq = p.expand(), q.expand()
            if not (isotropy(ep).is_anisotropic and isotropy(eq).is_anisotropic):
                continue
            res = max_separable_linkage(p, q)
            assert res.r >= 1


class TestInseparableLinkage:
    def test_identical_inputs(self):
        p = pf(F2TT, "<<t1,t2,1]]")
        rep = inseparably_linked(p, p, 2)
        assert rep.verdict is True
        assert rep.witness is not None
        assert verify_linkage_witness(p, p, rep.witness) is True

    def test_shortcut_over_m1(self):
        # degree-3 subgroup vanishes over F2((t)); separable 1-linkage of
        # anisotropic 2-folds upgrades
        p = pf(F2T, "<<t,1]]")
        q = pf(F2T, "<<t+t^2,1]]")
        rep = inseparably_linked(p, q, 1, budget=4000)
        assert rep.verdict is True

    def test_witness_reassembles(self):
        p = pf(F2T, "<<t,1]]")
        q = pf(F2T, "<<t,1+t^3]]")
        rep = inseparably_linked(p, q, 1, budget=4000)
        assert rep.verdict is True
        if rep.witness is not None:
            assert verify_linkage_witness(p, q, rep.witness) is True


class TestLift:
    def test_equal_inputs(self):
        p = pf(F2TT, "<<t1,t2,1]]")
        w = lift_linkage(p, p)
        assert w.kind == "inseparable"
        assert verify_linkage_witness(p, p, w) is True

    def test_constructed_pair_over_m2(self):
        p = QuadraticPfister((el(F2TT, "t1"), el(F2TT, "1+t1")), F2TT.one())
        q = QuadraticPfister((el(F2TT, "t2"), el(F2TT, "1+t2")), F2TT.one())
        w = lift_linkage(p, q, budget=30000)
        assert w.kind == "inseparable"
        assert w.common.fold == 2
        assert verify_linkage_witness(p, q, w) is True

    def test_fold_four_pair_over_m2(self):
        # the degree-5 subgroup vanishes at height 2, so the direct search
        # alone gives the common bilinear 3-fold
        p = QuadraticPfister(
            (el(F2TT, "t1"), el(F2TT, "t2"), el(F2TT, "1+t1")), F2TT.one())
        q = QuadraticPfister(
            (el(F2TT, "t2"), el(F2TT, "t1"), el(F2TT, "1+t2")), F2TT.one())
        w = lift_linkage(p, q, budget=500)
        assert w.kind == "inseparable" and w.common.fold == 3
        assert verify_linkage_witness(p, q, w) is True

    def test_no_separable_search(self, monkeypatch):
        monkeypatch.setattr(
            linkage, "separable_link_witness",
            lambda *a: pytest.fail("lift_linkage searched for a separable witness"))
        t1, t2 = el(F2TT, "t1"), el(F2TT, "t2")
        pairs = [
            (pf(F2TT, "<<t1,t2,1]]"),) * 2,
            (QuadraticPfister((t1, el(F2TT, "1+t1")), F2TT.one()),
             QuadraticPfister((t2, el(F2TT, "1+t2")), F2TT.one())),
            (QuadraticPfister((t1, t2, el(F2TT, "1+t1")), F2TT.one()),
             QuadraticPfister((t2, t1, el(F2TT, "1+t2")), F2TT.one())),
        ]
        for p, q in pairs:
            assert verify_linkage_witness(p, q, lift_linkage(p, q, budget=30000))


class TestUInvariant:
    def test_finite_field(self):
        est = u_invariant_estimate(F2, 1)
        assert est.value == 2
        assert est.witness is not None

    def test_m1_tower(self):
        est = u_invariant_estimate(F2T, 2)
        assert est.value == 4
        assert est.provenance.startswith("theorem:")
        assert "C_2 (Lang)" in est.provenance

    def test_m2_tower_degree3(self):
        est = u_invariant_estimate(F2TT, 3)
        assert est.value == 8
        assert est.witness.expand().dim == 8

    def test_vanishing_degrees(self):
        est = u_invariant_estimate(F2T, 3)
        assert est.value == 0

    def test_canonical_witness_anisotropic(self):
        for tw in (F2, F2T, F2TT):
            w = canonical_witness(tw)
            assert isotropy(w.expand()).is_anisotropic


class TestPairDecomposition:
    def test_pfister_input(self):
        f = pf(F2T, "<<t,1]]").expand()
        out = pfister_pair_decompose(f, 2)
        assert out.dims_ok
        assert out.psi_kernel is None
        assert out.pi is not None

    def test_scaled_pfister(self):
        f = scale(el(F2T, "1+t"), pf(F2T, "<<t,1]]").expand())
        out = pfister_pair_decompose(f, 2)
        assert out.dims_ok and out.psi_kernel is None

    def test_double_dimension_branch(self):
        # a degree-3 member of dimension 8 = 2^(n+1): the fold-2 part is
        # trivial and the fold-3 part carries everything
        psi = pf(F2TT, "<<t1,t2,1]]")
        out = pfister_pair_decompose(psi.expand(), 2, budget=30000)
        assert out.dims_ok
        assert out.psi_kernel is not None and out.psi_kernel.dim == 8
        assert out.report["psi_in_next_subgroup"] is True

    def test_refutation_reporting_shape(self):
        # a dim-6 anisotropic form with nontrivial Arf is not in the
        # degree-2 subgroup; the operation must refuse it
        f = parse_form_expr(F2T, "<<t,1]]").expand()
        f = orth_sum(f, parse_form_expr(F2T, "[1,1]").expand()
                     if hasattr(parse_form_expr(F2T, "[1,1]"), "expand")
                     else parse_form_expr(F2T, "[1,1]"))
        with pytest.raises(ValueError):
            pfister_pair_decompose(f, 2)

    def test_double_dimension_above_degree_two_is_undecidable(self, monkeypatch):
        # an anisotropic form of dimension 2^(n+1) is its own Witt kernel,
        # and degree-n kernels decompose only at dimension 2^n
        for mod in (witt, linkage, symlen):
            monkeypatch.setattr(mod, "witt_decompose",
                                lambda f: pytest.fail("witt_decompose called"))
        f = canonical_witness(tower(1, ("t1", "t2", "t3"))).expand()
        with pytest.raises(UndecidableClass, match="dimension 16"):
            pfister_pair_decompose(f, 3)


class TestDInvariant:
    def test_m1_degree2(self):
        est = d_invariant_estimate(F2T, 2, samples=60, seed=11)
        assert est.value == 4
        assert est.matches_u is True

    def test_trivial_subgroup(self):
        est = d_invariant_estimate(F2, 2, samples=20, seed=11)
        assert est.value == 2


class TestAugmentedIndex:
    def test_constructed_over_m1(self):
        rho = QuadraticPfister((), F2T.one())
        res = augmented_sum_index_check(rho, el(F2T, "t"), el(F2T, "1+t"), el(F2T, "t^2+t"))
        assert res.ok
        assert res.index_lower >= 3

    def test_hyperbolic_psi_trivial(self):
        rho = QuadraticPfister((), F2T.one())
        res = augmented_sum_index_check(rho, el(F2T, "t"), F2T.one(), F2T.one())
        assert res.index_lower >= 3 or res.ok

    @staticmethod
    def _remainder(rho, alpha, beta, gamma):
        """<alpha, beta, gamma, beta*gamma> x rho + <1>, built from the slots."""
        tw, e = rho.tower, rho.expand()
        pairs = sum((scale(c, e).pairs for c in (alpha, beta, gamma, beta * gamma)), ())
        return QuadraticForm(tw, pairs, (tw.one(),))

    @pytest.mark.parametrize("field,count", [
        ("F2((t))", 30), ("F2^2((t))", 30), ("F2((t1))((t2))", 10),
    ])
    def test_rule_agrees_with_the_search(self, field, count):
        # drawn as the wittlemma suite draws; the search, an independent
        # oracle, must find no zero of the remainder where the rule says
        # there is none, and below height 3 the fold-4 ambient form is
        # hyperbolic (u = 2^(height+1) < 16), so the rule says ok throughout
        tw = parse_field(field)
        sampler = Sampler(tw, 0)
        for _ in range(count):
            rho = sampler.anisotropic_pfister(1)
            alpha, beta, gamma = sampler.nonzero(), sampler.nonzero(), sampler.nonzero()
            res = augmented_sum_index_check(rho, alpha, beta, gamma)
            found = brute_search(self._remainder(rho, alpha, beta, gamma), 20000).is_isotropic
            assert res.ok or not found, (rho, alpha, beta, gamma)
            assert res.ok and res.index_lower == res.target == 3

    def test_anisotropic_ambient_is_decided(self):
        # <<t1,t2,t3,delta]] is the canonical anisotropic 4-fold form over
        # F2((t1))((t2))((t3)), so the remainder, a subform, is anisotropic
        tw = tower(1, ("t1", "t2", "t3"))
        rho = QuadraticPfister((), tw.trace_one_element())
        t1, t2, t3 = (tw.gen(i) for i in (1, 2, 3))
        res = augmented_sum_index_check(rho, t1, t2, t3)
        assert (res.ok, res.index_lower, res.target) == (False, 2, 3)
        assert res.chain[2] == {"step": "remainder-isotropy",
                                "rule": "hyperbolic-pfister-neighbor", "found": False}
        # <<t2,t2>> = <<t2,1>> kills the form: the ambient form is hyperbolic
        res = augmented_sum_index_check(rho, t1, t2, t2)
        assert (res.ok, res.index_lower) == (True, 3)
