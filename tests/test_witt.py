"""Isotropy decision, Witt decomposition, oracle consistency."""

import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, seed, settings, strategies as st

from qchar2.cohomology import class_trivial
from qchar2.errors import HypothesisViolated, SingularInput
from qchar2.fields import tower, wp, wp_reduce
from qchar2.forms import QuadraticForm, QuadraticPfister, arf_sum, orth_sum, scale
from qchar2.invariants import clifford
from qchar2.linkage import augmented_sum_index_check
from qchar2.parsing import parse_element, parse_field, parse_form
from qchar2.suites import run_suite
from qchar2.witt import (
    IsotropyVerdict,
    _Cleared,
    _basis,
    _block_combos,
    _hensel_line,
    _polar_row,
    _search_pool,
    brute_search,
    candidate_scalars,
    is_hyperbolic,
    isotropy,
    verify_certificate,
    witt_decompose,
    witt_equivalent,
    witt_index,
)

F2 = tower(1)
F4 = tower(2)
F2T = tower(1, ("t",))
F2TT = tower(1, ("t1", "t2"))


def el(tw, s):
    return parse_element(tw, s)


class TestFiniteField:
    def test_binary_anisotropic(self):
        f = parse_form(F2, "[1,1]")
        v = isotropy(f)
        assert v.is_anisotropic
        assert verify_certificate(f, v)

    def test_hyperbolic_plane(self):
        f = parse_form(F2, "[1,0]")
        v = isotropy(f)
        assert v.is_isotropic
        assert v.witness is not None
        assert f.evaluate(v.witness).is_zero()

    def test_dim4_always_isotropic(self):
        for text in ["[1,1]+[1,1]", "[1,1]+z*[1,z]", "[1,z]+(z+1)*[1,z]"]:
            tw = F4 if "z" in text else F2
            f = parse_form(tw, text)
            v = isotropy(f)
            assert v.is_isotropic and v.witness is not None
            assert f.evaluate(v.witness).is_zero()

    def test_quasilinear_perfect_field(self):
        f = QuadraticForm(F4, (), (F4.one(), F4.base_element(2)))
        v = isotropy(f)
        assert v.is_isotropic and f.evaluate(v.witness).is_zero()

    def test_mixed_finite(self):
        f = QuadraticForm(F2, ((F2.one(), F2.one()),), (F2.one(),))
        v = isotropy(f)
        assert v.is_isotropic  # [1,1] represents 1 = the quasilinear entry


class TestLaurentDecider:
    def test_spec_pfister_anisotropic(self):
        f = QuadraticPfister((el(F2T, "t"),), F2T.one()).expand()
        v = isotropy(f)
        assert v.is_anisotropic
        assert verify_certificate(f, v)
        # independent oracle: large-budget brute search finds nothing
        assert brute_search(f, 10 ** 4).kind == "undecided"

    def test_wp_slot_isotropic(self):
        f = parse_form(F2T, "[1,t]")
        v = isotropy(f)
        assert v.is_isotropic
        assert verify_certificate(f, v)

    def test_wild_binary_anisotropic(self):
        f = parse_form(F2T, "[1,1/t]")
        v = isotropy(f)
        assert v.is_anisotropic
        assert v.certificate["rule"] == "wild-binary"
        assert verify_certificate(f, v)

    def test_quasilinear_one_plus_t(self):
        f = QuadraticForm(F2T, (), (F2T.one(), el(F2T, "1+t")))
        assert isotropy(f).is_anisotropic

    def test_quasilinear_dependent(self):
        f = QuadraticForm(F2T, (), (F2T.one(), el(F2T, "t^2")))
        v = isotropy(f)
        assert v.is_isotropic and f.evaluate(v.witness).is_zero()

    def test_two_level_pfister(self):
        f = QuadraticPfister((el(F2TT, "t1"), el(F2TT, "t2")), F2TT.one()).expand()
        v = isotropy(f)
        assert v.is_anisotropic
        assert verify_certificate(f, v)

    def test_scaled_does_not_change_verdict(self):
        f = QuadraticPfister((el(F2T, "t"),), F2T.one()).expand()
        g = scale(el(F2T, "t"), f)
        assert isotropy(g).is_anisotropic


class TestWittDecomposition:
    def test_char2_doubling(self):
        f = parse_form(F2T, "[1,t+1]+[1,t+1]")
        d = witt_decompose(f)
        assert d.index == 2 and d.kernel_dim == 0

    def test_anisotropic_kernel_is_input_class(self):
        f = QuadraticPfister((el(F2T, "t"),), F2T.one()).expand()
        d = witt_decompose(f)
        assert d.index == 0
        assert d.kernel_dim == 4

    def test_last_slot_zero_hyperbolic(self):
        f = QuadraticPfister((el(F2T, "t"),), F2T.zero()).expand()
        d = witt_decompose(f)
        assert d.index == 2 and d.kernel_dim == 0

    def test_hyperbolic_dim_2k(self):
        f = parse_form(F2T, "[1,0]+[1,0]+[1,0]")
        assert witt_index(f) == 3

    def test_wp_last_slot_pfister(self):
        s = el(F2T, "t/(1+t)")
        f = QuadraticPfister((el(F2T, "t"),), wp(s)).expand()
        assert is_hyperbolic(f)

    def test_witt_equivalent_reflexive(self):
        f = QuadraticPfister((el(F2T, "t"),), F2T.one()).expand()
        assert witt_equivalent(f, f)

    def test_witt_equivalent_rejects_quasilinear(self):
        f = QuadraticForm(F2T, (), (F2T.one(),))
        with pytest.raises(SingularInput):
            witt_equivalent(f, f)

    def test_index_monotone_under_plane(self):
        rng = random.Random(17)
        pool = ["[1,t]", "t*[1,1]+[1,1]", "<<t,1]]", "[1,1+t]+t*[1,t^2]"]
        for text in pool:
            f = parse_form(F2T, text)
            g = orth_sum(f, parse_form(F2T, "[1,0]"))
            assert witt_index(g) == witt_index(f) + 1

    def test_decomposition_consistency(self):
        # original ~ index x H + kernel, checked through the decider itself
        f = parse_form(F2TT, "[1,1]+t1*[1,1]+[1,1]+t2*[1,t1]")
        d = witt_decompose(f)
        assert 2 * d.index + d.kernel_dim == f.dim
        recombined = orth_sum(f, d.kernel)
        assert is_hyperbolic(recombined)

    def test_quasilinear_defect(self):
        f = QuadraticForm(
            F2T,
            ((F2T.one(), F2T.one()),),
            (F2T.one(), el(F2T, "t^2"), el(F2T, "t")),
        )
        d = witt_decompose(f)
        # t^2 = t^2 * 1 is F^2-dependent on the entry 1
        assert d.index == 1
        assert d.kernel.quasilinear == (F2T.one(), el(F2T, "t"))


class TestMixedCertificates:
    def test_hensel_level_ignores_unrelated_entries(self):
        # regression: the quasilinear entry lives at level 2 but the
        # nonsingular zero is certified entirely at level 1; the
        # certificate must verify at full dimension
        f = QuadraticForm(
            F2TT,
            ((el(F2TT, "t1^2+t1"), el(F2TT, "t1^3+t1")),),
            (el(F2TT, "t2+t1+1"),),
        )
        v = isotropy(f)
        assert v.is_isotropic
        assert verify_certificate(f, v)

    def test_subform_certificates_carry_dimension(self):
        rng = random.Random(71)
        from qchar2.sampling import Sampler

        sampler = Sampler(F2TT, 71)
        for _ in range(60):
            f = QuadraticForm(
                F2TT,
                tuple((sampler.tame_b(), sampler.tame_a())
                      for _ in range(1 + rng.randrange(3))),
                tuple(sampler.tame_b() for _ in range(rng.randrange(3))),
            )
            v = isotropy(f, 2000)
            if v.decided:
                assert verify_certificate(f, v), v.certificate


class TestBruteSearch:
    def test_plane_quick(self):
        f = parse_form(F2, "[1,0]")
        v = brute_search(f, 10)
        assert v.is_isotropic and f.evaluate(v.witness).is_zero()

    def test_anisotropic_stays_undecided(self):
        f = parse_form(F2, "[1,1]")
        assert brute_search(f, 10 ** 4).kind == "undecided"

    def test_hensel_certificate_for_wp_slot(self):
        f = parse_form(F2T, "[1,t]")
        v = brute_search(f, 10 ** 4)
        assert v.is_isotropic
        assert verify_certificate(f, v)

    def test_exact_witness_verifies(self):
        f = parse_form(F2T, "[1,1]+[1,1+t]")
        v = brute_search(f, 10 ** 4)
        if v.is_isotropic and v.witness is not None:
            assert f.evaluate(v.witness).is_zero()

    def test_never_anisotropic(self):
        for text in ["[1,1]", "<<t,1]]", "[1,1/t]"]:
            f = parse_form(F2T, text)
            assert brute_search(f, 500).kind in ("isotropic", "undecided")


class TestPfisterDichotomy:
    def test_sampled(self):
        rng = random.Random(23)
        # tame pool: slots may carry poles (they strip to t * unit) but
        # the last slot stays integral
        slot_pool = ["1", "t", "1+t", "t^2+t", "1/t", "1+t^2", "t^2+t^3"]
        last_pool = ["0", "1", "t", "1+t", "t^2+t", "1+t^2"]
        for _ in range(40):
            fold = rng.choice([1, 2])
            slots = tuple(el(F2T, rng.choice(slot_pool)) for _ in range(fold - 1))
            last = el(F2T, rng.choice(last_pool))
            f = QuadraticPfister(slots, last).expand()
            v = isotropy(f)
            assert v.decided
            assert v.is_isotropic == is_hyperbolic(f)

    def test_square_slot_hyperbolic_even_with_wild_last(self):
        f = QuadraticPfister((el(F2T, "t^2+1"),), el(F2T, "1/t")).expand()
        v = isotropy(f)
        assert v.is_isotropic and v.witness is not None
        assert f.evaluate(v.witness).is_zero()
        assert is_hyperbolic(f)


class TestForgedCertificates:
    def test_forged_empty_certificate_rejected(self):
        f = parse_form(F2T, "[1,0]+[1,1]")
        forged = IsotropyVerdict("anisotropic", None, {"rule": "empty"})
        assert not verify_certificate(f, forged)

    def test_empty_form_certificate_verifies(self):
        f = QuadraticForm(F2T, ())
        v = isotropy(f)
        assert v.is_anisotropic
        assert verify_certificate(f, v)

    def test_forged_subform_isotropy_rejected(self):
        # the inner certificate proves the hyperbolic plane [1,0] isotropic,
        # which says nothing about <<t,1]]
        f = parse_form(F2T, "<<t,1]]")
        forged = IsotropyVerdict("isotropic", None, {
            "rule": "subform-isotropy",
            "pairs": [["1", "0"]],
            "quasilinear": [],
            "inner": {"rule": "exact-zero", "witness": ["0", "1"]},
        })
        assert not verify_certificate(f, forged)

    def test_residue_lift_without_inner_rejected(self):
        f = parse_form(F2TT, "t2*[1,t1]")
        v = isotropy(f)
        assert v.certificate["rule"] == "residue-lift"
        cert = {k: x for k, x in v.certificate.items() if k != "inner"}
        assert not verify_certificate(f, IsotropyVerdict("isotropic", None, cert))

    @pytest.mark.parametrize("kind,cert", [
        ("isotropic", {"rule": "hensel-pair"}),
        ("anisotropic", {"rule": "springer", "level": 1}),
        ("isotropic", {"rule": "residue-lift", "level": 1, "part": "unit",
                       "residue_pairs": [["1", "0"]], "inner": "exact-zero"}),
        ("isotropic", {"rule": "residue-lift", "level": 0, "part": ["unit"],
                       "residue_pairs": [["1", "0"]], "inner": {"rule": "empty"}}),
        ("isotropic", {"rule": "exact-zero", "witness": ["1", "1"]}),
        ("anisotropic", {"rule": "base-nonwp", "a": "1/0"}),
        ("anisotropic", {"rule": "ql-independent", "entries": ["0"]}),
        ("anisotropic", {"rule": "wild-binary", "a": "1/t", "level": 1.0}),
        ("anisotropic", {"rule": "springer", "level": 1,
                         "unit_part": {"pairs": [["0", "1"]], "certificate": {"rule": "empty"}},
                         "t_part": {"pairs": [], "certificate": {"rule": "empty"}}}),
    ])
    def test_malformed_certificate_is_rejected(self, kind, cert):
        # a missing field, a field of the wrong type or length, an
        # unparseable or zero entry: each is False, never a traceback
        f = parse_form(F2T, "[1,0]+[1,1]")
        assert not verify_certificate(f, IsotropyVerdict(kind, None, cert))

    @pytest.mark.parametrize("text,kind,cert", [
        ("[1,0]+[1,1]", "anisotropic", {"rule": "base-nonwp", "a": "1", "trace": 1}),
        ("[1,0]+[1,1]", "anisotropic", {"rule": "wild-binary", "reason": "odd-valuation",
                                        "a": "1/t", "level": 1, "valuation": -1}),
        ("[1,0]+[1,1]", "anisotropic", {"rule": "ql-independent", "entries": ["1", "t"]}),
        ("[1,0]+[1,1]", "anisotropic", {"rule": "springer", "level": 1,
                                        "unit_part": {"pairs": [], "certificate": {"rule": "empty"}},
                                        "t_part": {"pairs": [], "certificate": {"rule": "empty"}}}),
        ("<<t,1]]", "isotropic", {"rule": "residue-lift", "level": 1, "part": "unit",
                                  "residue_pairs": [["1", "0"]],
                                  "inner": {"rule": "exact-zero", "witness": ["0", "1"]}}),
        # the same rules on forms of the shape they certify
        ("[1,t]", "anisotropic", {"rule": "base-nonwp", "a": "1", "trace": 1}),
        ("[1,t]", "anisotropic", {"rule": "wild-binary", "reason": "odd-valuation",
                                  "a": "1/t", "level": 1, "valuation": -1}),
        ("<1,t^2>q", "anisotropic", {"rule": "ql-independent", "entries": ["1", "t"]}),
        ("[1,0]+t*[1,1]", "anisotropic", {
            "rule": "springer", "level": 1,
            "unit_part": {"pairs": [["1", "1"]], "certificate": {"rule": "base-nonwp", "a": "1"}},
            "t_part": {"pairs": [["1", "1"]], "certificate": {"rule": "base-nonwp", "a": "1"}}}),
    ])
    def test_certificate_of_another_form_is_rejected(self, text, kind, cert):
        # each certificate claims the opposite of the form's verdict, with
        # data that hold for some other form
        f = parse_form(F2T, text)
        assert isotropy(f).is_isotropic != (kind == "isotropic")
        assert not verify_certificate(f, IsotropyVerdict(kind, None, cert))

    @pytest.mark.parametrize("field,text,path,value", [
        ("F2((t))", "<<t,1]]", ("unit_part", "pairs"), [["1", "t"]]),
        ("F2((t))", "<<t,1]]", ("level",), 2),
        ("F2((t1))((t2))", "t2*[1,t1]", ("residue_pairs",), [["1", "t1^3"]]),
        ("F2((t))", "[1,1]", ("a",), "1/t"),
        ("F2((t))", "[1,1/t]", ("a",), "1/t^3"),
        ("F2((t))", "<1,t>q", ("entries",), ["1", "1/t"]),
        ("F2((t))", "((t+1)/t)*[1,1]+<1>q", ("unit_part", "quasilinear"), ["t"]),
        ("F2^2((t))", "(((z+1)*t+1)/t)*[1,z]+<z*t>q", ("residue_quasilinear",), ["z+1"]),
    ])
    def test_stored_field_must_be_the_one_built_from_the_form(self, field, text, path, value):
        # the decider's own certificate with one stored field changed; the
        # changed one would certify some other form
        f = parse_form(parse_field(field), text)
        v = isotropy(f)
        assert verify_certificate(f, v)
        cert = json.loads(json.dumps(v.certificate))
        node = cert
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert not verify_certificate(f, IsotropyVerdict(v.kind, None, cert))

    @pytest.mark.parametrize("text", ["t2*[1,t1]", "t2*[1,t1]+<1+t2>q"])
    def test_residue_lift_verifies_without_the_decider(self, monkeypatch, text):
        f = parse_form(F2TT, text)
        v = isotropy(f)
        assert v.certificate["rule"] == "residue-lift"

        def refuse(*args, **kwargs):
            raise AssertionError("the checker called the decider")

        monkeypatch.setattr("qchar2.witt.isotropy", refuse)
        assert verify_certificate(f, v)

    def test_quasilinear_residue_zero_is_not_a_lift(self):
        # f is anisotropic: t1*(z+w)^2 + t1*t2*w^2 turns it into
        # ([1,1] + <t1>q) + t2*<t1>q, both residues anisotropic.  The unit
        # residue of its split, [1,1] + <t1,t1>q, has the zero (0,0,1,1) on
        # quasilinear coordinates alone, where B vanishes, so it does not lift.
        f = parse_form(F2TT, "[1,1]+<t1,t1*(1+t2)>q")
        assert not isotropy(f).is_isotropic
        forged = {"rule": "residue-lift", "level": 2, "part": "unit",
                  "residue_pairs": [["1", "1"]], "residue_quasilinear": ["t1", "t1"],
                  "inner": {"rule": "exact-zero", "witness": ["0", "0", "1", "1"]}}
        assert not verify_certificate(f, IsotropyVerdict("isotropic", None, forged))
        # every other part of the record holds: the residue form is the one
        # the split builds, and the inner zero is a zero of it
        g = QuadraticForm(F2TT, ((F2TT.one(), F2TT.one()),), (el(F2TT, "t1"),) * 2)
        assert verify_certificate(g, IsotropyVerdict("isotropic", None, forged["inner"]))


@pytest.mark.parametrize("text,rule,evaluations", [
    ("[1,0]+[1,1]", "exact-zero", 1),
    ("[1,t]", "hensel-pair", 2),
    ("[1,0]+[1,1]+<t>q", "exact-zero", 1),
    ("[1,t]+<t>q", "hensel-pair", 2),
])
def test_isotropy_evaluates_each_witness_once(monkeypatch, text, rule, evaluations):
    # an exact zero is evaluated once, a Hensel pair's v and u once each;
    # beside a quasilinear entry, the nonsingular part's checked verdict is
    # padded without evaluating it again
    f = parse_form(F2T, text)
    calls = []
    evaluate = QuadraticForm.evaluate

    def counted(self, vector):
        calls.append(vector)
        return evaluate(self, vector)

    monkeypatch.setattr(QuadraticForm, "evaluate", counted)
    v = isotropy(f)
    assert v.is_isotropic and v.certificate["rule"] == rule
    assert len(calls) == evaluations


def test_residue_zero_off_the_normalized_coordinates_lifts():
    # both pairs go to the t part, whose residue [1,z]+[1,z] is hyperbolic;
    # its zero, placed on f's coordinates without undoing the even-power
    # strip of the first b-slot, is no zero of f, so the record is a lift
    f = parse_form(parse_field("F2^2((t))"), "((z*t+1)/t)*[1,z]+t*[1,z]")
    v = isotropy(f)
    assert v.is_isotropic and v.certificate["rule"] == "residue-lift"
    assert verify_certificate(f, v)


def test_no_certificate_calls_the_decider(monkeypatch):
    # every decided verdict on the pinned decider forms, and on the same
    # kind of forms over F8((t)), checks with the decider switched off
    cases = []
    for i, tw in enumerate(DECIDER_TOWERS + [tower(3, ("t",))]):
        rng = random.Random(3000 + i)
        for _ in range(DECIDER_FORMS):
            f = _decider_form(tw, rng)
            cases += [(f, isotropy(f, budget)) for budget in DECIDER_BUDGETS]
    decided = [(f, v) for f, v in cases if v.decided]
    assert len(decided) > len(cases) // 2

    def refuse(*args, **kwargs):
        raise AssertionError("the checker called the decider")

    monkeypatch.setattr("qchar2.witt.isotropy", refuse)
    for f, v in decided:
        assert verify_certificate(f, v), f


LOCAL_CERT = {"rule": "local-invariants", "dim": 4, "arf": "0", "class_trivial": False}


@pytest.mark.parametrize("field,text,kind", [
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "anisotropic"),
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]+<t>q", "isotropic"),
    # found on the nonsingular part, stored with that part's dimension
    ("F2((t))", "[1,1/t]+t*[1,1/t^3]+<t>q", "isotropic"),
    ("F2^3((t))", "[1,z/t^3]+t*[1,1/t]", "isotropic"),
])
def test_local_invariants_certificates_verify(field, text, kind):
    f = parse_form(parse_field(field), text)
    v = isotropy(f)
    assert v.kind == kind and v.certificate["rule"] == "local-invariants"
    assert verify_certificate(f, v)


@pytest.mark.parametrize("field,text,kind,change", [
    # the decider's anisotropic record of [1,1/t]+(1+t)*[1,1/t] with one
    # field wrong, of the wrong type, or missing
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "anisotropic", {"dim": 5}),
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "anisotropic", {"dim": "4"}),
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "anisotropic", {"arf": "1/t"}),
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "anisotropic", {"arf": 0}),
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "anisotropic", {"class_trivial": True}),
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "anisotropic", {"class_trivial": 0}),
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "anisotropic", {"dim": None}),
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "anisotropic", {"arf": None}),
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "anisotropic", {"class_trivial": None}),
    # the verdict flipped, every stored invariant right
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]", "isotropic", {}),
    # dimension 5 forces isotropy
    ("F2((t))", "[1,1/t]+(1+t)*[1,1/t]+<t>q", "anisotropic", {"dim": 5}),
    # the same shape over a height-2 tower, with the invariants it has there
    ("F2((t1))((t2))", "[1,1/t2]+(1+t2)*[1,1/t2]", "anisotropic", {}),
    # a mixed form of dimension 4, stored with its own dimension or its
    # nonsingular part's, and the invariants of that part
    ("F2((t))", "[1,1/t]+<1,t>q", "isotropic", {"arf": "1/t", "class_trivial": True}),
    ("F2((t))", "[1,1/t]+<1,t>q", "isotropic", {"dim": 2, "arf": "1/t", "class_trivial": True}),
])
def test_forged_local_invariants_are_rejected(field, text, kind, change):
    # False, never a traceback
    f = parse_form(parse_field(field), text)
    cert = {k: x for k, x in {**LOCAL_CERT, **change}.items() if x is not None}
    assert not verify_certificate(f, IsotropyVerdict(kind, None, cert))


@pytest.mark.parametrize("field,text", [
    ("F2^7", "[1,1]+<1>q"),
    ("F2^8", "[1,z^5]+<1>q"),
    ("F2^7((t))", "[1,1+t]+<1+t>q"),
])
def test_large_finite_residue_mixed_forms_are_decided(field, text):
    # an anisotropic pair represents every scalar over a finite field, so
    # one pair plus one quasilinear entry is isotropic at any order
    f = parse_form(parse_field(field), text)
    v = isotropy(f)
    assert v.is_isotropic and v.witness is not None
    assert f.evaluate(v.witness).is_zero()
    assert verify_certificate(f, v)


# -- search outputs, pinned ---------------------------------------------------------
#
# Every field of every verdict the two bounded searches return, over small wild
# and tame forms (some with quasilinear entries) at three budgets.  A change to
# the candidate order, the Hensel pass, the budget accounting or the arithmetic
# underneath that alters any verdict, witness, certificate or report changes
# the digest.

SEARCH_TOWERS = [tower(1, ("t",)), tower(2, ("t",)), tower(3, ("t",)), tower(1, ("t1", "t2"))]
SEARCH_BUDGETS = (100, 1000, 4096)
SEARCH_FORMS = 8
SEARCH_SHA256 = "50f5d75052e0dd0aeb34cd04becf76dd7e5dea4d7898769e5becb9a5b039c7d0"


def _search_scalar(tw, rng, lo, hi, terms):
    out = tw.zero()
    while out.is_zero():
        for _ in range(terms):
            x = tw.base_element(rng.randrange(1, tw.order))
            for level in range(1, tw.height + 1):
                x = x * tw.monomial(level, rng.randrange(lo, hi + 1))
            out = out + x
    return out


def _search_form(tw, rng, wild):
    """One or two pairs and at most one quasilinear entry; a wild form's
    first a-slot gets an odd pole in the outermost variable."""
    pairs = []
    for i in range(rng.choice((1, 2))):
        b = _search_scalar(tw, rng, -1, 1, 1)
        a = _search_scalar(tw, rng, 0, 2, rng.randrange(1, 3))
        if wild and i == 0:
            pole = tw.monomial(tw.height, -rng.choice((1, 3)))
            a = a + tw.base_element(rng.randrange(1, tw.order)) * pole
        pairs.append((b, a))
    ql = tuple(_search_scalar(tw, rng, -1, 1, 1) for _ in range(rng.choice((0, 1, 1))))
    return QuadraticForm(tw, tuple(pairs), ql)


def _verdict_record(v):
    if v is None:
        return "None"
    witness = None if v.witness is None else [str(x) for x in v.witness]
    hensel = None if v.hensel_data is None else [[str(x) for x in w] for w in v.hensel_data]
    return json.dumps([v.kind, witness, v.certificate, v.budget_report, hensel], sort_keys=True)


def search_record():
    lines = []
    for i, tw in enumerate(SEARCH_TOWERS):
        rng = random.Random(2000 + i)
        for j in range(SEARCH_FORMS):
            f = _search_form(tw, rng, wild=j % 2 == 0)
            for budget in SEARCH_BUDGETS:
                found = _verdict_record(brute_search(f, budget))
                lines.append(f"{tw.descriptor()} {f} {budget} {found}")
    return "\n".join(lines)


def test_search_outputs_are_pinned():
    record = search_record()
    assert hashlib.sha256(record.encode()).hexdigest() == SEARCH_SHA256


# -- decider outputs, pinned --------------------------------------------------------
#
# Every field of every `isotropy` verdict over seeded forms whose bounded-search
# paths turn candidates into verdicts: the residue lift of an exact residue zero
# with q(v) != 0 (found and not found), the wild-mixture fallback and both mixed
# fallbacks (each isotropic and undecided); then the chains of
# `augmented_sum_index_check`, decided by the symbol of the ambient form.

DECIDER_TOWERS = [tower(1, ("t",)), tower(2, ("t",)), tower(1, ("t1", "t2"))]
DECIDER_BUDGETS = (100, 4096)
DECIDER_FORMS = 40
DECIDER_CHAINS = [
    # (field, rho slot, rho a-slot, alpha, beta, gamma)
    ("F2((t))", "1", "t+1", "1", "(t+1)/t", "(t^2+1)/t"),
    ("F2((t))", "1", "t+1", "1/t", "t+1", "t+1"),
    ("F2^2((t))", "1", "t+(z+1)", "(z+1)/t", "(t^2+z)/t", "z+1"),
    ("F2((t1))((t2))", "t1/t2", "(1/t1)*t2+1", "(t2+(1/t1))/t2", "1/t2", "((1/t1)*t2+t1)/t2"),
]
DECIDER_SHA256 = "ce3f8c6dbc48057ad5f7728dce13d6e9d600dc37c2fb684cf6090766789cf525"


def _decider_form(tw, rng):
    """One or two pairs and up to two quasilinear entries, every slot with
    poles and zeros of order at most 1 in each variable."""
    pairs = []
    for _ in range(rng.choice((1, 2, 2))):
        b = _search_scalar(tw, rng, -1, 1, rng.randrange(1, 3))
        a = _search_scalar(tw, rng, -1, 1, rng.randrange(1, 3))
        pairs.append((b, a))
    ql = tuple(_search_scalar(tw, rng, -1, 1, 1) for _ in range(rng.choice((0, 0, 1, 2))))
    return QuadraticForm(tw, tuple(pairs), ql)


def decider_record():
    lines = []
    for i, tw in enumerate(DECIDER_TOWERS):
        rng = random.Random(3000 + i)
        for _ in range(DECIDER_FORMS):
            f = _decider_form(tw, rng)
            for budget in DECIDER_BUDGETS:
                lines.append(f"{tw.descriptor()} {f} {budget} {_verdict_record(isotropy(f, budget))}")
    for field, *slots in DECIDER_CHAINS:
        tw = parse_field(field)
        rho_b, rho_a, alpha, beta, gamma = (el(tw, s) for s in slots)
        rho = QuadraticPfister((rho_b,), rho_a)
        res = augmented_sum_index_check(rho, alpha, beta, gamma)
        chain = json.dumps(res.chain, sort_keys=True)
        lines.append(f"{field} {rho} {res.ok} {res.index_lower} {chain}")
    return "\n".join(lines)


def test_decider_outputs_are_pinned():
    record = decider_record()
    assert hashlib.sha256(record.encode()).hexdigest() == DECIDER_SHA256


# -- budgets below 0 ----------------------------------------------------------------

BUDGET_CALLS = {
    "isotropy": lambda b: isotropy(parse_form(F2T, "[1,1/t]+(1+t)*[1,1/t]"), b),
    "brute_search": lambda b: brute_search(parse_form(F2T, "[1,1/t]+(1+t)*[1,1/t]"), b),
    "oracle": lambda b: run_suite("oracle", samples=2, budget=b),
    "length-pipeline": lambda b: run_suite("length-pipeline", samples=1, budget=b),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CALLS))
def test_negative_budget_is_a_hypothesis_violation(name):
    with pytest.raises(HypothesisViolated):
        BUDGET_CALLS[name](-1)
    BUDGET_CALLS[name](0)


# -- the pool table of brute_search -------------------------------------------------


def _oracle_cases():
    """(form, budget) with F2((t)) and F4((t)), both budgets and forms with
    and without quasilinear entries interleaved, so that each call follows
    calls on another tower, budget or kind of form."""
    from qchar2.sampling import Sampler

    samplers = [Sampler(tower(1, ("t",)), 5), Sampler(tower(2, ("t",)), 5)]
    cases = []
    for i in range(24):
        sampler = samplers[i % 2]
        f = sampler.nonsingular_form(2 + 2 * (i % 3 == 0))
        if i % 4 >= 2:
            f = QuadraticForm(f.tower, f.pairs, (sampler.nonzero(),))
        cases.append((f, (4096, 100000)[i // 4 % 2]))
    return cases


def _outcome(v):
    return v.kind, v.witness, v.certificate, v.budget_report, v.hensel_data


def test_pool_table_gives_the_cold_results():
    cases = _oracle_cases()
    cold = []
    for f, budget in cases:
        _search_pool.cache_clear()
        cold.append(_outcome(brute_search(f, budget)))
    _search_pool.cache_clear()
    warm = [_outcome(brute_search(f, budget)) for f, budget in cases]
    assert warm == cold
    # 2 towers x 2 budgets x 2 kinds of form, each built once
    assert _search_pool.cache_info().misses == 8
    assert {kind for kind, *_ in cold} == {"isotropic", "undecided"}
    assert any(f.quasilinear for f, _ in cases) and not all(f.quasilinear for f, _ in cases)


def test_pool_table_keeps_the_negative_budget_check():
    f = parse_form(F2T, "[1,1/t]+(1+t)*[1,1/t]")
    brute_search(f, 4096)
    with pytest.raises(HypothesisViolated):
        candidate_scalars(F2T, -1)
    with pytest.raises(HypothesisViolated):
        brute_search(f, -1)


def test_brute_search_evaluates_each_candidate_once(monkeypatch):
    f = parse_form(F2T, "[1,1/t]+(1+t)*[1,1/t]")
    calls = []
    evaluate = QuadraticForm.evaluate

    def counted(self, vector):
        calls.append(vector)
        return evaluate(self, vector)

    monkeypatch.setattr(QuadraticForm, "evaluate", counted)
    v = brute_search(f)
    assert v.kind == "undecided" and f.dim == 4
    # the Hensel pass counts a pair (v, e_i) when B(v, e_i) != 0, at most
    # f.dim per candidate
    candidates = -(-v.budget_report["hensel_tried"] // f.dim)
    assert candidates > f.dim
    assert len(calls) <= candidates + f.dim


def test_brute_search_hensel_pass_makes_no_form_wide_call(monkeypatch):
    f = parse_form(F2T, "[1,1/t]+(1+t)*[1,1/t]")
    calls = {"evaluate": 0, "polar": 0}

    def counting(name):
        method = getattr(QuadraticForm, name)

        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)
        return counted

    for name in calls:
        monkeypatch.setattr(QuadraticForm, name, counting(name))
    v = brute_search(f)
    assert v.kind == "undecided"
    # the pairs (v, e_i) with B(v, e_i) != 0: one per nonzero pair
    # coordinate of each of the 67 candidates
    assert v.budget_report["hensel_tried"] == 116
    assert calls == {"evaluate": 0, "polar": 0}


def test_brute_search_rebuilds_only_screened_candidates(monkeypatch):
    # a wild mixture that stays Undecided: no left combination can certify
    f = parse_form(F2T, "(t^4+t)*[1,(t^2+t+1)/(t^5+t^4)]+(t^3+t)*[1,(t^2+t+1)/t]")
    made, screened, rebuilt = [], [], []
    init, screen, value = _Cleared.__init__, _Cleared.screen, _Cleared.value

    def counted_init(self, *args):
        made.append(self)
        init(self, *args)

    def counted_screen(self, coords, key):
        passed = screen(self, coords, key)
        screened.append(passed)
        return passed

    def counted_value(self, key):
        rebuilt.append(key)
        return value(self, key)

    monkeypatch.setattr(_Cleared, "__init__", counted_init)
    monkeypatch.setattr(_Cleared, "screen", counted_screen)
    monkeypatch.setattr(_Cleared, "value", counted_value)
    v = brute_search(f)
    # the same report as when every candidate was rebuilt
    assert v.kind == "undecided"
    assert v.budget_report == {"budget": 4096, "pool": 8, "pairs_covered": 3008,
                               "hensel_tried": 116}
    assert len(screened) == 64
    assert len(rebuilt) == sum(screened) == 0
    # and S^-1 is never formed
    assert len(made) == 1 and "inverse" not in vars(made[0])


# -- the identities the searches' arithmetic rests on ----------------------------------

IDENTITY_TOWERS = [tower(2), tower(1, ("t",)), tower(2, ("t",)), tower(1, ("t1", "t2"))]
IDENTITY_CASES = settings(max_examples=40, deadline=None)


def _scalar(tw, top=None, max_terms=2):
    """A sum of up to `max_terms` base-field multiples of Laurent monomials in
    t_1..t_top (all of them by default), over 1 + t_top half the time; may
    be zero."""
    top = tw.height if top is None else top
    term = st.tuples(
        st.integers(0, tw.order - 1),
        st.lists(st.integers(-2, 2), min_size=top, max_size=top),
    )

    def build(terms, over_one_plus_t):
        x = tw.zero()
        for c, exponents in terms:
            y = tw.base_element(c)
            for level, e in enumerate(exponents, 1):
                y = y * tw.monomial(level, e)
            x = x + y
        return x / (tw.one() + tw.gen(top)) if over_one_plus_t and top else x

    return st.builds(build, st.lists(term, min_size=1, max_size=max_terms), st.booleans())


def _form(tw, top=None, max_terms=2):
    nonzero = _scalar(tw, top, max_terms).filter(lambda x: not x.is_zero())
    return st.builds(
        lambda pairs, ql: QuadraticForm(tw, tuple(pairs), tuple(ql)),
        st.lists(st.tuples(nonzero, _scalar(tw, top, max_terms)), min_size=1, max_size=2),
        st.lists(nonzero, max_size=2),
    )


@pytest.mark.parametrize("tw", IDENTITY_TOWERS, ids=lambda tw: tw.descriptor())
@IDENTITY_CASES
@given(data=st.data())
def test_polar_row_is_the_polar_form_on_the_basis(tw, data):
    f = data.draw(_form(tw))
    v = tuple(data.draw(st.lists(_scalar(tw), min_size=f.dim, max_size=f.dim)))
    row = _polar_row(f, v)
    assert len(row) == f.dim
    for i, b in enumerate(row):
        e = tuple(tw.one() if j == i else tw.zero() for j in range(f.dim))
        assert b == f.polar(v, e)


@pytest.mark.parametrize("tw", IDENTITY_TOWERS, ids=lambda tw: tw.descriptor())
@IDENTITY_CASES
@given(data=st.data())
def test_block_combo_values_are_form_values(tw, data):
    f = data.draw(_form(tw))
    budget = data.draw(st.sampled_from((16, 100, 1000)))
    pool = candidate_scalars(tw, budget)
    # the blocks brute_search builds, pairs first, then quasilinear entries
    cleared = _Cleared(f, pool[:4])
    blocks = cleared.blocks(3, 4)
    prefix = data.draw(st.integers(1, len(blocks)))
    ring, scale = tw.top_ring(), cleared.inverse.inverse()
    for coords, key in _block_combos(ring, blocks[:prefix], budget):
        padded = coords + (tw.zero(),) * (f.dim - len(coords))
        scaled = ring.element(key)
        assert scaled == scale * f.evaluate(padded)
        assert _polynomial_at_every_level(scaled)
        assert cleared.value(key) == f.evaluate(padded)


SCREEN_TOWERS = [tower(1, ("t",)), tower(2, ("t",)), tower(1, ("t1", "t2")),
                 tower(1, ("t1", "t2", "t3"))]


@pytest.mark.parametrize("tw", SCREEN_TOWERS, ids=lambda tw: tw.descriptor())
@seed(21)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hensel_screen_passes_every_certifying_candidate(tw, data):
    # slots and scalars in t_1..t_top; for top < m every Hensel level is
    # below t_m, where the screen sees only valuations 0.  Level-3 sums of
    # several terms take seconds each, so there every scalar is one term.
    top = data.draw(st.integers(1, tw.height))
    terms = 1 if top == 3 else 2
    f = data.draw(_form(tw, top, terms))
    pool = data.draw(st.lists(_scalar(tw, top, terms), min_size=2, max_size=4))
    cleared = _Cleared(f, pool)
    blocks = cleared.blocks(len(pool), len(pool))
    prefix = data.draw(st.integers(1, len(blocks)))
    basis = [(e, f.evaluate(e)) for e, _ in _basis(f)]
    for coords, key in _block_combos(cleared.ring, blocks[:prefix], 100):
        v = coords + (tw.zero(),) * (f.dim - len(coords))
        qv = f.evaluate(v)
        if qv.is_zero():
            certifies = any(v)
        else:
            certifies = any(_hensel_line(qv, qe, f.polar(v, e)) is not None for e, qe in basis)
        if certifies:
            assert cleared.screen(coords, key), (str(f), [str(x) for x in v])


def _polynomial_at_every_level(x):
    """Whether x is a polynomial in its own variable whose coefficients are
    polynomials too, down to the base field."""
    if x.level == 0:
        return True
    num, den = x.coefficients()
    return den == (x.tower.one(),) and all(_polynomial_at_every_level(c) for c in num)


# -- the classification over F_q((t)) ------------------------------------------------
#
# Over F_q((t)) a wild mixture is decided by its dimension, Arf class and
# Clifford class, with no search.  The forms are drawn the way perfbench's
# `wild` workload draws them (b = t^e * unit with e in {0, 1}, a = unit / t^p),
# with poles down to -5 over F2((t)) and -3 over F4((t)) and F8((t)), in
# dimension 4, 6 and, with one quasilinear entry, 5.  In the cells marked
# `trivial`, the last a-slot is the sum of the others plus wp of a unit over
# t^2, so the Arf class is trivial and the Clifford class decides.

LOCAL_CELLS = [
    # (base exponent, deepest pole, pairs, pairs with a pole, trivial Arf, entries, forms)
    (1, 5, 2, 2, False, 0, 16),
    (1, 5, 2, 1, False, 0, 16),
    (1, 5, 2, 2, True, 0, 16),
    (2, 3, 2, 2, False, 0, 8),
    (2, 3, 2, 2, True, 0, 8),
    (3, 3, 2, 2, False, 0, 6),
    (1, 5, 3, 2, False, 0, 6),
    (1, 5, 3, 3, True, 0, 8),
    (1, 5, 2, 2, False, 1, 8),
]
LOCAL_SEARCH_BUDGET = 20000


def _local_unit(tw, rng):
    """A fraction of two polynomials in t with nonzero constant terms."""
    def poly(degree):
        out = tw.base_element(rng.randrange(1, tw.order))
        for i in range(1, degree + 1):
            bits = rng.randrange(1 if i == degree else 0, tw.order)
            out = out + tw.base_element(bits) * tw.monomial(1, i)
        return out

    return poly(rng.randrange(4)) / poly(rng.randrange(3))


def _local_form(tw, rng, deepest, pairs, poles, trivial, entries):
    t = tw.gen(1)
    slots = [
        (_local_unit(tw, rng) * t ** rng.randrange(2),
         _local_unit(tw, rng) / t ** (rng.randrange(1, deepest + 1) if j < poles else 0))
        for j in range(pairs)
    ]
    if trivial:
        b, _ = slots[-1]
        r = _local_unit(tw, rng) / t ** 2
        slots[-1] = (b, sum((a for _, a in slots[:-1]), r * r + r))
    ql = tuple(_local_unit(tw, rng) * t ** rng.randrange(2) for _ in range(entries))
    return QuadraticForm(tw, tuple(slots), ql)


def _kernel_kind(d):
    """Which of the classification's kernels d has: hyperbolic, the
    classified form's own pairs, c[1,a] with c = 1 or with c a non-norm;
    None when the decomposition ended elsewhere."""
    if not d.proof or d.proof[-1]["step"] != "local-classification":
        return None
    pairs = d.kernel.pairs
    if len(pairs) != 1:
        return "own" if pairs else "hyperbolic"
    return "c = 1" if pairs[0][0].is_one() else "non-norm c"


def test_local_classification_agrees_with_search_and_decomposition():
    verdicts, kernels = Counter(), Counter()
    for i, (k, deepest, pairs, poles, trivial, entries, n) in enumerate(LOCAL_CELLS):
        tw = tower(k, ("t",))
        rng = random.Random(2500 + i)
        for _ in range(n):
            f = _local_form(tw, rng, deepest, pairs, poles, trivial, entries)
            v = isotropy(f)
            assert v.decided and verify_certificate(f, v), f
            d = witt_decompose(f)
            ns, kernel = f.nonsingular_part(), d.kernel.nonsingular_part()
            # the kernel is anisotropic and has the input's Arf and Clifford classes
            assert wp_reduce(arf_sum(ns) + arf_sum(kernel)).is_in_wp, f
            assert class_trivial(clifford(ns) + clifford(kernel)), f
            assert not isotropy(kernel).is_isotropic, f
            if not f.quasilinear:
                assert v.is_isotropic == (d.index > 0), f
            if v.is_anisotropic:
                assert not brute_search(f, LOCAL_SEARCH_BUDGET).is_isotropic, f
            verdicts[v.kind, v.certificate["rule"]] += 1
            kernels[_kernel_kind(d)] += 1
    assert verdicts["anisotropic", "local-invariants"] and verdicts["isotropic", "local-invariants"]
    assert all(kernels[kind] for kind in ("hyperbolic", "own", "c = 1", "non-norm c")), kernels
