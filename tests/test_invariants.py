"""Arf, Clifford, the Pfister invariant map, and filtration membership."""

import random

import pytest

from qchar2.cohomology import class_trivial, symbol_to_pfister
from qchar2.errors import SingularInput
from qchar2.fields import tower, wp, wp_reduce
from qchar2.forms import (
    QuadraticForm,
    QuadraticPfister,
    move_norm_scale,
    move_swap,
    move_wp_shift_by,
    orth_sum,
    scale,
)
from qchar2.invariants import arf, clifford, clifford_trivial, e_map, in_iqn, iqn_vanishes
from qchar2.parsing import parse_element, parse_form, parse_symbol_sum
from qchar2.sampling import Sampler
from qchar2.witt import is_hyperbolic

F2 = tower(1)
F2T = tower(1, ("t",))
F2TT = tower(1, ("t1", "t2"))


def el(tw, s):
    return parse_element(tw, s)


class TestArf:
    def test_single_pair(self):
        f = parse_form(F2T, "[1,t+1]")
        r = arf(f)
        assert not r.is_in_wp
        # class of t+1 = class of 1 (t is in wp of the completion)
        assert r.reduced.is_one()

    def test_hyperbolic(self):
        f = parse_form(F2T, "[1,0]+[1,0]")
        assert arf(f).is_in_wp

    def test_sum_formula(self):
        f = parse_form(F2T, "t*[1,t+1] + (1+t)*[1,1]")
        r = arf(f)
        expect = wp_reduce(el(F2T, "t+1") + el(F2T, "1"))
        assert r.reduced == expect.reduced

    def test_singular_rejected(self):
        f = QuadraticForm(F2T, (), (F2T.one(),))
        with pytest.raises(SingularInput):
            arf(f)


class TestClifford:
    def test_single_scaled_pair(self):
        f = parse_form(F2T, "t*[1,1]")
        c = clifford(f)
        assert len(c.symbols) == 1
        sym = c.symbols[0]
        assert sym.coefficient.is_one() and sym.slots == (el(F2T, "t"),)

    def test_unit_slot_rewrites_away(self):
        f = parse_form(F2T, "[1,1]")
        assert clifford(f).is_empty()

    def test_doubling_cancels(self):
        f = parse_form(F2T, "t*[1,1] + t*[1,1]")
        assert clifford(f).is_empty()

    def test_wp_coefficient_dies(self):
        f = parse_form(F2T, "t*[1,t]")
        assert clifford(f).is_empty()

    def test_trivial_examples(self):
        s = clifford(parse_form(F2T, "t*[1,1]"))
        assert clifford_trivial(s) is False
        assert clifford_trivial(clifford(parse_form(F2T, "[1,1]"))) is True

    def test_one_t_symbol_false(self):
        f = parse_form(F2T, "t*[1,1]")   # the symbol [1, t)
        assert clifford_trivial(clifford(f)) is False

    def test_additivity_on_samples(self):
        rng = random.Random(43)
        pool = ["[1,1]", "t*[1,1]", "(1+t)*[1,1]", "t*[1,1+t]"]
        for _ in range(20):
            f = parse_form(F2T, rng.choice(pool))
            g = parse_form(F2T, rng.choice(pool))
            lhs = clifford(orth_sum(f, g))
            rhs = clifford(f) + clifford(g)
            assert class_trivial(lhs + rhs) is True

    @pytest.mark.parametrize("tw", [F2T, F2TT], ids=lambda tw: tw.descriptor())
    def test_printed_class_reparses(self, tw):
        sampler = Sampler(tw, 47)
        for _ in range(12):
            c = clifford(sampler.nonsingular_form(2 * sampler.rng.randrange(1, 4)))
            assert class_trivial(parse_symbol_sum(tw, str(c))) == clifford_trivial(c), str(c)


class TestEMap:
    def test_slots_read_off(self):
        p = QuadraticPfister((el(F2TT, "t1"), el(F2TT, "t2")), F2TT.one())
        s = e_map(p)
        assert s.degree == 3
        assert s.coefficient.is_one()
        assert s.slots == (el(F2TT, "t1"), el(F2TT, "t2"))

    def test_zero_last_slot(self):
        p = QuadraticPfister((el(F2T, "t"),), F2T.zero())
        assert e_map(p).is_zero()

    def test_round_trip_with_pfister(self):
        p = QuadraticPfister((el(F2T, "t"),), F2T.one())
        assert symbol_to_pfister(e_map(p)) == p

    def test_degree_one_matches_arf(self):
        p = QuadraticPfister((), el(F2T, "1+t"))
        s = e_map(p)
        r = arf(p.expand())
        assert wp_reduce(s.coefficient).reduced == r.reduced

    def test_degree_two_matches_clifford(self):
        p = QuadraticPfister((el(F2T, "t"),), F2T.one())
        c = clifford(p.expand())
        s = e_map(p)
        from qchar2.cohomology import SymbolSum

        assert class_trivial(c + SymbolSum(2, (s,))) is True


class TestMembership:
    def test_n1_always(self):
        assert in_iqn(parse_form(F2T, "t*[1,1]"), 1) is True

    def test_n2_arf(self):
        p = QuadraticPfister((el(F2T, "t"),), F2T.one()).expand()
        assert in_iqn(p, 2) is True
        f = parse_form(F2T, "t*[1,1]")
        assert in_iqn(f, 2) is False

    def test_n3_needs_clifford(self):
        p = QuadraticPfister((el(F2T, "t"),), F2T.one()).expand()
        assert in_iqn(p, 3) is False   # nontrivial Clifford class [1, t)

    def test_vanishing_table(self):
        assert iqn_vanishes(F2, 2)
        assert not iqn_vanishes(F2T, 2)
        assert iqn_vanishes(F2T, 3)
        assert iqn_vanishes(F2TT, 4)
        assert not iqn_vanishes(F2TT, 3)

    def test_n3_equals_hyperbolic_over_m1(self):
        rng = random.Random(47)
        pool = ["<<t,1]]", "<<1+t,1]]", "t*[1,1]+t*[1,1]", "[1,1]+[1,1+t]",
                "<<t,t]]", "[1,0]+t*[1,t^2]"]
        for _ in range(30):
            f = parse_form(F2T, rng.choice(pool))
            got = in_iqn(f, 3)
            assert got == is_hyperbolic(f)

    def test_invariance_under_moves(self):
        rng = random.Random(53)
        base = parse_form(F2TT, "t1*[1,1] + t2*[1,t1] + [1,1+t1]")
        reference_arf = arf(base).reduced
        reference_cliff = clifford_trivial(clifford(base))
        f = base
        pool = ["1", "t1", "t2", "1+t1", "t1*t2"]
        for _ in range(40):
            kind = rng.choice(["wp", "scale", "swap"])
            i = rng.randrange(len(f.pairs))
            if kind == "wp":
                f = move_wp_shift_by(f, i, el(F2TT, rng.choice(pool)))
            elif kind == "scale":
                x, y = el(F2TT, rng.choice(pool)), el(F2TT, rng.choice(pool))
                try:
                    f = move_norm_scale(f, i, x, y)
                except Exception:
                    pass
            else:
                f = move_swap(f, i, rng.randrange(len(f.pairs)))
            assert arf(f).reduced == reference_arf
        assert clifford_trivial(clifford(f)) == reference_cliff
