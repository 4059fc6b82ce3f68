"""Symbol sums: differential expansion, residues, triviality, length."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qchar2.cohomology as cohomology
from qchar2.cohomology import (
    DifferentialForm,
    SymbolSum,
    _lower_poles,
    basis_rewrite,
    class_trivial,
    simplify,
    symbol,
    symbol_length,
    symbol_residue,
    symbol_to_pfister,
    to_differential,
    zero_sum,
)
from qchar2.errors import WildSymbol
from qchar2.fields import tower, wp_reduce
from qchar2.forms import QuadraticForm
from qchar2.invariants import clifford
from qchar2.parsing import format_symbol_sum, parse_element, parse_symbol_sum
from qchar2.witt import brute_search

F2 = tower(1)
F2T = tower(1, ("t",))
F2TT = tower(1, ("t1", "t2"))


def el(tw, s):
    return parse_element(tw, s)


def sym2(tw, a, b):
    return SymbolSum(2, (symbol(el(tw, a), el(tw, b)),))


class TestToDifferential:
    def test_single_dlog(self):
        s = sym2(F2T, "1", "t")
        w = to_differential(s)
        assert w.coords() == {frozenset({1}): el(F2T, "1/t")}

    def test_product_slot_collapses(self):
        # a d(t1 t2)/(t1 t2) ^ d(t2)/t2 has only the {1,2} coordinate
        a = el(F2TT, "1")
        s = SymbolSum(3, (symbol(a, el(F2TT, "t1*t2"), el(F2TT, "t2")),))
        w = to_differential(s)
        assert w.coords() == {frozenset({1, 2}): el(F2TT, "1/(t1*t2)")}

    def test_repeated_slot_vanishes(self):
        s = SymbolSum(3, (symbol(el(F2T, "1"), el(F2T, "t"), el(F2T, "t")),))
        assert to_differential(s).is_zero()


class TestBasisRewrite:
    def test_single_coordinate(self):
        w = DifferentialForm.from_dict(1, {frozenset({1}): el(F2T, "(1)/(t)")})
        s = basis_rewrite(w, F2T)
        assert len(s.symbols) == 1
        assert s.symbols[0].coefficient.is_one()
        assert s.symbols[0].slots == (F2T.gen(1),)

    def test_zero_form(self):
        w = DifferentialForm.from_dict(1, {})
        assert basis_rewrite(w, F2T).is_empty()

    def test_top_degree_count(self):
        w = DifferentialForm.from_dict(2, {frozenset({1, 2}): el(F2TT, "1+t1")})
        s = basis_rewrite(w, F2TT)
        assert len(s.symbols) == 1  # binom(2, 2)
        assert s.symbols[0].coefficient == el(F2TT, "(1+t1)*t1*t2")

    def test_round_trip_exact(self):
        rng = random.Random(31)
        pool = ["1", "t1", "t2", "1+t1", "t1*t2", "(1+t2)/t1", "t1^2+t2"]
        for _ in range(30):
            coords = {}
            for key in (frozenset({1}), frozenset({2})):
                c = el(F2TT, rng.choice(pool))
                if not c.is_zero():
                    coords[key] = c
            w = DifferentialForm.from_dict(1, coords)
            again = to_differential(basis_rewrite(w, F2TT))
            assert again == w

    def test_round_trip_degree_three(self):
        w = DifferentialForm.from_dict(2, {frozenset({1, 2}): el(F2TT, "1/(t1*t2^2)")})
        assert to_differential(basis_rewrite(w, F2TT)) == w

    def test_bound_respected(self):
        rng = random.Random(32)
        pool = ["1", "t1", "t2", "1+t1*t2", "t2/(1+t1)"]
        for _ in range(25):
            syms = tuple(
                symbol(el(F2TT, rng.choice(pool)), el(F2TT, rng.choice(pool[1:])))
                for _ in range(3)
            )
            s = SymbolSum(2, syms)
            out = basis_rewrite(to_differential(s), F2TT)
            assert len(out.symbols) <= 2  # binom(2,1)


class TestResidues:
    def test_pure_t_slot(self):
        s = sym2(F2T, "1", "t")
        unram, ram = symbol_residue(s, 1)
        assert unram.is_empty()
        assert len(ram.symbols) == 1
        assert ram.symbols[0].coefficient.is_one()

    def test_unit_slot(self):
        s = sym2(F2TT, "1", "t2+t1")   # slot is a t2-unit with residue t1
        unram, ram = symbol_residue(s, 2)
        assert ram.is_empty()
        assert len(unram.symbols) == 1
        assert unram.symbols[0].slots == (el(F2TT, "t1"),)
        assert unram.symbols[0].coefficient.is_one()

    def test_wp_trivial_coefficient_dies(self):
        # t1 has positive valuation, so it lies in wp of the completion and
        # the whole symbol is trivial
        s = sym2(F2TT, "t1", "t2+t1")
        unram, ram = symbol_residue(s, 2)
        assert unram.is_empty() and ram.is_empty()

    def test_positive_coefficient_part_drops(self):
        s = sym2(F2T, "t", "t")   # coefficient t is wp-trivial upstairs
        unram, ram = symbol_residue(s, 1)
        assert unram.is_empty() and ram.is_empty()

    def test_wild_coefficient_raises(self):
        s = sym2(F2T, "1/t", "t")
        with pytest.raises(WildSymbol):
            symbol_residue(s, 1)

    def test_mixed_slot_splits(self):
        # slot t*(1+t): dt/t part and d(1+t)/(1+t) part
        s = sym2(F2T, "1", "t+t^2")
        unram, ram = symbol_residue(s, 1)
        assert len(ram.symbols) == 1
        assert len(unram.symbols) == 1 or unram.is_empty()


class TestClassTrivial:
    def test_empty(self):
        assert class_trivial(zero_sum(2)) is True

    def test_doubling(self):
        s = sym2(F2T, "1", "t")
        assert class_trivial(s + s) is True

    def test_unit_t_symbol_nontrivial(self):
        assert class_trivial(sym2(F2T, "1", "t")) is False

    def test_wp_coefficient_trivial(self):
        s = sym2(F2T, "t", "t")        # t lies in wp of the completion
        assert class_trivial(s) is True

    def test_square_slot_trivial(self):
        s = sym2(F2T, "1", "t^2")
        assert class_trivial(s) is True

    def test_value_slot_trivial(self):
        # slot 1+t is a 1-unit: the quaternion-type class dies
        s = sym2(F2T, "1", "1+t")
        assert class_trivial(s) is True

    def test_pfister_route_agrees(self):
        from qchar2.witt import is_hyperbolic

        rng = random.Random(37)
        slot_pool = ["t", "1+t", "t^2+t"]
        coef_pool = ["1", "t", "1+t"]
        for _ in range(25):
            s = sym2(F2T, rng.choice(coef_pool), rng.choice(slot_pool))
            got = class_trivial(s)
            pf = is_hyperbolic(symbol_to_pfister(s.symbols[0]).expand())
            assert got == pf

    def test_degree_three_top_symbol(self):
        s = SymbolSum(3, (symbol(el(F2TT, "1"), el(F2TT, "t1"), el(F2TT, "t2")),))
        assert class_trivial(s) is False

    def test_degree_one(self):
        s = SymbolSum(1, (symbol(el(F2T, "1")), symbol(el(F2T, "t"))))
        assert class_trivial(s) is False
        s2 = SymbolSum(1, (symbol(el(F2T, "t")),))
        assert class_trivial(s2) is True


class TestSimplify:
    def test_cancel_pairs(self):
        s = sym2(F2T, "1", "t") + sym2(F2T, "1", "t")
        assert simplify(s).is_empty()

    def test_merge_coefficients(self):
        s = sym2(F2T, "1", "t") + sym2(F2T, "1+t^3", "t")
        out = simplify(s)
        # coefficients add to t^3 + wp-trivial tail; t^3 reduces to 1 mod wp?
        # either way the result is at most one symbol
        assert len(out.symbols) <= 1

    def test_slot_merge(self):
        s = sym2(F2TT, "1", "t1") + sym2(F2TT, "1", "t2")
        out = simplify(s)
        assert len(out.symbols) == 1
        assert out.symbols[0].slots == (el(F2TT, "t1*t2"),)


class TestSymbolLength:
    def test_trivial_class(self):
        s = sym2(F2T, "t", "t")
        r = symbol_length(s)
        assert r.value == 0 and r.exact

    def test_single_top_symbol(self):
        s = SymbolSum(3, (symbol(el(F2TT, "1"), el(F2TT, "t1"), el(F2TT, "t2")),))
        r = symbol_length(s)
        assert r.value == 1 and r.exact

    def test_two_symbol_class_bounded(self):
        s = sym2(F2TT, "1", "t1") + sym2(F2TT, "t1", "t2")
        r = symbol_length(s, budget=300)
        assert r.value <= 2

    def test_degree_two_bound_over_m2(self):
        rng = random.Random(41)
        pool = ["1", "t1", "t2", "1+t1", "t1*t2"]
        for _ in range(10):
            syms = tuple(
                symbol(el(F2TT, rng.choice(pool)), el(F2TT, rng.choice(pool[1:])))
                for _ in range(2)
            )
            r = symbol_length(SymbolSum(2, syms), budget=200)
            assert r.value <= 2


class TestSymbolGrammar:
    @pytest.mark.parametrize("text", [
        "1 d(t)/t",
        "(1+t) d(t)/t",
        "t1 d(t1)/t1 ^ d(t2)/t2",
        "1 d(t1)/t1 + t2 d(t2)/t2",
        "1+t",
    ])
    def test_roundtrip(self, text):
        tw = F2TT if "t1" in text or "t2" in text else F2T
        s = parse_symbol_sum(tw, text)
        printed = format_symbol_sum(s)
        again = parse_symbol_sum(tw, printed)
        assert format_symbol_sum(again) == printed


# -- the exact reduction against references that do not use it --------------------
#
# Top degree: over F = F_q((t_1))...((t_m)) the degree-(m+1) group is Z/2,
# read off as the trace of the iterated residue of the form's coefficient
# (at m = 1 this is Schmid's residue trace).  Lower degrees: adding a
# trivial sum (wp(y) dlog b..., and the exact y dlog y ^ dlog b...) with
# poles must not move a verdict, and a trivial class stays trivial after a
# cup product into the top degree.

F4T = tower(2, ("t",))
F8T = tower(3, ("t",))
F2TTT = tower(1, ("t1", "t2", "t3"))
REDUCTION_TOWERS = {"F2((t))": F2T, "F4((t))": F4T, "F8((t))": F8T,
                    "F2((t1))((t2))": F2TT, "F2((t1))((t2))((t3))": F2TTT}


def laurent_coefficient(x, level, e):
    """The coefficient of t_level^e in x, by power-series division."""
    tw = x.tower
    if x.is_zero() or x.level < level:
        return x if e == 0 else tw.zero()
    v = x.valuation(level)
    if e < v:
        return tw.zero()
    unit = x * tw.monomial(level, -v)
    if unit.level < level:
        return unit if e == v else tw.zero()
    num, den = unit.coefficients()
    low = next(i for i, c in enumerate(den) if not c.is_zero())
    num, den = num[low:], den[low:]    # den[0] is 1 in canonical form
    out = []
    for i in range(e - v + 1):
        c = num[i] if i < len(num) else tw.zero()
        for j in range(1, min(i, len(den) - 1) + 1):
            c = c + den[j] * out[i - j]
        out.append(c)
    return out[-1]


def base_trace(x):
    acc, y = x.tower.zero(), x
    for _ in range(x.tower.k):
        acc, y = acc + y, y * y
    return acc.is_one()


def top_residue_trace(s):
    """Tr(res_{t_1} ... res_{t_m} of the dt_1 ^ ... ^ dt_m coefficient) of a
    degree-(m+1) sum; the coefficient is a * det(d b_i / b_i dt_j)."""
    tw = s.symbols[0].coefficient.tower
    m = tw.height
    total = tw.zero()
    for sym in s.symbols:
        rows = [[b.derivative(j) / b for j in range(1, m + 1)] for b in sym.slots]
        for perm in permutations(range(m)):
            term = sym.coefficient
            for i, j in enumerate(perm):
                term = term * rows[i][j]
            # the residue is additive: take it termwise, so that no sum of
            # fractions is formed at the top level
            for level in range(m, 0, -1):
                term = laurent_coefficient(term, level, -1)
            total = total + term
    return base_trace(total)


def tame_recursion(s):
    """The residue recursion on tame sums alone: None on a wild sum."""
    s = simplify(s)
    if not s.symbols or s.degree == 1:
        return class_trivial(s)
    level = max(max(x.coefficient.level, *(b.level for b in x.slots)) for x in s.symbols)
    if level == 0:
        return True
    try:
        unram, ram = symbol_residue(s, level)
    except WildSymbol:
        return None
    parts = (tame_recursion(unram), tame_recursion(ram))
    if False in parts:
        return False
    return None if None in parts else True


def monomial(tw, rng, low, high):
    x = tw.base_element(rng.randrange(1, tw.order))
    for level in range(1, tw.height + 1):
        x = x * tw.monomial(level, rng.randrange(low, high + 1))
    return x


def wild_element(tw, rng, pole):
    """A nonzero sum of one or two monomials, poles down to -pole."""
    x = monomial(tw, rng, -pole, 1)
    y = x + monomial(tw, rng, -pole, 1) if rng.random() < 0.5 else x
    return y if not y.is_zero() else x


def slot(tw, rng, unit_share):
    b = monomial(tw, rng, 0, 1)
    if rng.random() < unit_share:
        u = tw.one() + monomial(tw, rng, -1, 2)
        if not u.is_zero():
            b = b * u
    return b


def random_sum(tw, rng, degree, count, pole=4):
    share = 0.5 if tw.height < 3 else 0.25
    return SymbolSum(degree, tuple(
        symbol(wild_element(tw, rng, pole), *(slot(tw, rng, share) for _ in range(degree - 1)))
        for _ in range(count)))


def trivial_sum(tw, rng, degree):
    """wp(y) dlog b..., plus y dlog y ^ dlog b... = d(y dlog b...) when the
    degree allows; y has poles, so the sum is wild."""
    share = 0.5 if tw.height < 3 else 0.25
    y = wild_element(tw, rng, 2)
    out = symbol(y * y + y, *(slot(tw, rng, share) for _ in range(degree - 1)))
    if degree < 2:
        return SymbolSum(degree, (out,))
    z = wild_element(tw, rng, 3)
    return SymbolSum(degree, (out, symbol(z, z, *(slot(tw, rng, share) for _ in range(degree - 2)))))


def tame_sum(tw, rng, degree):
    """Coefficients without poles and slots t_j * unit: tame at every level."""
    return SymbolSum(degree, tuple(
        symbol(monomial(tw, rng, 0, 1) + tw.base_element(rng.randrange(tw.order)),
               *(slot(tw, rng, 0.5) for _ in range(degree - 1)))
        for _ in range(1 + rng.randrange(2))))


def cup_pool(tw, reach=3):
    """Slots for a cup product into the top degree: the t_i, and c + m for
    base units c and monomials m with exponents in -reach..reach."""
    out = [tw.gen(i) for i in range(1, tw.height + 1)]
    for es in product(range(-reach, reach + 1), repeat=tw.height):
        if any(es):
            x = tw.one()
            for level, e in enumerate(es, 1):
                x = x * tw.monomial(level, e)
            out += [tw.base_element(c) + x for c in range(1, tw.order)]
    return out


def cup(s, slots):
    return SymbolSum(s.degree + len(slots), tuple(
        symbol(x.coefficient, *x.slots, *slots) for x in s.symbols))


REDUCTION_CASES = [(name, n) for name, tw in REDUCTION_TOWERS.items()
                   for n in range(1, tw.height + 2)]


@pytest.mark.parametrize("name,degree", REDUCTION_CASES)
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reduction_agrees_with_references(name, degree, seed):
    tw = REDUCTION_TOWERS[name]
    m = tw.height
    rng = random.Random(seed)
    x = random_sum(tw, rng, degree, 1 + rng.randrange(2 if m == 3 else 3))
    if rng.random() < 0.5:
        x = x + tame_sum(tw, rng, degree)
    verdict = class_trivial(x)
    assert verdict is True or verdict is False
    # a trivial wild sum moves no verdict, the tame recursion's included
    w = trivial_sum(tw, rng, degree)
    assert class_trivial(x + w) is verdict
    assert tame_recursion(x) in (None, verdict)
    t = tame_sum(tw, rng, degree)
    assert class_trivial(t + w) is tame_recursion(t)
    if degree == m + 1:
        assert verdict is not top_residue_trace(x)
    elif degree == m < 3:
        # a trivial class stays trivial after a cup product into the top degree
        assert not (verdict and any(top_residue_trace(cup(x, (b,))) for b in cup_pool(tw)))
    if len(x.symbols) == 1 and degree >= 2 and not verdict:
        pfister = symbol_to_pfister(simplify(x).symbols[0]).expand()
        assert not brute_search(pfister, 20000).is_isotropic


def test_nontrivial_classes_pair_nontrivially():
    # duality: a nontrivial degree-2 class over F2((t1))((t2)) has a slot b
    # with a nontrivial cup product in degree 3; with poles down to -4 a
    # slot 1 + m, m a monomial of exponents in -5..5, is found for each
    rng = random.Random(11)
    pool = cup_pool(F2TT, 5)
    verdicts = []
    for _ in range(30):
        x = random_sum(F2TT, rng, 2, 1 + rng.randrange(3))
        if rng.random() < 0.5:
            x = x + tame_sum(F2TT, rng, 2)
        verdict = class_trivial(x)
        assert verdict is not any(top_residue_trace(cup(x, (b,))) for b in pool), str(x)
        verdicts.append(verdict)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 3


# -- the decision path against the simplifying one ----------------------------------
#
# `class_trivial` recurses on raw residue parts with reduced coefficients and
# never canonicalizes a sum.  The reference simplifies first and recurses
# through the public `symbol_residue`; the two must agree on every sum.

LEAN_TOWERS = {**REDUCTION_TOWERS, "F4((t1))((t2))": tower(2, ("t1", "t2"))}


def simplified_recursion(s):
    """class_trivial through `simplify` and `symbol_residue` at every level."""
    s = simplify(s)
    if not s.symbols:
        return True
    tw = s.symbols[0].coefficient.tower
    if s.degree == 1:
        return wp_reduce(sum((x.coefficient for x in s.symbols), tw.zero())).is_in_wp
    level = max(max(x.coefficient.level, *(b.level for b in x.slots)) for x in s.symbols)
    if level == 0:
        return True
    try:
        unram, ram = symbol_residue(s, level)
    except WildSymbol:
        tame = _lower_poles(s, level)
        if tame is None:
            return False
        unram, ram = symbol_residue(tame, level)
    return simplified_recursion(unram) and simplified_recursion(ram)


@pytest.fixture(scope="module")
def lean_path_corpus():
    """Seeded sums x, x + w (w trivial) and u + w (u tame) over six towers,
    in every degree from 1 to height + 1."""
    out = []
    for i, tw in enumerate(LEAN_TOWERS.values()):
        for degree in range(1, tw.height + 2):
            rng = random.Random(100 * i + degree)
            for _ in range(11):
                x = random_sum(tw, rng, degree, 1 + rng.randrange(2 if tw.height == 3 else 3))
                if rng.random() < 0.5:
                    x = x + tame_sum(tw, rng, degree)
                w = trivial_sum(tw, rng, degree)
                out += [x, x + w, tame_sum(tw, rng, degree) + w]
    return out


def test_decision_agrees_with_the_simplifying_recursion(lean_path_corpus):
    verdicts = []
    for s in lean_path_corpus:
        verdict = class_trivial(s)
        assert verdict is simplified_recursion(s), str(s)
        verdicts.append(verdict)
    assert len(verdicts) == 528
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_decision_never_canonicalizes(lean_path_corpus, monkeypatch):
    # simplify is for display; a verdict needs none of it
    for name in ("simplify", "_normalize_symbol"):
        monkeypatch.setattr(cohomology, name, lambda *a, name=name: pytest.fail(f"{name} in class_trivial"))
    for s in lean_path_corpus:
        class_trivial(s)


def test_tame_decisions_build_no_symbols(lean_path_corpus, monkeypatch):
    # below its entry the recursion runs on plain (coefficient, slots) terms;
    # only the wild path, through `_lower_poles`, builds symbol sums
    built, wild = [], []
    lower = cohomology._lower_poles
    monkeypatch.setattr(cohomology, "_lower_poles", lambda s, level: wild.append(s) or lower(s, level))
    for cls in (cohomology.Symbol, cohomology.SymbolSum):
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
    tame = 0
    for s in lean_path_corpus:
        del built[:], wild[:]
        class_trivial(s)
        if not wild:
            tame += 1
            assert built == [], str(s)
    assert tame >= 200


def perfbench_style_wild_forms(tw, rng, poles, tame, count):
    """Forms sum_i b_i [1, a_i] as perfbench's wild workload draws them:
    a_i = unit / t^pole for the first `poles` pairs (pole in 1..low),
    b_i = t^e * unit with e in {0, 1}, units random fractions."""
    t = tw.gen(1)
    low = 5 if tw.k == 1 else 3

    def poly(degree):
        out = tw.base_element(rng.randrange(1, tw.order))
        for i in range(1, degree + 1):
            out = out + tw.base_element(rng.randrange(1 if i == degree else 0, tw.order)) * t ** i
        return out

    def unit():
        return poly(rng.randrange(4)) / poly(rng.randrange(3))

    return [QuadraticForm(tw, tuple(
        (unit() * t ** rng.randrange(2), unit() / t ** (rng.randrange(1, low + 1) if j < poles else 0))
        for j in range(poles + tame))) for _ in range(count)]


def test_schmid_residue_trace_on_wild_clifford_classes():
    # at height 1 the class of sum a_i db_i/b_i is Tr(res(sum a_i db_i/b_i)),
    # read here from the pairs themselves, not from the simplified class
    rng = random.Random(0)
    cells = [(F2T, 1, 0), (F2T, 1, 1), (F2T, 2, 0), (F4T, 1, 0)]
    seen = set()
    for tw, poles, tame in cells:
        for f in perfbench_style_wild_forms(tw, rng, poles, tame, 60):
            raw = SymbolSum(2, tuple(symbol(a, b) for b, a in f.pairs))
            got = class_trivial(clifford(f))
            assert got is not top_residue_trace(raw), str(f)
            seen.add(got)
    assert seen == {True, False}


class TestWildClasses:
    def test_odd_pole_on_a_lower_slot(self):
        # <<t1, 1/t3]]: the leading part t3^-1 dlog t1 is its own eta != 0
        tw = F2TTT
        assert class_trivial(SymbolSum(2, (symbol(el(tw, "1/t3"), el(tw, "t1")),))) is False

    def test_exact_form_needs_the_dc_rewrite(self):
        # z dlog z = dz for z = t1/t2: eta = t1 dlog t1 + d(t1) = 0
        z = el(F2TT, "t1/t2")
        assert class_trivial(SymbolSum(2, (symbol(z, z),))) is True
        assert class_trivial(SymbolSum(3, (symbol(z, z, el(F2TT, "1+t1")),))) is True

    def test_leading_part_not_closed(self):
        # [t1/t2^2, t2): y^2 + y = t1/t2^2 gives a residue extension
        # k(sqrt t1) with no ramification, so every norm has even valuation
        # and t2 is no norm
        s = SymbolSum(2, (symbol(el(F2TT, "t1/t2^2"), el(F2TT, "t2")),))
        assert class_trivial(s) is False

    def test_closed_even_part_halves(self):
        # t^-4 dlog t is C^-1(t^-2 dlog t), then t^-1 dlog t = d(t^-1)
        assert class_trivial(sym2(F2T, "1/t^4", "t")) is True
        assert class_trivial(sym2(F2T, "1/t^4", "t") + sym2(F2T, "1", "t")) is False
