"""Tower arithmetic, valuations, squares and Artin-Schreier reduction."""

import hashlib
import pickle
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from qchar2.errors import LevelError, NegativeValuation, ZeroInput
from qchar2.fields import (
    DEFAULT_WP_PRECISION, WpNormalForm, _PackedRing, _TupleRing, clearing_scale, t_power_shift,
    tower, wp, wp_reduce,
)
from qchar2.parsing import format_element, parse_element, parse_field

F2 = tower(1)
F4 = tower(2)
F2T = tower(1, ("t",))
F2TT = tower(1, ("t1", "t2"))


def el(tw, text):
    return parse_element(tw, text)


class TestBaseField:
    def test_char_two(self):
        one = F2.one()
        assert (one + one).is_zero()

    def test_f4_tables(self):
        z = F4.base_element(2)
        assert z * z == z + F4.one()          # z^2 = z + 1
        assert (z ** 3).is_one()
        assert z.inverse() * z == F4.one()

    def test_every_f4_element_is_square(self):
        for bits in range(4):
            x = F4.base_element(bits)
            r = x.sqrt()
            assert r is not None and r * r == x

    def test_trace_one_element(self):
        assert F2.trace_one_element().is_one()
        z = F4.trace_one_element()
        assert z == F4.base_element(2)


class TestTowerInterning:
    def test_one_instance_per_field(self):
        assert tower(2) is parse_field("F4")
        assert tower(1) is tower(1, ())
        assert tower(1, variable_names=("t",)) is tower(1, ("t",))
        assert parse_field("F2((t1))((t2))") is F2TT

    def test_pickled_element_mixes_with_parsed_ones(self):
        x = el(F2TT, "(1+t1)/(t1*t2^2) + t2")
        back = pickle.loads(pickle.dumps(x))
        assert back.tower is F2TT
        assert back == x and hash(back) == hash(x)
        assert back + el(F2TT, "t2") == el(F2TT, "(1+t1)/(t1*t2^2)")


class TestFractionArithmetic:
    def test_inverse_axiom(self):
        x = el(F2T, "1+t")
        assert (x.inverse() * x).is_one()

    def test_t_times_inverse(self):
        t = F2T.gen(1)
        assert (t * (F2T.one() / t)).is_one()

    def test_canonical_equality(self):
        a = el(F2T, "(1+t)/(t^2+t^3)")
        b = el(F2T, "(1)/(t^2)")
        assert a == b                          # (1+t)/(t^2(1+t))
        assert hash(a) == hash(b)

    def test_level_collapse(self):
        x = el(F2TT, "(t1*t2)/(t2)")
        assert x.level == 1
        assert x == F2TT.gen(1)

    def test_field_axioms_random(self):
        rng = random.Random(7)
        pool = [el(F2TT, s) for s in
                ["1", "t1", "t2", "1+t1", "t1*t2", "1/(1+t2)", "t1/(t2^2)", "1+t1+t2"]]
        for _ in range(60):
            x, y, zz = (rng.choice(pool) for _ in range(3))
            assert x * (y + zz) == x * y + x * zz
            assert (x + y) + zz == x + (y + zz)
            if not x.is_zero():
                assert (x * x.inverse()).is_one()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F2T.zero().inverse()

    def test_pow(self):
        t = F2T.gen(1)
        assert t ** -2 == F2T.one() / (t * t)

    def test_int_coercion(self):
        assert F2T.gen(1) + 0 == F2T.gen(1)
        assert F2.one() == 1


class TestValuationResidue:
    def test_valuation_examples(self):
        assert el(F2T, "t^2+t^3").valuation(1) == 2
        assert el(F2T, "1/t").valuation(1) == -1
        assert el(F2T, "1+t").valuation(1) == 0

    def test_valuation_multiplicative(self):
        rng = random.Random(11)
        pool = [el(F2T, s) for s in ["t", "1+t", "t^3/(1+t)", "1/t^2", "1+t^2"]]
        for _ in range(40):
            x, y = rng.choice(pool), rng.choice(pool)
            assert (x * y).valuation(1) == x.valuation(1) + y.valuation(1)

    def test_valuation_of_zero(self):
        with pytest.raises(ZeroInput):
            F2T.zero().valuation(1)

    def test_residue_examples(self):
        assert el(F2T, "1+t").residue(1).is_one()
        assert el(F2T, "t/(1+t)").residue(1).is_zero()
        x = el(F2TT, "t1+t2")
        assert x.residue(2) == F2TT.gen(1)

    def test_residue_pole(self):
        with pytest.raises(NegativeValuation):
            el(F2T, "1/t").residue(1)

    def test_lower_level_is_unit(self):
        x = el(F2TT, "1+t1")
        assert x.valuation(2) == 0
        assert x.residue(2) == x

    def test_level_mismatch(self):
        x = el(F2TT, "1/(t1+t2)")
        with pytest.raises(LevelError):
            x.valuation(1)


class TestSquares:
    def test_t_squared(self):
        t = F2T.gen(1)
        assert (t * t).sqrt() == t

    def test_one_plus_t_not_square_by_search(self):
        # independent oracle: no truncated-series square root up to degree 8
        target = el(F2T, "1+t")
        for bits in range(1, 1 << 9):
            cand = sum(
                (F2T.monomial(1, i) for i in range(9) if bits >> i & 1),
                F2T.zero(),
            )
            assert cand * cand != target
        assert not target.is_square()

    def test_product_of_squares(self):
        rng = random.Random(3)
        pool = [el(F2TT, s) for s in ["t1", "1+t2", "t1*t2", "1+t1+t2", "1/t1"]]
        for _ in range(30):
            x, y = rng.choice(pool), rng.choice(pool)
            sq = (x * x) * (y * y)
            r = sq.sqrt()
            assert r is not None and r * r == sq

    def test_negative_valuation_square(self):
        x = el(F2T, "1/t^2")
        assert x.sqrt() == el(F2T, "1/t")


class TestWpReduce:
    def test_base_field(self):
        r0 = wp_reduce(F2.zero())
        assert r0.is_in_wp and r0.reduced.is_zero()
        r1 = wp_reduce(F2.one())
        assert not r1.is_in_wp and r1.reduced.is_one()

    def test_t_is_in_wp_with_series_witness(self):
        # oracle first: y = t + t^2 + t^4 + t^8 + t^16 solves y^2+y = t mod t^17
        y = sum((F2T.monomial(1, 2 ** i) for i in range(5)), F2T.zero())
        diff = wp(y) + F2T.gen(1)
        assert diff.is_zero() or diff.valuation(1) >= 16
        r = wp_reduce(F2T.gen(1))
        assert r.is_in_wp and not r.correction_exact
        assert r.correction == y

    def test_one_over_t_not_in_wp(self):
        # bounded search: no rational y of small height with wp(y) = 1/t
        target = el(F2T, "1/t")
        small = ["0", "1", "t", "1+t", "1/t", "(1+t)/t", "1/(1+t)", "t/(1+t)",
                 "1/t^2", "(1+t)/t^2", "t^2", "(1+t^2)/t", "(1+t+t^2)/t"]
        for s in small:
            assert wp(el(F2T, s)) != target
        r = wp_reduce(target)
        assert not r.is_in_wp
        assert r.reduced == target

    def test_even_pole_reduces(self):
        # 1/t^2 == wp(1/t) + 1/t, so the class is that of 1/t
        r = wp_reduce(el(F2T, "1/t^2"))
        assert not r.is_in_wp
        assert r.reduced == el(F2T, "1/t")
        assert r.correction_exact
        assert r.check(el(F2T, "1/t^2"))

    def test_additivity_on_members(self):
        rng = random.Random(5)
        members = [el(F2T, "t"), el(F2T, "t^2"), el(F2T, "t/(1+t)"),
                   wp(el(F2T, "1/t")), wp(el(F2T, "1+t"))]
        for _ in range(20):
            x, y = rng.choice(members), rng.choice(members)
            assert wp_reduce(x).is_in_wp
            assert wp_reduce(x + y).is_in_wp

    def test_residual_valuation_increases(self):
        x = el(F2T, "t/(1+t)")
        r = wp_reduce(x)
        rest = x + wp(r.correction)
        assert rest.is_zero() or rest.valuation(1) > DEFAULT_WP_PRECISION

    def test_two_level_reduction(self):
        x = el(F2TT, "t1 + t2")
        r = wp_reduce(x)
        # t2-part is a 1-unit tail (in wp), t1-part reduces at level 1
        assert r.is_in_wp

    def test_wild_two_level(self):
        x = el(F2TT, "1/t1")
        r = wp_reduce(x)
        assert not r.is_in_wp and r.reduced == x


class TestDlog:
    def test_single_variable(self):
        coords = F2TT.gen(1).dlog_coords()
        assert coords[0] == el(F2TT, "1/t1")
        assert coords[1].is_zero()

    def test_product_rule(self):
        x = el(F2TT, "t1*t2")
        coords = x.dlog_coords()
        assert coords[0] == el(F2TT, "1/t1")
        assert coords[1] == el(F2TT, "1/t2")

    def test_square_kills_dlog(self):
        t = F2T.gen(1)
        coords = (t * t).dlog_coords()
        assert coords[0].is_zero()

    def test_additivity(self):
        rng = random.Random(13)
        pool = [el(F2TT, s) for s in ["t1", "t2", "1+t1", "t1/(1+t2)", "t1^2*t2"]]
        for _ in range(25):
            b, c = rng.choice(pool), rng.choice(pool)
            left = (b * c).dlog_coords()
            right = tuple(x + y for x, y in zip(b.dlog_coords(), c.dlog_coords()))
            assert left == right


class TestFormatting:
    @pytest.mark.parametrize("text", [
        "0", "1", "t", "1+t", "(1+t)/t^2", "1/(1+t+t^3)", "t^4+t^2+1",
    ])
    def test_roundtrip_f2t(self, text):
        x = el(F2T, text)
        assert parse_element(F2T, format_element(x)) == x

    @pytest.mark.parametrize("text", [
        "t1*t2", "(1+t1)/(t2)", "1/(t1^2*t2^2)", "t2+t1+1", "(1+t1)*t2^2+t1",
    ])
    def test_roundtrip_two_levels(self, text):
        x = el(F2TT, text)
        assert parse_element(F2TT, format_element(x)) == x

    def test_roundtrip_f4(self):
        x = parse_element(F4, "z+1")
        assert parse_element(F4, format_element(x)) == x


# -- the packed level-1 ring against the coefficient-tuple reference ----------------
#
# Level 1 is packed for every k; `_TupleRing(tw, 1)` keeps the generic
# coefficient-tuple algorithms, so each packed result must match it.

PACKED_TOWERS = {k: tower(k, ("t",)) for k in (1, 2, 3, 8)}


def _packed_and_tuple(tw, cs):
    """One polynomial, given by its base-field coefficient masks, in both
    formats: the packed int and the normalized element tuple."""
    ring = tw._rings[1]
    packed = 0
    for i, c in enumerate(cs):
        packed = ring.add(packed, ring.mul(ring.lift(tw.base_element(c)), ring.monomial(i)))
    return packed, _TupleRing._norm(tuple(tw.base_element(c) for c in cs))


def _poly_pairs(k):
    coeff = st.integers(0, (1 << k) - 1)
    poly = st.lists(coeff, min_size=1, max_size=7)
    return st.tuples(poly, poly)


def _element_parts(x):
    """num and den of a tuple-ring element as coefficient tuples."""
    if x.level == 0:
        return (x,), (x.tower.one(),)
    return x.num, x.den


@pytest.mark.parametrize("k", [2, 3, 8])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_ring_matches_tuple_ring(k, data):
    tw = PACKED_TOWERS[k]
    ring, ref = tw._rings[1], _TupleRing(tw, 1)
    cs_a, cs_b = data.draw(_poly_pairs(k))
    a, ta = _packed_and_tuple(tw, cs_a)
    b, tb = _packed_and_tuple(tw, cs_b)
    assert ring.coeffs(a) == ta
    assert ring.coeffs(ring.mul(a, b)) == ref.mul(ta, tb)
    assert ring.coeffs(ring.derive(a)) == ref.derive(ta)
    for p, tp in ((a, ta), (ring.mul(a, a), ref.mul(ta, ta))):
        root = ring.sqrt(p)
        want = ref.sqrt(tp)
        assert (root is None) == (want is None)
        if root is not None:
            assert ring.coeffs(root) == _TupleRing._norm(want)
    if not ta or not tb:
        return
    assert ring.val(a) == ref.val(ta)
    got, want = ring.fraction(a, b), ref.fraction(ta, tb)
    assert got.level == want.level
    if got.level == 0:
        assert got == want
    else:
        assert got.coefficients() == _element_parts(want)
    assert got.inverse() * got == tw.one()


@pytest.mark.parametrize("k", [2, 3])
def test_packed_ring_beyond_its_first_masks(k):
    # a fresh ring's masks cover 66 slots; t^67 makes them grow first, and
    # every later polynomial fits in the grown masks, which must still mark
    # the right slots
    tw = PACKED_TOWERS[k]
    ring, ref = _PackedRing(tw), _TupleRing(tw, 1)
    t67 = ring.mul(ring.monomial(34), ring.monomial(33))
    assert ring.coeffs(t67) == ref.monomial(67)
    rng = random.Random(k)
    p33, _ = _packed_and_tuple(tw, [rng.randrange(1 << k) for _ in range(33)] + [1])
    z66 = ring.mul(ring.lift(tw.base_element(2)), ring.monomial(66))
    den, tden = _packed_and_tuple(tw, [1, 2, 0, 1])
    for p in (t67, ring.add(t67, z66), ring.mul(p33, p33)):
        tp = ring.coeffs(p)
        assert ring.coeffs(ring.derive(p)) == ref.derive(tp)
        root, want = ring.sqrt(p), ref.sqrt(tp)
        assert (root is None) == (want is None)
        if root is not None:
            assert ring.coeffs(root) == _TupleRing._norm(want)
        for (a, ta), (b, tb) in (((p, tp), (den, tden)), ((den, tden), (p, tp))):
            assert ring.fraction(a, b).coefficients() == _element_parts(ref.fraction(ta, tb))
    assert ring.sqrt(ring.mul(p33, p33)) == p33


def test_inverse_skips_the_gcd(monkeypatch):
    # a canonical fraction is already coprime: inverting only rescales
    for k in (1, 2):
        tw = PACKED_TOWERS[k]
        x = el(tw, "(t^3+t+1)/(t^2+1)" if k == 1 else "(z*t^3+t+z)/(t^2+z)")
        ring = tw._rings[1]
        want = ring.fraction(x.den, x.num)
        monkeypatch.setattr(ring, "_divmod", lambda *a: pytest.fail("gcd in inverse"))
        assert x.inverse() == want
        monkeypatch.undo()


# -- mixed-level shortcuts and the shared level-0 constants ----------------------------
#
# For a canonical n/d at level j and a constant c below it, x*c and x + c
# skip the gcd of the fraction path; each must equal what the
# cross-multiplied fraction with its gcd gives.

MIXED_TOWERS = [
    tower(1, ("t",)), tower(2, ("t",)), tower(1, ("t1", "t2")), tower(2, ("t1", "t2")),
    tower(1, ("t1", "t2", "t3")),
]


def _laurent(tw, top, max_terms):
    """A sum of up to `max_terms` base-field multiples of Laurent monomials
    in t_1..t_top; may be zero or lie below t_top."""
    term = st.tuples(
        st.integers(0, tw.order - 1),
        st.lists(st.integers(-2, 2), min_size=top, max_size=top),
    )

    def build(terms):
        x = tw.zero()
        for c, exponents in terms:
            y = tw.base_element(c)
            for level, e in enumerate(exponents, 1):
                y = y * tw.monomial(level, e)
            x = x + y
        return x

    return st.builds(build, st.lists(term, min_size=1, max_size=max_terms))


def _at_level(tw, level, max_terms):
    """A quotient of two such sums, over 1 + t_level half the time, that
    lies exactly at `level`."""
    one_plus_t = tw.one() + tw.gen(level)
    return st.builds(
        lambda num, den, over: num / den / one_plus_t if over else num / den,
        _laurent(tw, level, max_terms), _laurent(tw, level, max_terms).filter(bool), st.booleans(),
    ).filter(lambda x: x.level == level)


def _generic(x, c, op):
    """x + c or x * c through the cross-multiplied fraction and its gcd."""
    ring = x.tower._rings[x.level]
    n, d = ring.polynomial(c), ring.one
    num = ring.add(ring.mul(x.num, d), ring.mul(n, x.den)) if op == "+" else ring.mul(x.num, n)
    return ring.fraction(num, ring.mul(x.den, d))


def _parts(x):
    return x.level, x.bits, x.num, x.den


@pytest.mark.parametrize("tw", MIXED_TOWERS, ids=lambda tw: tw.descriptor())
@seed(20170)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mixed_level_shortcuts_match_the_fraction_path(tw, data):
    # level-3 sums of several terms take seconds each, so there every
    # scalar is one term
    level = data.draw(st.integers(1, tw.height))
    terms = 1 if level == 3 else 2
    x = data.draw(_at_level(tw, level, terms))
    for low in range(level):
        c = data.draw(st.one_of(st.sampled_from([tw.zero(), tw.one()]), _laurent(tw, low, terms)))
        assert c.level < level
        add, mul = _parts(_generic(x, c, "+")), _parts(_generic(x, c, "*"))
        assert _parts(x + c) == _parts(c + x) == add, (str(x), str(c))
        assert _parts(x * c) == _parts(c * x) == mul, (str(x), str(c))
        if c.is_zero():
            assert x + c is x and c + x is x


def test_mixed_level_operations_skip_the_gcd(monkeypatch):
    # c*n/d and (n + c*d)/d are coprime when n/d is, so only the unit
    # rescaling is left
    x = el(F2TT, "(t1*t2^2+t2+1)/(t2^2+t1*t2+1)")
    c = el(F2TT, "(1+t1)/t1")
    ring = F2TT._rings[2]
    product, total = _generic(x, c, "*"), _generic(x, c, "+")
    for name in ("_divmod", "_gcd"):
        monkeypatch.setattr(ring, name, lambda *a: pytest.fail("gcd in a mixed-level operation"))
    assert x * c == product and c * x == product
    assert x + c == total and c + x == total
    monkeypatch.undo()
    tw = PACKED_TOWERS[2]
    x, c = el(tw, "(z*t^3+t+z)/(t^2+z)"), tw.base_element(3)
    ring = tw._rings[1]
    product = _generic(x, c, "*")
    monkeypatch.setattr(ring, "_divmod", lambda *a: pytest.fail("gcd in a mixed-level product"))
    assert x * c == product and c * x == product


# -- t-power shifts -----------------------------------------------------------------
#
# x * t_j^e for a canonical n/d at level j cancels only the common t-power;
# it must give what the product with the monomial gives, at every level.

SHIFT_TOWERS = [
    tower(1, ("t",)), tower(2, ("t",)), tower(3, ("t",)), tower(1, ("t1", "t2")),
    tower(2, ("t1", "t2")), tower(1, ("t1", "t2", "t3")),
]


@pytest.mark.parametrize("tw", SHIFT_TOWERS, ids=lambda tw: tw.descriptor())
@seed(20260)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_t_power_shift_matches_the_monomial_product(tw, data):
    # at height 3 the elements stay small: one term over one term
    own = data.draw(st.integers(1, tw.height))
    x = data.draw(_at_level(tw, own, 1 if tw.height == 3 else 2))
    assert t_power_shift(x, own, 0) is x
    for level in range(1, tw.height + 1):
        e = data.draw(st.integers(-5, 5))
        got, want = t_power_shift(x, level, e), x * tw.monomial(level, e)
        assert got == want and hash(got) == hash(want) and str(got) == str(want), (str(x), level, e)
        assert _parts(got) == _parts(want)


def test_t_power_shift_skips_the_gcd(monkeypatch):
    # only the t-power common to n*t^e and d can cancel; a constant
    # quotient still collapses to the shared constant
    for tw, text, level, e, want in [
        (F2TT, "(t1*t2^2+t2+1)/(t2^3+t1*t2^2)", 2, 3, "(t1*t2^3+t2^2+t2)/(t2+t1)"),
        (F2TT, "(t1*t2^2+t2^3)/(t2+1)", 2, -2, "(t2+t1)/(t2+1)"),
        (PACKED_TOWERS[2], "(z*t^3+t)/(t^2+z)", 1, -1, "(z*t^2+1)/(t^2+z)"),
        (PACKED_TOWERS[1], "t^3", 1, -3, "1"),
    ]:
        x, ring = el(tw, text), tw._rings[level]
        for name in ("_divmod", "_gcd"):
            if hasattr(ring, name):
                monkeypatch.setattr(ring, name, lambda *a: pytest.fail("gcd in a t-power shift"))
        got = t_power_shift(x, level, e)
        monkeypatch.undo()
        assert got == el(tw, want) == x * tw.monomial(level, e)
    assert t_power_shift(el(F2T, "t^2"), 1, -2) is F2T.one()
    assert t_power_shift(F2T.zero(), 1, 4) is F2T.zero()


@pytest.mark.parametrize("tw", MIXED_TOWERS[:4], ids=lambda tw: tw.descriptor())
def test_level_zero_results_are_the_shared_constants(tw):
    assert tw.base_element(0) is tw.zero()
    assert tw.base_element(1) is tw.one()
    rng = random.Random(tw.k * 10 + tw.height)
    xs = [_digest_element(tw, rng) for _ in range(10)] + list(tw._constants)
    for _ in range(80):
        x, y = rng.choice(xs), rng.choice(xs)
        results = [x + y, x * y, x + x, x + (x + tw.one()), x.sqrt()]
        if not x.is_zero():
            results += [x.inverse(), x * x.inverse()]
        for r in results:
            if r is not None and r.level == 0:
                assert r is tw._constants[r.bits], (str(x), str(y), str(r))


@pytest.mark.parametrize("tw", MIXED_TOWERS[:4], ids=lambda tw: tw.descriptor())
def test_printed_form_is_kept_and_reparses(tw):
    rng = random.Random(tw.k * 10 + tw.height + 1)
    for _ in range(10):
        x = _digest_element(tw, rng)
        before = pickle.loads(pickle.dumps(x))
        text = str(x)
        assert text == format_element(x) and str(x) is text
        after = pickle.loads(pickle.dumps(x))
        for back in (before, after):
            assert str(back) == format_element(back) == text
        assert parse_element(tw, text) == x


# -- the clearing scale of the denominator-free searches ----------------------------


def _polynomial_at_every_level(x):
    """Whether x is a polynomial in its own variable whose coefficients are
    polynomials too, down to the base field."""
    if x.level == 0:
        return True
    num, den = x.coefficients()
    return den == (x.tower.one(),) and all(_polynomial_at_every_level(c) for c in num)


CLEARING_TOWERS = [tower(2), tower(1, ("t",)), tower(2, ("t",)), tower(1, ("t1", "t2")), tower(2, ("t1", "t2"))]


@pytest.mark.parametrize("tw", CLEARING_TOWERS, ids=lambda tw: tw.descriptor())
def test_clearing_scale_leaves_no_denominator(tw):
    rng = random.Random(tw.k * 10 + tw.height)
    for _ in range(12):
        xs = [_digest_element(tw, rng) for _ in range(rng.randrange(0, 5))]
        if tw.height == 2:
            # a level-2 element whose level-1 coefficients are fractions
            t1, t2 = tw.gen(1), tw.gen(2)
            xs.append((t1 / (1 + t1) + t2 / (t1 * t1 + t1 + 1)) / (1 + t2 / t1))
        s = clearing_scale(tw, xs)
        assert not s.is_zero() and _polynomial_at_every_level(s)
        ring = tw.top_ring()
        for x in xs:
            y = s * x
            assert _polynomial_at_every_level(y)
            # the top ring's polynomial is y itself
            assert ring.element(ring.polynomial(y)) == y
    assert clearing_scale(tw, []) == tw.one()


# -- canonical forms, pinned ------------------------------------------------------
#
# Every printed value below is a canonical form, so a change to how elements
# are stored or reduced that alters any of them changes the digest.  The
# towers cover the packed level (F2((t))) and the coefficient-tuple levels
# over F_{2^k} for k = 1, 2, 3 and one or two variables.

DIGEST_TOWERS = [
    tower(1, ("t",)), tower(2, ("t",)), tower(3, ("t",)),
    tower(1, ("t1", "t2")), tower(2, ("t1", "t2")),
]
DIGEST_ELEMENTS = 8
CANONICAL_FORMS_SHA256 = "fae98c57f932c1a228620d4688aed6295709bd97ae36d11efa4a9a2068fb0d01"


def _digest_poly(tw, rng, terms):
    span = 3 - tw.height           # keep two-variable gcds small and fast
    out = tw.zero()
    for _ in range(terms):
        term = tw.base_element(rng.randrange(1, tw.order))
        for level in range(1, tw.height + 1):
            term = term * tw.monomial(level, rng.randrange(-span, span + 1))
        out = out + term
    return out


def _digest_element(tw, rng):
    """A fraction of small Laurent polynomials, sometimes squared or put
    through wp so that sqrt and wp membership also meet their yes-cases."""
    den = tw.zero()
    while den.is_zero():
        den = _digest_poly(tw, rng, rng.randrange(1, 3))
    x = _digest_poly(tw, rng, rng.randrange(0, 4)) / den
    kind = rng.randrange(4)
    if kind == 1:
        x = x * x
    elif kind == 2:
        x = wp(x)
    return x


def _unary_record(x):
    tw = x.tower
    fmt = format_element
    root = x.sqrt()
    out = [fmt(x), "sqrt=" + ("None" if root is None else fmt(root))]
    for level in range(1, tw.height + 1):
        out.append(f"d{level}=" + fmt(x.derivative(level)))
        if not x.is_zero() and x.level <= level:
            v = x.valuation(level)
            out.append(f"v{level}={v}")
            if v >= 0:
                out.append(f"r{level}=" + fmt(x.residue(level)))
    r = wp_reduce(x)
    out.append(f"wp={fmt(r.reduced)},{r.is_in_wp}")
    return " ".join(out)


def canonical_form_record():
    lines = []
    for i, tw in enumerate(DIGEST_TOWERS):
        rng = random.Random(1000 + i)
        xs = [_digest_element(tw, rng) for _ in range(DIGEST_ELEMENTS)]
        lines.append(tw.descriptor())
        lines.extend(_unary_record(x) for x in xs)
        for a in range(len(xs)):
            for b in range(a + 1, len(xs)):
                x, y = xs[a], xs[b]
                quo = "undefined" if y.is_zero() else format_element(x / y)
                lines.append(f"sum {_unary_record(x + y)}")
                lines.append(f"prod {_unary_record(x * y)}")
                lines.append(f"quo {quo}")
    return "\n".join(lines)


def test_canonical_forms_are_pinned():
    record = canonical_form_record()
    assert hashlib.sha256(record.encode()).hexdigest() == CANONICAL_FORMS_SHA256


# -- the Arf identity, generators and squareness ---------------------------------


@pytest.mark.parametrize("tw", DIGEST_TOWERS, ids=lambda tw: tw.descriptor())
def test_wp_check_tests_the_truncated_identity(tw):
    # a truncated series witness leaves x + reduced + wp(correction) with
    # no Laurent terms at t^1..t^P at its level, and its constant term the
    # same one level down; wp(t^3) = t^6 + t^3 breaks that
    rng = random.Random(2700 + 10 * tw.k + tw.height)
    bump = tw.monomial(tw.height, 3)
    inexact = 0
    for _ in range(30):
        x = _digest_element(tw, rng)
        r = wp_reduce(x)
        assert r.check(x), str(x)
        bad = WpNormalForm(r.reduced, r.is_in_wp, r.correction + bump, r.correction_exact)
        assert not bad.check(x), str(x)
        inexact += not r.correction_exact
    assert inexact >= 5


@pytest.mark.parametrize("tw", DIGEST_TOWERS + [tower(1, ("t1", "t2", "t3"))], ids=lambda tw: tw.descriptor())
def test_generators_are_shared(tw):
    for level in range(1, tw.height + 1):
        assert tw.gen(level) is tw.gen(level)
        assert tw.gen(level) == tw.monomial(level, 1)
    for level in (0, -1, tw.height + 1):
        with pytest.raises(LevelError):
            tw.gen(level)


@pytest.mark.parametrize("tw", DIGEST_TOWERS, ids=lambda tw: tw.descriptor())
@seed(20270)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_is_square_agrees_with_sqrt(tw, data):
    x = data.draw(_at_level(tw, data.draw(st.integers(1, tw.height)), 2))
    for y in (x, x * x, x * x * tw.gen(1), tw.base_element(data.draw(st.integers(0, tw.order - 1)))):
        assert y.is_square() is (y.sqrt() is not None), str(y)


@pytest.mark.parametrize("tw", DIGEST_TOWERS, ids=lambda tw: tw.descriptor())
@seed(20271)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_lead_is_the_residue_of_the_unit_part(tw, data):
    own = data.draw(st.integers(1, tw.height))
    x = data.draw(_at_level(tw, own, 2))
    for level in range(own, tw.height + 1):
        v = x.valuation(level)
        assert x.lead(level) == t_power_shift(x, level, -v).residue(level), (str(x), level)
    if own > 1:
        with pytest.raises(LevelError):
            x.lead(own - 1)
