"""Splitting slots, wedge decomposition, class decomposition, bounds."""

from itertools import product

import pytest

from qchar2.cohomology import SymbolSum, class_trivial, symbol
from qchar2.errors import (
    DimensionTooSmall,
    HypothesisViolated,
    NotNormalized,
    SearchExhausted,
)
from qchar2.fields import tower
from qchar2.forms import (
    QuadraticForm,
    QuadraticPfister,
    normalize_presentation,
    orth_sum,
    scale,
)
from qchar2.invariants import clifford
from qchar2.linalg import square_span_rank
from qchar2.parsing import parse_element, parse_form
from qchar2.symlen import (
    class_decompose,
    splitting_slots,
    symbol_length_bound,
    two_rank_bound,
    wedge_decompose,
    wedge_with,
)

F2T = tower(1, ("t",))
F2TT = tower(1, ("t1", "t2"))


def el(tw, s):
    return parse_element(tw, s)


# -- a brute-force reference: isotropy over multiquadratic inseparable extensions


class InseparableExtension:
    """K = F[sqrt(b_1), ..., sqrt(b_l)] with coordinates over the basis of
    square-root products, for small brute-force cross-checks.

    Dependent candidates (squares in the partial extension) are dropped so
    that K is a field of degree 2^l over F.
    """

    def __init__(self, tw, adjoined):
        self.tower = tw
        kept = []
        for b in adjoined:
            if b.is_zero():
                raise ValueError("cannot adjoin sqrt(0)")
            products = [self._product(tw, kept, mask) for mask in range(1 << len(kept))]
            rank_before, _ = square_span_rank(tw, products)
            rank_after, _ = square_span_rank(tw, products + [b])
            if rank_after > rank_before:
                kept.append(b)
        self.adjoined = tuple(kept)
        self.degree = 1 << len(kept)

    @staticmethod
    def _product(tw, elements, mask):
        acc = tw.one()
        for i, b in enumerate(elements):
            if mask >> i & 1:
                acc = acc * b
        return acc

    def embed(self, x):
        v = [self.tower.zero()] * self.degree
        v[0] = x
        return tuple(v)

    def zero(self):
        return self.embed(self.tower.zero())

    def one(self):
        return self.embed(self.tower.one())

    def sqrt_generator(self, i: int):
        v = [self.tower.zero()] * self.degree
        v[1 << i] = self.tower.one()
        return tuple(v)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def mul(self, x, y):
        zero = self.tower.zero()
        out = [zero] * self.degree
        for s, cx in enumerate(x):
            if cx.is_zero():
                continue
            for t, cy in enumerate(y):
                if cy.is_zero():
                    continue
                coeff = cx * cy
                for i in range(len(self.adjoined)):
                    if (s >> i & 1) and (t >> i & 1):
                        coeff = coeff * self.adjoined[i]
                out[s ^ t] = out[s ^ t] + coeff
        return tuple(out)

    def is_zero(self, x) -> bool:
        return all(c.is_zero() for c in x)

    def evaluate_form(self, f: QuadraticForm, vector):
        acc = self.zero()
        for i, (b, a) in enumerate(f.pairs):
            x, y = vector[2 * i], vector[2 * i + 1]
            val = self.add(
                self.add(self.mul(x, x), self.mul(x, y)),
                self.mul(self.embed(a), self.mul(y, y)),
            )
            acc = self.add(acc, self.mul(self.embed(b), val))
        for j, c in enumerate(f.quasilinear):
            z = vector[2 * len(f.pairs) + j]
            acc = self.add(acc, self.mul(self.embed(c), self.mul(z, z)))
        return acc


def extension_isotropy_search(f: QuadraticForm, ext: InseparableExtension, budget: int):
    """A zero of f over the extension among small candidate vectors, or
    None once `budget` vectors are tried; exact."""
    tw = ext.tower
    cands = [ext.zero(), ext.one()]
    for i in range(len(ext.adjoined)):
        cands.append(ext.sqrt_generator(i))
        cands.append(ext.add(ext.one(), ext.sqrt_generator(i)))
    if tw.height >= 1:
        cands.append(ext.embed(tw.gen(1)))
    for tried, vec in enumerate(product(cands, repeat=f.dim)):
        if tried >= budget:
            return None
        if not all(ext.is_zero(x) for x in vec) and ext.is_zero(ext.evaluate_form(f, vec)):
            return vec
    return None


def verify_splitting_brute(f: QuadraticForm, slots, budget: int = 20000) -> bool:
    """f acquires a zero over F[sqrt(b_i)] for the given slots."""
    ext = InseparableExtension(f.tower, slots)
    return ext.degree == 1 or extension_isotropy_search(f, ext, budget) is not None


class TestBounds:
    def test_product_formula(self):
        assert symbol_length_bound((8, 8), 3) == 3
        assert symbol_length_bound((4,), 2) == 1
        assert symbol_length_bound((8,), 2) == 3

    def test_minimal_u_gives_one(self):
        assert symbol_length_bound((4, 8), 3) == 1
        assert symbol_length_bound((4, 8, 16), 4) == 1

    def test_hypothesis_checks(self):
        with pytest.raises(HypothesisViolated):
            symbol_length_bound((2,), 2)     # u^2 below 2^2
        with pytest.raises(HypothesisViolated):
            symbol_length_bound((7,), 2)     # odd
        with pytest.raises(HypothesisViolated):
            symbol_length_bound((8,), 3)     # wrong arity

    def test_two_rank_bound(self):
        assert two_rank_bound(2, 2) == 2
        assert two_rank_bound(2, 3) == 1
        assert two_rank_bound(4, 3) == 6


class TestSplittingSlots:
    def normalized(self, tw, text):
        return normalize_presentation(parse_form(tw, text)).form

    def test_ell_formula_dim8_n3(self):
        f = self.normalized(
            F2TT,
            "t1*[1,1] + t2*[1,t1] + t1*t2*[1,1+t1] + [1,t1]",
        )
        slots, proof = splitting_slots(f, 3)
        assert len(slots) == 1          # 4 + 1 - 4
        assert proof.hauptsatz_step["dim"] == 6

    def test_ell_formula_dim12_n2(self):
        pieces = " + ".join(
            ["t1*[1,1]", "t2*[1,t1]", "t1*t2*[1,1]", "(1+t1)*[1,t2]", "[1,1]", "[1,1]"]
        )
        f = self.normalized(F2TT, pieces)
        slots, _ = splitting_slots(f, 2)
        assert len(slots) == 5          # 6 + 1 - 2

    def test_minimal_dimension(self):
        f = self.normalized(F2T, "t*[1,1] + [1,1]")
        slots, proof = splitting_slots(f, 2)
        assert len(slots) == 1
        assert proof.hauptsatz_step["dim"] == 2

    def test_requires_normalized(self):
        f = parse_form(F2T, "t*[1,1] + (1+t)*[1,1]")
        with pytest.raises(NotNormalized):
            splitting_slots(f, 2)

    def test_dimension_guard(self):
        f = self.normalized(F2T, "t*[1,1] + [1,1]")
        with pytest.raises(DimensionTooSmall):
            splitting_slots(f, 3)

    def test_brute_extension_check(self):
        f = self.normalized(F2T, "t*[1,1] + [1,1]")
        slots, _ = splitting_slots(f, 2)
        assert verify_splitting_brute(f, slots)


class TestInseparableExtension:
    def test_degree_and_dependence(self):
        ext = InseparableExtension(F2T, (el(F2T, "t"), el(F2T, "t^3")))
        # t^3 = t * (t)^2 is already a square times t
        assert ext.degree == 2

    def test_sqrt_generator_squares_to_slot(self):
        ext = InseparableExtension(F2T, (el(F2T, "t"),))
        g = ext.sqrt_generator(0)
        assert ext.mul(g, g) == ext.embed(el(F2T, "t"))

    def test_isotropy_search_finds_split_zero(self):
        # [1,1] + t[1,1] is anisotropic over F2((t)) but splits over F2((sqrt t))
        f = QuadraticPfister((el(F2T, "t"),), F2T.one()).expand()
        ext = InseparableExtension(F2T, (el(F2T, "t"),))
        assert extension_isotropy_search(f, ext, 100000) is not None


class TestWedgeDecompose:
    def test_syntactic_case(self):
        a1, a2 = el(F2TT, "1"), el(F2TT, "t1")
        b1, b2 = el(F2TT, "t1"), el(F2TT, "t2")
        target = SymbolSum(2, (symbol(a1, b1), symbol(a2, b2)))
        omegas = wedge_decompose(target, (b1, b2), budget=5000, extra_pool=(a1, a2))
        rebuilt = wedge_with(omegas, (b1, b2), degree=2)
        assert class_trivial(target + rebuilt) is True

    def test_trivial_class_gives_empty(self):
        target = SymbolSum(2, ())
        omegas = wedge_decompose(target, (el(F2TT, "t1"),), budget=100)
        assert all(w.is_empty() for w in omegas)

    def test_exhaustion_reported(self):
        target = SymbolSum(2, (symbol(el(F2TT, "1"), el(F2TT, "t1")),))
        with pytest.raises(SearchExhausted):
            wedge_decompose(target, (el(F2TT, "t2"),), budget=40)


class TestClassDecompose:
    def test_hyperbolic_gives_empty(self):
        f = parse_form(F2T, "[1,0]+[1,0]")
        out = class_decompose(f, 2)
        assert out.is_empty()

    def test_scaled_pfister_single_symbol(self):
        p = QuadraticPfister((el(F2T, "t"),), F2T.one())
        f = scale(el(F2T, "1+t"), p.expand())
        out = class_decompose(f, 2, budget=20000)
        assert len(out.symbols) == 1
        assert class_trivial(out + clifford(f)) is True

    def test_dim6_class_two_symbols(self):
        f = orth_sum(
            QuadraticPfister((el(F2TT, "t1"),), F2TT.one()).expand(),
            scale(el(F2TT, "t2"),
                  QuadraticPfister((el(F2TT, "1+t1"),), el(F2TT, "t1")).expand()),
        )
        out = class_decompose(f, 2, budget=50000)
        assert len(out.symbols) <= 3
        assert class_trivial(out + clifford(f)) is True

    def test_degree3_pfister_recovery(self):
        p = QuadraticPfister((el(F2TT, "t1"), el(F2TT, "t2")), F2TT.one())
        f = scale(el(F2TT, "t1"), p.expand())
        out = class_decompose(f, 3, budget=50000)
        assert len(out.symbols) == 1
        sym = out.symbols[0]
        assert sym.degree == 3
