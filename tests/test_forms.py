"""Form construction, Pfister expansion, moves, and Gram round trips."""

import hashlib
import json
import random

import pytest

from qchar2.errors import ArfNontrivial, SingularInput, UndecidableInstance, ZeroScalar
from qchar2.fields import FieldElement, tower, wp, wp_reduce
from qchar2.forms import (
    BilinearPfister,
    _restrict,
    QuadraticForm,
    QuadraticPfister,
    arf_sum,
    gram,
    gram_evaluate,
    is_normalized,
    move_merge_equal_pairs,
    move_norm_scale,
    move_swap,
    move_wp_shift_by,
    normalize_presentation,
    pairs_from_gram,
    scale,
    split_plane,
    tensor,
)
from qchar2.linalg import rank_profile
from qchar2.parsing import format_form, parse_element, parse_form, parse_form_expr
from qchar2.witt import isotropy, witt_decompose

F2T = tower(1, ("t",))
F2TT = tower(1, ("t1", "t2"))


def el(tw, s):
    return parse_element(tw, s)


def rescramble(f: QuadraticForm, t) -> QuadraticForm:
    """Isometric re-presentation of a nonsingular form on the basis formed
    by the columns of the invertible matrix t: a test reference for the
    Gram machinery.  A quasilinear part raises SingularInput."""
    m = _restrict(f.tower, gram(f), list(zip(*t)))
    return QuadraticForm(f.tower, pairs_from_gram(f.tower, m))


class TestPfisterExpansion:
    def test_one_fold(self):
        p = QuadraticPfister((), el(F2T, "t"))
        f = p.expand()
        assert f.dim == 2
        assert f.pairs == ((F2T.one(), el(F2T, "t")),)

    def test_two_fold_recursion(self):
        b, a = el(F2T, "t"), el(F2T, "1+t")
        f = QuadraticPfister((b,), a).expand()
        assert f.dim == 4
        assert f.pairs[0] == (F2T.one(), a)
        assert f.pairs[1] == (b, a)

    def test_last_slot_zero_is_allowed(self):
        f = QuadraticPfister((el(F2T, "t"),), F2T.zero()).expand()
        assert f.dim == 4
        assert all(a.is_zero() for _, a in f.pairs)

    @pytest.mark.parametrize("fold", [1, 2, 3, 4])
    def test_dimension(self, fold):
        rng = random.Random(fold)
        pool = [el(F2TT, s) for s in ["t1", "t2", "1+t1", "t1*t2", "1+t1*t2"]]
        slots = tuple(rng.choice(pool) for _ in range(fold - 1))
        f = QuadraticPfister(slots, rng.choice(pool)).expand()
        assert f.dim == 2 ** fold

    def test_tensor_matches_prepended_slots(self):
        b1, b2, a = el(F2TT, "t1"), el(F2TT, "t2"), el(F2TT, "1")
        lhs = tensor(BilinearPfister((b2,)), QuadraticPfister((b1,), a).expand())
        rhs = QuadraticPfister((b1, b2), a).expand()
        assert sorted(map(str, lhs.pairs)) == sorted(map(str, rhs.pairs))


class TestOperations:
    def test_scale(self):
        f = parse_form(F2T, "[1,t]")
        g = scale(el(F2T, "t"), f)
        assert g.pairs == ((el(F2T, "t"), el(F2T, "t")),)

    def test_scale_by_zero(self):
        with pytest.raises(ZeroScalar):
            scale(F2T.zero(), parse_form(F2T, "[1,t]"))

    def test_orth_sum_dims(self):
        f = parse_form(F2T, "[1,t] + t*[1,1]")
        assert f.dim == 4

    def test_tensor_dim(self):
        f = parse_form(F2TT, "[1,t1]")
        g = tensor(BilinearPfister((el(F2TT, "t1"), el(F2TT, "t2"))), f)
        assert g.dim == 8

    def test_tensor_acts_on_quasilinear(self):
        f = QuadraticForm(F2T, (), (F2T.one(),))
        g = tensor(BilinearPfister((el(F2T, "t"),)), f)
        assert g.quasilinear == (F2T.one(), el(F2T, "t"))

    def test_evaluate(self):
        f = parse_form(F2T, "t*[1,1]")
        v = (el(F2T, "1"), el(F2T, "1"))
        # t*(1 + 1 + 1) = t
        assert f.evaluate(v) == el(F2T, "t")


class TestNormalization:
    def test_two_fold_shape(self):
        f = QuadraticPfister((el(F2T, "t"),), el(F2T, "1")).expand()
        res = normalize_presentation(f)
        assert is_normalized(res.form)
        assert res.form.pairs[-1][0].is_one()

    def test_scaling_recorded(self):
        f = parse_form(F2T, "t*[1,1] + (1+t)*[1,1]")
        res = normalize_presentation(f)
        assert res.scale_used == el(F2T, "1+t")
        assert is_normalized(res.form)

    def test_arf_obstruction(self):
        f = parse_form(F2T, "[1,1] + [1,0]")
        with pytest.raises(ArfNontrivial):
            normalize_presentation(f)

    def test_wp_shifted_last_slot(self):
        s = el(F2T, "t/(1+t)")
        f = QuadraticForm(
            F2T,
            ((el(F2T, "t"), el(F2T, "t")), (F2T.one(), el(F2T, "t") + wp(s))),
        )
        res = normalize_presentation(f)
        assert res.form.pairs == (
            (el(F2T, "t"), el(F2T, "t")),
            (F2T.one(), el(F2T, "t")),
        )

    def test_singular_input(self):
        f = QuadraticForm(F2T, ((F2T.one(), F2T.zero()),), (F2T.one(),))
        with pytest.raises(SingularInput):
            normalize_presentation(f)

    def test_class_preservation(self):
        # the rework is an isometry of the scaled input, and scaling keeps
        # the degree-2 class: both facts checked through the other modules
        from qchar2.cohomology import class_trivial
        from qchar2.invariants import clifford
        from qchar2.witt import witt_equivalent

        f = parse_form(F2TT, "t1*[1,1] + t2*[1,t1] + t1*t2*[1,1+t1+t2^2]")
        res = normalize_presentation(f)
        scaled = scale(res.scale_used.inverse(), f)
        assert witt_equivalent(res.form, scaled)
        diff = clifford(res.form) + clifford(f)
        assert class_trivial(diff) is True


class TestMovesAndGram:
    def build(self):
        return parse_form(F2TT, "[1,t1] + t2*[1,t1*t2] + (1+t1)*[1,0]")

    def test_gram_pairs_roundtrip(self):
        f = self.build()
        assert pairs_from_gram(F2TT, gram(f)) == f.pairs

    def test_gram_evaluate_matches(self):
        f = self.build()
        rng = random.Random(2)
        pool = [el(F2TT, s) for s in ["0", "1", "t1", "t2", "1+t1"]]
        m = gram(f)
        for _ in range(20):
            v = tuple(rng.choice(pool) for _ in range(f.dim))
            assert f.evaluate(v) == gram_evaluate(F2TT, m, v)

    def test_rescramble_preserves_arf(self):
        f = self.build()
        rng = random.Random(3)
        t = _random_invertible(F2TT, f.dim, rng)
        g = rescramble(f, t)
        assert g.dim == f.dim
        from qchar2.fields import wp_reduce

        assert wp_reduce(arf_sum(f) + arf_sum(g)).is_in_wp

    def test_wp_shift_keeps_value_set_sample(self):
        f = parse_form(F2T, "t*[1,1]")
        g = move_wp_shift_by(f, 0, el(F2T, "t"))
        assert g.pairs[0][1] == el(F2T, "1+t+t^2")

    def test_norm_scale_rejects_zero_value(self):
        f = parse_form(F2T, "[1,0]")
        with pytest.raises(ZeroScalar):
            move_norm_scale(f, 0, F2T.zero(), F2T.zero())

    def test_merge_equal_pairs(self):
        f = parse_form(F2T, "t*[1,1] + t*[1,t]")
        g = move_merge_equal_pairs(f, 0, 1)
        assert g.pairs == (
            (el(F2T, "t"), F2T.zero()),
            (el(F2T, "t"), el(F2T, "1+t")),
        )

    def test_swap(self):
        f = self.build()
        g = move_swap(f, 0, 2)
        assert g.pairs[0] == f.pairs[2] and g.pairs[2] == f.pairs[0]

    def test_split_plane_dimension_drop(self):
        f = parse_form(F2T, "[1,0] + t*[1,1]")
        v = (F2T.zero(), F2T.one(), F2T.zero(), F2T.zero())
        rest = split_plane(f, v)
        assert rest.dim == 2


def _random_invertible(tw, n, rng):
    from qchar2.linalg import rank_profile

    pool = [parse_element(tw, s) for s in ["0", "0", "1", "t1", "1+t1", "t2"]]
    while True:
        t = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            t[i][i] = t[i][i] + tw.one()
        r, _ = rank_profile(t)
        if r == n:
            return t


class TestFormGrammar:
    @pytest.mark.parametrize("text", [
        "[1,t]",
        "t*[1,1]+[1,t]",
        "<<t,1]]",
        "<t1,t2>",
        "<1,t1,t2>q",
        "(1+t1)*[1,t1*t2]+<t2>q",
    ])
    def test_roundtrip(self, text):
        tw = F2TT if "t1" in text or "t2" in text else F2T
        val = parse_form_expr(tw, text)
        printed = format_form(val)
        again = parse_form_expr(tw, printed)
        assert format_form(again) == printed

    def test_pfister_parse(self):
        p = parse_form_expr(F2T, "<<t,1]]")
        assert isinstance(p, QuadraticPfister)
        assert p.fold == 2

    def test_tensor_in_grammar(self):
        f = parse_form(F2TT, "<t1>*[1,t2]")
        assert f.dim == 4

    def test_scale_in_grammar(self):
        f = parse_form(F2T, "t*(<<1]])")
        assert f.pairs == ((el(F2T, "t"), F2T.one()),)


# -- Witt bases, pinned -------------------------------------------------------------
#
# The presentations that the Gram machinery returns: `rescramble` under a seeded
# change of basis, `split_plane` at an isotropy witness, and every field of
# `witt_decompose`, over seeded forms of one to four pairs (half of the a-slots
# wild, so that wild mixtures reach the split-plane step), then the 32-dimensional
# ambient form of `augmented_sum_index_check` for rho = <<1,(t+1)/t]],
# alpha = t+1 and beta = gamma = (t^2+1)/t, which splits fourteen planes.  A
# change to the choice of the first vector or of its partner, to the kernel
# basis or to the arithmetic underneath that alters any presentation changes
# the digest.

WITT_TOWERS = [tower(1, ("t",)), tower(2, ("t",)), tower(1, ("t1", "t2"))]
WITT_FORMS = 10
WITT_SHA256 = "e475052f0ffba6c2636c0625d697b17f0d6233e99233daa1ef17170a45515747"


def _witt_scalar(tw, rng, terms):
    out = tw.zero()
    while out.is_zero():
        for _ in range(terms):
            x = tw.base_element(rng.randrange(1, tw.order))
            for level in range(1, tw.height + 1):
                x = x * tw.monomial(level, rng.randrange(-1, 2))
            out = out + x
    return out


def _witt_form(tw, rng):
    """One to four pairs; each a-slot gets a pole of order 3 in the
    outermost variable half of the time."""
    pairs = []
    for _ in range(rng.randrange(1, 5)):
        b = _witt_scalar(tw, rng, 1)
        a = _witt_scalar(tw, rng, rng.randrange(1, 3))
        if rng.random() < 0.5:
            a = a + tw.base_element(rng.randrange(1, tw.order)) * tw.monomial(tw.height, -3)
        pairs.append((b, a))
    return QuadraticForm(tw, tuple(pairs))


def _witt_basis_change(tw, n, rng):
    """An invertible n x n matrix; t is an entry only over one variable,
    since over two the re-based Gram entries swell."""
    pool = [tw.zero()] * 3 + [tw.one()] + [tw.gen(1)] * (tw.height == 1)
    while True:
        t = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            t[i][i] = t[i][i] + tw.one()
        if rank_profile(t)[0] == n:
            return t


def _decomposition_record(f):
    try:
        d = witt_decompose(f)
    except UndecidableInstance:
        return "undecidable"
    return f"{d.index} {d.kernel} {json.dumps(d.proof, sort_keys=True)}"


def _ambient_form():
    alpha, beta = el(F2T, "t+1"), el(F2T, "(t^2+1)/t")
    rho = QuadraticPfister((F2T.one(),), el(F2T, "(t+1)/t")).expand()
    return tensor(BilinearPfister((alpha, beta, beta)), rho)


def witt_basis_record():
    lines = []
    for i, tw in enumerate(WITT_TOWERS):
        rng = random.Random(4000 + i)
        for _ in range(WITT_FORMS):
            f = _witt_form(tw, rng)
            scrambled = rescramble(f, _witt_basis_change(tw, f.dim, rng))
            w = isotropy(f, 256).witness
            split = None if w is None else split_plane(f, w)
            lines.append(f"{tw.descriptor()} {f} | {_decomposition_record(f)} | {scrambled} | {split}")
    ambient = _ambient_form()
    lines.append(f"{ambient} | {_decomposition_record(ambient)}")
    return "\n".join(lines)


def test_witt_bases_are_pinned():
    record = witt_basis_record()
    assert "split-plane" in record
    assert hashlib.sha256(record.encode()).hexdigest() == WITT_SHA256


def test_wild_decomposition_multiplications(monkeypatch):
    f = _ambient_form()
    wp_reduce.cache_clear()
    calls = [0]
    mul = FieldElement.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    monkeypatch.setattr(FieldElement, "__rmul__", counted)
    d = witt_decompose(f)
    assert (f.dim, d.index, d.kernel_dim) == (32, 16, 0)
    assert sum(s["step"] == "split-plane" for s in d.proof) == 14
    # 426,943 when every Gram evaluation walked all n^2 entries
    assert calls[0] <= 100_000
