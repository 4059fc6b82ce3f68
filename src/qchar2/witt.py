"""Isotropy decision, Witt decomposition, and the bounded isotropy searches.

Strategy by level:

* level 0 (finite field): everything is decidable exactly.  A binary
  piece b[1,a] is anisotropic iff a is outside wp(F_q); quasilinear parts
  reduce to F^2-linear algebra.  Every anisotropic binary piece over a
  finite field is universal (u(F_q) = 2), so a pair together with any
  further basis vector e_3 is isotropic: the pair represents q(e_3),
  which gives an explicit witness.

* level j: b-slots and quasilinear entries are stripped to t^e * unit
  (e in {0,1}) by exact square scalings, a-slots get the exact part of
  their Artin-Schreier reduction.  A form whose a-slots all end up with
  nonnegative valuation is *tame*: nonsingular or not, it splits as
  f1 + t*f2, is anisotropic when both residue forms are, and is isotropic
  when one has a smooth zero, which every zero of a nonsingular residue
  form is (the equal-characteristic Springer decomposition of the
  complete Laurent step, one `_springer_step` for every tame form).  A
  zero of a residue form on quasilinear coordinates alone need not lift,
  and leaves the bounded search.  A *wild* pair alone is certified
  anisotropic by its irreducible negative part.  Over F_q((t)) a wild
  mixture is decided by its invariants (`_local_classification`): the
  field is C_2 and its degree-3 Pfister subgroup vanishes, so a form is
  classified by its dimension, Arf class and Clifford class.  Wild
  mixtures at height >= 2, and mixed forms of dimension <= 4 at height 1,
  degrade to bounded search and may come back Undecided.

Isotropy over the completion often has no zero among rational
representatives.  Verdicts then carry a certificate instead of an exact
witness: either a Hensel pair (v, u) with
val(q(v)) + val(q(u)) > 2 val(B(v,u)), which forces an exact zero of the
complete field on the line v + lambda*u, or a recursive residue-lift
record of a smooth residue zero whose leaves are exact.
`verify_certificate` re-checks either kind from the form alone, without
calling the decider.

The bounded searches keep their values denominator-free: one nonzero
polynomial S per search scales every q(v), so sums and products there
are top-ring polynomial arithmetic with no gcd (`_Cleared`).  A Hensel
candidate is first screened by t_m-valuations, integers read off its key
and coordinates, and only one that passes is rebuilt as a field element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, product

from .cohomology import Symbol, SymbolSum, class_trivial
from .errors import (
    HypothesisViolated, ParseError, RefutationCandidate, SingularInput, UndecidableInstance,
)
from .fields import (
    FieldElement,
    FieldTower,
    WpNormalForm,
    clearing_scale,
    exact_tail_reduce,
    strip_even_power,
    t_power_shift,
    wp_reduce,
)
from .forms import QuadraticForm, orth_sum, split_plane
from .linalg import square_dependence, square_span_rank
from .parsing import parse_element

DEFAULT_SEARCH_BUDGET = 4096


@dataclass(frozen=True)
class IsotropyVerdict:
    kind: str                      # "isotropic" | "anisotropic" | "undecided"
    witness: tuple | None = None   # exact zero vector, when one exists
    certificate: dict | None = None
    budget_report: dict | None = None
    hensel_data: tuple | None = None   # (v, u) element tuples for hensel-pair certs

    @property
    def is_isotropic(self):
        return self.kind == "isotropic"

    @property
    def is_anisotropic(self):
        return self.kind == "anisotropic"

    @property
    def decided(self):
        return self.kind != "undecided"


def _vec_str(v):
    return [str(x) for x in v]


def _iso_exact(f: QuadraticForm, v) -> IsotropyVerdict:
    value = f.evaluate(v)
    if not value.is_zero():
        raise RefutationCandidate(
            f"witness ({', '.join(_vec_str(v))}) of {f} evaluates to {value}, not 0"
        )
    if all(x.is_zero() for x in v):
        raise RefutationCandidate(f"the zero vector was offered as a witness of {f}")
    return IsotropyVerdict(
        "isotropic", tuple(v), {"rule": "exact-zero", "witness": _vec_str(v)}
    )


def hensel_pair_applies(f: QuadraticForm, v, u) -> bool:
    """val(q(v)) + val(q(u)) > 2 val(B(v,u)) at the outermost level of the
    three values.

    When it holds, q has an exact zero v + lambda*u over the completion:
    substituting lambda = (q(v)/B) * kappa turns q(v + lambda u) = 0 into
    kappa^2 * eps + kappa + 1 = 0 with val(eps) > 0, solvable by Hensel.
    All three values are computed here from f, never taken from a search.
    """
    qv = f.evaluate(v)
    # q(v) = 0 is the exact case, handled elsewhere
    return not qv.is_zero() and _hensel_line(qv, f.evaluate(u), f.polar(v, u)) is not None


def _hensel_line(qv, qu, b):
    """Whether the line v + lambda*u carries a zero of q over the
    completion, from its three values: qv = q(v) != 0, qu = q(u) and
    b = B(v, u).

    None when it does not; 0 when q(u) = 0, where lambda = q(v)/b is an
    exact zero; otherwise the level at which the Hensel inequality holds.
    """
    if b.is_zero():
        return None
    if qu.is_zero():
        return 0
    # the lifting argument only involves the three values on the line
    # v + lambda*u; their own outermost variable is where Hensel runs
    level = max(qv.level, qu.level, b.level)
    if level == 0 or not qv.valuation(level) + qu.valuation(level) > 2 * b.valuation(level):
        return None
    return level


def _iso_from_pair(f: QuadraticForm, v, u) -> IsotropyVerdict | None:
    """Certify isotropy from a candidate pair (v, u), or return None."""
    qv = f.evaluate(v)
    if qv.is_zero():
        if any(not x.is_zero() for x in v):
            return _iso_exact(f, v)
        return None
    return _iso_from_values(f, v, u, qv, f.evaluate(u), f.polar(v, u))


def _iso_from_values(f: QuadraticForm, v, u, qv, qu, b) -> IsotropyVerdict | None:
    """`_iso_from_pair` for q(v) != 0, with q(v), q(u) and b = B(v, u)
    already computed, so that a search does no form-wide arithmetic per
    (candidate, partner) pair."""
    level = _hensel_line(qv, qu, b)
    if level is None:
        return None
    if level == 0:
        lam = qv / b
        return _iso_exact(f, tuple(x + lam * y for x, y in zip(v, u)))
    cert = {
        "rule": "hensel-pair",
        "level": level,
        "v": _vec_str(v),
        "u": _vec_str(u),
        "val_qv": qv.valuation(level),
        "val_qu": qu.valuation(level),
        "val_b": b.valuation(level),
    }
    return IsotropyVerdict("isotropic", None, cert, hensel_data=(tuple(v), tuple(u)))


def _basis(f: QuadraticForm) -> list[tuple]:
    """(e_i, q(e_i)) on the standard basis: q(e_i) is b and b*a on each
    pair's two vectors, then the entry c on each quasilinear one."""
    tw = f.tower
    values = [q for b, a in f.pairs for q in (b, b * a)] + list(f.quasilinear)
    return [(_pad(tw, (tw.one(),), f.dim, i), q) for i, q in enumerate(values)]


def _polar_row(f: QuadraticForm, v) -> list[FieldElement]:
    """B(v, e_i) on the standard basis: b*y and b*x for each pair's
    coordinates (x, y) in v, then 0 for each quasilinear entry, which is
    radical.  Zero coordinates, which most search candidates have, cost
    no multiply."""
    zero = f.tower.zero()
    out = []
    for p, (b, _) in enumerate(f.pairs):
        x, y = v[2 * p], v[2 * p + 1]
        out += [b * y if y else zero, b * x if x else zero]
    return out + [zero] * len(f.quasilinear)


class _Cleared:
    """Search values q(v) as keys S * q(v), S = S_f * S_p^2 != 0, made by the
    top ring's adds and multiplies with no gcd: S_f clears every denominator
    of the slots b, b*a, c of f at every level, and S_p those of `scalars`,
    which enter as X = S_p * x.  `value` divides S back out; `screen` needs
    only t_m-valuations."""

    def __init__(self, f: QuadraticForm, scalars):
        tw = f.tower
        self.ring = ring = tw.top_ring()
        slots = [q for b, a in f.pairs for q in (b, b * a)] + list(f.quasilinear)
        self._scales = s_form, s_pool = clearing_scale(tw, slots), clearing_scale(tw, scalars)
        polys = [ring.polynomial(s_form * q) for q in slots]
        n = 2 * len(f.pairs)
        self.pairs, self.quasilinear = list(zip(polys[:n:2], polys[1:n:2])), polys[n:]
        self.scalars = [(x, ring.polynomial(s_pool * x)) for x in scalars]
        m = self.height = tw.height
        if m:
            # v_m(S), v_m(q(e_i)) on the pair vectors (None for 0) and v_m(x)
            # of each nonzero scalar
            self.shift = s_form.valuation(m) + 2 * s_pool.valuation(m)
            self.slot_vals = [q.valuation(m) if q else None for q in slots[:n]]
            self.scalar_vals = {x: x.valuation(m) for x in scalars if x}

    @cached_property
    def inverse(self) -> FieldElement:
        s_form, s_pool = self._scales
        return (s_form * s_pool * s_pool).inverse()

    def value(self, key) -> FieldElement:
        return self.ring.element(key) * self.inverse

    def screen(self, coords, key) -> bool:
        """False only when `_hensel_scan` cannot certify the candidate v with
        these leading pair coordinates (the rest 0) and key S * q(v),
        judged by integers alone: v = 0 never, q(v) = 0 always.  Else a
        pair (v, e_i) with B(v, e_i) = b_p * (coordinate) != 0 passes when
        q(e_i) = 0, when v_m(q(v)) + v_m(q(e_i)) > 2 v_m(B(v, e_i)), or
        when all three v_m are 0, where the values may lie below t_m and
        `_hensel_line` takes a lower level.  Height 0 passes everything."""
        if not key:
            return any(coords)
        if not self.height:
            return True
        vq = self.ring.val(key) - self.shift
        qe, xv = self.slot_vals, self.scalar_vals
        for i in range(0, min(len(coords) - 1, len(qe)), 2):
            # a pair's (x, y) = coords[i:i+2] and b = q(e_i): B(v, e_i) = b*y
            # and B(v, e_i+1) = b*x
            for c, vu in ((coords[i + 1], qe[i]), (coords[i], qe[i + 1])):
                if not c:
                    continue
                if vu is None:
                    return True
                v_b = qe[i] + xv[c]
                if vq + vu > 2 * v_b or vq == vu == v_b == 0:
                    return True
        return False

    def blocks(self, k, kq):
        """Per pair the keys of ((x, y), b(x^2 + xy + a y^2)) over the first k
        scalars, x outermost, as B(X^2 + XY) + BA Y^2 with X^2 + XY and Y^2
        shared; then per entry c those of ((x,), c x^2) over the first kq."""
        add, mul = self.ring.add, self.ring.mul
        sq = [(x, p, mul(p, p)) for x, p in self.scalars]
        shared = [((x, y), add(sx, mul(p, q)), sy) for x, p, sx in sq[:k] for y, q, sy in sq[:k]]
        out = [[(xy, add(mul(b, h), mul(ba, y2))) for xy, h, y2 in shared] for b, ba in self.pairs]
        return out + [[((x,), mul(c, sx)) for x, _, sx in sq[:kq]] for c in self.quasilinear]


def _hensel_scan(f: QuadraticForm, v, qv, row, basis) -> IsotropyVerdict | None:
    """The verdict of a nonzero candidate v, from q(v) and its row
    B(v, e_i): exact when q(v) = 0, else the first Hensel pair (v, e_i)
    over `basis`, a list of (e_i, q(e_i)); None when no pair certifies."""
    if qv.is_zero():
        return _iso_exact(f, v)
    for (u, qu), b in zip(basis, row):
        got = _iso_from_values(f, v, u, qv, qu, b)
        if got is not None:
            return got
    return None


def _pad(tw, coords, total, offset):
    v = [tw.zero()] * total
    for i, x in enumerate(coords):
        v[offset + i] = x
    return tuple(v)


# -- slot normalization -------------------------------------------------------------


def _normalize_pairs(f: QuadraticForm, level: int):
    """(pairs with b in {unit, t*unit} and reduced a, wild indices)."""
    out = []
    wild = []
    for i, (b, a) in enumerate(f.pairs):
        b2 = strip_even_power(b, level)
        a2, is_wild = exact_tail_reduce(a, level)
        if is_wild:
            wild.append(i)
        out.append((b2, a2))
    return out, wild


def _form_level(f: QuadraticForm) -> int:
    level = 0
    for b, a in f.pairs:
        level = max(level, b.level, a.level)
    for c in f.quasilinear:
        level = max(level, c.level)
    return level


def _springer_split(tw, pairs, ql, level):
    """The Springer split f = f1 + t*f2 of normalized slots at `level`.

    `pairs` and the quasilinear entries `ql` have b-slots (entries) that
    are units or t times units; each goes to the unit or the t part.
    Returns ((coordinates, residue form f1), (coordinates, residue form
    f2)), each list naming the coordinates of f that carry the residue
    form's, in its order.
    """
    # index 0 collects the unit part, index 1 the t part
    coords, res, ql_coords, ql_res = ([], []), ([], []), ([], []), ([], [])
    for i, (b, a) in enumerate(pairs):
        odd = b.valuation(level) != 0
        coords[odd].extend((2 * i, 2 * i + 1))
        res[odd].append(((t_power_shift(b, level, -1) if odd else b).residue(level), a.residue(level)))
    for j, c in enumerate(ql):
        odd = c.valuation(level) != 0
        ql_coords[odd].append(2 * len(pairs) + j)
        ql_res[odd].append((t_power_shift(c, level, -1) if odd else c).residue(level))
    return tuple(
        (coords[k] + ql_coords[k], QuadraticForm(tw, tuple(res[k]), tuple(ql_res[k])))
        for k in (0, 1)
    )


def _pair_strs(pairs):
    return [[str(b), str(a)] for b, a in pairs]


def _split_record(g: QuadraticForm, with_quasilinear: bool, prefix: str = "") -> dict:
    """The residue form g as a certificate stores it: its pairs, and its
    quasilinear entries when the split form has any."""
    record = {f"{prefix}pairs": _pair_strs(g.pairs)}
    if with_quasilinear:
        record[f"{prefix}quasilinear"] = _vec_str(g.quasilinear)
    return record


# -- the decider -------------------------------------------------------------------


def isotropy(f: QuadraticForm, budget: int = DEFAULT_SEARCH_BUDGET) -> IsotropyVerdict:
    """Decide isotropy of f over the complete tower.

    Undecided is a value, not an error, and only occurs for wild
    mixtures at height >= 2, wild mixed forms of dimension <= 4 at height
    1, or undecidable quasilinear interaction.
    A budget below 0 raises `HypothesisViolated` on every path.
    """
    _check_budget(budget)
    tw = f.tower
    if f.dim == 0:
        return IsotropyVerdict("anisotropic", None, {"rule": "empty"})
    if not f.quasilinear:
        return _isotropy_nonsingular(f, budget)
    if not f.pairs:
        return _isotropy_quasilinear(tw, f.quasilinear)
    ns_verdict = _isotropy_nonsingular(f.nonsingular_part(), budget)
    if ns_verdict.is_isotropic:
        return _embed_verdict(f, ns_verdict, 0)
    ql_verdict = _isotropy_quasilinear(tw, f.quasilinear)
    if ql_verdict.is_isotropic:
        return _embed_verdict(f, ql_verdict, 2 * len(f.pairs))
    if not ns_verdict.decided:
        return ns_verdict
    return _isotropy_mixed(f, budget)


def _embed_verdict(f, verdict, offset):
    """An isotropic verdict on the subform of f from coordinate `offset` on,
    as a verdict on f: zero padding changes no q(v), q(u) or B(v, u), so
    the subform's checked values carry over without evaluating again."""
    tw = f.tower
    if verdict.witness is not None:
        v = _pad(tw, verdict.witness, f.dim, offset)
        return IsotropyVerdict("isotropic", v, {"rule": "exact-zero", "witness": _vec_str(v)})
    if verdict.hensel_data is not None:
        v, u = (_pad(tw, w, f.dim, offset) for w in verdict.hensel_data)
        cert = {**verdict.certificate, "v": _vec_str(v), "u": _vec_str(u)}
        return IsotropyVerdict("isotropic", None, cert, hensel_data=(v, u))
    # a residue-lift is checked on the residue forms of f's nonsingular
    # part, which is the subform's
    return verdict


def _isotropy_quasilinear(tw, entries) -> IsotropyVerdict:
    dep = square_dependence(tw, entries)
    if dep is None:
        return IsotropyVerdict(
            "anisotropic",
            None,
            {"rule": "ql-independent", "entries": [str(c) for c in entries]},
        )
    form = QuadraticForm(tw, (), tuple(entries))
    return _iso_exact(form, tuple(dep))


def _diagonal_witness(f: QuadraticForm):
    """Exact zero via F^2-dependence of the pair coefficients.

    Setting every y-coordinate to 0 leaves the totally singular diagonal
    sum of b_i x_i^2, so a square-dependence of the b_i is a zero of f.
    """
    if len(f.pairs) < 2:
        return None
    tw = f.tower
    dep = square_dependence(tw, tuple(b for b, _ in f.pairs))
    if dep is None:
        return None
    v = [tw.zero()] * f.dim
    for i, x in enumerate(dep):
        v[2 * i] = x
    return tuple(v)


def _isotropy_nonsingular(f: QuadraticForm, budget: int) -> IsotropyVerdict:
    tw = f.tower
    level = _form_level(f)
    if level == 0:
        return _isotropy_finite(f)

    # exact fast path: any binary piece with a-slot in wp is hyperbolic
    for i, (b, a) in enumerate(f.pairs):
        r = wp_reduce(a)
        if r.is_in_wp:
            v = _pad(tw, (r.correction, tw.one()), f.dim, 2 * i)
            if r.correction_exact:
                return _iso_exact(f, v)
            u = _pad(tw, (tw.one(), tw.zero()), f.dim, 2 * i)
            got = _iso_from_pair(f, v, u)
            if got is not None:
                return got
    diag = _diagonal_witness(f)
    if diag is not None:
        return _iso_exact(f, diag)

    pairs, wild = _normalize_pairs(f, level)
    if wild:
        if len(f.pairs) == 1:
            b, a = pairs[0]
            v = a.valuation(level)
            reason = "odd-valuation" if v % 2 else "nonsquare-lead"
            cert = {
                "rule": "wild-binary",
                "reason": reason,
                "a": str(a),
                "level": level,
                "valuation": v,
            }
            return IsotropyVerdict("anisotropic", None, cert)
        record = _local_classification(f)
        if record is not None:
            return record.verdict()
        return _searched(f, budget, {"reason": "wild mixture", "wild_pairs": wild})

    return _springer_step(f, pairs, level, budget)


def _springer_step(f: QuadraticForm, pairs, level: int, budget: int) -> IsotropyVerdict:
    """Decide a tame f at `level` from its normalized `pairs` and its
    quasilinear entries stripped of even powers: f is anisotropic when both
    residue forms of the Springer split are.

    An isotropic residue form becomes a verdict on f through
    `_lift_residue_isotropy`; an Undecided one leaves f Undecided.
    """
    ql = tuple(strip_even_power(c, level) for c in f.quasilinear)
    records = {}
    for (coords, g), part in zip(_springer_split(f.tower, pairs, ql, level), ("unit", "t")):
        sub = isotropy(g, budget)
        if sub.is_isotropic:
            return _lift_residue_isotropy(f, sub, g, coords, level, part, budget)
        if not sub.decided:
            return IsotropyVerdict(
                "undecided", None, None,
                {"reason": f"{part} residue undecided", "level": level},
            )
        records[f"{part}_part"] = {**_split_record(g, bool(ql)), "certificate": sub.certificate}
    return IsotropyVerdict("anisotropic", None, {"rule": "springer", "level": level, **records})


def _lift_witness(f: QuadraticForm, coords, w) -> IsotropyVerdict | None:
    """An exact residue witness w, placed on the coordinates `coords` of f,
    as an exact zero of f or a Hensel pair with a basis vector; None when
    neither certifies.  The partners with B(v, e_i) != 0 are the basis
    vectors paired to a nonzero witness coordinate."""
    v = [f.tower.zero()] * f.dim
    for k, x in zip(coords, w):
        v[k] = x
    v = tuple(v)
    return _hensel_scan(f, v, f.evaluate(v), _polar_row(f, v), _basis(f))


def _lift_residue_isotropy(f, sub, g, coords, level, part, budget):
    """Turn an isotropy of the residue form g into a verdict on f.

    An exact residue zero is first tried as a concrete zero or Hensel pair
    on f.  Otherwise a smooth residue zero, one that only a certificate
    records or one with a nonzero pair coordinate, becomes a recursive
    residue-lift record: B(w, .) != 0 there, so the zero lifts to the
    completion by Hensel's lemma.  A zero on quasilinear coordinates alone
    need not lift, and leaves only the search.
    """
    if sub.witness is not None:
        lifted = _lift_witness(f, coords, sub.witness)
        if lifted is not None:
            return lifted
        if not any(sub.witness[: 2 * len(g.pairs)]):
            return _searched(
                f, budget,
                {"reason": "mixed residue isotropy without a liftable point", "part": part},
            )
    cert = {
        "rule": "residue-lift",
        "level": level,
        "part": part,
        **_split_record(g, bool(f.quasilinear), "residue_"),
        "inner": sub.certificate,
    }
    return IsotropyVerdict("isotropic", None, cert)


def _isotropy_finite(f: QuadraticForm) -> IsotropyVerdict:
    """Level 0: a lone pair outside wp is anisotropic; otherwise the first
    pair, universal over a finite field, represents q(e_3) (the second
    pair's b or the one quasilinear entry), which gives an exact zero."""
    tw = f.tower
    for i, (b, a) in enumerate(f.pairs):
        r = wp_reduce(a)
        if r.is_in_wp:
            return _iso_exact(f, _pad(tw, (r.correction, tw.one()), f.dim, 2 * i))
    b1, a1 = f.pairs[0]
    if f.dim == 2:
        return IsotropyVerdict(
            "anisotropic", None,
            {"rule": "base-nonwp", "a": str(wp_reduce(a1).reduced), "trace": 1},
        )
    target = _basis(f)[2][1] / b1
    for xb, yb in product(range(tw.order), repeat=2):
        x, y = tw.base_element(xb), tw.base_element(yb)
        if x * x + x * y + a1 * y * y == target:
            return _iso_exact(f, _pad(tw, (x, y, tw.one()), f.dim, 0))
    raise RefutationCandidate(
        f"the anisotropic binary piece [1,{a1}] of {f} does not represent {target}"
        " over a finite field, where every such piece is universal"
    )


def _isotropy_mixed(f: QuadraticForm, budget: int) -> IsotropyVerdict:
    """Nonsingular and quasilinear parts both present and both anisotropic."""
    level = _form_level(f)
    if level == 0:
        return _isotropy_finite(f)
    pairs, wild = _normalize_pairs(f, level)
    if wild:
        record = _local_classification(f)
        if record is not None:
            return record.verdict()
        return _searched(f, budget, {"reason": "wild mixed form"})
    return _springer_step(f, pairs, level, budget)


def _searched(f: QuadraticForm, budget: int, report: dict) -> IsotropyVerdict:
    """What `brute_search` finds on f, else Undecided with `report` and the
    budget."""
    found = brute_search(f, budget)
    if found.is_isotropic:
        return found
    return IsotropyVerdict("undecided", None, None, {**report, "budget": budget})


# -- the classification over F_q((t)) ----------------------------------------------


@dataclass(frozen=True)
class _LocalClass:
    """A form over F = F_q((t)) by its dimension, the Arf class and the
    Clifford sum of its nonsingular part, and whether that sum's class is
    trivial; `isotropic` is the verdict they force."""

    dim: int
    arf: WpNormalForm
    clifford: SymbolSum
    trivial: bool
    isotropic: bool

    def verdict(self) -> IsotropyVerdict:
        cert = {"rule": "local-invariants", "dim": self.dim, "arf": str(self.arf.reduced),
                "class_trivial": self.trivial}
        return IsotropyVerdict("isotropic" if self.isotropic else "anisotropic", None, cert)


def _in_local_reach(f: QuadraticForm) -> bool:
    """Whether `_local_classification` decides f: a form over F_q((t)) of
    dimension at least 5, or of dimension 4 with no quasilinear entry."""
    return f.tower.height == 1 and (f.dim >= 5 or (f.dim == 4 and not f.quasilinear))


def _local_invariants(f: QuadraticForm) -> tuple:
    """(Arf class, Clifford sum, whether its class is trivial) of the
    nonsingular part of f: the a-slot sum modulo wp and the sum of the
    symbols [a, b) of its pairs b[1,a]."""
    arf = wp_reduce(sum((a for _, a in f.pairs), f.tower.zero()))
    clifford = SymbolSum(2, tuple(Symbol(2, a, (b,)) for b, a in f.pairs))
    return arf, clifford, class_trivial(clifford)


def _local_classification(f: QuadraticForm) -> _LocalClass | None:
    """The class of f over F = F_q((t)), None when f is out of reach
    (`_in_local_reach`).

    F is C_2 (S. Lang, Ann. of Math. 55, 1952), so u(F) = 4 and every form
    of dimension >= 5 is isotropic, quasilinear entries included.  Its
    degree-3 Pfister subgroup vanishes (K. Kato, Invent. Math. 66, 1982),
    so a nonsingular form is fixed in the Witt group by its Arf class and
    its Clifford class in H_2^2(F) = Z/2.  A nonsingular form of dimension 4
    with a nontrivial Arf class is isotropic; with a trivial one it is
    similar to a 2-fold Pfister form, isotropic and then hyperbolic exactly
    when its Clifford class is trivial.  Nothing here searches.
    """
    if not _in_local_reach(f):
        return None
    arf, clifford, trivial = _local_invariants(f)
    isotropic = f.dim >= 5 or not arf.is_in_wp or trivial
    return _LocalClass(f.dim, arf, clifford, trivial, isotropic)


def _non_norm_candidates(tw: FieldTower, a: FieldElement):
    """t, then 1 + eps*t^j for odd j from 1 to -v(a), eps running over the
    F_2-basis z^i of F_q; a is a reduced Arf class outside wp.

    One of them is no norm from F(wp^-1(a)), F = F_q((t)): by local class
    field theory the norms have index 2 in F^* (J.-P. Serre, Local Fields,
    ch. XV), and [a, c) is nontrivial exactly for a non-norm c.  When
    v(a) >= 0 the extension is unramified and t is no norm.  Otherwise
    v(a) = -m with m odd, and Schmid's residue formula gives
    [a, 1 + eps*t^m) = Tr(eps * a_{-m}), 1 for some basis element eps.
    """
    t = tw.gen(1)
    yield t
    m = -a.valuation(1) if a.level else 0
    for j in range(1, m + 1, 2):
        for i in range(tw.k):
            yield tw.one() + tw.base_element(1 << i) * tw.monomial(1, j)


def _local_kernel(g: QuadraticForm, record: _LocalClass) -> tuple | None:
    """The anisotropic kernel, as pairs, of the nonsingular g of dimension 4
    over F_q((t)) with the Arf and Clifford classes of `record`; None when
    no `_non_norm_candidates` element fits.

    Trivial Arf: hyperbolic when the class is trivial, else g itself.
    Nontrivial Arf a: c[1,a] with [a, c) the Clifford class, c = 1 when that
    class is trivial.
    """
    tw = g.tower
    if record.arf.is_in_wp:
        return () if record.trivial else g.pairs
    a = record.arf.reduced
    if record.trivial:
        return ((tw.one(), a),)
    for c in _non_norm_candidates(tw, a):
        if class_trivial(record.clifford + Symbol(2, a, (c,))):
            return ((c, a),)
    return None


# -- Witt decomposition ---------------------------------------------------------------


@dataclass(frozen=True)
class WittDecomposition:
    index: int
    kernel: QuadraticForm       # anisotropic pairs + independent quasilinear part
    proof: tuple = ()

    @property
    def kernel_dim(self) -> int:
        return self.kernel.dim


def witt_decompose(f: QuadraticForm) -> WittDecomposition:
    """index copies of the hyperbolic plane split off, anisotropic kernel kept.

    The quasilinear part contributes its F^2-rank defect to the index and
    its independent entries to the kernel.  Joint isotropy between the
    nonsingular kernel and the quasilinear kernel is outside this
    operation's contract.
    """
    tw = f.tower
    steps = []
    index, pairs = _decompose_pairs(QuadraticForm(tw, f.pairs), steps)
    ql_kernel = ()
    if f.quasilinear:
        rank, pivots = square_span_rank(tw, f.quasilinear)
        defect = len(f.quasilinear) - rank
        index += defect
        ql_kernel = tuple(f.quasilinear[j] for j in pivots)
        if defect:
            steps.append({"step": "ql-defect", "count": defect, "kept": [str(c) for c in ql_kernel]})
    kernel = QuadraticForm(tw, pairs, ql_kernel)
    return WittDecomposition(index, kernel, tuple(steps))


def _decompose_pairs(f: QuadraticForm, steps) -> tuple[int, tuple]:
    tw = f.tower
    if not f.pairs:
        return 0, ()
    level = _form_level(f)
    if level == 0:
        return _finite_decompose(f, steps)
    pairs, wild = _normalize_pairs(f, level)
    if wild:
        if len(pairs) == 1:
            steps.append({"step": "wild-kernel", "level": level})
            return 0, tuple(pairs)
        g = QuadraticForm(tw, tuple(pairs))
        # over F_q((t)) two pairs are classified at once; more split a plane
        # off first, at the exact zero that any three b-slots give, being
        # dependent over the squares there ([F : F^2] = 2)
        record = _local_classification(g) if len(pairs) == 2 else None
        if record is not None:
            kernel = _local_kernel(g, record)
            if kernel is None:
                raise UndecidableInstance(f"no kernel scalar found for {g} at level {level}")
            index = len(pairs) - len(kernel)
            steps.append({"step": "local-classification", "level": level, "dim": g.dim,
                          "arf": str(record.arf.reduced), "class_trivial": record.trivial,
                          "index": index, "kernel": _pair_strs(kernel)})
            return index, kernel
        # wild mixture: an exact zero still lets us split one plane off
        w = _diagonal_witness(g)
        if w is None:
            found = brute_search(g)
            if found.witness is not None:
                w = found.witness
        if w is not None:
            rest = split_plane(g, w)
            steps.append({"step": "split-plane", "witness": _vec_str(w), "level": level})
            i_rest, k_rest = _decompose_pairs(rest, steps)
            return i_rest + 1, k_rest
        raise UndecidableInstance(
            f"wild mixture of {len(pairs)} pairs at level {level}"
        )
    steps.append({"step": "normalize", "level": level, "pairs": _pair_strs(pairs)})
    (_, unit_form), (_, t_form) = _springer_split(tw, pairs, (), level)
    steps.append({"step": "springer-split", "level": level,
                  "unit_dim": unit_form.dim, "t_dim": t_form.dim})
    i1, k1 = _decompose_pairs(unit_form, steps)
    i2, k2 = _decompose_pairs(t_form, steps)
    t = tw.gen(level)
    kernel = k1 + tuple((t * b, a) for b, a in k2)
    return i1 + i2, kernel


def _finite_decompose(f: QuadraticForm, steps) -> tuple[int, tuple]:
    tw = f.tower
    index = 0
    canon = tw.trace_one_element()
    survivors = 0
    for b, a in f.pairs:
        r = wp_reduce(a)
        if r.is_in_wp:
            index += 1
        else:
            survivors += 1
    index += (survivors // 2) * 2
    kernel = ((tw.one(), canon),) if survivors % 2 else ()
    steps.append({
        "step": "finite-merge",
        "hyperbolic_pairs": index,
        "kernel": _pair_strs(kernel),
    })
    return index, kernel


def witt_index(f: QuadraticForm) -> int:
    return witt_decompose(f).index


def is_hyperbolic(f: QuadraticForm) -> bool:
    if f.quasilinear:
        return False
    return witt_decompose(f).kernel_dim == 0


def witt_equivalent(f: QuadraticForm, g: QuadraticForm) -> bool:
    """f ~ g in the Witt group; in characteristic 2 every form is its own
    inverse, so this is hyperbolicity of the orthogonal sum."""
    if f.quasilinear or g.quasilinear:
        raise SingularInput("Witt equivalence implemented for nonsingular forms")
    return is_hyperbolic(orth_sum(f, g))


# -- bounded searches ------------------------------------------------------------------


def _check_budget(budget: int):
    if budget < 0:
        raise HypothesisViolated(f"a search budget is a count of at least 0, got {budget}")


def candidate_scalars(tw: FieldTower, budget: int) -> list[FieldElement]:
    """Deterministic candidate pool, grown with the budget."""
    _check_budget(budget)
    out = [tw.zero(), tw.one()]
    out += [tw.base_element(b) for b in range(2, min(tw.order, 4 + budget // 256))]
    gens = [tw.gen(i) for i in range(1, tw.height + 1)]
    out += [y for g in gens for y in (g, tw.one() + g)]
    if budget >= 64:
        out += [g.inverse() for g in gens]
    if budget >= 256:
        out += [y for g in gens for y in (g * g, tw.one() + g * g, g.inverse() * g.inverse())]
        out += [y for i, g in enumerate(gens) for h in gens[i + 1:] for y in (g * h, g + h)]
    if budget >= 4096:
        out += [y for g in gens for h in gens if g != h for y in (g * h.inverse(), g + h * h)]
    return list(dict.fromkeys(out))


def brute_search(f: QuadraticForm, budget: int = DEFAULT_SEARCH_BUDGET) -> IsotropyVerdict:
    """Independent isotropy oracle: never returns Anisotropic.

    Enumerates candidate vectors blockwise (meet-in-the-middle over the
    binary pieces, so `budget` counts covered combinations), then scans a
    smaller candidate list for Hensel pairs that certify a zero of the
    completion.  Deterministic for a fixed budget.

    Block values and their sums are keys S * q(v) for one nonzero S per
    search (`_Cleared`), top-ring polynomials added and multiplied with no
    gcd; equal keys are equal values.

    The Hensel pass evaluates nothing form-wide.  q(e_i) comes from
    `_basis`; q(v) of a candidate from the left half of the
    meet-in-the-middle is its key times S^-1, rebuilt only when its
    valuations pass the screen (`_Cleared.screen`); and the row B(v, e_i)
    is one coordinate of v times a b-slot (`_polar_row`).  Only a returned
    witness is evaluated, by `_iso_exact`.
    """
    tw = f.tower
    if f.dim == 0:
        return IsotropyVerdict("undecided", None, None, {"reason": "empty form"})
    pool = candidate_scalars(tw, budget)
    k, kq = max(3, int(budget ** 0.25)), max(3, int(budget ** 0.5))
    cleared = _Cleared(f, pool[: kq if f.quasilinear else k])
    blocks = cleared.blocks(k, kq)

    mid = (len(blocks) + 1) // 2
    left = _block_combos(cleared.ring, blocks[:mid], budget)
    right = _block_combos(cleared.ring, blocks[mid:], budget)
    # per block value the first nonzero left coords, else the zero vector,
    # which must never mask a real witness with the same block value
    table = {}
    for coords, value in left:
        if not any(table.get(value, ())):
            table[value] = coords
    covered = 0
    for coords, value in right:
        covered += len(table)
        if covered > budget * 4:
            break
        match = table.get(value)
        if match is not None and any(match + coords):
            return _iso_exact(f, match + coords)

    # Hensel pass: the basis vectors, then the first left combinations,
    # each against every basis vector; a combination the screen rejects
    # gets no value (None) and no row, but counts as tried
    basis = _basis(f)
    zero = tw.zero()
    cand = ((c + (zero,) * (f.dim - len(c)), cleared.value(key) if cleared.screen(c, key) else None)
            for c, key in left[:64])
    hensel_tried = 0
    for v, qv in chain(basis, cand):
        if not any(v):
            continue
        if hensel_tried > budget:
            break
        if qv is not None:
            got = _hensel_scan(f, v, qv, _polar_row(f, v), basis)
            if got is not None:
                return got
        hensel_tried += f.dim
    report = {"budget": budget, "pool": len(pool), "pairs_covered": min(covered, budget * 4),
              "hensel_tried": hensel_tried}
    return IsotropyVerdict("undecided", None, None, report)


def _block_combos(ring, blocks, budget):
    """(coords, summed key) over one entry per block in product order, the
    first block outermost, summed in `ring`; cut at the budget's square
    root when there are several blocks."""
    cap = max(4, int(budget ** 0.5)) if len(blocks) > 1 else None
    add = ring.add
    combos = [((), ring.zero)]
    for vals in blocks:
        combos = list(islice(
            ((coords + c, add(acc, key)) for coords, acc in combos for c, key in vals), cap
        ))
    return combos


def _approx_sqrt(x: FieldElement):
    """Exact square root, or a truncation whose square agrees with x to
    strictly higher valuation; None when the parity obstructs."""
    if x.is_zero():
        return x
    r = x.sqrt()
    if r is not None:
        return r
    level = x.level
    if level == 0:
        return None
    v = x.valuation(level)
    if v % 2:
        return None
    res = t_power_shift(x, level, -v).residue(level)
    if res.is_zero():
        return None
    rs = _approx_sqrt(res)
    if rs is None:
        return None
    return t_power_shift(rs, level, v // 2)


def square_completion_isotropy(f: QuadraticForm, budget: int) -> IsotropyVerdict | None:
    """Isotropy of (nonsingular + quasilinear) by completing nonsingular
    values to squares through a quasilinear coordinate; exact witnesses
    when the value is an exact square, Hensel pairs otherwise.

    Nonsingular combinations are summed as keys, as in `brute_search`; each
    one examined is rebuilt into w = q(v) with one multiply.  A candidate's
    q(v) is w + c * root^2, and its row B(v, e_i) comes from `_polar_row`."""
    tw = f.tower
    if not f.quasilinear or not f.pairs:
        return None
    small = candidate_scalars(tw, budget)[: max(3, int(budget ** 0.2))]
    cleared = _Cleared(f.nonsingular_part(), small)
    combos = _block_combos(cleared.ring, cleared.blocks(len(small), 0), budget)
    nq = len(f.quasilinear)
    basis = _basis(f)
    for coords, key in combos[:budget]:
        if not key:
            if any(coords):
                return _iso_exact(f, coords + (tw.zero(),) * nq)
            continue
        w = cleared.value(key)
        row = None
        for j, c in enumerate(f.quasilinear):
            # q(v) = 0 when the root is exact, and _hensel_scan returns v
            root = _approx_sqrt(w / c)
            if root is None:
                continue
            v = coords + _pad(tw, (root,), nq, j)
            if row is None:
                # quasilinear coordinates are radical: the row depends on coords alone
                row = _polar_row(f, v)
            got = _hensel_scan(f, v, w + c * (root * root), row, basis)
            if got is not None:
                return got
    return None


# -- certificate re-verification ----------------------------------------------------


def verify_certificate(f: QuadraticForm, verdict: IsotropyVerdict) -> bool:
    """Re-check a verdict's certificate independently of how it was found;
    a malformed one (a field missing or of the wrong type) is rejected."""
    if verdict.kind == "undecided":
        return True
    return _verify_cert(f, verdict.certificate, verdict.kind)


def _parsed(tw, strs, n):
    """The n elements a certificate field lists as parseable strings, or
    None."""
    ok = isinstance(strs, list) and all(isinstance(s, str) for s in strs)
    if not ok or n != len(strs):
        return None
    try:
        return tuple(parse_element(tw, s) for s in strs)
    except ParseError:
        return None


def _residue_forms(f: QuadraticForm, level) -> list | None:
    """[("unit", f1), ("t", f2)], the Springer split of f, its quasilinear
    entries included, at its own level, when `level` names that level and f
    is tame there; else None."""
    own = _form_level(f)
    if not own or level != own:
        return None
    pairs, wild = _normalize_pairs(f, own)
    if wild:
        return None
    ql = tuple(strip_even_power(c, own) for c in f.quasilinear)
    return [(part, g) for part, (_, g) in zip(("unit", "t"), _springer_split(f.tower, pairs, ql, own))]


def _stores(record, g: QuadraticForm, with_quasilinear: bool, prefix: str = "") -> bool:
    """Whether a certificate record stores the residue form g as the
    decider writes it (`_split_record`)."""
    return isinstance(record, dict) and all(
        record.get(k) == x for k, x in _split_record(g, with_quasilinear, prefix).items()
    )


def _smooth_zero(g: QuadraticForm, inner) -> bool:
    """Whether the zero of g that a verified inner certificate records is
    smooth: an exact zero needs a nonzero pair coordinate, while a Hensel
    pair or a residue lift always has B(w, .) != 0."""
    if inner.get("rule") != "exact-zero":
        return True
    return any(_parsed(g.tower, inner.get("witness"), g.dim)[: 2 * len(g.pairs)])


def _local_invariants_hold(f: QuadraticForm, cert: dict, kind: str) -> bool:
    """Whether the dimension, Arf class and class verdict that a
    `local-invariants` certificate stores are those of f, or of f's
    nonsingular part for an isotropic verdict stored with that part's
    dimension, and force `kind` over F_q((t)) (`_local_classification`)."""
    g = f
    if kind == "isotropic" and f.quasilinear and cert.get("dim") != f.dim:
        g = f.nonsingular_part()
    if not _in_local_reach(g):
        return False
    arf, _, trivial = _local_invariants(g)
    isotropic = g.dim >= 5 or not arf.is_in_wp or trivial
    return (cert.get("dim") == g.dim and cert.get("arf") == str(arf.reduced)
            and cert.get("class_trivial") is trivial and isotropic == (kind == "isotropic"))


def _verify_cert(f: QuadraticForm, cert, kind: str) -> bool:
    """Each rule rebuilds its data from f and compares what the certificate
    stores with it; no rule calls the decider."""
    if not isinstance(cert, dict):
        return False
    tw = f.tower
    rule = cert.get("rule")
    if rule == "local-invariants":
        return _local_invariants_hold(f, cert, kind)
    if kind == "isotropic":
        if rule == "exact-zero":
            v = _parsed(tw, cert.get("witness"), f.dim)
            return v is not None and f.evaluate(v).is_zero() and any(v)
        if rule == "hensel-pair":
            v, u = (_parsed(tw, cert.get(k), f.dim) for k in ("v", "u"))
            return v is not None and u is not None and hensel_pair_applies(f, v, u)
        if rule == "residue-lift":
            # a smooth zero of a residue form of f, or of f's nonsingular
            # part when no entries are stored, lifts to f
            with_ql = "residue_quasilinear" in cert
            parts = _residue_forms(f if with_ql else f.nonsingular_part(), cert.get("level")) or ()
            g = next((g for part, g in parts if part == cert.get("part")), None)
            inner = cert.get("inner")
            return (g is not None and _stores(cert, g, with_ql, "residue_")
                    and _verify_cert(g, inner, kind) and _smooth_zero(g, inner))
        return False
    # anisotropic side
    if rule == "empty":
        return f.dim == 0
    if rule == "ql-independent":
        return (not f.pairs and cert.get("entries") == _vec_str(f.quasilinear)
                and square_dependence(tw, f.quasilinear) is None)
    if rule == "springer":
        parts = _residue_forms(f, cert.get("level"))
        return parts is not None and all(
            _stores(p, g, bool(f.quasilinear)) and _verify_cert(g, p.get("certificate"), kind)
            for p, g in ((cert.get(f"{part}_part"), g) for part, g in parts)
        )
    # the other rules certify a single nonsingular pair
    if f.quasilinear:
        return False
    level, single = _form_level(f), len(f.pairs) == 1
    if rule == "base-nonwp":
        r = wp_reduce(f.pairs[0][1]) if single else None
        return r is not None and not r.is_in_wp and cert.get("a") == str(r.reduced)
    if rule == "wild-binary":
        a, wild = exact_tail_reduce(f.pairs[0][1], level) if single and level else (None, False)
        return wild and cert.get("level") == level and cert.get("a") == str(a)
    return False
