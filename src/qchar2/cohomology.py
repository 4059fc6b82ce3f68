"""Symbol sums over the dt_i/t_i basis: rewriting, residues, triviality.

A degree-n symbol a d(b_1)/b_1 ^ ... ^ d(b_{n-1})/b_{n-1} is stored as a
coefficient plus a slot tuple; a class of the degree-n group is a formal
sum of symbols.  Classes never get a coset normal form: equality of
classes is always asked as `class_trivial(difference)`.

Triviality is decided exactly by a residue recursion along Kato's
filtration (K. Kato, LNM 967, 1982).  At each Laurent level a tame sum
splits into an unramified part (all slots units) and a ramified part (one
dt/t factor, degree drops by one), both living one level down; the class
is trivial iff both parts are.  A wild sum (a coefficient with an
irreducible pole) first has its poles lowered step by step until it is
tame, or until a step shows the class nontrivial.  At the perfect base
field every degree >= 2 class is trivial and degree-1 classes are
Artin-Schreier membership, which is the trace.  At height 1 in degree 2
this is Schmid's residue trace.  No step searches, so no budget applies.

The decision and the display are kept apart.  `class_trivial` recurses
on plain (coefficient, slots) terms, reduces coefficients modulo wp and
takes slots as given; `simplify`, and the public `symbol_residue` that
ends in it, canonicalize a sum for printing (square-free sorted slots,
merged symbols), which no verdict needs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

from .errors import WildSymbol, ZeroInput
from .fields import (
    FieldElement,
    FieldTower,
    exact_tail_reduce,
    laurent_coefficients,
    strip_even_power,
    wp_reduce,
)
from .forms import QuadraticPfister
from .linalg import square_coordinates


@dataclass(frozen=True)
class Symbol:
    """a d(b_1)/b_1 ^ ... ^ d(b_{n-1})/b_{n-1}; degree n, n-1 slots."""

    degree: int
    coefficient: FieldElement
    slots: tuple[FieldElement, ...] = ()

    def __post_init__(self):
        if self.degree != len(self.slots) + 1:
            raise ValueError(f"degree {self.degree} needs {self.degree - 1} slots")
        for b in self.slots:
            if b.is_zero():
                raise ZeroInput("zero slot in a symbol")

    def is_zero(self) -> bool:
        return self.coefficient.is_zero()

    def __str__(self):
        from .parsing import format_symbol_sum

        return format_symbol_sum(SymbolSum(self.degree, (self,)))

    __repr__ = __str__


@dataclass(frozen=True)
class SymbolSum:
    degree: int
    symbols: tuple[Symbol, ...] = ()

    def __post_init__(self):
        for s in self.symbols:
            if s.degree != self.degree:
                raise ValueError("mixed degrees in a symbol sum")

    def __add__(self, other):
        if isinstance(other, Symbol):
            other = SymbolSum(other.degree, (other,))
        if self.degree != other.degree:
            raise ValueError("adding symbol sums of different degrees")
        return SymbolSum(self.degree, self.symbols + other.symbols)

    def is_empty(self) -> bool:
        return not self.symbols

    def __str__(self):
        from .parsing import format_symbol_sum

        return format_symbol_sum(self)

    __repr__ = __str__


def symbol(coefficient: FieldElement, *slots: FieldElement) -> Symbol:
    return Symbol(len(slots) + 1, coefficient, tuple(slots))


def zero_sum(degree: int) -> SymbolSum:
    return SymbolSum(degree, ())


@dataclass(frozen=True)
class DifferentialForm:
    """sum_J c_J dt_{j_1} ^ ... ^ dt_{j_d} over the 2-basis; degree d."""

    degree: int
    entries: tuple[tuple[tuple[int, ...], FieldElement], ...]  # sorted index sets

    @classmethod
    def from_dict(cls, degree: int, coords: dict):
        items = tuple(
            (tuple(sorted(key)), value)
            for key, value in sorted(coords.items(), key=lambda kv: tuple(sorted(kv[0])))
            if not value.is_zero()
        )
        return cls(degree, items)

    def coords(self) -> dict:
        return {frozenset(k): v for k, v in self.entries}

    def is_zero(self) -> bool:
        return not self.entries


# -- normalization -------------------------------------------------------------------


def _slot_normal(b: FieldElement) -> FieldElement:
    # strip even t-powers at the slot's own level while the representation
    # keeps collapsing; exact, and d(b s^2)/(b s^2) = d(b)/b
    cur = b
    while cur.level > 0:
        nxt = strip_even_power(cur, cur.level)
        if nxt == cur:
            break
        cur = nxt
    return cur


def _normalize_symbol(s: Symbol) -> Symbol | None:
    r = wp_reduce(s.coefficient)
    if r.is_in_wp:
        return None
    coeff = r.reduced
    slots = []
    for b in s.slots:
        nb = _slot_normal(b)
        if nb.is_square():
            return None           # square slot kills d(b)/b
        slots.append(nb)
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            if (slots[i] * slots[j]).is_square():
                return None       # equal slots modulo squares: wedge vanishes
    slots.sort(key=str)
    return Symbol(s.degree, coeff, tuple(slots))


def simplify(s: SymbolSum) -> SymbolSum:
    """Canonical cleanup for display: reduced coefficients, square-free
    sorted slots, doubled symbols cancelled, equal-slot symbols merged, and
    slot merges for equal coefficients, repeated until nothing changes.
    `class_trivial` never calls it."""
    normal = (_normalize_symbol(sym) for sym in s.symbols)
    return _merge_normal(s.degree, [n for n in normal if n is not None])


def _merge_normal(degree: int, symbols: list) -> SymbolSum:
    """`simplify` of normalized symbols."""
    by_slots: dict = {}
    for n in symbols:
        by_slots[n.slots] = by_slots.get(n.slots, n.coefficient.tower.zero()) + n.coefficient
    out = []
    for slots, coeff in sorted(by_slots.items(), key=lambda kv: [str(b) for b in kv[0]]):
        r = wp_reduce(coeff)
        if not r.is_in_wp:
            out.append(Symbol(degree, r.reduced, slots))
    # slot-merge {a; b, R} + {a; b', R} = {a; b b', R}, then collect again:
    # the merged symbol can share its slots with another
    for i, j in combinations(range(len(out)), 2):
        merged = _merge_slotwise(out[i], out[j])
        if merged is not None:
            rest = [x for k, x in enumerate(out) if k not in (i, j)]
            return _merge_normal(degree, rest + list(merged))
    return SymbolSum(degree, tuple(out))


def _merge_slotwise(x: Symbol, y: Symbol) -> tuple | None:
    """The symbols replacing x + y when they differ in one slot: () when
    the merged symbol vanishes; None when they do not merge."""
    if x.coefficient != y.coefficient or x.degree < 2:
        return None
    cx, cy = Counter(x.slots), Counter(y.slots)
    only_x = list((cx - cy).elements())
    only_y = list((cy - cx).elements())
    if len(only_x) != 1 or len(only_y) != 1:
        return None
    rest = list((cx & cy).elements())
    merged = _normalize_symbol(
        Symbol(x.degree, x.coefficient, tuple(rest + [only_x[0] * only_y[0]]))
    )
    return () if merged is None else (merged,)


# -- differential expansion -----------------------------------------------------------


def _expansion_terms(s: SymbolSum):
    """(J, term) pairs whose terms sum, per index set J, to the dt_J
    coordinates of s: one pair per symbol and choice of a distinct basis
    differential for each slot."""
    terms = []
    for sym in s.symbols:
        if sym.is_zero():
            continue
        tw = sym.coefficient.tower
        rows = [b.dlog_coords() for b in sym.slots]

        def expand(j, used, acc):
            if acc.is_zero():
                return
            if j == len(rows):
                terms.append((frozenset(used), sym.coefficient * acc))
                return
            for i in range(tw.height):
                if i + 1 in used:
                    continue
                c = rows[j][i]
                if not c.is_zero():
                    expand(j + 1, used + (i + 1,), acc * c)

        expand(0, (), tw.one())
    return terms


def to_differential(s: SymbolSum) -> DifferentialForm:
    """Expand through logarithmic-derivative coordinates; degree drops by 1."""
    coords: dict = {}
    for key, term in _expansion_terms(s):
        _accumulate(coords, key, term)
    return DifferentialForm.from_dict(s.degree - 1, coords)


def _accumulate(coords: dict, key, x: FieldElement):
    """coords[key] += x, dropping the key when the sum vanishes."""
    total = coords[key] + x if key in coords else x
    if total.is_zero():
        coords.pop(key, None)
    else:
        coords[key] = total


def basis_rewrite(w: DifferentialForm, tw: FieldTower) -> SymbolSum:
    """One symbol per nonzero coordinate: coefficient c_J * prod t_j and
    slots (t_j); expands back to w exactly."""
    out = []
    for key, c in w.entries:
        coeff = c
        slots = []
        for j in key:
            tj = tw.gen(j)
            coeff = coeff * tj
            slots.append(tj)
        out.append(Symbol(w.degree + 1, coeff, tuple(slots)))
    return SymbolSum(w.degree + 1, tuple(out))


# -- residue reduction ----------------------------------------------------------------


def symbol_residue(s: SymbolSum, level: int) -> tuple[SymbolSum, SymbolSum]:
    """(unramified part, ramified part), both one level down and simplified.

    Tameness required: coefficients reduce to nonnegative valuation, every
    slot is a unit or t * unit modulo squares.  A slot t*u contributes its
    dt/t factor to the ramified side (degree drops by one) and du/u to the
    unramified side; coefficients are residued, their positive-valuation
    tails being Artin-Schreier trivial by the series solution.  The
    `simplify` at the end is for display; `class_trivial` recurses on the
    raw parts.
    """
    parts = _residue_terms(_terms(s), level)
    if parts is None:
        raise WildSymbol(f"a coefficient is wild at level {level}")
    return tuple(simplify(SymbolSum(n, tuple(Symbol(n, a, b) for a, b in part)))
                 for n, part in zip((s.degree, s.degree - 1), parts))


def _terms(s: SymbolSum) -> list:
    return [(sym.coefficient, sym.slots) for sym in s.symbols]


def _residue_terms(terms: list, level: int) -> tuple[list, list] | None:
    """The unramified and ramified parts of a sum of (coefficient, slots)
    terms, raw, as term lists one level down; None when a coefficient is
    wild.  A slot's lowest coefficient never vanishes; a residue 1 is left
    for the next level's cleanup to drop."""
    unram, ram = [], []
    for coeff, slots in terms:
        a, wild = exact_tail_reduce(coeff, level)
        if wild:
            return None
        a0 = a.residue(level)
        if a0.is_zero():
            continue
        # b = t^v * u with u a unit: its residue is b's lowest coefficient,
        # and an odd v leaves one dt/t
        units = [b.lead(level) for b in slots]
        odd = [b.level == level and b.valuation(level) % 2 for b in slots]
        unram.append((a0, tuple(units)))
        ram += [(a0, tuple(units[:i] + units[i + 1:])) for i, has_t in enumerate(odd) if has_t]
    return unram, ram


# -- triviality ------------------------------------------------------------------------


def class_trivial(s: SymbolSum) -> bool:
    """Whether the class of s is trivial; exact on every supported tower.

    Residue recursion on tame sums; a wild sum has its poles at the top
    level lowered first (`_lower_poles`), which may already show the class
    nontrivial.  The recursion runs on plain (coefficient, slots) terms
    and builds symbols only for `_lower_poles`.  Each level reduces
    coefficients modulo wp and recurses on the raw parts of
    `_residue_terms`; slots are never square-tested, sorted or merged,
    which is `simplify`'s display work.  The reduction is what keeps the
    lower-level sums short: wp terms left in would pile up level by level.
    """
    return _terms_trivial(s.degree, _terms(s))


def _terms_trivial(degree: int, terms: list) -> bool:
    # reduce: a term drops when its coefficient lies in wp, a slot is 1 or
    # two slots are equal, slots compared as given
    terms = [
        (r.reduced, slots) for coeff, slots in terms
        if not any(b.is_one() for b in slots) and (len(slots) < 2 or len(set(slots)) == len(slots))
        and not (r := wp_reduce(coeff)).is_in_wp
    ]
    if not terms:
        return True
    if degree == 1:
        return wp_reduce(sum((a for a, _ in terms[1:]), terms[0][0])).is_in_wp
    level = max(max(a.level, *(b.level for b in slots)) for a, slots in terms)
    if level == 0:
        return True   # perfect base field: no nonzero differentials
    parts = _residue_terms(terms, level)
    if parts is None:
        tame = _lower_poles(SymbolSum(degree, tuple(Symbol(degree, a, b) for a, b in terms)), level)
        if tame is None:
            return False
        parts = _residue_terms(_terms(tame), level)
    return _terms_trivial(degree, parts[0]) and _terms_trivial(degree - 1, parts[1])


def _lower_poles(s: SymbolSum, level: int) -> SymbolSum | None:
    """A tame sum in the class of s, or None when the class is nontrivial.

    Write s as sum_J a_J dlog t_J with t = t_level.  Only the Laurent terms
    of a_J up to t^0 matter (a positive-valuation tail lies in wp), so each
    a_J is kept as its coefficients c_{J,e}, e <= 0, one level down.  Let
    t^-N sum_J c_J dlog t_J be the leading part; Kato's graded pieces
    decide it:
    * N odd: d(t^-N c dlog t_I) = t^-N (c dlog t + dc) ^ dlog t_I trades
      every dlog t factor for dc; the rewritten part eta is a form one
      level down, and eta != 0 makes the class nontrivial, while eta = 0
      leaves an exact leading part, which drops;
    * N = 2M even: a leading part that is not closed makes the class
      nontrivial; a closed one is C^-1(theta) plus an exact form (Cartier),
      and C^-1(theta) = theta + wp(theta), so it is replaced by
      theta = t^-M sum_J u_J dlog t_J, with u_J the S = {} square
      coordinate of c_J.
    Each step lowers N; what is left is the t^0 part, a tame sum.
    """
    tw = s.symbols[0].coefficient.tower
    laurent: dict = {}     # J -> {e: c_{J,e}}
    for key, term in _expansion_terms(s):
        # dlog t_J = t_J^-1 dt_J: scale by the t_j below t, shift for t
        shift = 1 if level in key else 0
        low = term.valuation(level) if term.level == level else 0
        if low + shift > 0:
            continue
        scale = tw.one()
        for j in key - {level}:
            scale = scale * tw.gen(j)
        row = laurent.setdefault(key, {})
        for e, c in enumerate(laurent_coefficients(term, level, low, 1 - shift - low), low + shift):
            if not c.is_zero():
                _accumulate(row, e, c * scale)
    while True:
        order = -min((e for row in laurent.values() for e in row), default=0)
        if order <= 0:
            break
        lead = {key: row.pop(-order) for key, row in laurent.items() if -order in row}
        form: dict = {}
        for key, c in lead.items():
            if order % 2 == 0:
                _add_differential(form, key, c, level)
            elif level in key:
                _add_differential(form, key - {level}, c, level)
            else:
                _accumulate(form, key, c)
        if form:
            return None
        if order % 2 == 0:
            for key, c in lead.items():
                u = square_coordinates(c).get(frozenset())
                if u is not None:
                    _accumulate(laurent[key], -order // 2, u)
    return SymbolSum(s.degree, tuple(
        Symbol(s.degree, row[0], tuple(tw.gen(j) for j in sorted(key)))
        for key, row in laurent.items() if 0 in row
    ))


def _add_differential(form: dict, key: frozenset, c: FieldElement, level: int):
    """form += dc ^ dlog t_key, with dc = sum_j t_j (dc/dt_j) dlog t_j over
    the variables below `level`."""
    tw = c.tower
    for j in range(1, level):
        if j not in key:
            x = c.derivative(j)
            if not x.is_zero():
                _accumulate(form, key | {j}, tw.gen(j) * x)


def symbol_to_pfister(sym: Symbol) -> QuadraticPfister:
    """Invert the cohomological-invariant map slotwise."""
    return QuadraticPfister(sym.slots, sym.coefficient)


# -- symbol length ----------------------------------------------------------------------


@dataclass(frozen=True)
class LengthResult:
    value: int
    exact: bool
    expression: SymbolSum | None = None


def symbol_pool(tw: FieldTower, budget: int) -> list[FieldElement]:
    """Monomials t_1^e1 ... t_m^em * u with |e_i| <= 2 and base-field u,
    grown geometrically with the budget."""
    exps = [0, 1, -1, 2, -2] if budget >= 64 else [0, 1]
    units = list(range(1, min(tw.order, 2 + budget // 512 + 1)))
    pool = []
    seen = set()

    def mono(es, u):
        x = tw.base_element(u)
        for lv, e in enumerate(es, start=1):
            if e:
                x = x * tw.monomial(lv, e)
        return x

    for es in product(exps, repeat=tw.height):
        for u in units:
            x = mono(es, u)
            if x not in seen:
                seen.add(x)
                pool.append(x)
    if budget >= 2048:
        extra = []
        for i, x in enumerate(pool[: min(len(pool), 12)]):
            for y in pool[i + 1 : min(len(pool), 12)]:
                z = x + y
                if not z.is_zero() and z not in seen:
                    seen.add(z)
                    extra.append(z)
        pool.extend(extra)
    return pool


def symbol_length(s: SymbolSum, budget: int = 4096) -> LengthResult:
    """Exact symbol length when certifiable (0, 1, or the basis-coordinate
    count when nothing shorter exists in the searched pool); otherwise an
    upper bound flagged inexact."""
    if class_trivial(s):
        return LengthResult(0, True, zero_sum(s.degree))
    simple = simplify(s)
    if len(simple.symbols) == 1:
        return LengthResult(1, True, simple)
    tw = simple.symbols[0].coefficient.tower
    canonical = basis_rewrite(to_differential(simple), tw)
    bound = max(1, len(simplify(canonical).symbols))
    if bound <= 1:
        return LengthResult(1, True, simplify(canonical))
    # bounded verified search for a single-symbol expression
    pool = symbol_pool(tw, budget)
    tried = 0
    slots_needed = s.degree - 1
    for cand in _symbol_candidates(pool, slots_needed, s.degree):
        tried += 1
        if tried > budget:
            break
        if class_trivial(simple + cand):
            return LengthResult(1, True, SymbolSum(s.degree, (cand,)))
    best = simplify(canonical)
    return LengthResult(min(bound, len(best.symbols)) or bound, False, best)


def _symbol_candidates(pool, slots_needed, degree):
    nonzero = [x for x in pool if not x.is_zero()]
    for chosen in combinations(nonzero, slots_needed):
        for a in nonzero:
            yield Symbol(degree, a, chosen)
