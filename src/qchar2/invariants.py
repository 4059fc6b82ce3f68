"""Arf and Clifford invariants, the invariant map on Pfister forms, and
membership in the filtration by Pfister subgroups.

The Clifford class of b_1[1,a_1] + ... + b_p[1,a_p] is the formal sum of
the degree-2 symbols [a_i, b_i); triviality of such sums is decided
exactly by `cohomology.class_trivial`, wild sums included.  Membership in
the degree-n subgroup is decided by the invariants for n <= 3 and by the
vanishing table beyond that.
"""

from __future__ import annotations

from .cohomology import Symbol, SymbolSum, class_trivial, simplify
from .errors import HypothesisViolated, SingularInput
from .fields import FieldTower, WpNormalForm, wp_reduce
from .forms import QuadraticForm, QuadraticPfister, arf_sum
from .witt import is_hyperbolic


def arf(f: QuadraticForm) -> WpNormalForm:
    """Arf invariant: the class of the sum of the a-slots modulo wp."""
    return wp_reduce(arf_sum(f))


def clifford(f: QuadraticForm) -> SymbolSum:
    """Clifford class as a simplified degree-2 sum of symbols [a_i, b_i)."""
    if not f.is_nonsingular():
        raise SingularInput("Clifford invariant needs a nonsingular form")
    return simplify(SymbolSum(2, tuple(Symbol(2, a, (b,)) for b, a in f.pairs)))


def clifford_trivial(c: SymbolSum) -> bool:
    """Whether the Brauer class of the sum is trivial."""
    return class_trivial(c)


def e_map(p: QuadraticPfister) -> Symbol:
    """The invariant of a fold-n Pfister form: coefficient from the last
    slot, symbol slots from the bilinear slots; degree equals the fold."""
    return Symbol(p.fold, p.last_slot, p.bilinear_slots)


def pfister_hyperbolic(p: QuadraticPfister) -> bool:
    """Whether the expansion of p is hyperbolic, equivalently isotropic.

    An isotropic Pfister form is hyperbolic, and by Kato's isomorphism
    (Invent. Math. 66, 1982) with the Arason-Pfister Hauptsatz a fold-n
    form is hyperbolic exactly when its symbol is trivial in degree n.
    """
    return class_trivial(SymbolSum(p.fold, (e_map(p),)))


# -- vanishing table -------------------------------------------------------------------


def iqn_vanishes(tw: FieldTower, n: int) -> bool:
    """Whether the degree-n Pfister subgroup is zero over this tower.

    A height-m tower is C_(m+1) (Lang), so u = 2^(m+1); anisotropic forms
    in the degree-(m+2) group would need dimension 2^(m+2) > u: the group
    vanishes.
    """
    return n >= tw.height + 2


def in_iqn(f: QuadraticForm, n: int):
    """Membership of f in the degree-n subgroup: True / False, or None
    for n >= 4.

    n=1 is all even-dimensional nonsingular classes; n=2 is Arf
    triviality; n=3 adds Clifford triviality, which is always decided;
    beyond that the vanishing table reduces membership to hyperbolicity
    where it applies, and None is returned where it does not.
    """
    if not f.is_nonsingular():
        raise SingularInput("membership test needs a nonsingular form")
    if n < 1:
        raise HypothesisViolated("degree must be >= 1")
    if n == 1:
        return True
    arf_ok = arf(f).is_in_wp
    if n == 2:
        return arf_ok
    if n == 3:
        if not arf_ok:
            return False
        return clifford_trivial(clifford(f))
    if iqn_vanishes(f.tower, n):
        return is_hyperbolic(f)
    return None
