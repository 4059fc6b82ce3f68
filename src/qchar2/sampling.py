"""Seeded random generators for forms, Pfister data, and symbol sums.

Everything is driven by an explicit random.Random instance (Mersenne
Twister, 64-bit seeds), so every suite run and every report is
reproducible.  The pools are tame by construction: b-slots are units or
t * unit, a-slots have nonnegative valuation, so the decision procedures
stay complete on sampled instances.

Element draws come from tables: the products unit * t_j are built once
per sampler and the sums a + unit * t_j on first use, so a draw picks
indices and does no field arithmetic.  The generator is asked for the
same values in the same order as when each draw built its element (an
index drawn with `choice(range(n))` in place of `choice(pool)`), so a
seed gives the same stream and the same elements.
"""

from __future__ import annotations

import random

from .cohomology import Symbol, SymbolSum
from .errors import HypothesisViolated, ZeroScalar
from .fields import FieldElement, FieldTower
from .forms import (
    QuadraticForm,
    QuadraticPfister,
    move_merge_equal_pairs,
    move_norm_scale,
    move_swap,
    move_wp_shift_by,
    orth_sum,
    scale,
)
from .invariants import iqn_vanishes, pfister_hyperbolic
from .linkage import canonical_witness


class Sampler:
    def __init__(self, tw: FieldTower, seed: int):
        self.tower = tw
        self.rng = random.Random(seed)
        self._unit_pool = units = self._build_units()
        self._unit_index = range(len(units))
        # per level j, unit * t_j for each unit; the heads of a tame a-slot,
        # 0, 1 or a unit; and their sums a + unit * t_j, keyed on
        # (head, level, unit), built when first drawn
        self._shifted = [[u * tw.gen(j) for u in units] for j in range(1, tw.height + 1)]
        self._heads = [tw.zero(), tw.one()] + units
        self._sums = {}

    def _build_units(self):
        tw = self.tower
        pool = [tw.base_element(b) for b in range(1, tw.order)]
        gens = [tw.gen(i) for i in range(1, tw.height + 1)]
        for g in gens:
            pool.append(tw.one() + g)
            pool.append(tw.one() + g * g)
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                pool.append(tw.one() + g * h)
                pool.append(tw.one() + g + h)
        return pool

    # -- elements ------------------------------------------------------------

    def unit(self) -> FieldElement:
        """A valuation-0 element at every level."""
        return self.rng.choice(self._unit_pool)

    def tame_b(self) -> FieldElement:
        """Unit or t * unit at a random level: a legal pair coefficient."""
        rng = self.rng
        i = rng.choice(self._unit_index)
        if self.tower.height and rng.random() < 0.5:
            return self._shifted[rng.randrange(1, self.tower.height + 1) - 1][i]
        return self._unit_pool[i]

    def tame_a(self) -> FieldElement:
        """Nonnegative-valuation a-slot."""
        rng = self.rng
        u = rng.choice(self._unit_index)
        # 0, 1 or the unit u: heads[0], heads[1] or heads[2 + u]
        head = rng.choice(range(3))
        if head == 2:
            head += u
        if not (self.tower.height and rng.random() < 0.6):
            return self._heads[head]
        key = (head, rng.randrange(1, self.tower.height + 1), rng.choice(self._unit_index))
        a = self._sums.get(key)
        if a is None:
            _, level, j = key
            a = self._sums[key] = self._heads[head] + self._shifted[level - 1][j]
        return a

    def nonzero(self) -> FieldElement:
        x = self.tame_b()
        while x.is_zero():
            x = self.tame_b()
        return x

    # -- forms ----------------------------------------------------------------

    def nonsingular_form(self, dim: int) -> QuadraticForm:
        if dim % 2:
            raise ValueError("nonsingular forms have even dimension")
        pairs = tuple((self.tame_b(), self.tame_a()) for _ in range(dim // 2))
        return QuadraticForm(self.tower, pairs)

    def pfister(self, fold: int) -> QuadraticPfister:
        slots = tuple(self.tame_b() for _ in range(fold - 1))
        return QuadraticPfister(slots, self.tame_a())

    def anisotropic_pfister(self, fold: int) -> QuadraticPfister:
        if iqn_vanishes(self.tower, fold):
            raise HypothesisViolated(
                f"no anisotropic {fold}-fold Pfister form exists over {self.tower.descriptor()}"
            )
        for _ in range(60):
            p = self.pfister(fold)
            if not pfister_hyperbolic(p):
                return p
        # the canonical witness family always works
        return canonical_witness(self.tower, fold)

    def iqn_form(self, n: int, pieces: int) -> QuadraticForm:
        """Sum of scaled fold-n Pfister expansions: a member of the
        degree-n subgroup by construction."""
        parts = [scale(self.nonzero(), self.pfister(n).expand()) for _ in range(pieces)]
        out = parts[0]
        for part in parts[1:]:
            out = orth_sum(out, part)
        return out

    def linked_pfister_pair(self, fold: int, shared_fold: int):
        """Two fold-`fold` forms sharing a quadratic `shared_fold`-factor."""
        rho = self.anisotropic_pfister(shared_fold)
        extra = fold - shared_fold
        p_slots = tuple(self.tame_b() for _ in range(extra))
        q_slots = tuple(self.tame_b() for _ in range(extra))
        p = QuadraticPfister(p_slots + rho.bilinear_slots, rho.last_slot)
        q = QuadraticPfister(q_slots + rho.bilinear_slots, rho.last_slot)
        return p, q, rho

    # -- symbols ----------------------------------------------------------------

    def symbol_sum(self, degree: int, count: int):
        syms = []
        for _ in range(count):
            coeff = self.tame_a()
            slots = tuple(self.nonzero() for _ in range(degree - 1))
            syms.append(Symbol(degree, coeff, slots))
        return SymbolSum(degree, tuple(syms))

    # -- presentation scrambling ---------------------------------------------------

    def rechain(self, f: QuadraticForm, moves: int) -> QuadraticForm:
        """Random walk through the elementary isometry moves."""
        out = f
        for _ in range(moves):
            kind = self.rng.choice(["wp", "scale", "swap", "merge"])
            if not out.pairs:
                break
            i = self.rng.randrange(len(out.pairs))
            if kind == "wp":
                out = move_wp_shift_by(out, i, self.tame_a())
            elif kind == "scale":
                x, y = self.unit(), self.rng.choice([self.tower.zero(), self.unit()])
                try:
                    out = move_norm_scale(out, i, x, y)
                except ZeroScalar:
                    continue
            elif kind == "swap":
                out = move_swap(out, i, self.rng.randrange(len(out.pairs)))
            else:
                j = self.rng.randrange(len(out.pairs))
                if i != j and out.pairs[i][0] == out.pairs[j][0]:
                    out = move_merge_equal_pairs(out, i, j)
        return out
