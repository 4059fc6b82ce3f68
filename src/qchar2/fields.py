"""Exact arithmetic for characteristic-2 Laurent towers.

The supported fields are F_{2^k}((t_1))...((t_m)): a finite base field
(k <= 8) extended by m complete Laurent variables, innermost first.
Elements are represented exactly as iterated rational functions:

* level 0 -- an element of F_{2^k}, stored as a bit mask over the
  polynomial basis 1, z, ..., z^(k-1);
* level j -- a reduced fraction of polynomials in t_j whose coefficients
  are elements of level < j.

Each level's polynomials belong to one private ring, which alone knows
their format: `_PackedRing` packs F_{2^k}[t_1] into ints, `_TupleRing`
keeps coefficient tuples.  `FieldTower.__init__` picks the ring of each
level: packed at level 1, tuples at levels >= 2.  In the packed format the
coefficient of t_1^i sits in slot i, a field of w = 2k - 1 bits holding
the k-bit mask of a base-field element, so a carry-less product of two
packed ints never lets slots overlap; for k = 1 the slot is one bit and
`_BinaryRing` skips the slot reduction.  Other modules read coefficients
through `FieldElement.coefficients()`.  Fractions are
kept canonical (gcd removed, denominator scaled so that its lowest-degree
nonzero coefficient is 1, constant fractions collapsed to the lower
level), so structural equality coincides with field equality and
elements are hashable.  `tower()` interns towers, one per (k, names).

Each tower builds its 2^k level-0 elements once
(`FieldTower._constants`), and every level-0 result of the arithmetic is
one of them; equality still goes by value, since an unpickled element is
a fresh object.  Its generators are built once too (`gen` returns the
shared t_j), and its `height` is a plain attribute.  `residue` and
`lead` (the lowest Laurent coefficient) read the one coefficient they
return, not the whole coefficient tuple.  An element keeps its printed
form (`parsing.format_element`) once it has been asked for, as its hash.
Two mixed-level operations skip the gcd of the fraction path (Henrici's
rational arithmetic, Knuth, TAOCP Vol. 2, §4.5.1): for a canonical n/d
at level j and a nonzero c below level j, c is a unit of the coefficient
field, so c*n/d is coprime, and gcd(n + c*d, d) = gcd(n, d) = 1, so
(n + c*d)/d is too; the denominator is unchanged and neither result can
collapse to a constant.  The shift x*t_j^e of a canonical n/d at level j
(`t_power_shift`) skips it too: gcd(n*t^e, d) = t^min(e, v(d)) for
e > 0 (and symmetrically for e < 0), so only that t-power is cancelled,
and the lowest coefficient of the shifted denominator is still 1.

Semantic questions (squareness, Artin-Schreier membership, valuations)
are answered against the *complete* field, even though representatives
are rational.  Verdicts are always exact; only the series witness
produced by `wp_reduce` may be truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import attrgetter, xor

from .errors import LevelError, NegativeValuation, UnsupportedField, ZeroInput

# Irreducible moduli for F_{2^k} = F_2[z]/(f), primitive z, bit-packed.
_MODULI = {
    1: 0b10,          # unused; F_2 handled directly
    2: 0b111,         # z^2+z+1
    3: 0b1011,        # z^3+z+1
    4: 0b10011,       # z^4+z+1
    5: 0b100101,      # z^5+z^2+1
    6: 0b1011011,     # z^6+z^4+z^3+z+1
    7: 0b10000011,    # z^7+z+1
    8: 0b100011101,   # z^8+z^4+z^3+z^2+1
}

DEFAULT_WP_PRECISION = 16


class FieldTower:
    """A field F_{2^k}((t_1))...((t_m)) with exact rational representatives.

    `names` lists the Laurent variables innermost first; the height m is
    the 2-rank of the field and {t_1, ..., t_m} is its 2-basis.  Build
    towers with `tower()`, which returns one shared instance per field.
    """

    def __init__(self, base_exponent: int, variable_names: tuple[str, ...] = ()):
        if base_exponent not in _MODULI:
            raise UnsupportedField(f"base exponent {base_exponent} not supported (1..8)")
        names = tuple(variable_names)
        if len(set(names)) != len(names):
            raise UnsupportedField(f"duplicate variable names in {names}")
        self.k = base_exponent
        self.names = names
        self.height = len(names)
        self._build_base_tables()
        self._constants = tuple(FieldElement._constant(self, bits) for bits in range(self.order))
        # the one choice of polynomial representation, per level
        packed = _BinaryRing if base_exponent == 1 else _PackedRing
        self._rings = (_BaseRing(self),) + tuple(
            packed(self) if level == 1 else _TupleRing(self, level)
            for level in range(1, len(names) + 1)
        )
        self._gens = tuple(self.monomial(level, 1) for level in range(1, len(names) + 1))

    # -- base-field machinery ------------------------------------------------

    def _build_base_tables(self):
        k = self.k
        self.order = 1 << k
        if k == 1:
            self._log = None
            self._exp = None
        else:
            mod = _MODULI[k]
            exp = [0] * (self.order - 1)
            log = [0] * self.order
            x = 1
            for i in range(self.order - 1):
                exp[i] = x
                log[x] = i
                x <<= 1
                if x & self.order:
                    x ^= mod
            self._exp = exp
            self._log = log
        self._trace = [self._trace_bits(a) for a in range(self.order)]
        # wp table: wp(y) -> smallest preimage y, where wp(y) = y^2 + y
        table = {}
        for y in range(self.order):
            img = self.bmul(y, y) ^ y
            if img not in table:
                table[img] = y
        self._wp_preimage = table
        self._trace_one = min(a for a in range(self.order) if self._trace[a])

    def bmul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.k == 1:
            return 1
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def binv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting 0 in the base field")
        if self.k == 1:
            return 1
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def bsqrt(self, a: int) -> int:
        x = a
        for _ in range(self.k - 1):
            x = self.bmul(x, x)
        return x

    def _trace_bits(self, a: int) -> int:
        if self.k == 1:
            return a & 1
        acc, x = 0, a
        for _ in range(self.k):
            acc ^= x
            x = self.bmul(x, x)
        return acc & 1

    # -- element constructors --------------------------------------------------

    def zero(self) -> FieldElement:
        return self._constants[0]

    def one(self) -> FieldElement:
        return self._constants[1]

    def base_element(self, bits: int) -> FieldElement:
        if not 0 <= bits < self.order:
            raise ValueError(f"bits {bits} outside F_{{2^{self.k}}}")
        return self._constants[bits]

    def gen(self, level: int) -> FieldElement:
        """The Laurent variable t_level (1-indexed), one shared element."""
        if not 1 <= level <= self.height:
            raise LevelError(f"level {level} outside 1..{self.height}")
        return self._gens[level - 1]

    def monomial(self, level: int, exponent: int) -> FieldElement:
        if not 1 <= level <= self.height:
            raise LevelError(f"level {level} outside 1..{self.height}")
        ring = self._rings[level]
        if exponent >= 0:
            return ring.fraction(ring.monomial(exponent), ring.one)
        return ring.fraction(ring.one, ring.monomial(-exponent))

    def element(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.tower is not self:
                raise ValueError("element from a different tower")
            return value
        if isinstance(value, int):
            return self.one() if value % 2 else self.zero()
        raise TypeError(f"cannot coerce {value!r}")

    def top_ring(self):
        """The polynomial ring of t_m (of F_{2^k} at height 0): `zero`,
        `add`, `mul`, and `polynomial`/`element` (see `clearing_scale`)."""
        return self._rings[self.height]

    def trace_one_element(self) -> FieldElement:
        """Canonical representative of the nontrivial class of F_{2^k}/wp."""
        return self.base_element(self._trace_one)

    def descriptor(self) -> str:
        base = "F2" if self.k == 1 else f"F2^{self.k}"
        return base + "".join(f"(({n}))" for n in self.names)

    def __reduce__(self):
        return tower, (self.k, self.names)

    def __repr__(self):
        return f"FieldTower({self.descriptor()})"


_TOWERS: dict[tuple[int, tuple[str, ...]], FieldTower] = {}


def tower(base_exponent: int, variable_names: tuple[str, ...] = ()) -> FieldTower:
    """The shared instance of F_{2^k}((names...)): towers are interned on
    (k, names), so equal towers are the same object."""
    key = (base_exponent, tuple(variable_names))
    tw = _TOWERS.get(key)
    if tw is None:
        tw = _TOWERS[key] = FieldTower(*key)
    return tw


# -- polynomial rings, one per tower level ---------------------------------------
#
# Each offers `lift` (a lower-level element as a constant), `zero`, `one`,
# `monomial`, `shift` (times t^e, e >= -val), `add`, `mul`, `fraction` (the
# canonical element num/den), `coprime_fraction` (the same for coprime num
# and den, without the gcd), `val`, `coeffs` (ascending coefficient tuple),
# `from_coeffs` (its inverse), `coeff` (the coefficient of t^i alone),
# `derive` (in the ring's own variable) and `sqrt` (of a polynomial, or
# None); level 0 only the first few.


class _Ring:
    def polynomial(self, x):
        """x, a polynomial at every level up to this one, in this format."""
        return x.num if x.level == self.level and x.level else self.lift(x) if x else self.zero

    def element(self, p):
        return self.fraction(p, self.one)


class _BaseRing(_Ring):
    level, zero, one = 0, 0, 1
    add, lift = staticmethod(xor), staticmethod(attrgetter("bits"))

    def __init__(self, tw):
        self.mul, self.element = tw.bmul, tw.base_element


def _even_bits(n: int) -> int:
    """The int with every even bit position below n set."""
    return (4 ** ((n + 1) // 2) - 1) // 3


def _clmul(a, b):
    """Carry-less product: a and b as polynomials over F_2 in their bits."""
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


class _PackedRing(_Ring):
    """F_{2^k}[t_1], level 1 of every tower, packed into one int by
    Kronecker substitution: the coefficient of t_1^i sits in slot i, bits
    [i*w, i*w + k) with slot width w = 2k - 1, as the bit mask of a
    base-field element.  A product of two slots has degree <= 2k - 2 in z,
    so a carry-less product of two packed ints keeps its slots apart and
    only has to be reduced slot by slot afterwards.  The coefficients lie
    in F_{2^k}, so t_1 is the only variable to differentiate by.
    """

    level, zero, one = 1, 0, 1

    def __init__(self, tw):
        k = self._k = tw.k
        self._w = 2 * k - 1
        self._kmask = tw.order - 1
        self.tower = tw
        self._inv = (0,) + tuple(tw.binv(c) for c in range(1, tw.order))
        self._root = tuple(tw.bsqrt(c) for c in range(tw.order))
        # z^k = g(z) modulo the field polynomial: the high part h of a slot
        # folds back as h*g, one shifted copy per bit of g
        g = _MODULI[k] ^ (1 << k)
        self._fold = tuple(j for j in range(k) if g >> j & 1)
        self._bits_of = tuple(tuple(j for j in range(k) if c >> j & 1) for c in range(tw.order))
        self._cover(64 * self._w)

    def _cover(self, nbits):
        """Grow the per-slot masks to span at least nbits bits."""
        w = self._w
        # the even-slot quotient below is exact only for an even slot count
        slots = nbits // w + 2
        slots += slots & 1
        self._covered = slots * w
        every = ((1 << slots * w) - 1) // ((1 << w) - 1)       # bit 0 of each slot
        even = ((1 << slots * w) - 1) // ((1 << 2 * w) - 1)    # bit 0 of each even slot
        self._high = every * (self._kmask ^ ((1 << w) - 1))   # bits k..w-1 of each slot
        self._even = even * self._kmask
        self._odd = self._even << w

    def lift(self, c):
        return c.bits

    def monomial(self, e):
        return 1 << e * self._w

    def shift(self, a, e):
        return a << e * self._w if e >= 0 else a >> -e * self._w

    def add(self, a, b):
        return a ^ b

    def _reduce(self, p):
        """Reduce every slot of p (at most w bits each) to k bits."""
        if p.bit_length() > self._covered:
            self._cover(p.bit_length())
        mask, k, fold = self._high, self._k, self._fold
        high = p & mask
        while high:
            p ^= high
            high >>= k
            for j in fold:
                p ^= high << j
            high = p & mask
        return p

    def mul(self, a, b):
        return self._reduce(_clmul(a, b))

    def _scale(self, a, c):
        """a times the base-field element c."""
        out = 0
        for j in self._bits_of[c]:
            out ^= a << j
        return self._reduce(out)

    def _divmod(self, a, b):
        w, bits_of = self._w, self._bits_of
        db = (b.bit_length() - 1) // w
        inv = self._inv[b >> db * w]
        # z^j times the monic divisor, so each step only shifts and xors
        monic = self._scale(b, inv)
        shifted = [monic] + [self._reduce(monic << j) for j in range(1, self._k)]
        q = 0
        while a:
            da = (a.bit_length() - 1) // w
            if da < db:
                break
            c = a >> da * w
            shift = (da - db) * w
            q |= c << shift
            for j in bits_of[c]:
                a ^= shifted[j] << shift
        return self._scale(q, inv), a

    def fraction(self, num, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if num == 0:
            return self.tower.zero()
        # gcd is only needed when both sides are non-constant
        if num > self._kmask and den > self._kmask:
            g, r = num, den
            while r:
                g, r = r, self._divmod(g, r)[1]
            if g > self._kmask:
                num, den = self._divmod(num, g)[0], self._divmod(den, g)[0]
        return self.coprime_fraction(num, den)

    def coprime_fraction(self, num, den):
        """The canonical element num/den for coprime num and den: only the
        unit rescaling and the collapse of constants remain."""
        unit = den >> self.val(den) * self._w & self._kmask
        if unit != 1:
            inv = self._inv[unit]
            num, den = self._scale(num, inv), self._scale(den, inv)
        if den == 1 and num <= self._kmask:
            return self.tower._constants[num]
        return FieldElement._make(self.tower, 1, num, den)

    def val(self, a):
        return ((a & -a).bit_length() - 1) // self._w

    def coeffs(self, a):
        base, kmask = self.tower._constants, self._kmask
        return tuple(base[a >> i & kmask] for i in range(0, a.bit_length(), self._w))

    def from_coeffs(self, cs):
        return sum(c.bits << i * self._w for i, c in enumerate(cs))

    def coeff(self, a, i):
        return self.tower._constants[a >> i * self._w & self._kmask]

    def derive(self, a):
        # the odd-degree terms survive, one degree lower
        if a.bit_length() > self._covered:
            self._cover(a.bit_length())
        return (a >> self._w) & self._even

    def sqrt(self, a):
        if a.bit_length() > self._covered:
            self._cover(a.bit_length())
        if a & self._odd:
            return None
        root, kmask, step, i = 0, self._kmask, 2 * self._w, 0
        while a:
            root |= self._root[a & kmask] << i
            a >>= step
            i += self._w
        return root


class _BinaryRing(_PackedRing):
    """`_PackedRing` for k = 1, where the slot width is 1: every int is a
    reduced polynomial over F_2 and every nonzero lowest coefficient is 1,
    so the generic slot handling drops out of the hot loops."""

    mul = staticmethod(_clmul)

    @staticmethod
    def _divmod(a, b):
        db = b.bit_length()
        q = 0
        while a and a.bit_length() >= db:
            shift = a.bit_length() - db
            q ^= 1 << shift
            a ^= b << shift
        return q, a

    def coprime_fraction(self, num, den):
        if den == 1 and num <= 1:
            return self.tower._constants[num]
        return FieldElement._make(self.tower, 1, num, den)

    def val(self, a):
        return (a & -a).bit_length() - 1

    def derive(self, a):
        return (a >> 1) & _even_bits(a.bit_length())

    def sqrt(self, a):
        if a & _even_bits(a.bit_length()) << 1:
            return None
        return sum(1 << (j // 2) for j in range(0, a.bit_length(), 2) if a >> j & 1)


class _TupleRing(_Ring):
    """Polynomials in t_level as ascending coefficient tuples with no
    trailing zeros; coefficients may sit at any level below `level`."""

    zero = ()

    def __init__(self, tw, level):
        self.tower = tw
        self.level = level
        self._zero = tw.zero()
        self.one = (tw.one(),)

    def lift(self, c):
        return (c,)

    def monomial(self, e):
        return (self._zero,) * e + self.one

    def shift(self, a, e):
        return (self._zero,) * e + a if e >= 0 else a[-e:]

    @staticmethod
    def _norm(cs):
        n = len(cs)
        while n and cs[n - 1].is_zero():
            n -= 1
        return tuple(cs[:n])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self._norm(out)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [self._zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b):
                if not cb.is_zero():
                    out[i + j] = out[i + j] + ca * cb
        return self._norm(out)

    def _scale(self, cs, factor):
        return self._norm(tuple(c * factor for c in cs))

    def _divmod(self, a, b):
        inv_lead = b[-1].inverse()
        rem = list(a)
        if len(a) < len(b):
            return (), a
        quo = [self._zero] * (len(a) - len(b) + 1)
        for shift in range(len(a) - len(b), -1, -1):
            top = rem[shift + len(b) - 1]
            if top.is_zero():
                continue
            q = top * inv_lead
            quo[shift] = q
            for i, cb in enumerate(b):
                rem[shift + i] = rem[shift + i] + q * cb
        return self._norm(quo), self._norm(rem)

    def _gcd(self, a, b):
        while b:
            _, r = self._divmod(a, b)
            a, b = b, r
        if a[-1].is_one():
            return a
        return self._scale(a, a[-1].inverse())

    def fraction(self, num, den):
        num, den = self._norm(num), self._norm(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return self.tower.zero()
        # gcd is only needed when both sides are non-constant
        if len(num) > 1 and len(den) > 1:
            g = self._gcd(num, den)
            if len(g) > 1:
                num, _ = self._divmod(num, g)
                den, _ = self._divmod(den, g)
        return self.coprime_fraction(num, den)

    def coprime_fraction(self, num, den):
        """The canonical element num/den for coprime num and den."""
        unit = den[self.val(den)]
        if not unit.is_one():
            inv = unit.inverse()
            num = self._scale(num, inv)
            den = self._scale(den, inv)
        if len(den) == 1 and len(num) == 1:
            return num[0]
        return FieldElement._make(self.tower, self.level, num, den)

    def val(self, cs):
        for i, c in enumerate(cs):
            if not c.is_zero():
                return i
        raise ZeroInput("valuation of the zero polynomial")

    def coeffs(self, a):
        return a

    from_coeffs = _norm

    def coeff(self, a, i):
        return a[i]

    def derive(self, cs):
        # d/dt of sum c_i t^i in characteristic 2: odd-degree terms survive
        out = [self._zero] * max(len(cs) - 1, 0)
        for i in range(1, len(cs), 2):
            out[i - 1] = cs[i]
        return self._norm(out)

    def derive_coefficients(self, cs, level):
        """d/dt_level for a variable below this ring's own."""
        return self._norm(tuple(c.derivative(level) for c in cs))

    def sqrt(self, cs):
        root = [self._zero] * ((len(cs) + 1) // 2)
        for i, c in enumerate(cs):
            if c.is_zero():
                continue
            if i % 2:
                return None
            r = c.sqrt()
            if r is None:
                return None
            root[i // 2] = r
        return tuple(root)


class FieldElement:
    """An exact element of a characteristic-2 Laurent tower.

    Immutable and hashable; arithmetic always returns the canonical
    reduced representation, so `==` decides field equality.  At level
    j >= 1, `num` and `den` are polynomials in the format of the tower's
    level-j ring.  A level-0 result is one of the tower's shared
    constants, but zero and one are still tested by value (`is_zero`,
    `is_one`), never by identity: an unpickled element is a new object.
    The hash and the printed form are computed once and kept.  Adding or
    multiplying by an element of a lower level skips the gcd (see the
    module docstring).
    """

    __slots__ = ("tower", "level", "bits", "num", "den", "_hash", "_str")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use FieldTower methods or arithmetic to build elements")

    @classmethod
    def _constant(cls, tw, bits):
        """A new level-0 element; only `FieldTower` calls this, once per bits."""
        self = object.__new__(cls)
        self.tower = tw
        self.level = 0
        self.bits = bits
        self.num = None
        self.den = None
        self._hash = None
        self._str = None
        return self

    @classmethod
    def _make(cls, tw, level, num, den):
        """Wrap an already canonical fraction; only the rings call this."""
        self = object.__new__(cls)
        self.tower = tw
        self.level = level
        self.bits = None
        self.num = num
        self.den = den
        self._hash = None
        self._str = None
        return self

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.level == 0 and self.bits == 0

    def is_one(self) -> bool:
        return self.level == 0 and self.bits == 1

    def coefficients(self) -> tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]:
        """Numerator and denominator coefficients in t_level, lowest degree
        first, of the canonical fraction; needs level >= 1."""
        if self.level == 0:
            raise LevelError("a base-field element has no Laurent variable")
        ring = self.tower._rings[self.level]
        return ring.coeffs(self.num), ring.coeffs(self.den)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.tower is not self.tower:
                raise ValueError("elements from different towers")
            return other
        if isinstance(other, int):
            return self.tower.element(other)
        return None

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        tw = self.tower
        if other.__class__ is not FieldElement or other.tower is not tw:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.level == other.level:
            if self.level == 0:
                return tw._constants[self.bits ^ other.bits]
            ring = tw._rings[self.level]
            n1, d1, n2, d2 = self.num, self.den, other.num, other.den
            if d1 == d2:
                return ring.fraction(ring.add(n1, n2), d1)
            num = ring.add(ring.mul(n1, d2), ring.mul(n2, d1))
            return ring.fraction(num, ring.mul(d1, d2))
        x, c = (self, other) if self.level > other.level else (other, self)
        if c.is_zero():
            return x
        # gcd(n + c*d, d) = gcd(n, d) = 1
        ring = tw._rings[x.level]
        return ring.coprime_fraction(ring.add(x.num, ring.mul(ring.lift(c), x.den)), x.den)

    __radd__ = __add__
    __sub__ = __add__          # characteristic 2
    __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        tw = self.tower
        if other.__class__ is not FieldElement or other.tower is not tw:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.level == other.level:
            if self.level == 0:
                return tw._constants[tw.bmul(self.bits, other.bits)]
            ring = tw._rings[self.level]
            return ring.fraction(ring.mul(self.num, other.num), ring.mul(self.den, other.den))
        x, c = (self, other) if self.level > other.level else (other, self)
        if c.is_zero():
            return tw.zero()
        if c.is_one():
            return x
        # c is a unit of the coefficient field, so c*n stays coprime to d
        ring = tw._rings[x.level]
        return ring.coprime_fraction(ring.mul(ring.lift(c), x.num), x.den)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if self.is_zero():
            raise ZeroDivisionError("inverting 0")
        if self.level == 0:
            return self.tower._constants[self.tower.binv(self.bits)]
        return self.tower._rings[self.level].coprime_fraction(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.tower.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.level != other.level or self.tower is not other.tower:
            return False
        if self.level == 0:
            return self.bits == other.bits
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            if self.level == 0:
                self._hash = hash((0, self.bits))
            else:
                self._hash = hash((self.level, self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    # -- valuations and residues -------------------------------------------------

    def valuation(self, level: int) -> int:
        """Order of vanishing at t_level = 0 (negative for poles)."""
        if self.is_zero():
            raise ZeroInput("valuation of 0")
        if not 1 <= level <= self.tower.height:
            raise LevelError(f"level {level} outside 1..{self.tower.height}")
        if self.level < level:
            return 0
        if self.level > level:
            raise LevelError(
                f"element lives at level {self.level}; cannot take its"
                f" t_{level}-valuation before residuing down"
            )
        ring = self.tower._rings[level]
        return ring.val(self.num) - ring.val(self.den)

    def residue(self, level: int) -> FieldElement:
        """Constant term as a Laurent series in t_level; needs valuation >= 0."""
        if self.is_zero():
            return self
        if not 1 <= level <= self.tower.height:
            raise LevelError(f"level {level} outside 1..{self.tower.height}")
        if self.level < level:
            return self
        if self.level > level:
            raise LevelError("residue level below the element's own variable")
        ring = self.tower._rings[level]
        vn, vd = ring.val(self.num), ring.val(self.den)
        if vn < vd:
            raise NegativeValuation(f"pole of order {vd - vn} at {self.tower.names[level - 1]}=0")
        if vn > vd:
            return self.tower.zero()
        # the lowest denominator coefficient is 1 in canonical form
        return ring.coeff(self.num, vn)

    def lead(self, level: int) -> FieldElement:
        """The lowest Laurent coefficient in t_level, the residue of
        self * t_level^-v; one coefficient read, as in `residue`."""
        if self.level < level:
            return self
        if self.level > level:
            raise LevelError("leading coefficient below the element's own variable")
        ring = self.tower._rings[level]
        return ring.coeff(self.num, ring.val(self.num))

    # -- squares -------------------------------------------------------------------

    def sqrt(self):
        """Exact square root in the complete tower, or None.

        Level-j criterion: num*den must have only even powers of t_j with
        coefficients that are squares one level down; the base field is
        perfect, so level-0 elements always have a root.
        """
        if self.level == 0:
            return self.tower._constants[self.tower.bsqrt(self.bits)]
        ring = self.tower._rings[self.level]
        root = ring.sqrt(ring.mul(self.num, self.den))
        if root is None:
            return None
        return ring.fraction(root, self.den)

    def is_square(self) -> bool:
        if self.level == 0:
            return True
        ring = self.tower._rings[self.level]
        return ring.sqrt(ring.mul(self.num, self.den)) is not None

    # -- differentials ----------------------------------------------------------------

    def derivative(self, level: int) -> FieldElement:
        """Formal partial derivative with respect to t_level."""
        if not 1 <= level <= self.tower.height:
            raise LevelError(f"level {level} outside 1..{self.tower.height}")
        if self.level < level:
            return self.tower.zero()
        ring = self.tower._rings[self.level]
        num, den = self.num, self.den
        if self.level == level:
            dn, dd = ring.derive(num), ring.derive(den)
        else:
            dn, dd = ring.derive_coefficients(num, level), ring.derive_coefficients(den, level)
        num = ring.add(ring.mul(dn, den), ring.mul(num, dd))
        return ring.fraction(num, ring.mul(den, den))

    def dlog_coords(self) -> tuple[FieldElement, ...]:
        """Coordinates of d(self)/self over the basis dt_1, ..., dt_m."""
        if self.is_zero():
            raise ZeroInput("dlog of 0")
        inv = self.inverse()
        return tuple(self.derivative(i) * inv for i in range(1, self.tower.height + 1))

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        if self._str is None:
            from .parsing import format_element

            self._str = format_element(self)
        return self._str


def clearing_scale(tw: FieldTower, xs) -> FieldElement:
    """A nonzero s, a polynomial at every level (no denominator in t_m nor in
    any coefficient down to F_{2^k}), with s*x one too for each x in xs; like
    an lcm, each x multiplies s only by what s*x lacks."""
    s = tw.one()
    for x in xs:
        y = s * x if x.level else x
        if y.level:
            num, den = y.coefficients()
            s = s * clearing_scale(tw, num + den) * tw._rings[y.level].element(y.den)
    return s


# -- Artin-Schreier reduction ---------------------------------------------------------


@dataclass(frozen=True)
class WpNormalForm:
    """Result of reducing x modulo wp(F), where wp(y) = y^2 + y.

    `reduced` is a representative of x + wp(F), not a canonical one: an
    element with an irreducible pole (odd valuation or non-square leading
    coefficient) in its own variable, or the canonical trace-one base
    element, or 0.  The pole loop stops at the first irreducible pole and
    keeps the even poles below it, so equal classes can print differently:
    [1,1/t^3+1/t^2] reduces to (t+1)/t^3 and [1,1/t^3+1/t] to
    (t^2+1)/t^3.  `is_in_wp` is exact either way.
    `correction` satisfies x = reduced + wp(correction) exactly when
    `correction_exact` is set.  Otherwise each series step leaves a tail of
    t_j-valuation beyond P = DEFAULT_WP_PRECISION at its level j, so `check`
    asks r = x + reduced + wp(correction) to be 0, or to have no terms at
    t_j^1 ... t_j^P (j = r's level) and a constant term of the same kind.
    The third argument is the correction or a function that builds it; it
    is built on first read, and equality and repr leave it out.
    """

    reduced: FieldElement
    is_in_wp: bool
    _correction: object = field(compare=False, repr=False)
    correction_exact: bool = True

    @property
    def correction(self) -> FieldElement:
        if callable(self._correction):
            object.__setattr__(self, "_correction", self._correction())
        return self._correction

    def check(self, x: FieldElement) -> bool:
        r = x + self.reduced + wp(self.correction)
        while not (r.is_zero() or self.correction_exact or r.level == 0):
            if r.valuation(r.level) < 0:
                return False
            r, *tail = laurent_coefficients(r, r.level, 0, DEFAULT_WP_PRECISION + 1)
            if not all(c.is_zero() for c in tail):
                return False
        return r.is_zero()


def wp(y: FieldElement) -> FieldElement:
    """The Artin-Schreier map y -> y^2 + y."""
    return y * y + y


@lru_cache(maxsize=65536)
def wp_reduce(x: FieldElement) -> WpNormalForm:
    """Reduce x modulo wp of the complete tower.

    The loop on each Laurent level: while the valuation is negative, an
    odd valuation or a non-square leading coefficient is a final
    obstruction; otherwise subtracting wp(sqrt(lead) * t^(v/2)) raises
    the valuation.  Once the valuation is nonnegative the positive part
    lies in wp (series solution, truncated at DEFAULT_WP_PRECISION terms)
    and the constant term recurses one level down.  The membership verdict is
    exact even when the correction witness is truncated.
    """
    tw = x.tower
    steps = []       # the correction's exact summands
    series = []      # (plus, level) of each series step, solved on first read
    cur = x
    while cur.level > 0:
        lev = cur.level
        cur, more, wild = _lower_even_poles(cur, lev)
        steps += more
        if wild:
            return WpNormalForm(cur, False, partial(_build_correction, tw, steps, series), not series)
        if cur.level < lev:
            continue
        const = cur.residue(lev)
        plus = cur + const
        if not plus.is_zero():
            series.append((plus, lev))
        cur = const
    bits = cur.bits
    reduced = tw.trace_one_element() if tw._trace[bits] else tw.zero()
    steps.append(tw.base_element(tw._wp_preimage[bits ^ reduced.bits]))
    return WpNormalForm(reduced, reduced.is_zero(), partial(_build_correction, tw, steps, series),
                        not series)


def _build_correction(tw: FieldTower, steps: list, series: list) -> FieldElement:
    total = sum(steps, tw.zero())
    for plus, level in series:
        total = total + _wp_series_witness(plus, level)
    return total


def exact_tail_reduce(a: FieldElement, level: int):
    """Exact Artin-Schreier reduction of the negative t_level part.

    Returns (reduced, wild): `reduced` differs from `a` by wp of a
    rational element; `wild` marks an irreducible negative part (odd
    valuation or non-square leading coefficient).
    """
    reduced, _, wild = _lower_even_poles(a, level)
    return reduced, wild


def _lower_even_poles(cur: FieldElement, level: int):
    """(cur + wp(sum of steps), steps, wild): the pole loop of both
    reductions; wild when an irreducible pole in t_level is left."""
    tw = cur.tower
    steps = []
    while not cur.is_zero() and cur.level == level and cur.valuation(level) < 0:
        v = cur.valuation(level)
        if v % 2 != 0:
            return cur, steps, True
        root = cur.lead(level).sqrt()
        if root is None:
            return cur, steps, True
        steps.append(root * tw.monomial(level, v // 2))
        cur = cur + wp(steps[-1])
    return cur, steps, False


def t_power_shift(x: FieldElement, level: int, e: int) -> FieldElement:
    """x * t_level^e without the gcd when x lives at `level` (see the module
    docstring); at any other level, the product with the monomial."""
    if e == 0 or x.is_zero():
        return x
    if x.level != level:
        return x * x.tower.monomial(level, e)
    ring = x.tower._rings[level]
    # only the common t-power can cancel: gcd(n*t^e, d) = t^min(e, v(d))
    if e > 0:
        k = min(e, ring.val(x.den))
        return ring.coprime_fraction(ring.shift(x.num, e - k), ring.shift(x.den, -k))
    k = min(-e, ring.val(x.num))
    return ring.coprime_fraction(ring.shift(x.num, -k), ring.shift(x.den, -e - k))


def strip_even_power(b: FieldElement, level: int) -> FieldElement:
    """b times an even power of t_level so the valuation lands in {0,1}."""
    if b.level < level:
        return b
    half = b.valuation(level) // 2   # floor keeps the remainder in {0,1}
    return t_power_shift(b, level, -2 * half)


def laurent_coefficients(x: FieldElement, level: int, low: int, n: int) -> list[FieldElement]:
    """The n Laurent coefficients of x at t_level from t_level^low on; low
    must not exceed the valuation of x.  Read off the fraction's own
    coefficients, with no arithmetic at t_level."""
    tw = x.tower
    zero = tw.zero()
    if x.is_zero():
        return [zero] * n
    if x.level < level:
        return [x if low + i == 0 else zero for i in range(n)]
    ring = tw._rings[level]
    vd = ring.val(x.den)
    if ring.val(x.num) - vd < low:
        raise NegativeValuation("series expansion below the valuation")
    num, den = x.coefficients()
    shift = low + vd
    num = num[shift:] if shift >= 0 else (zero,) * -shift + num
    den = den[vd:]     # den[0] is 1 in canonical form
    out = []
    rem = list(num) + [zero] * n
    for i in range(n):
        c = rem[i]
        out.append(c)
        if not c.is_zero():
            for j, d in enumerate(den):
                if i + j < len(rem):
                    rem[i + j] = rem[i + j] + c * d
    return out


def _wp_series_witness(plus: FieldElement, level: int) -> FieldElement:
    # solve y^2 + y = plus to DEFAULT_WP_PRECISION one coefficient at a time:
    # y_i = plus_i + y_(i/2)^2, the square for even i only, and y_0 = 0
    # since val(plus) >= 1
    y = laurent_coefficients(plus, level, 0, DEFAULT_WP_PRECISION + 1)
    for i in range(2, len(y), 2):
        y[i] = y[i] + y[i // 2] * y[i // 2]
    ring = plus.tower._rings[level]
    return ring.element(ring.from_coeffs(y))
