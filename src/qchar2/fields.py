"""Exact arithmetic for characteristic-2 Laurent towers.

The supported fields are F_{2^k}((t_1))...((t_m)): a finite base field
(k <= 8) extended by m complete Laurent variables, innermost first.
Elements are represented exactly as iterated rational functions:

* level 0 -- an element of F_{2^k}, stored as a bit mask over the
  polynomial basis 1, z, ..., z^(k-1);
* level j -- a reduced fraction of polynomials in t_j whose coefficients
  are elements of level < j.

Polynomials over the prime field (k = 1, level 1) are bit-packed into
ints, which keeps the innermost arithmetic fast; higher levels use
coefficient tuples.  Fractions are kept canonical (gcd removed,
denominator scaled so that its lowest-degree nonzero coefficient is 1,
constant fractions collapsed to the lower level), so structural equality
coincides with field equality and elements are hashable.

Semantic questions (squareness, Artin-Schreier membership, valuations)
are answered against the *complete* field, even though representatives
are rational.  Verdicts are always exact; only the series witness
produced by `wp_reduce` may be truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    the 2-rank of the field and {t_1, ..., t_m} is its 2-basis.
    """

    def __init__(self, base_exponent: int, variable_names: tuple[str, ...] = ()):
        if base_exponent not in _MODULI:
            raise UnsupportedField(f"base exponent {base_exponent} not supported (1..8)")
        names = tuple(variable_names)
        if len(set(names)) != len(names):
            raise UnsupportedField(f"duplicate variable names in {names}")
        self.k = base_exponent
        self.names = names
        self._build_base_tables()

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

    @property
    def height(self) -> int:
        return len(self.names)

    def zero(self) -> FieldElement:
        return FieldElement._base(self, 0)

    def one(self) -> FieldElement:
        return FieldElement._base(self, 1)

    def base_element(self, bits: int) -> FieldElement:
        if not 0 <= bits < self.order:
            raise ValueError(f"bits {bits} outside F_{{2^{self.k}}}")
        return FieldElement._base(self, bits)

    def gen(self, level: int) -> FieldElement:
        """The Laurent variable t_level (1-indexed)."""
        return self.monomial(level, 1)

    def monomial(self, level: int, exponent: int) -> FieldElement:
        if not 1 <= level <= self.height:
            raise LevelError(f"level {level} outside 1..{self.height}")
        if self.k == 1 and level == 1:
            if exponent >= 0:
                return FieldElement._fraction(self, 1, 1 << exponent, 1)
            return FieldElement._fraction(self, 1, 1, 1 << -exponent)
        one = self.one()
        pows = (self.zero(),) * abs(exponent) + (one,)
        if exponent >= 0:
            return FieldElement._fraction(self, level, pows, (one,))
        return FieldElement._fraction(self, level, (one,), pows)

    def element(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.tower != self:
                raise ValueError("element from a different tower")
            return value
        if isinstance(value, int):
            return self.one() if value % 2 else self.zero()
        raise TypeError(f"cannot coerce {value!r}")

    def trace_one_element(self) -> FieldElement:
        """Canonical representative of the nontrivial class of F_{2^k}/wp."""
        return self.base_element(self._trace_one)

    def descriptor(self) -> str:
        base = "F2" if self.k == 1 else f"F2^{self.k}"
        return base + "".join(f"(({n}))" for n in self.names)

    def __eq__(self, other):
        return (
            isinstance(other, FieldTower)
            and self.k == other.k
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.k, self.names))

    def __repr__(self):
        return f"FieldTower({self.descriptor()})"


@lru_cache(maxsize=None)
def tower(base_exponent: int, variable_names: tuple[str, ...] = ()) -> FieldTower:
    """Shared tower instances; value-equal towers are interchangeable."""
    return FieldTower(base_exponent, variable_names)


# -- bit-packed polynomials over F_2 (level 1 of a k=1 tower) -------------------


def _bmul(a: int, b: int) -> int:
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _bdivmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    q = 0
    while a and a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _bgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _bdivmod(a, b)[1]
    return a


def _bval(a: int) -> int:
    return (a & -a).bit_length() - 1


def _bderiv(a: int) -> int:
    out = 0
    j = 1
    while a >> j:
        if (a >> j) & 1:
            out |= 1 << (j - 1)
        j += 2
    return out


def _bsqrt(a: int):
    out = 0
    j = 0
    while a >> j:
        if (a >> j) & 1:
            if j % 2:
                return None
            out |= 1 << (j // 2)
        j += 1
    return out


# -- polynomials as coefficient tuples (all other levels) -----------------------
#
# Tuples are ascending degree with no trailing zeros; coefficients may sit
# at any level below the polynomial's own variable.


def _pnorm(cs):
    n = len(cs)
    while n and cs[n - 1].is_zero():
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _pnorm(out)


def _pmul(tw, a, b):
    if not a or not b:
        return ()
    out = [tw.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b):
            if not cb.is_zero():
                out[i + j] = out[i + j] + ca * cb
    return _pnorm(out)


def _pscale(cs, factor):
    return _pnorm(tuple(c * factor for c in cs))


def _pdivmod(tw, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = b[-1].inverse()
    rem = list(a)
    if len(a) < len(b):
        return (), a
    quo = [tw.zero()] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        top = rem[shift + len(b) - 1]
        if top.is_zero():
            continue
        q = top * inv_lead
        quo[shift] = q
        for i, cb in enumerate(b):
            rem[shift + i] = rem[shift + i] + q * cb
    return _pnorm(quo), _pnorm(rem)


def _pgcd(tw, a, b):
    a, b = _pnorm(a), _pnorm(b)
    while b:
        _, r = _pdivmod(tw, a, b)
        a, b = b, r
    if not a:
        return ()
    if a[-1].is_one():
        return a
    return _pscale(a, a[-1].inverse())


def _pval(cs):
    for i, c in enumerate(cs):
        if not c.is_zero():
            return i
    raise ZeroInput("valuation of the zero polynomial")


def _pderive_own(tw, cs):
    # d/dt of sum c_i t^i in characteristic 2: odd-degree terms survive
    out = [tw.zero()] * max(len(cs) - 1, 0)
    for i in range(1, len(cs), 2):
        out[i - 1] = cs[i]
    return _pnorm(out)


class FieldElement:
    """An exact element of a characteristic-2 Laurent tower.

    Immutable and hashable; arithmetic always returns the canonical
    reduced representation, so `==` decides field equality.
    """

    __slots__ = ("tower", "level", "bits", "num", "den", "_hash")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use FieldTower methods or arithmetic to build elements")

    @classmethod
    def _base(cls, tw, bits):
        self = object.__new__(cls)
        self.tower = tw
        self.level = 0
        self.bits = bits
        self.num = None
        self.den = None
        self._hash = None
        return self

    @classmethod
    def _fraction(cls, tw, level, num, den):
        if tw.k == 1 and level == 1:
            if isinstance(num, tuple):
                num = _tuple_to_bits(num)
                den = _tuple_to_bits(den)
            return cls._bit_fraction(tw, num, den)
        num, den = _pnorm(num), _pnorm(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return cls._base(tw, 0)
        # gcd is only needed when both sides are non-constant
        if len(num) > 1 and len(den) > 1:
            g = _pgcd(tw, num, den)
            if len(g) > 1:
                num, _ = _pdivmod(tw, num, g)
                den, _ = _pdivmod(tw, den, g)
        unit = den[_pval(den)]
        if not unit.is_one():
            inv = unit.inverse()
            num = _pscale(num, inv)
            den = _pscale(den, inv)
        if len(den) == 1 and len(num) == 1:
            return num[0]
        self = object.__new__(cls)
        self.tower = tw
        self.level = level
        self.bits = None
        self.num = num
        self.den = den
        self._hash = None
        return self

    @classmethod
    def _bit_fraction(cls, tw, num: int, den: int):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if num == 0:
            return cls._base(tw, 0)
        g = _bgcd(num, den)
        if g > 1:
            num = _bdivmod(num, g)[0]
            den = _bdivmod(den, g)[0]
        if den == 1 and num <= 1:
            return cls._base(tw, num)
        self = object.__new__(cls)
        self.tower = tw
        self.level = 1
        self.bits = None
        self.num = num
        self.den = den
        self._hash = None
        return self

    def _is_bit(self) -> bool:
        return self.level == 1 and self.tower.k == 1

    def _num_tuple(self):
        if self._is_bit():
            return _bits_to_tuple(self.tower, self.num)
        return self.num

    def _den_tuple(self):
        if self._is_bit():
            return _bits_to_tuple(self.tower, self.den)
        return self.den

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.level == 0 and self.bits == 0

    def is_one(self) -> bool:
        return self.level == 0 and self.bits == 1

    def _frac_at(self, level):
        if self.level == level:
            return self.num, self.den
        if self.tower.k == 1 and level == 1:
            return self.bits, 1
        return (self,), (self.tower.one(),)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.tower != self.tower:
                raise ValueError("elements from different towers")
            return other
        if isinstance(other, int):
            return self.tower.element(other)
        return None

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.level == 0 and other.level == 0:
            return FieldElement._base(self.tower, self.bits ^ other.bits)
        tw = self.tower
        level = max(self.level, other.level)
        n1, d1 = self._frac_at(level)
        n2, d2 = other._frac_at(level)
        if tw.k == 1 and level == 1:
            if d1 == d2:
                return FieldElement._bit_fraction(tw, n1 ^ n2, d1)
            num = _bmul(n1, d2) ^ _bmul(n2, d1)
            return FieldElement._bit_fraction(tw, num, _bmul(d1, d2))
        if d1 == d2:
            return FieldElement._fraction(tw, level, _padd(n1, n2), d1)
        num = _padd(_pmul(tw, n1, d2), _pmul(tw, n2, d1))
        return FieldElement._fraction(tw, level, num, _pmul(tw, d1, d2))

    __radd__ = __add__
    __sub__ = __add__          # characteristic 2
    __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.level == 0 and other.level == 0:
            return FieldElement._base(self.tower, self.tower.bmul(self.bits, other.bits))
        if self.is_zero() or other.is_zero():
            return self.tower.zero()
        if self.is_one():
            return other
        if other.is_one():
            return self
        tw = self.tower
        level = max(self.level, other.level)
        n1, d1 = self._frac_at(level)
        n2, d2 = other._frac_at(level)
        if tw.k == 1 and level == 1:
            return FieldElement._bit_fraction(tw, _bmul(n1, n2), _bmul(d1, d2))
        return FieldElement._fraction(tw, level, _pmul(tw, n1, n2), _pmul(tw, d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if self.is_zero():
            raise ZeroDivisionError("inverting 0")
        if self.level == 0:
            return FieldElement._base(self.tower, self.tower.binv(self.bits))
        if self._is_bit():
            return FieldElement._bit_fraction(self.tower, self.den, self.num)
        return FieldElement._fraction(self.tower, self.level, self.den, self.num)

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
        if self.level != other.level or self.tower != other.tower:
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
        if self._is_bit():
            return _bval(self.num) - _bval(self.den)
        return _pval(self.num) - _pval(self.den)

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
        if self._is_bit():
            vn, vd = _bval(self.num), _bval(self.den)
            if vn < vd:
                raise NegativeValuation(f"pole of order {vd - vn}")
            if vn > vd:
                return self.tower.zero()
            return self.tower.one()
        vn, vd = _pval(self.num), _pval(self.den)
        if vn < vd:
            raise NegativeValuation(f"pole of order {vd - vn} at {self.tower.names[level - 1]}=0")
        if vn > vd:
            return self.tower.zero()
        return self.num[vn] / self.den[vd]

    # -- squares -------------------------------------------------------------------

    def sqrt(self):
        """Exact square root in the complete tower, or None.

        Level-j criterion: num*den must have only even powers of t_j with
        coefficients that are squares one level down; the base field is
        perfect, so level-0 elements always have a root.
        """
        if self.level == 0:
            return FieldElement._base(self.tower, self.tower.bsqrt(self.bits))
        tw = self.tower
        if self._is_bit():
            root = _bsqrt(_bmul(self.num, self.den))
            if root is None:
                return None
            return FieldElement._bit_fraction(tw, root, self.den)
        prod = _pmul(tw, self.num, self.den)
        root = [tw.zero()] * ((len(prod) + 1) // 2)
        for i, c in enumerate(prod):
            if c.is_zero():
                continue
            if i % 2:
                return None
            r = c.sqrt()
            if r is None:
                return None
            root[i // 2] = r
        return FieldElement._fraction(tw, self.level, tuple(root), self.den)

    def is_square(self) -> bool:
        return self.sqrt() is not None

    # -- differentials ----------------------------------------------------------------

    def derivative(self, level: int) -> FieldElement:
        """Formal partial derivative with respect to t_level."""
        if not 1 <= level <= self.tower.height:
            raise LevelError(f"level {level} outside 1..{self.tower.height}")
        if self.level < level:
            return self.tower.zero()
        tw = self.tower
        if self._is_bit():
            num = _bmul(_bderiv(self.num), self.den) ^ _bmul(self.num, _bderiv(self.den))
            return FieldElement._bit_fraction(tw, num, _bmul(self.den, self.den))
        if self.level == level:
            dn = _pderive_own(tw, self.num)
            dd = _pderive_own(tw, self.den)
        else:
            dn = _pnorm(tuple(c.derivative(level) for c in self.num))
            dd = _pnorm(tuple(c.derivative(level) for c in self.den))
        num = _padd(_pmul(tw, dn, self.den), _pmul(tw, self.num, dd))
        return FieldElement._fraction(tw, self.level, num, _pmul(tw, self.den, self.den))

    def dlog_coords(self) -> tuple[FieldElement, ...]:
        """Coordinates of d(self)/self over the basis dt_1, ..., dt_m."""
        if self.is_zero():
            raise ZeroInput("dlog of 0")
        inv = self.inverse()
        return tuple(self.derivative(i) * inv for i in range(1, self.tower.height + 1))

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        from .parsing import format_element

        return format_element(self)


def _tuple_to_bits(cs) -> int:
    out = 0
    for i, c in enumerate(cs):
        if not c.is_zero():
            out |= 1 << i
    return out


def _bits_to_tuple(tw, bits: int):
    one, zero = tw.one(), tw.zero()
    return tuple(one if bits >> i & 1 else zero for i in range(bits.bit_length()))


# -- Artin-Schreier reduction ---------------------------------------------------------


@dataclass(frozen=True)
class WpNormalForm:
    """Result of reducing x modulo wp(F), where wp(y) = y^2 + y.

    `reduced` is the canonical representative of x + wp(F): a negative
    odd-valuation tail, or the canonical trace-one base element, or 0.
    `correction` satisfies x = reduced + wp(correction) exactly when
    `correction_exact` is set; otherwise the identity holds modulo a tail
    of t-valuation beyond the configured precision.
    """

    reduced: FieldElement
    is_in_wp: bool
    correction: FieldElement
    correction_exact: bool = True

    def check(self, x: FieldElement) -> bool:
        if not self.correction_exact:
            return True
        return x == self.reduced + wp(self.correction)


def wp(y: FieldElement) -> FieldElement:
    """The Artin-Schreier map y -> y^2 + y."""
    return y * y + y


@lru_cache(maxsize=65536)
def wp_reduce(x: FieldElement, precision: int = DEFAULT_WP_PRECISION) -> WpNormalForm:
    """Reduce x modulo wp of the complete tower.

    The loop on each Laurent level: while the valuation is negative, an
    odd valuation or a non-square leading coefficient is a final
    obstruction; otherwise subtracting wp(sqrt(lead) * t^(v/2)) raises
    the valuation.  Once the valuation is nonnegative the positive part
    lies in wp (series solution, truncated at `precision` terms) and the
    constant term recurses one level down.  The membership verdict is
    exact even when the correction witness is truncated.
    """
    tw = x.tower
    correction = tw.zero()
    exact = True
    cur = x
    while cur.level > 0:
        lev = cur.level
        while not cur.is_zero() and cur.level == lev and cur.valuation(lev) < 0:
            v = cur.valuation(lev)
            if v % 2 != 0:
                return WpNormalForm(cur, False, correction, exact)
            lead = (cur * tw.monomial(lev, -v)).residue(lev)
            root = lead.sqrt()
            if root is None:
                return WpNormalForm(cur, False, correction, exact)
            step = root * tw.monomial(lev, v // 2)
            correction = correction + step
            cur = cur + wp(step)
        if cur.level < lev:
            continue
        const = cur.residue(lev)
        plus = cur + const
        if not plus.is_zero():
            correction = correction + _wp_series_witness(plus, lev, precision)
            exact = False
        cur = const
    bits = cur.bits
    if tw._trace[bits]:
        reduced = tw.trace_one_element()
        target = bits ^ reduced.bits
        return WpNormalForm(reduced, False, correction + tw.base_element(tw._wp_preimage[target]), exact)
    return WpNormalForm(tw.zero(), True, correction + tw.base_element(tw._wp_preimage[bits]), exact)


def exact_tail_reduce(a: FieldElement, level: int):
    """Exact Artin-Schreier reduction of the negative t_level part.

    Returns (reduced, wild): `reduced` differs from `a` by wp of a
    rational element; `wild` marks an irreducible negative part (odd
    valuation or non-square leading coefficient).
    """
    tw = a.tower
    cur = a
    while not cur.is_zero() and cur.level == level and cur.valuation(level) < 0:
        v = cur.valuation(level)
        if v % 2 != 0:
            return cur, True
        lead = (cur * tw.monomial(level, -v)).residue(level)
        root = lead.sqrt()
        if root is None:
            return cur, True
        step = root * tw.monomial(level, v // 2)
        cur = cur + step * step + step
    return cur, False


def strip_even_power(b: FieldElement, level: int) -> FieldElement:
    """b times an even power of t_level so the valuation lands in {0,1}."""
    if b.level < level:
        return b
    half = b.valuation(level) // 2   # floor keeps the remainder in {0,1}
    if half:
        return b * b.tower.monomial(level, -2 * half)
    return b


def _series_coeffs(x: FieldElement, level: int, n: int) -> list[FieldElement]:
    """First n Laurent coefficients of x at t_level (x must be regular)."""
    tw = x.tower
    zero = tw.zero()
    if x.is_zero():
        return [zero] * n
    if x.level < level:
        return [x] + [zero] * (n - 1)
    num, den = x._num_tuple(), x._den_tuple()
    vd = _pval(den)
    if _pval(num) < vd:
        raise NegativeValuation("series expansion at a pole")
    num = num[vd:]
    den = den[vd:]
    inv0 = den[0].inverse()
    out = []
    rem = list(num) + [zero] * n
    for i in range(n):
        c = rem[i] * inv0
        out.append(c)
        if not c.is_zero():
            for j, d in enumerate(den):
                if i + j < len(rem):
                    rem[i + j] = rem[i + j] + c * d
    return out


def _wp_series_witness(plus: FieldElement, level: int, precision: int) -> FieldElement:
    # solve y^2 + y = plus to the given precision; val(plus) >= 1 makes the
    # iteration y <- plus + y^2 contract
    tw = plus.tower
    n = precision + 1
    target = _series_coeffs(plus, level, n)
    y = [tw.zero()] * n
    for _ in range(max(1, precision.bit_length() + 1)):
        sq = [tw.zero()] * n
        for i in range((n + 1) // 2):
            if 2 * i < n:
                sq[2 * i] = y[i] * y[i]
        new = [target[i] + sq[i] for i in range(n)]
        if new == y:
            break
        y = new
    t = tw.gen(level)
    acc = tw.zero()
    power = tw.one()
    for c in y:
        if not c.is_zero():
            acc = acc + c * power
        power = power * t
    return acc
