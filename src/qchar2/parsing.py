"""Expression grammars for fields, elements, forms and symbol sums.

Field descriptors look like ``F2((t))``, ``F2^2((t1))((t2))`` (``F4`` is
accepted for ``F2^2``).  Element expressions use ``0, 1, z, t1..tm`` with
``+ * / ^`` and parentheses.  Form expressions use ``[1,a]``, ``b*[1,a]``,
``<<b1,...,a]]``, ``<b1,...,bk>`` (bilinear slots), ``<c1,...,cs>q``
(quasilinear), with ``+`` for the orthogonal sum and ``*`` for
scaling/tensoring.  Symbol sums are written ``a d(b1)/b1 ^ d(b2)/b2``
joined by ``+``.

Every formatter here round-trips: parsing its output returns an equal
value.
"""

from __future__ import annotations

import re

from .errors import ParseError, UnsupportedField
from .fields import FieldElement, FieldTower, tower


def parse_field(descriptor: str) -> FieldTower:
    text = descriptor.strip().replace(" ", "")
    m = re.match(r"^F(\d+)(\^(\d+))?", text)
    if not m:
        raise ParseError("field descriptor must start with F2[^k]", descriptor)
    base = int(m.group(1))
    if m.group(3):
        if base != 2:
            raise UnsupportedField("only characteristic 2 is supported")
        k = int(m.group(3))
    else:
        # allow F4, F8, ... as shorthand for F2^k
        k = base.bit_length() - 1
        if base != 1 << k or base < 2:
            raise UnsupportedField(f"{base} is not a power of 2")
    rest = text[m.end():]
    names = []
    while rest:
        m2 = re.match(r"^\(\(([A-Za-z][A-Za-z0-9_]*)\)\)", rest)
        if not m2:
            raise ParseError("expected ((var))", descriptor, len(text) - len(rest))
        names.append(m2.group(1))
        rest = rest[m2.end():]
    return tower(k, tuple(names))


# -- element expressions ---------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def take(self, s: str) -> bool:
        if self.startswith(s):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.take(s):
            raise ParseError(f"expected {s!r}", self.text, self.pos)

    def ident(self) -> str:
        self.skip_ws()
        m = re.match(r"[A-Za-z][A-Za-z0-9_]*", self.text[self.pos:])
        if not m:
            raise ParseError("expected identifier", self.text, self.pos)
        self.pos += m.end()
        return m.group(0)

    def integer(self) -> int:
        self.skip_ws()
        m = re.match(r"-?\d+", self.text[self.pos:])
        if not m:
            raise ParseError("expected integer", self.text, self.pos)
        self.pos += m.end()
        return int(m.group(0))

    def at_dlog(self) -> bool:
        self.skip_ws()
        return bool(re.match(r"d\s*\(", self.text[self.pos:]))

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_expr(sc: _Scanner, tw: FieldTower) -> FieldElement:
    value = _parse_term(sc, tw)
    while sc.peek() == "+" and not sc.at_dlog():
        sc.take("+")
        value = value + _parse_term(sc, tw)
    return value


def _parse_term(sc: _Scanner, tw: FieldTower) -> FieldElement:
    value = _parse_power(sc, tw)
    while True:
        if sc.peek() == "*":
            sc.take("*")
            value = value * _parse_power(sc, tw)
        elif sc.peek() == "/":
            sc.take("/")
            divisor = _parse_power(sc, tw)
            if divisor.is_zero():
                raise ParseError("division by zero", sc.text, sc.pos)
            value = value / divisor
        else:
            return value


def _parse_power(sc: _Scanner, tw: FieldTower) -> FieldElement:
    base = _parse_atom(sc, tw)
    sc.skip_ws()
    # '^' is exponentiation only when followed by an integer; in symbol
    # expressions a bare '^' is the wedge separator
    if re.match(r"\^\s*-?\d", sc.text[sc.pos:]):
        sc.take("^")
        exponent = sc.integer()
        if exponent < 0 and base.is_zero():
            raise ParseError("negative power of zero", sc.text, sc.pos)
        return base ** exponent
    return base


def _parse_atom(sc: _Scanner, tw: FieldTower) -> FieldElement:
    if sc.take("("):
        value = _parse_expr(sc, tw)
        sc.expect(")")
        return value
    ch = sc.peek()
    if ch.isdigit():
        return tw.element(sc.integer())
    name = sc.ident()
    if name == "z":
        if tw.k == 1:
            raise ParseError("z is not defined over F2", sc.text, sc.pos)
        return tw.base_element(2)
    if name in tw.names:
        return tw.gen(tw.names.index(name) + 1)
    raise ParseError(f"unknown symbol {name!r} in {tw.descriptor()}", sc.text, sc.pos)


def parse_element(tw: FieldTower, text: str) -> FieldElement:
    sc = _Scanner(text)
    value = _parse_expr(sc, tw)
    if not sc.done():
        raise ParseError("trailing input", text, sc.pos)
    return value


def _format_base(tw: FieldTower, bits: int) -> str:
    if bits == 0:
        return "0"
    terms = []
    for e in range(tw.k - 1, -1, -1):
        if bits >> e & 1:
            if e == 0:
                terms.append("1")
            elif e == 1:
                terms.append("z")
            else:
                terms.append(f"z^{e}")
    return "+".join(terms)


def _wrap(s: str) -> str:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+*/":
            return f"({s})"
    return s


def _format_poly(cs, var: str) -> str:
    terms = []
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if c.is_zero():
            continue
        if e == 0:
            terms.append(_wrap(format_element(c)))
            continue
        v = var if e == 1 else f"{var}^{e}"
        if c.is_one():
            terms.append(v)
        else:
            terms.append(f"{_wrap(format_element(c))}*{v}")
    return "+".join(terms) if terms else "0"


def format_element(x: FieldElement) -> str:
    if x.level == 0:
        return _format_base(x.tower, x.bits)
    var = x.tower.names[x.level - 1]
    num, den = x.coefficients()
    num = _format_poly(num, var)
    if len(den) == 1 and den[0].is_one():
        return num
    return f"{_wrap(num)}/{_wrap(_format_poly(den, var))}"


# -- form expressions --------------------------------------------------------------


def parse_form_expr(tw: FieldTower, text: str):
    """Parse a form expression to QuadraticForm/QuadraticPfister/BilinearPfister."""
    sc = _Scanner(text)
    value = _parse_form_sum(sc, tw)
    if not sc.done():
        raise ParseError("trailing input", text, sc.pos)
    return value


def parse_form(tw: FieldTower, text: str):
    """Parse and flatten to a QuadraticForm."""
    from .forms import BilinearPfister, QuadraticPfister

    value = parse_form_expr(tw, text)
    if isinstance(value, QuadraticPfister):
        return value.expand()
    if isinstance(value, (BilinearPfister, FieldElement)):
        raise ParseError(f"{text!r} is not a quadratic form", text)
    return value


def _parse_form_sum(sc: _Scanner, tw: FieldTower):
    from .forms import orth_sum

    value = _parse_form_product(sc, tw)
    while sc.peek() == "+":
        sc.take("+")
        nxt = _parse_form_product(sc, tw)
        if isinstance(value, FieldElement) and isinstance(nxt, FieldElement):
            value = value + nxt
        else:
            value = orth_sum(_as_quadratic(value), _as_quadratic(nxt))
    return value


def _as_quadratic(value):
    from .forms import QuadraticForm, QuadraticPfister

    if isinstance(value, QuadraticPfister):
        return value.expand()
    if not isinstance(value, QuadraticForm):
        raise ParseError(f"expected a quadratic form, got {value!r}")
    return value


def _parse_form_product(sc: _Scanner, tw: FieldTower):
    from .forms import BilinearPfister, QuadraticForm, QuadraticPfister, scale, tensor

    factors = [_parse_form_atom(sc, tw)]
    while sc.peek() in ("*", "/"):
        if sc.take("*"):
            factors.append(_parse_form_atom(sc, tw))
            continue
        sc.take("/")
        divisor = _parse_form_atom(sc, tw)
        if not (isinstance(factors[-1], FieldElement) and isinstance(divisor, FieldElement)):
            raise ParseError("only scalars can be divided", sc.text, sc.pos)
        if divisor.is_zero():
            raise ParseError("division by zero", sc.text, sc.pos)
        factors[-1] = factors[-1] / divisor
    value = factors[-1]
    for left in reversed(factors[:-1]):
        if isinstance(left, FieldElement):
            if isinstance(value, FieldElement):
                value = left * value
            else:
                value = scale(left, _as_quadratic(value))
        elif isinstance(left, BilinearPfister):
            if isinstance(value, QuadraticPfister):
                value = QuadraticPfister(left.slots + value.bilinear_slots, value.last_slot)
            else:
                value = tensor(left, _as_quadratic(value))
        else:
            raise ParseError("only scalars and bilinear factors can multiply forms", sc.text, sc.pos)
    return value


def _parse_form_atom(sc: _Scanner, tw: FieldTower):
    from .forms import BilinearPfister, QuadraticForm, QuadraticPfister

    if sc.startswith("[") :
        sc.expect("[")
        lead = _parse_expr(sc, tw)
        if not lead.is_one():
            raise ParseError("binary pieces are written [1,a]", sc.text, sc.pos)
        sc.expect(",")
        a = _parse_expr(sc, tw)
        sc.expect("]")
        return QuadraticForm(tw, ((tw.one(), a),))
    if sc.startswith("<<"):
        sc.expect("<<")
        entries = [_parse_expr(sc, tw)]
        while sc.take(","):
            entries.append(_parse_expr(sc, tw))
        sc.expect("]]")
        return QuadraticPfister(tuple(entries[:-1]), entries[-1])
    if sc.startswith("<"):
        sc.expect("<")
        entries = [] if sc.startswith(">") else [_parse_expr(sc, tw)]   # `<>q`, `<>` are empty
        while entries and sc.take(","):
            entries.append(_parse_expr(sc, tw))
        sc.expect(">")
        if sc.take("q"):
            return QuadraticForm(tw, (), tuple(entries))
        return BilinearPfister(tuple(entries))
    if sc.take("("):
        value = _parse_form_sum(sc, tw)
        sc.expect(")")
        return value
    return _parse_power(sc, tw)


def format_form(f) -> str:
    from .forms import BilinearPfister, QuadraticForm, QuadraticPfister

    if isinstance(f, QuadraticPfister):
        entries = list(f.bilinear_slots) + [f.last_slot]
        return "<<" + ",".join(format_element(e) for e in entries) + "]]"
    if isinstance(f, BilinearPfister):
        return "<" + ",".join(format_element(e) for e in f.slots) + ">"
    if not isinstance(f, QuadraticForm):
        raise TypeError(f"cannot format {f!r}")
    parts = []
    for b, a in f.pairs:
        pair = f"[1,{format_element(a)}]"
        parts.append(pair if b.is_one() else f"{_wrap(format_element(b))}*{pair}")
    if f.quasilinear:
        parts.append("<" + ",".join(format_element(c) for c in f.quasilinear) + ">q")
    return "+".join(parts) if parts else "<>q"


# -- symbol expressions ---------------------------------------------------------------


def parse_symbol_sum(tw: FieldTower, text: str):
    from .cohomology import Symbol, SymbolSum

    sc = _Scanner(text)
    symbols = []
    while True:
        coeff = _parse_expr(sc, tw)
        slots = []
        while sc.at_dlog():
            sc.expect("d")
            sc.expect("(")
            b = _parse_expr(sc, tw)
            sc.expect(")")
            sc.expect("/")
            b2 = _parse_power(sc, tw)
            if b != b2:
                raise ParseError("dlog factors must be written d(b)/b", sc.text, sc.pos)
            slots.append(b)
            if sc.startswith("^"):
                sc.take("^")
                if not sc.at_dlog():
                    raise ParseError("expected d(...) after ^", sc.text, sc.pos)
        symbols.append(Symbol(len(slots) + 1, coeff, tuple(slots)))
        if not sc.take("+"):
            break
    if not sc.done():
        raise ParseError("trailing input", text, sc.pos)
    degrees = {s.degree for s in symbols}
    if len(degrees) != 1:
        raise ParseError(f"mixed symbol degrees {sorted(degrees)}", text)
    return SymbolSum(degrees.pop(), tuple(symbols))


def format_symbol_sum(s) -> str:
    parts = []
    for sym in s.symbols:
        dlogs = [f"d({format_element(b)})/{_wrap(format_element(b))}" for b in sym.slots]
        piece = _wrap(format_element(sym.coefficient))
        if dlogs:
            piece += " " + " ^ ".join(dlogs)
        parts.append(piece)
    return " + ".join(parts) if parts else "0"
