"""Quadratic forms, Pfister forms, and presentation-level moves.

A nonsingular form is stored as an ordered tuple of pairs (b_i, a_i)
encoding the orthogonal sum of the binary pieces b_i[1, a_i], where
[1, a] is u^2 + uv + a v^2; a totally singular diagonal part
<c_1, ..., c_s> may ride along as `quasilinear`.  Forms are
presentations, not isometry classes: reordering or rewriting entries
produces a different (but possibly isometric) value, and all
isometry-invariant questions live in the witt/invariants modules.

The elementary isometry moves exposed here (Artin-Schreier shifts of an
a-slot, rescaling a b-slot by a represented value, reordering, merging
equal pairs) generate enough presentation changes to exercise
"invariants do not move" properties; the Gram-matrix machinery splits
hyperbolic planes off.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .errors import ArfNontrivial, SingularInput, ZeroScalar
from .fields import FieldElement, FieldTower, wp_reduce
from .linalg import kernel_basis


@dataclass(frozen=True)
class QuadraticForm:
    tower: FieldTower
    pairs: tuple[tuple[FieldElement, FieldElement], ...]
    quasilinear: tuple[FieldElement, ...] = ()

    def __post_init__(self):
        for b, _ in self.pairs:
            if b.is_zero():
                raise ZeroScalar("pair coefficient must be nonzero")
        for c in self.quasilinear:
            if c.is_zero():
                raise ZeroScalar("quasilinear entry must be nonzero")

    @property
    def dim(self) -> int:
        return 2 * len(self.pairs) + len(self.quasilinear)

    def is_nonsingular(self) -> bool:
        return not self.quasilinear

    def nonsingular_part(self) -> QuadraticForm:
        return QuadraticForm(self.tower, self.pairs)

    def evaluate(self, vector) -> FieldElement:
        """Value on (x_1, y_1, ..., x_p, y_p, z_1, ..., z_s)."""
        if len(vector) != self.dim:
            raise ValueError(f"vector length {len(vector)} != dim {self.dim}")
        acc = self.tower.zero()
        for i, (b, a) in enumerate(self.pairs):
            x, y = vector[2 * i], vector[2 * i + 1]
            acc = acc + b * (x * x + x * y + a * y * y)
        for j, c in enumerate(self.quasilinear):
            z = vector[2 * len(self.pairs) + j]
            acc = acc + c * z * z
        return acc

    def polar(self, u, v) -> FieldElement:
        """The polar bilinear form; quasilinear coordinates are radical."""
        acc = self.tower.zero()
        for i, (b, _) in enumerate(self.pairs):
            xu, yu = u[2 * i], u[2 * i + 1]
            xv, yv = v[2 * i], v[2 * i + 1]
            acc = acc + b * (xu * yv + xv * yu)
        return acc

    def __str__(self):
        from .parsing import format_form

        return format_form(self)

    def __repr__(self):
        return f"<form {self}>"


@dataclass(frozen=True)
class QuadraticPfister:
    """<<b_1, ..., b_{n-1}, a]] as a slot list; expansion has dimension 2^n."""

    bilinear_slots: tuple[FieldElement, ...]
    last_slot: FieldElement

    def __post_init__(self):
        for b in self.bilinear_slots:
            if b.is_zero():
                raise ZeroScalar("bilinear slot must be nonzero")

    @property
    def fold(self) -> int:
        return len(self.bilinear_slots) + 1

    @property
    def tower(self) -> FieldTower:
        return self.last_slot.tower

    def expand(self) -> QuadraticForm:
        f = QuadraticForm(self.tower, ((self.tower.one(), self.last_slot),))
        for b in self.bilinear_slots:
            f = orth_sum(f, scale(b, f))
        return f

    def __str__(self):
        from .parsing import format_form

        return format_form(self)

    __repr__ = __str__


@dataclass(frozen=True)
class BilinearPfister:
    """<<b_1, ..., b_k>>; acts on quadratic forms by tensor product."""

    slots: tuple[FieldElement, ...]

    def __post_init__(self):
        for b in self.slots:
            if b.is_zero():
                raise ZeroScalar("bilinear slot must be nonzero")

    @property
    def fold(self) -> int:
        return len(self.slots)

    def __str__(self):
        from .parsing import format_form

        return format_form(self)

    __repr__ = __str__


def orth_sum(f: QuadraticForm, g: QuadraticForm) -> QuadraticForm:
    if f.tower is not g.tower:
        raise ValueError("orthogonal sum across different towers")
    return QuadraticForm(f.tower, f.pairs + g.pairs, f.quasilinear + g.quasilinear)


def scale(c: FieldElement, f: QuadraticForm) -> QuadraticForm:
    if c.is_zero():
        raise ZeroScalar("scaling a form by 0")
    return QuadraticForm(
        f.tower,
        tuple((c * b, a) for b, a in f.pairs),
        tuple(c * q for q in f.quasilinear),
    )


def tensor(bp: BilinearPfister, f: QuadraticForm) -> QuadraticForm:
    out = f
    for b in bp.slots:
        out = orth_sum(out, scale(b, out))
    return out


def arf_sum(f: QuadraticForm) -> FieldElement:
    if not f.is_nonsingular():
        raise SingularInput("Arf needs a nonsingular form")
    acc = f.tower.zero()
    for _, a in f.pairs:
        acc = acc + a
    return acc


# -- normalized presentation ---------------------------------------------------


@dataclass(frozen=True)
class NormalizationResult:
    form: QuadraticForm
    scale_used: FieldElement
    moves: tuple = ()


def normalize_presentation(f: QuadraticForm) -> NormalizationResult:
    """Rewrite f (nonsingular, trivial Arf, dim >= 4) as
    b_1[1,a_1] + ... + b_{m-1}[1,a_{m-1}] + [1, a_1+...+a_{m-1}].

    The last a-slot is replaced through an exact Artin-Schreier shift
    (justified by the trivial Arf class), and the whole form is scaled by
    the inverse of the last coefficient.  Scaling preserves the class in
    degree-n cohomology but not the Witt class; callers that need the
    Witt class must track `scale_used`.
    """
    if not f.is_nonsingular():
        raise SingularInput("normalization needs a nonsingular form")
    if f.dim < 4:
        raise ArfNontrivial(f"dimension {f.dim} < 4")
    arf = wp_reduce(arf_sum(f))
    if not arf.is_in_wp:
        raise ArfNontrivial("Arf class is nontrivial")
    tw = f.tower
    head = f.pairs[:-1]
    target = tw.zero()
    for _, a in head:
        target = target + a
    c = f.pairs[-1][0]
    inv = c.inverse()
    pairs = tuple((inv * b, a) for b, a in head) + ((tw.one(), target),)
    moves = (
        {"move": "wp-shift", "pair": len(head), "to": str(target)},
        {"move": "scale", "by": str(inv)},
    )
    return NormalizationResult(QuadraticForm(tw, pairs), c, moves)


def is_normalized(f: QuadraticForm) -> bool:
    if not f.is_nonsingular() or f.dim < 4:
        return False
    if not f.pairs[-1][0].is_one():
        return False
    acc = f.tower.zero()
    for _, a in f.pairs[:-1]:
        acc = acc + a
    return acc == f.pairs[-1][1]


# -- elementary isometry moves ------------------------------------------------


def move_wp_shift_by(f: QuadraticForm, i: int, s: FieldElement) -> QuadraticForm:
    """b_i[1, a_i] ~ b_i[1, a_i + s^2 + s]; exact for rational s."""
    b, a = f.pairs[i]
    new = a + s * s + s
    pairs = f.pairs[:i] + ((b, new),) + f.pairs[i + 1 :]
    return QuadraticForm(f.tower, pairs, f.quasilinear)


def move_wp_shift_to(f: QuadraticForm, i: int, new_a: FieldElement) -> QuadraticForm:
    """Replace a_i by new_a; requires a_i + new_a in wp (verdict exact)."""
    b, a = f.pairs[i]
    if not wp_reduce(a + new_a).is_in_wp:
        raise ArfNontrivial("shift target is not Artin-Schreier equivalent")
    pairs = f.pairs[:i] + ((b, new_a),) + f.pairs[i + 1 :]
    return QuadraticForm(f.tower, pairs, f.quasilinear)


def move_norm_scale(f: QuadraticForm, i: int, x: FieldElement, y: FieldElement) -> QuadraticForm:
    """b_i[1, a_i] ~ (b_i * nu)[1, a_i] for nu = x^2 + xy + a_i y^2 != 0."""
    b, a = f.pairs[i]
    nu = x * x + x * y + a * y * y
    if nu.is_zero():
        raise ZeroScalar("(x, y) is a zero of the binary piece")
    pairs = f.pairs[:i] + ((b * nu, a),) + f.pairs[i + 1 :]
    return QuadraticForm(f.tower, pairs, f.quasilinear)


def move_swap(f: QuadraticForm, i: int, j: int) -> QuadraticForm:
    pairs = list(f.pairs)
    pairs[i], pairs[j] = pairs[j], pairs[i]
    return QuadraticForm(f.tower, tuple(pairs), f.quasilinear)


def move_merge_equal_pairs(f: QuadraticForm, i: int, j: int) -> QuadraticForm:
    """b[1,a] + b[1,a'] ~ b[1,0] + b[1,a+a'] (the standard two-pair relation)."""
    bi, ai = f.pairs[i]
    bj, aj = f.pairs[j]
    if bi != bj:
        raise ValueError("merge needs equal coefficients")
    out = [p for k, p in enumerate(f.pairs) if k not in (i, j)]
    out += [(bi, f.tower.zero()), (bi, ai + aj)]
    return QuadraticForm(f.tower, tuple(out), f.quasilinear)


# -- Gram-matrix machinery (nonsingular part only) -------------------------------


def gram(f: QuadraticForm):
    """Symmetric Gram matrix of the nonsingular part: q(e_i) on the
    diagonal, B(e_i, e_j) off it."""
    if not f.is_nonsingular():
        raise SingularInput("Gram machinery works on the nonsingular part")
    zero = f.tower.zero()
    m = [[zero] * f.dim for _ in range(f.dim)]
    for i, (b, a) in enumerate(f.pairs):
        m[2 * i][2 * i] = m[2 * i][2 * i + 1] = m[2 * i + 1][2 * i] = b
        m[2 * i + 1][2 * i + 1] = a * b
    return m


def _support(v):
    return [i for i, x in enumerate(v) if not x.is_zero()]


def gram_evaluate(tw, m, v):
    acc = tw.zero()
    nz = _support(v)
    for k, i in enumerate(nz):
        acc = acc + m[i][i] * v[i] * v[i]
        for j in nz[k + 1 :]:
            if not m[i][j].is_zero():
                acc = acc + m[i][j] * v[i] * v[j]
    return acc


def gram_polar(tw, m, u, v):
    acc = tw.zero()
    nv = _support(v)
    for i in _support(u):
        for j in nv:
            # the diagonal holds q(e_i), which the polar form never reads
            if i != j and not m[i][j].is_zero():
                acc = acc + m[i][j] * u[i] * v[j]
    return acc


def _restrict(tw, m, vectors):
    """Gram matrix of q on the span of `vectors`, in their order; each
    B(u, w) is computed once and mirrored."""
    k = len(vectors)
    out = [[tw.zero()] * k for _ in range(k)]
    for i, u in enumerate(vectors):
        out[i][i] = gram_evaluate(tw, m, u)
        for j in range(i + 1, k):
            out[i][j] = out[j][i] = gram_polar(tw, m, u, vectors[j])
    return out


def pairs_from_gram(tw, m) -> tuple:
    """Extract a b_i[1, a_i] presentation from a nonsingular Gram matrix."""
    n = len(m)
    if n == 0:
        return ()
    if n % 2:
        raise SingularInput("odd-dimensional space cannot be nonsingular")
    zero, one = tw.zero(), tw.one()
    basis = [[one if i == j else zero for j in range(n)] for i in range(n)]
    # the first vector with q != 0 among basis vectors, then pair sums
    sums = ([x + y for x, y in zip(u, w)] for u, w in combinations(basis, 2))
    e = next((v for v in chain(basis, sums) if not gram_evaluate(tw, m, v).is_zero()), None)
    if e is None:
        raise SingularInput("form vanishes identically; polar form degenerate")
    partner = next((v for v in basis if not gram_polar(tw, m, e, v).is_zero()), None)
    if partner is None:
        raise SingularInput("degenerate polar form")
    b = gram_evaluate(tw, m, e)
    lam = b / gram_polar(tw, m, e, partner)
    fvec = [lam * c for c in partner]
    a = gram_evaluate(tw, m, fvec) / b
    if n == 2:
        return ((b, a),)
    return ((b, a),) + _complement_pairs(tw, m, basis, e, fvec)


def _complement_pairs(tw, m, basis, e, f) -> tuple:
    """Presentation of the orthogonal complement of the plane spanned by
    e and f, on the kernel basis of their polar functionals."""
    rows = [[gram_polar(tw, m, x, w) for w in basis] for x in (e, f)]
    return pairs_from_gram(tw, _restrict(tw, m, kernel_basis(tw, rows)))


def split_plane(f: QuadraticForm, v) -> QuadraticForm:
    """Split a hyperbolic plane off a nonsingular form at an exact zero v;
    a quasilinear part raises SingularInput.

    Returns the complement presentation; f is isometric to [1,0] + result.
    """
    tw = f.tower
    if not f.evaluate(v).is_zero():
        raise ValueError("v is not an exact zero of the form")
    m = gram(f)
    basis = [[tw.one() if i == j else tw.zero() for j in range(f.dim)] for i in range(f.dim)]
    partner = next((w for w in basis if not gram_polar(tw, m, v, w).is_zero()), None)
    if partner is None:
        raise SingularInput("zero vector lies in the radical")
    return QuadraticForm(tw, _complement_pairs(tw, m, basis, v, partner))
