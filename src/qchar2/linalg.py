"""Small exact linear algebra over tower elements.

Matrices are lists of row lists of FieldElement.  Everything here is
plain Gaussian elimination with exact division; sizes stay tiny (the
square-coordinate space has dimension 2^m <= 4 on supported towers).
"""

from __future__ import annotations

from .errors import ZeroInput
from .fields import FieldElement, FieldTower


def _rref(mat, n_cols):
    """Reduce `mat` in place to reduced row echelon form over its first
    `n_cols` columns; return the (pivot column, row) pairs in order."""
    reduced = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(mat)) if not mat[i][c].is_zero()), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [x + f * y for x, y in zip(mat[i], mat[r])]
        reduced.append((c, r))
        r += 1
    return reduced


def rank_profile(rows):
    """Row-reduce a copy of `rows`; return (rank, pivot column indices)."""
    mat = [list(r) for r in rows]
    reduced = _rref(mat, len(mat[0]) if mat else 0)
    return len(reduced), [c for c, _ in reduced]


def kernel_vector(tw: FieldTower, rows):
    """A nonzero vector v with M v = 0 (columns = unknowns), or None."""
    basis = kernel_basis(tw, rows)
    return basis[0] if basis else None


def kernel_basis(tw: FieldTower, rows):
    """Basis of {v : M v = 0}, in free-column order; each vector is 1 on
    its own free column and 0 on the other free columns."""
    mat = [list(r) for r in rows]
    n_cols = len(mat[0]) if mat else 0
    reduced = _rref(mat, n_cols)
    pivot_cols = {c for c, _ in reduced}
    basis = []
    for free in range(n_cols):
        if free in pivot_cols:
            continue
        v = [tw.zero()] * n_cols
        v[free] = tw.one()
        for c, row_idx in reduced:
            v[c] = mat[row_idx][free]
        basis.append(v)
    return basis


def solve(tw: FieldTower, rows, rhs):
    """Solve M x = rhs exactly; returns x or None when inconsistent."""
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    n_cols = len(rows[0]) if rows else 0
    reduced = _rref(mat, n_cols)
    if any(not mat[i][n_cols].is_zero() for i in range(len(reduced), len(mat))):
        return None
    x = [tw.zero()] * n_cols
    for c, row_idx in reduced:
        x[c] = mat[row_idx][n_cols]
    return x


# -- coordinates over the square subfield ------------------------------------------
#
# F has basis {prod_{i in S} t_i : S subset {1..m}} over F^2, so every x
# decomposes uniquely as sum_S u_S^2 * m_S.  F^2-linear questions about
# elements become F-linear questions about their coordinate vectors.


def square_coordinates(x: FieldElement) -> dict:
    """Map frozenset(S) -> u_S with x = sum u_S^2 * prod_{i in S} t_i."""
    tw = x.tower
    if x.is_zero():
        return {}
    if x.level == 0:
        return {frozenset(): x.sqrt()}
    level = x.level
    num, den = x.coefficients()
    if sum(not c.is_zero() for c in num) == 1 < len(den):
        # x = c*t^k/den = x^2 * (1/x): scale the coordinates of 1/x, whose
        # denominator is a power of t and so costs nothing to clear
        return {k: x * u for k, u in square_coordinates(x.inverse()).items()}
    inv_den = None
    if len(den) > 1:
        # x = (num * den) / den^2: the coordinates of num * den, over den
        terms = [tw.monomial(level, i) if c.is_one() else c * tw.monomial(level, i)
                 for i, c in enumerate(den) if not c.is_zero()]
        d = sum(terms[1:], terms[0])
        num = (d * x * d).coefficients()[0]
        inv_den = d.inverse()
    out = {}
    for i, c in enumerate(num):
        if c.is_zero():
            continue
        half, parity = divmod(i, 2)
        tpow = tw.monomial(level, half)
        for key, u in square_coordinates(c).items():
            if parity:
                key = key | {level}
            term = u * tpow
            acc = out[key] + term if key in out else term
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    if inv_den is None:
        return out
    return {k: u * inv_den for k, u in out.items()}


def square_dependence(tw: FieldTower, elements):
    """Coefficients (x_i), not all zero, with sum x_i^2 * c_i = 0, or None.

    Decides F^2-linear dependence of the c_i in the complete tower; the
    returned coefficients are exact.
    """
    if any(c.is_zero() for c in elements):
        raise ZeroInput("square dependence of a zero entry")
    rows = _square_rows(tw, elements)
    return kernel_vector(tw, rows) if rows else None


def square_span_rank(tw: FieldTower, elements) -> tuple[int, list[int]]:
    """Rank and pivot indices of the elements inside F as an F^2-space."""
    rows = _square_rows(tw, elements)
    return rank_profile(rows) if rows else (0, [])


def _square_rows(tw: FieldTower, elements):
    """Square coordinates of the elements as columns, one row per key S."""
    coords = [square_coordinates(c) for c in elements]
    keys = sorted({k for d in coords for k in d}, key=sorted)
    return [[d.get(k, tw.zero()) for d in coords] for k in keys]
