"""Contract of the row reducer behind rank_profile, kernel_basis,
kernel_vector and solve, over a finite field and a Laurent field."""

import pytest
from hypothesis import given, settings, strategies as st

from qchar2.fields import tower
from qchar2.linalg import kernel_basis, kernel_vector, rank_profile, solve

F4 = tower(2)
F2T = tower(1, ("t",))


def element(tw):
    if tw.height == 0:
        return st.integers(0, tw.order - 1).map(tw.base_element)

    def build(bits, shift, over_one_plus_t):
        x = tw.zero()
        for i in range(5):
            if bits >> i & 1:
                x = x + tw.monomial(1, i + shift)
        return x / (tw.one() + tw.gen(1)) if over_one_plus_t else x

    return st.builds(build, st.integers(0, 31), st.integers(-2, 1), st.booleans())


def matrix(tw):
    return st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(
            st.lists(element(tw), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        )
    )


def vector(tw, n):
    return st.lists(element(tw), min_size=n, max_size=n)


def matvec(tw, rows, v):
    out = []
    for row in rows:
        acc = tw.zero()
        for a, x in zip(row, v):
            acc = acc + a * x
        out.append(acc)
    return out


FIELDS = pytest.mark.parametrize("tw", [F4, F2T], ids=["F4", "F2((t))"])
CASES = settings(max_examples=40, deadline=None)


@FIELDS
@CASES
@given(data=st.data())
def test_rank_nullity(tw, data):
    rows = data.draw(matrix(tw))
    rank, pivots = rank_profile(rows)
    assert rank == len(pivots)
    assert rank + len(kernel_basis(tw, rows)) == len(rows[0])


@FIELDS
@CASES
@given(data=st.data())
def test_kernel_vectors_are_killed_and_normalized(tw, data):
    rows = data.draw(matrix(tw))
    _, pivots = rank_profile(rows)
    free = [c for c in range(len(rows[0])) if c not in pivots]
    basis = kernel_basis(tw, rows)
    assert len(basis) == len(free)
    for own, v in zip(free, basis):
        assert all(x.is_zero() for x in matvec(tw, rows, v))
        # 1 on its own free column, 0 on the other free columns
        for c in free:
            assert v[c] == (tw.one() if c == own else tw.zero())


@FIELDS
@CASES
@given(data=st.data())
def test_kernel_vector_is_first_basis_vector(tw, data):
    rows = data.draw(matrix(tw))
    basis = kernel_basis(tw, rows)
    assert kernel_vector(tw, rows) == (basis[0] if basis else None)


@FIELDS
@CASES
@given(data=st.data())
def test_solve_consistent_and_inconsistent(tw, data):
    rows = data.draw(matrix(tw))
    x = data.draw(vector(tw, len(rows[0])))
    rhs = matvec(tw, rows, x)
    y = solve(tw, rows, rhs)
    assert y is not None
    assert matvec(tw, rows, y) == rhs
    # a repeated row with a different right-hand side has no solution
    assert solve(tw, rows + [rows[0]], rhs + [rhs[0] + tw.one()]) is None
