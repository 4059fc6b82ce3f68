"""Printed values re-parse to equal values: elements, forms (fractional
b- and a-slots, quasilinear entries) and symbol sums."""

import pytest
from hypothesis import given, settings, strategies as st

from qchar2.cohomology import Symbol, SymbolSum
from qchar2.errors import ParseError
from qchar2.fields import tower
from qchar2.forms import BilinearPfister, QuadraticForm
from qchar2.parsing import (
    format_element,
    format_form,
    format_symbol_sum,
    parse_element,
    parse_form,
    parse_form_expr,
    parse_symbol_sum,
)

TOWERS = [tower(1, ("t1", "t2")), tower(2, ("t",))]     # F2((t1))((t2)), F4((t))
CASES = settings(max_examples=25, deadline=None)


def polynomial(tw):
    """A sum of up to three Laurent monomials with base-field coefficients."""
    def monomial(c, exps):
        x = tw.base_element(c)
        for level, e in enumerate(exps, start=1):
            x = x * tw.monomial(level, e)
        return x

    term = st.builds(monomial, st.integers(1, tw.order - 1),
                     st.tuples(*[st.integers(-2, 2)] * tw.height))
    return st.lists(term, min_size=1, max_size=3).map(lambda ts: sum(ts[1:], ts[0]))


def element(tw):
    nonzero_poly = polynomial(tw).filter(lambda x: not x.is_zero())
    return st.builds(lambda num, den: num / den, polynomial(tw), nonzero_poly)


def nonzero(tw):
    return element(tw).filter(lambda x: not x.is_zero())


def form(tw):
    pairs = st.lists(st.tuples(nonzero(tw), element(tw)), min_size=1, max_size=2)
    quasilinear = st.lists(nonzero(tw), max_size=2)
    return st.builds(lambda p, q: QuadraticForm(tw, tuple(p), tuple(q)), pairs, quasilinear)


def symbol_sum(tw, degree):
    sym = st.builds(lambda a, bs: Symbol(degree, a, tuple(bs)), element(tw),
                    st.lists(nonzero(tw), min_size=degree - 1, max_size=degree - 1))
    return st.lists(sym, min_size=1, max_size=2).map(lambda ss: SymbolSum(degree, tuple(ss)))


@pytest.mark.parametrize("tw", TOWERS, ids=lambda tw: tw.descriptor())
class TestRoundTrip:
    @CASES
    @given(data=st.data())
    def test_element(self, tw, data):
        x = data.draw(element(tw))
        assert parse_element(tw, format_element(x)) == x

    @CASES
    @given(data=st.data())
    def test_form(self, tw, data):
        f = data.draw(form(tw))
        assert parse_form(tw, format_form(f)) == f

    @CASES
    @given(data=st.data())
    def test_symbol_sum(self, tw, data):
        s = data.draw(symbol_sum(tw, data.draw(st.sampled_from((2, 3)))))
        assert parse_symbol_sum(tw, format_symbol_sum(s)) == s


    def test_empty_forms(self, tw):
        for f in (QuadraticForm(tw, ()), BilinearPfister(())):
            assert parse_form_expr(tw, format_form(f)) == f


@pytest.mark.parametrize("text", ["[1,1]/t1", "t1/[1,1]", "t1/<<t1,1]]", "1/0*[1,1]"])
def test_division_is_for_scalars_only(text):
    with pytest.raises(ParseError):
        parse_form(TOWERS[0], text)
