"""Property tests over generated scalar trees; skipped without hypothesis."""

from fractions import Fraction
from functools import reduce
from operator import add

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from solvir.errors import DenominatorVanishesError  # noqa: E402
from solvir.scalars import ZERO, Scalar, parse_scalar, scalar_str, sum_of_products  # noqa: E402

NAMES = ("mu1", "mu2", "mu3", "a", "b")
small = st.integers(-3, 3)
rationals = st.builds(Fraction, small, st.integers(1, 4))
# coordinates from a short range, so that trees repeat a denominator form
forms = st.tuples(*[st.integers(-1, 2)] * 3).filter(any)


def _substitute(x, name, value):
    """x with name specialized to value, or x itself where a denominator form
    would lose some but not all of its mu, or vanish."""
    try:
        return x.substitute({name: value})
    except (ValueError, DenominatorVanishesError):
        return x


scalars = st.recursive(
    st.one_of(st.builds(Scalar.from_rational, rationals),
              st.builds(Scalar.indeterminate, st.sampled_from(NAMES))),
    lambda inner: st.one_of(
        st.builds(lambda x, y: x + y, inner, inner),
        st.builds(lambda x, y: x * y, inner, inner),
        st.builds(Scalar.div_form, inner, forms),
        st.builds(_substitute, inner, st.sampled_from(NAMES), rationals)),
    max_leaves=8)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(scalars)
def test_parse_scalar_inverts_str(s):
    assert parse_scalar(str(s)) == s


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(scalars, scalars), max_size=4))
def test_sum_of_products_is_the_fold(pairs):
    fold = reduce(add, (a * b for a, b in pairs), ZERO)
    got = sum_of_products(pairs)
    assert got == fold and scalar_str(got) == scalar_str(fold)
