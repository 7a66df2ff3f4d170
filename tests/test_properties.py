"""Property tests over generated scalar trees and CLI input; skipped
without hypothesis."""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from solvir.cli import main  # noqa: E402
from solvir.errors import DenominatorVanishesError  # noqa: E402
from solvir.scalars import (  # noqa: E402
    ZERO,
    Polynomial,
    Scalar,
    parse_scalar,
    poly_sum_of_products,
    scalar_str,
    sum_of_products,
)

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


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(scalars, scalars), max_size=4))
def test_poly_sum_of_products_is_the_fold(pairs):
    pairs = [(a.num, b.num) for a, b in pairs]
    fold = reduce(add, (p * q for p, q in pairs), Polynomial())
    got = poly_sum_of_products(pairs)
    assert got == fold and hash(got) == hash(fold)


# bracket input: coefficients with powers up to 20 000, points of one rank
# or of mixed ranks, the central symbol, and stray tokens the grammar must
# refuse
exponents = st.one_of(st.integers(0, 20000), st.sampled_from([16384, 20000]))
coefficients = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["mu1", "mu2", "(mu1+mu2)", "1/2", "mu1/3"]),
    st.builds("mu{}^{}".format, st.integers(1, 2), exponents))
stray = st.sampled_from([")", "(", "^", "*", "+", ",", "e", "[", "]", "mu0", "mu100", "a",
                         "lambda", "/0", "^-1", "e[1,", "1/0*e[1]", "%"])


def points(n):
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(
        lambda p: "e[" + ",".join(map(str, p)) + "]")


def elements(n):
    """Element text whose points have rank n, or now and then another."""
    basis = st.one_of(points(n), points(n), st.integers(1, 3).flatmap(points), st.just("c"))
    term = st.builds(lambda cs, b: "*".join(cs + [b]), st.lists(coefficients, max_size=2), basis)
    # a stray token takes a part's place one time in six
    part = st.builds(lambda k, t, x: x if k == 5 else t, st.integers(0, 5), term, stray)
    return st.builds(lambda first, rest: " ".join([first] + [s + p for s, p in rest]),
                     part, st.lists(st.tuples(st.sampled_from(["+ ", "- "]), part), max_size=2))


bracket_args = st.integers(1, 3).flatmap(lambda n: st.tuples(elements(n), elements(n)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(bracket_args)
@example(("mu1^20000*e[1,0]", "mu1^20000*e[0,1]"))
def test_bracket_text_exits_0_or_2_without_traceback(args):
    left, right = args
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["bracket", left, right])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
