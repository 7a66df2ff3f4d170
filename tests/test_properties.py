"""Property tests over generated scalar trees and CLI input; skipped
without hypothesis."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from solvir.algebra import CENTRAL, AlgebraElement, bracket_is_skew, vir_bracket  # noqa: E402
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


def _run(argv):
    """(exit code, stderr) of cli.main(argv), run in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(bracket_args)
@example(("mu1^20000*e[1,0]", "mu1^20000*e[0,1]"))
def test_bracket_text_exits_0_or_2_without_traceback(args):
    code, err = _run(["bracket", *args])
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 0) == (err == "")


def algebra_elements(n):
    """Rank-n elements of up to three terms, the central one among them,
    with rational coefficients or rational multiples of mu1 or a."""
    keys = st.one_of(st.tuples(*[st.integers(-2, 2)] * n), st.just(CENTRAL))
    coefficients = st.one_of(
        st.builds(Scalar.from_rational, rationals),
        st.builds(lambda q, name: Scalar.indeterminate(name) * Scalar.from_rational(q),
                  rationals, st.sampled_from(["mu1", "a"])))
    return st.builds(AlgebraElement, st.just(n),
                     st.dictionaries(keys, coefficients, max_size=3))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[algebra_elements(n)] * 3)),
       rationals)
def test_bracket_is_bilinear(xs, q):
    x, x2, y = xs
    assert vir_bracket(x + x2, y) == vir_bracket(x, y) + vir_bracket(x2, y)
    assert vir_bracket(y, x + x2) == vir_bracket(y, x) + vir_bracket(y, x2)
    assert vir_bracket(x.scale(q), y) == vir_bracket(x, y).scale(q)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[algebra_elements(n)] * 2)))
def test_bracket_is_antisymmetric(xs):
    x, y = xs
    assert vir_bracket(x, y) == -vir_bracket(y, x)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(-4, 4)] * n)] * 2)))
def test_basis_bracket_table_is_skew(pq):
    assert bracket_is_skew(*pq)


# cochain files: the records to_records writes, valid or with one field,
# record, point, coordinate or value replaced by junk of the wrong type,
# width or grammar (DROP deletes it), or bytes that are no JSON cochain
DROP = object()
junk = st.sampled_from([DROP, None, 7, -1, 99, 2.0, True, "2", "", "x", "mu9", "1/0",
                        "1\n2", "mu1^20000", [], {}, [1.0, 0], [True, 0], [1, 2, 3]])


def cochains(n):
    point = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    value = st.sampled_from(["0", "1", "-2/3", "mu1", "(mu1+1)/2", "mu1^3"])
    return st.fixed_dictionaries({"n": st.just(n)}, optional={
        "canonical_multiple": value,
        "coboundary": st.lists(st.tuples(point, value).map(list), max_size=3),
        "extra": st.lists(st.tuples(point, point, value).map(list), max_size=3)})


def _slots(data):
    """(container, key) of every field, record, point and coordinate of a
    cochain, an absent field "stray" among them."""
    yield from ((data, key) for key in ("n", "stray", "canonical_multiple",
                                        "coboundary", "extra"))
    for field in ("coboundary", "extra"):
        for record in data.get(field, []):
            for i, item in enumerate(record):
                yield record, i
                if type(item) is list:
                    yield from ((item, j) for j in range(len(item)))


def _mutated(data, change):
    if change is not None:
        where, value = change
        slots = list(_slots(data))
        container, key = slots[where % len(slots)]
        if value is not DROP:
            container[key] = value
        elif type(container) is dict:
            container.pop(key, None)
        else:
            del container[key]
    return json.dumps(data).encode()


cochain_files = st.one_of(
    st.builds(_mutated, st.integers(1, 2).flatmap(cochains),
              st.one_of(st.none(), st.tuples(st.integers(0, 50), junk))),
    st.sampled_from([b"", b"{", b"[]", b"null", b"\xff\xfe"]),
    st.text(max_size=20).map(str.encode))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(cochain_files)
@example(json.dumps({"n": 2, "extra": [[[1, 0], [0, 1], "1"]]}).encode())
def test_cochain_file_exits_cleanly(content):
    """verify cocycle --input and normalize --input end a cochain file with
    exit 0 or 1, or with exit 2 and one error: line; never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "theta.json")
        with open(path, "wb") as f:
            f.write(content)
        for command in (["verify", "cocycle"], ["normalize"]):
            code, err = _run([*command, "--input", path, "--box", "2",
                              "--out", os.devnull])
            assert "Traceback" not in err
            assert code in (0, 1, 2)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, err
