import random
from fractions import Fraction

import pytest

from solvir.linalg import RationalEchelon, rank_polynomial_matrix, rank_scalar_matrix
from solvir.scalars import ONE, ZERO, Polynomial, Scalar, mu_poly


def P(c):
    return Polynomial.const(c)


def test_rank_rational_matrices():
    assert rank_polynomial_matrix([[P(1), P(2)], [P(2), P(4)]]) == 1
    assert rank_polynomial_matrix([[P(1), P(0)], [P(0), P(1)]]) == 2
    assert rank_polynomial_matrix([[P(0), P(0)], [P(0), P(0)]]) == 0
    # the first pivot needs a row swap
    assert rank_polynomial_matrix([[P(0), P(1)], [P(1), P(0)]]) == 2
    assert rank_polynomial_matrix([]) == 0


def test_rank_polynomial_matrix():
    x = mu_poly((1, 0))
    y = mu_poly((0, 1))
    # rows scale each other by polynomials: rank 1
    assert rank_polynomial_matrix([[x, y], [x * x, x * y]]) == 1
    assert rank_polynomial_matrix([[x, y], [y, x]]) == 2


def test_rank_scalar_matrix_clears_denominators():
    s = ONE.div_form((1, 0))
    t = Scalar(mu_poly((0, 1)))
    assert rank_scalar_matrix([[s, s], [t, t]]) == 1
    assert rank_scalar_matrix([[s, t], [t, s]]) == 2


def test_rank_scalar_matrix_with_repeated_forms():
    x = ONE.div_form((1, 0))
    y = ONE.div_form((0, 1))
    # the second row is the first times 1/mu(1,0)
    assert rank_scalar_matrix([[x, x * y], [x * x, x * x * y]]) == 1
    # determinant x*y*(x*y - 1)
    assert rank_scalar_matrix([[x * x, y], [x, y * y]]) == 2


def test_rational_echelon_incremental():
    ech = RationalEchelon(3)
    assert ech.add_row([1, 0, 1])
    assert not ech.add_row([2, 0, 2])
    assert ech.add_row([0, 1, 0])
    assert ech.rank == 2
    assert ech.in_row_space_kernel([Fraction(1), Fraction(0), Fraction(-1)])
    assert not ech.in_row_space_kernel([1, 0, 0])


# rank-2 mu-forms, the factors and denominators of the seeded entries
FORMS = [(1, 0), (0, 1), (1, 1), (1, -2), (2, 1)]


def seeded_entry(rng):
    """Small integer times up to two mu-forms, over a mu-form half the time;
    zero one time in four."""
    if rng.random() < 0.25:
        return ZERO
    out = Scalar.from_rational(rng.choice([-3, -2, -1, 1, 2, 5]))
    for _ in range(rng.randint(0, 2)):
        out = out * Scalar.mu_form(rng.choice(FORMS))
    return out.div_form(rng.choice(FORMS)) if rng.random() < 0.5 else out


def seeded_matrix(rng, nrows, ncols, inner=None):
    """Seeded entries; with inner, the product of an nrows x inner and an
    inner x ncols factor, so every block has rank at most inner."""
    if inner is None:
        return [[seeded_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    u = seeded_matrix(rng, nrows, inner)
    v = seeded_matrix(rng, inner, ncols)
    return [[sum((u[i][k] * v[k][j] for k in range(inner)), ZERO)
             for j in range(ncols)] for i in range(nrows)]


def block(rows, corner):
    r, c = corner
    return [row[:c] for row in rows[:r]]


CHAINS = [
    [(1, 1), (2, 3), (4, 4), (5, 6)],
    [(2, 2), (2, 2), (3, 5), (5, 6)],  # a repeated corner
    [(0, 0), (3, 0), (3, 3), (5, 6)],  # empty blocks
    [(5, 6)],
]


@pytest.mark.parametrize("seed", range(8))
def test_corner_ranks_match_each_block(seed):
    rng = random.Random(seed)
    inner = [None, 1, 2, 3][seed % 4]
    rows = seeded_matrix(rng, 5, 6, inner)
    for chain in CHAINS:
        ranks = rank_scalar_matrix(rows, chain)
        assert ranks == [rank_scalar_matrix(block(rows, c)) for c in chain]
        if inner is not None:
            assert max(ranks) <= inner


def test_corner_ranks_past_an_all_zero_block():
    # the leading 2 x 3 block is zero; the later corners find their pivots
    # in the rows and the column past it
    rng = random.Random(7)
    low = seeded_matrix(rng, 2, 2, 1)
    rows = [[ZERO] * 4, [ZERO] * 3 + [ONE]] + [r + [ONE, ZERO] for r in low]
    chain = [(2, 3), (4, 3), (4, 4)]
    ranks = rank_scalar_matrix(rows, chain)
    assert ranks[0] == 0
    assert ranks == [rank_scalar_matrix(block(rows, c)) for c in chain]


def to_sympy(sympy, scalar):
    """A Scalar read back from its text form, mu(g) as the linear form."""
    mu1, mu2 = sympy.symbols("mu1 mu2")
    return sympy.sympify(str(scalar).replace("^", "**"),
                         locals={"mu": lambda a, b: a * mu1 + b * mu2,
                                 "mu1": mu1, "mu2": mu2})


@pytest.mark.parametrize("seed", range(4))
def test_corner_ranks_match_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(100 + seed)
    rows = seeded_matrix(rng, 4, 5, [None, 1, 2, 3][seed])
    exprs = [[to_sympy(sympy, x) for x in row] for row in rows]
    chain = [(1, 2), (2, 2), (3, 4), (4, 5)]
    expected = [DomainMatrix.from_Matrix(sympy.Matrix(block(exprs, c)))
                .to_field().rank() for c in chain]
    assert rank_scalar_matrix(rows, chain) == expected


@pytest.mark.parametrize("seed", range(4))
def test_negative_fractional_first_pivot(seed):
    """The first pivot is -3/2, so the second stage divides by a constant
    that is negative and fractional; corner ranks agree with RationalEchelon
    at a rational point and with sympy."""
    rng = random.Random(300 + seed)
    x, y = mu_poly((1, 0)), mu_poly((0, 1))
    factors = [P(1), x, y, x * y, x + y.scale(Fraction(1, 2))]

    def entry():
        c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4]))
        return P(c) * rng.choice(factors) if rng.random() < 0.8 else P(0)

    inner = [None, 1, 2, 3][seed]
    if inner is None:
        rows = [[entry() for _ in range(5)] for _ in range(4)]
    else:
        u = [[entry() for _ in range(inner)] for _ in range(4)]
        v = [[entry() for _ in range(5)] for _ in range(inner)]
        rows = [[sum((u[i][k] * v[k][j] for k in range(inner)), P(0))
                 for j in range(5)] for i in range(4)]
    rows[0][0] = P(Fraction(-3, 2))
    chain = [(1, 1), (2, 3), (3, 4), (4, 5)]
    ranks = rank_polynomial_matrix(rows, chain)
    point = {1: Fraction(7, 3), 2: Fraction(-5, 11)}
    at_point = []
    for c in chain:
        ech = RationalEchelon(c[1])
        for row in block(rows, c):
            ech.add_row([p.evaluate(point) for p in row])
        at_point.append(ech.rank)
    assert ranks == at_point
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    exprs = [[to_sympy(sympy, Scalar(p)) for p in row] for row in rows]
    assert ranks == [DomainMatrix.from_Matrix(sympy.Matrix(block(exprs, c)))
                     .to_field().rank() for c in chain]


def test_corners_must_be_a_chain_inside_the_matrix():
    rows = [[P(1), P(2)], [P(3), P(4)]]
    assert rank_polynomial_matrix(rows, []) == []
    with pytest.raises(ValueError):
        rank_polynomial_matrix(rows, [(2, 2), (1, 2)])
    with pytest.raises(ValueError):
        rank_polynomial_matrix(rows, [(3, 2)])


def test_failed_bareiss_division_raises(monkeypatch):
    """The exactness check is a RuntimeError, so python -O keeps it."""
    monkeypatch.setattr(Polynomial, "exact_div", lambda self, other: None)
    with pytest.raises(RuntimeError, match="Bareiss division failed"):
        rank_polynomial_matrix([[P(1), P(2)], [P(3), P(4)]])
