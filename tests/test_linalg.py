from fractions import Fraction

from solvir.linalg import RationalEchelon, rank_polynomial_matrix, rank_scalar_matrix
from solvir.scalars import ONE, Polynomial, Scalar, mu_poly


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
