"""Exact rank computations over the scalar field.

Matrices with Scalar entries are reduced to Polynomial matrices by clearing
each row's denominators (row scaling by nonzero field elements preserves
rank), then eliminated with the Bareiss fraction-free scheme.  Every division
in Bareiss is an exact polynomial division; a failed division would signal a
bug, not data, and raises immediately.

A small incremental echelon form over Q is also provided for assembling large
sparse rational systems row by row.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Polynomial, common_denominator


def rank_scalar_matrix(rows) -> int:
    """Exact rank of a matrix with Scalar entries."""
    return rank_polynomial_matrix([common_denominator(list(r))[1] for r in rows])


def rank_polynomial_matrix(rows) -> int:
    """Bareiss fraction-free elimination; deterministic pivoting."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = Polynomial.const(1)
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
        piv = m[rank][col]
        for i in range(rank + 1, nrows):
            entry_i_col = m[i][col]
            for j in range(col + 1, ncols):
                num = piv * m[i][j] - entry_i_col * m[rank][j]
                q = num.exact_div(prev)
                assert q is not None, "Bareiss division failed"
                m[i][j] = q
            m[i][col] = Polynomial()
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank


class RationalEchelon:
    """Incremental row echelon over Q; add rows, read off the rank."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots = {}  # column -> reduced row (list of Fraction)

    def add_row(self, row) -> bool:
        """Reduce a row against the basis; returns True if it was independent."""
        work = [Fraction(x) for x in row]
        for col in sorted(self.pivots):
            if work[col]:
                factor = work[col]
                prow = self.pivots[col]
                for j in range(col, self.ncols):
                    work[j] -= factor * prow[j]
        lead = next((j for j in range(self.ncols) if work[j]), None)
        if lead is None:
            return False
        inv = Fraction(1) / work[lead]
        self.pivots[lead] = [x * inv for x in work]
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def in_row_space_kernel(self, vector) -> bool:
        """True when the vector is annihilated by every stored row."""
        vec = [Fraction(x) for x in vector]
        for prow in self.pivots.values():
            if sum(a * b for a, b in zip(prow, vec)):
                return False
        return True
