"""Exact rank computations over the scalar field.

Matrices with Scalar entries are reduced to Polynomial matrices by clearing
each row's denominators (row scaling by nonzero field elements preserves
the rank of every block of rows), then eliminated with the Bareiss
fraction-free scheme.  Each Bareiss update piv * a - e * b is one
scalars.poly_sum_of_products, which builds no product or difference
polynomial, followed by one exact polynomial division by the previous
pivot; a failed division would signal a bug, not data, and raises
RuntimeError at once.

One elimination serves a chain of nested leading blocks: a caller whose
matrices grow by appending rows and columns (the level-one pairing of gvm,
listed in shell order) builds the largest matrix once and reads the rank of
every smaller one from the same elimination.

A small incremental echelon form over Q is also provided for assembling large
sparse rational systems row by row.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Polynomial, common_denominator, poly_sum_of_products


def rank_scalar_matrix(rows, corners=None):
    """Exact rank of a matrix with Scalar entries, or of each of its corners.

    corners as in rank_polynomial_matrix.
    """
    return rank_polynomial_matrix([common_denominator(list(r))[1] for r in rows],
                                  corners)


def rank_polynomial_matrix(rows, corners=None):
    """Bareiss ranks of the nested leading blocks of a Polynomial matrix.

    corners is a chain of (rows, cols) sizes, each at least the one before in
    both entries; the result lists the rank of each leading block rows x cols.
    Without corners the one corner is the whole matrix, and its rank comes
    back as an int.

    Pivots are taken block by block: inside the first corner until its
    remaining entries are zero, then inside the next.  Each pivot updates
    every remaining row and every column without a pivot of the whole matrix.
    After k pivots in rows P and columns Q (in the order taken), Sylvester's
    identity makes each remaining entry (i, j) the minor det M[P+i, Q+j],
    and the division by the previous pivot det M[P, Q] exact, whatever the
    order of P and Q (Bareiss 1968).  The Schur complement of M[P, Q] in a
    block holding P and Q has the entries det M[P+i, Q+j] / det M[P, Q], so
    once they are zero inside a corner, that corner's rank is the pivot
    count k.  Row swaps stay inside the corner being searched, and pivots of
    a smaller corner lie in every larger one, so they stay valid there.
    Within a corner, a column found zero on its remaining rows stays zero on
    them, so one left-to-right pass over its columns finds every pivot.

    Each update of an entry (i, j) is the sum of the products
    piv * M[i, j] and (-M[i, col]) * M[top, j], taken in one pass by
    poly_sum_of_products, then divided by the previous pivot; the first
    pivot's divisor is the constant 1, which exact_div scales by in one pass.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    chain = [(nrows, ncols)] if corners is None else [tuple(c) for c in corners]
    steps = [(0, 0)] + chain + [(nrows, ncols)]
    if any(r > r2 or c > c2 for (r, c), (r2, c2) in zip(steps, steps[1:])):
        raise ValueError(f"corners {chain} are not a chain inside "
                         f"a {nrows} x {ncols} matrix")
    live = list(range(ncols))  # columns without a pivot
    prev = Polynomial.const(1)
    rank = 0
    ranks = []
    for r_end, c_end in chain:
        for col in [j for j in live if j < c_end]:
            pivot = next((i for i in range(rank, r_end) if m[i][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            top = m[rank]
            piv = top[col]
            live.remove(col)
            for i in range(rank + 1, nrows):
                row = m[i]
                neg = -row[col]
                for j in live:
                    if not row[j] and not top[j]:
                        continue  # both products are zero, and so is q
                    q = poly_sum_of_products(
                        ((piv, row[j]), (neg, top[j]))).exact_div(prev)
                    if q is None:
                        raise RuntimeError("Bareiss division failed")
                    row[j] = q
            prev = piv
            rank += 1
        ranks.append(rank)
    return ranks[0] if corners is None else ranks


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
