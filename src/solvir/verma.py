"""Verma modules M(lambda, c) for the lex triangular decomposition.

M(lambda, c) is induced from the one-dimensional module of the non-negative
part: lex-positive generators kill the vacuum, E(0) = d_mu acts by lambda and
the central symbol by c.  By PBW freeness a basis is given by normal-ordered
words of lex-negative generators applied to the vacuum.

Normal order convention: the lex-smallest generator is applied first.  Words
are stored in application order as non-decreasing tuples of lex-negative
lattice points, so a stored word (g_1 <= g_2 <= ... <= g_k) denotes the
operator product E(g_k) ... E(g_1) applied to the vacuum.

Straightening rewrites an arbitrary product into this basis with the bracket
relations.  straighten below is the one rewriting engine, act_on_words the
one action loop, and Monomial and ModuleVector the one monomial and vector
shape: the generalized Verma modules of gvm use them as well and differ only
in the ceiling of their letters and the action of the zero part and on the
base vector.  Weight homogeneity is preserved because brackets respect the
lattice grading.

Weight bookkeeping: a word with shift s = sum of its points spans a vector of
d_mu eigenvalue lambda + mu.s; shifts are lex-nonpositive, and the level of a
homogeneous vector at shift s is -s.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .algebra import (
    CENTRAL,
    AlgebraElement,
    Combination,
    _acc,
    _basis_bracket_terms,
    _mu_scalar,
    basis_element,
    box_points,
    lex_sign,
    point_str,
    vadd,
    vsub,
    vsum,
)
from .errors import NonHomogeneousError, RankMismatchError
from .scalars import LAMBDA, CCHARGE, ONE, Scalar


class TruncationBox(namedtuple("TruncationBox", "N L")):
    """Coordinate bound N and word-length bound L for finite slices."""

    __slots__ = ()

    def __new__(cls, N: int, L: int):
        if N < 1 or L < 1:
            raise ValueError("truncation box needs N >= 1 and L >= 1")
        return super().__new__(cls, N, L)


class Monomial:
    """Word of letters, the rank-n points below ceiling(n) in tuple order,
    stored ascending over a base vector (None if the module has none).

    A subclass gives ceiling(n) and _not_below, the message for a letter
    not below it; _normal takes a word already ascending, unchecked.
    """

    __slots__ = ("n", "word", "base", "_hash")

    def __init__(self, n: int, word=(), base=None):
        base = self._check_base(n, base)
        word = tuple(sorted(tuple(letter) for letter in word))
        ceiling = self.ceiling(n)
        for letter in word:
            if len(letter) != n:
                raise RankMismatchError(f"letter {letter} in rank-{n} monomial")
            if not letter < ceiling:
                raise ValueError(self._not_below.format(letter))
        self.n, self.word, self.base, self._hash = n, word, base, hash((n, word, base))

    @classmethod
    def _normal(cls, n: int, word: tuple, base=None):
        self = object.__new__(cls)
        self.n, self.word, self.base, self._hash = n, word, base, hash((n, word, base))
        return self

    def _check_base(self, n: int, base):
        if base is not None:
            raise ValueError(f"{type(self).__name__} takes no base vector")
        return None

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.n == other.n \
            and self.word == other.word and self.base == other.base

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {self})"


class PBWMonomial(Monomial):
    """Normal-ordered word of lex-negative points applied to the vacuum."""

    __slots__ = ()
    _not_below = "PBW word entry {} is not lex-negative"

    @staticmethod
    def ceiling(n: int):
        return (0,) * n  # lex-negative points are the points below it

    def weight_shift(self):
        return vsum(self.word, (0,) * self.n)

    def __lt__(self, other):
        return self.word < other.word

    def __str__(self):
        return "*".join([point_str("e", p) for p in reversed(self.word)] + ["vac"])


class ModuleVector(Combination):
    """Finite Scalar combination of the monomials of one module class."""

    __slots__ = ()  # a subclass names its monomial class as monomial

    def _key(self, mono):
        if mono.__class__ is not self.monomial:
            raise TypeError(f"{type(mono).__name__} {mono} in a {type(self).__name__}")
        if mono.n != self.n:
            raise RankMismatchError(f"monomial {mono} in rank-{self.n} vector")
        return mono


class VermaVector(ModuleVector):
    """Finite Scalar combination of PBW monomials."""

    __slots__ = ()
    monomial = PBWMonomial

    def weight_shift(self):
        """Common shift of a homogeneous vector; NonHomogeneousError otherwise."""
        shifts = {m.weight_shift() for m in self.terms}
        if len(shifts) > 1:
            raise NonHomogeneousError(f"mixed weight shifts {sorted(shifts)}")
        return shifts.pop() if shifts else None


def vacuum(n: int) -> VermaVector:
    return VermaVector(n, {PBWMonomial(n): ONE})


def straighten(alpha, word, base, ceiling, act, c, memo):
    """E(alpha) applied to the PBW vector (word, base): {(word, base): Scalar}.

    The one rewriting behind verma_act and gvm_act.  A word is an ascending
    tuple of letters, the lattice points below ceiling in lex (tuple) order;
    its last letter is applied last, over the base vector.  A letter not below
    the top letter is appended.  Any other generator goes to act(alpha, word,
    base), the module's action of its zero part and on its base, which returns
    the result or None; None commutes E(alpha) past the top letter:

        E(alpha) E(top) rest = E(top) E(alpha) rest + [E(alpha), E(top)] rest,

    with the bracket taken from algebra._basis_bracket_terms and C acting by
    the scalar c.  Each swap either lowers the inversions at fixed length or
    merges two generators into one, so the rewriting terminates.

    memo maps (alpha, word, base) to the rewritings already made; it is valid
    for one (ceiling, act, c), so the module's action builds a fresh one per
    call and shares it among all the straightenings of that call.  The
    returned dicts may sit in the memo: treat them as read-only.
    """
    if alpha < ceiling:
        if not word or alpha >= word[-1]:
            return {(word + (alpha,), base): ONE}
    else:
        out = act(alpha, word, base)
        if out is not None:
            return out
    out = memo.get((alpha, word, base))
    if out is not None:
        return out
    top, rest = word[-1], word[:-1]
    out = {}
    for (w2, b2), c2 in straighten(alpha, rest, base, ceiling, act, c, memo).items():
        for key, c3 in straighten(top, w2, b2, ceiling, act, c, memo).items():
            _acc(out, key, c2 if c3 is ONE else c2 * c3)
    for merged, bracket in _basis_bracket_terms(alpha, top).items():
        if merged == CENTRAL:
            _acc(out, (rest, base), bracket * c)
            continue
        for key, c4 in straighten(merged, rest, base, ceiling, act, c, memo).items():
            _acc(out, key, bracket * c4)
    memo[alpha, word, base] = out
    return out


def act_on_words(x: AlgebraElement, v: ModuleVector, ceiling, act, c: Scalar):
    """x applied to v by straighten: {(word, base): Scalar}.

    The one action loop of verma_act and gvm_act, which give the ceiling of
    their letters, their hook act and the scalar c that C acts by.  One memo
    serves every straightening of the call.
    """
    if x.n != v.n:
        raise RankMismatchError(f"rank {x.n} vs {v.n}")
    out = {}
    memo = {}
    for key, ce in x.terms.items():
        for mono, cv in v.terms.items():
            coef = ce * cv
            if key == CENTRAL:
                _acc(out, (mono.word, mono.base), coef * c)
                continue
            for wb, cw in straighten(key, mono.word, mono.base, ceiling, act, c,
                                     memo).items():
                _acc(out, wb, coef * cw)
    return out


def verma_act(x: AlgebraElement, v: VermaVector, lam: Scalar = LAMBDA,
              c: Scalar = CCHARGE) -> VermaVector:
    """Act by an algebra element, rewriting exactly into the PBW basis."""
    zero = (0,) * v.n

    def act(alpha, word, base):
        # E(0) acts diagonally by lambda + mu.shift; positives kill the vacuum
        if alpha == zero:
            eig = lam + _mu_scalar(vsum(word, zero))
            return {(word, base): eig} if eig else {}
        return None if word else {}

    return v._like({PBWMonomial._normal(v.n, word): coef for (word, _), coef
                    in act_on_words(x, v, zero, act, c).items()})


def pbw_enumerate(n: int, shift, box: TruncationBox):
    """All in-box normal words of lex-negative points summing to shift.

    Deterministic: depth-first over the ascending generator list, choosing
    non-decreasing words.  Sums of lex-negative points are lex-negative, so a
    branch closes exactly when its remaining target reaches zero, and dies
    when the target turns lex-positive or moves out of coordinate reach.
    Those tests live in one count of the words below a branch, memoized for
    this call on (generator index, remaining target, letters left); the
    search descends only into branches whose count is nonzero, so its cost
    is in proportion to its output.
    """
    shift = tuple(shift)
    if len(shift) != n:
        raise RankMismatchError(f"shift {shift} in rank {n}")
    if lex_sign(shift) > 0:
        raise ValueError("shift must be lex-nonpositive")
    gens = [g for g in box_points(n, box.N) if lex_sign(g) < 0]

    def branches(start, remaining):
        for idx in range(start, len(gens)):
            g = gens[idx]
            # first coordinates of generators are <= 0, so a zero first
            # coordinate of the target rules out any g with g[0] < 0
            if remaining[0] == 0 and g[0] < 0:
                continue
            yield idx, g, vsub(remaining, g)

    @cache
    def count(start, remaining, left):
        """Words from gens[start:] of at most left letters summing to remaining."""
        if not any(remaining):
            return 1
        if left == 0 or lex_sign(remaining) > 0:
            return 0
        if any(abs(c) > left * box.N for c in remaining):
            return 0
        return sum(count(idx, rest, left - 1)
                   for idx, _, rest in branches(start, remaining))

    out = []

    def dfs(start, remaining, word):
        if not any(remaining):
            out.append(PBWMonomial._normal(n, word))
            return
        left = box.L - len(word) - 1
        for idx, g, rest in branches(start, remaining):
            if count(idx, rest, left):
                dfs(idx, rest, word + (g,))

    dfs(0, shift, ())
    return out


def weight_space_dim_truncated(n: int, shift, box: TruncationBox) -> int:
    """Exact dimension of the in-box slice of the weight space at the shift."""
    return len(pbw_enumerate(n, shift, box))


def singular_residuals(v: VermaVector, box: TruncationBox, lam: Scalar = LAMBDA,
                       c: Scalar = CCHARGE):
    """Raising residuals E(gamma).v for lex-positive gamma in the box.

    Only raisings keeping the target shift lex-nonpositive are tested; an
    all-zero result certifies singularity relative to the tested raising set
    (a box certificate, never a global claim).
    """
    if v.is_zero():
        raise NonHomogeneousError("zero vector has no weight")
    beta = v.weight_shift()
    residuals = {}
    for gamma in box_points(v.n, box.N):
        if lex_sign(gamma) <= 0:
            continue
        if lex_sign(vadd(beta, gamma)) > 0:
            continue
        residuals[gamma] = verma_act(basis_element(v.n, gamma), v, lam, c)
    return residuals


def is_singular_within_box(v: VermaVector, box: TruncationBox,
                           lam: Scalar = LAMBDA, c: Scalar = CCHARGE) -> bool:
    return all(r.is_zero() for r in singular_residuals(v, box, lam, c).values())
