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

Straightening memo lifetime: the vector an action first acts on owns the
memo of its module, and every vector verma_act or gvm_act returns refers to
that memo weakly.  Acting on either reuses the memo while its owner is alive
and the module matches, so a module-axiom check x.(y.v) - y.(x.v) = [x, y].v
rewrites each generator past each word once.  No memo outlives its owner, so
results kept after the owner is gone hold no memo.

Weight bookkeeping: a word with shift s = sum of its points spans a vector of
d_mu eigenvalue lambda + mu.s; shifts are lex-nonpositive, and the level of a
homogeneous vector at shift s is -s.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from functools import cache

from .algebra import (
    CENTRAL,
    MAX_PAIRS,
    AlgebraElement,
    Combination,
    _acc,
    _basis_bracket_terms,
    _mu_scalar,
    basis_element,
    box_points,
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
    """Finite Scalar combination of the monomials of one module class.

    _memo is unset, the straightening memo this vector owns, or a weak
    reference to the memo of the vector it was computed from (act_on_words).
    """

    __slots__ = ("_memo",)  # a subclass names its monomial class as monomial

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

    with the bracket read as (key, Scalar) pairs from
    algebra._basis_bracket_terms and C acting by the scalar c.  Each swap
    either lowers the inversions at fixed length or merges two generators
    into one, so the rewriting terminates.  Re-applying top to a rewritten
    word whose last letter is not above it is the append above, made in
    place with no call.

    memo maps (alpha, word, base) to the rewritings already made; it is valid
    for one (ceiling, act, c), that is for one module, and act_on_words keeps
    one per module on the vectors it acts on.  The returned dicts may sit in
    the memo: treat them as read-only.
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
        if not w2 or top >= w2[-1]:
            # top is a letter of word, so below the ceiling: append it
            _acc(out, (w2 + (top,), b2), c2)
            continue
        for key, c3 in straighten(top, w2, b2, ceiling, act, c, memo).items():
            _acc(out, key, c2 * c3)
    for merged, bracket in _basis_bracket_terms(alpha, top):
        if merged == CENTRAL:
            _acc(out, (rest, base), bracket * c)
            continue
        for key, c4 in straighten(merged, rest, base, ceiling, act, c, memo).items():
            _acc(out, key, bracket * c4)
    memo[alpha, word, base] = out
    return out


class _Memo(dict):
    """straighten's memo for the module it names; weakly referable."""

    __slots__ = ("module", "__weakref__")

    def __init__(self, module):
        super().__init__()
        self.module = module


def act_on_words(x: AlgebraElement, v: ModuleVector, ceiling, act, c: Scalar, module):
    """x applied to v by straighten, as a vector of v's type.

    The one action loop of verma_act and gvm_act, which give the ceiling of
    their letters, their hook act, the scalar c that C acts by and a value
    naming the module, equal only between modules with the same (ceiling,
    act, c).  The memo comes from v: the one v owns or refers to if it is
    alive and for this module, else a new one that v then owns.  The result
    refers to that memo weakly, so acting on it reuses the memo while its
    owner lives, and keeping results keeps no memo alive.
    """
    if x.n != v.n:
        raise RankMismatchError(f"rank {x.n} vs {v.n}")
    memo = getattr(v, "_memo", None)
    if memo.__class__ is weakref.ref:
        memo = memo()
    if memo is None or memo.module != module:
        memo = v._memo = _Memo(module)
    out = {}
    for key, ce in x.terms.items():
        for mono, cv in v.terms.items():
            coef = ce * cv
            if key == CENTRAL:
                _acc(out, (mono.word, mono.base), coef * c)
                continue
            for wb, cw in straighten(key, mono.word, mono.base, ceiling, act, c,
                                     memo).items():
                _acc(out, wb, coef * cw)
    normal = v.monomial._normal
    res = v._like({normal(v.n, word, base): coef for (word, base), coef in out.items()})
    res._memo = weakref.ref(memo)
    return res


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

    # (lam, c) names M(lam, c); a pair never equals gvm's DensityParams
    return act_on_words(x, v, PBWMonomial.ceiling(v.n), act, c, (lam, c))


def pbw_enumerate(n: int, shift, box: TruncationBox):
    """All in-box normal words of lex-negative points summing to shift.

    Deterministic: depth-first over the ascending generator list, choosing
    non-decreasing words.  A branch closes exactly when its remaining target
    reaches zero, and dies when no word of the letters left sums to the
    target.  That test is one count of the words below a branch, memoized
    for this call; the search descends only into branches whose count is
    nonzero, so its cost is in proportion to its output.  The count at the
    root bounds that output: past MAX_PAIRS words, or words too long to
    count within Python's recursion limit, ValueError before any word is
    listed.

    reach(r) bounds the letters of any word of box letters summing to r:
    from reach = 0, each coordinate c of r in turn adds max(0, N reach - c).
    Proof: a letter adds 0 to the coordinates before its first nonzero one,
    at most -1 to that one and at most N to each later one, so coordinate k
    of the sum is at most N times the letters starting before k less the
    letters starting at k, and the k-th term bounds the latter.  When
    c > N reach, no word sums to r at all; a lex-positive r is such a case,
    and reach(r) is -1.  The count keys on (generator index, remaining
    target, letters left clipped to reach(target)).  Clipping never changes
    a count, and a clipped budget below 1 at a nonzero target holds no word.
    Where the budget L cannot bind, the clipped budget is reach(target)
    itself, so each (index, target) is counted once.
    """
    shift = tuple(shift)
    if len(shift) != n:
        raise RankMismatchError(f"shift {shift} in rank {n}")
    ceiling = PBWMonomial.ceiling(n)
    if shift > ceiling:
        raise ValueError("shift must be lex-nonpositive")
    gens = [g for g in box_points(n, box.N) if g < ceiling]

    @cache
    def reach(remaining):
        """Most letters of a word summing to remaining; -1 if none does."""
        most = 0
        for c in remaining:
            if c > box.N * most:
                return -1
            most += box.N * most - c
        return most

    def branches(start, remaining):
        for idx in range(start, len(gens)):
            g = gens[idx]
            # first coordinates of generators are <= 0, so a g below the
            # target's first coordinate leaves a lex-positive rest
            if g[0] < remaining[0]:
                continue
            yield idx, g, vsub(remaining, g)

    @cache
    def count(start, remaining, left):
        """Words from gens[start:] of at most left letters summing to
        remaining; left is clipped to reach(remaining)."""
        if not any(remaining):
            return 1
        if left <= 0:
            return 0
        total = 0
        for idx, _, rest in branches(start, remaining):
            most = reach(rest)  # the key is min(left - 1, most), without a call
            total += count(idx, rest, most if most < left else left - 1)
        return total

    try:
        total = count(0, shift, min(box.L, reach(shift)))
    except RecursionError:
        raise ValueError(f"the words at shift {shift} in {box} are too long "
                         f"to count") from None
    if total > MAX_PAIRS:
        raise ValueError(f"the weight space at shift {shift} in {box} holds "
                         f"{total} words, more than {MAX_PAIRS}")
    out = []

    def dfs(start, remaining, word):
        if not any(remaining):
            out.append(PBWMonomial._normal(n, word))
            return
        left = box.L - len(word) - 1
        for idx, g, rest in branches(start, remaining):
            most = reach(rest)
            if count(idx, rest, most if most < left else left):
                dfs(idx, rest, word + (g,))

    dfs(0, shift, ())
    return out


def weight_space_dim_truncated(n: int, shift, box: TruncationBox) -> int:
    """Exact dimension of the in-box slice of the weight space at the shift."""
    return len(pbw_enumerate(n, shift, box))


def singular_residuals(v: VermaVector, box: TruncationBox, lam: Scalar = LAMBDA,
                       c: Scalar = CCHARGE):
    """Raising residuals E(gamma).v for lex-positive gamma in the box.

    Lex-positive points are those above PBWMonomial.ceiling(n).  Only
    raisings keeping the target shift lex-nonpositive are tested; an all-zero
    result certifies singularity relative to the tested raising set (a box
    certificate, never a global claim).
    """
    if v.is_zero():
        raise NonHomogeneousError("zero vector has no weight")
    beta, ceiling = v.weight_shift(), PBWMonomial.ceiling(v.n)
    residuals = {}
    for gamma in box_points(v.n, box.N):
        if gamma <= ceiling or vadd(beta, gamma) > ceiling:
            continue
        residuals[gamma] = verma_act(basis_element(v.n, gamma), v, lam, c)
    return residuals


def is_singular_within_box(v: VermaVector, box: TruncationBox,
                           lam: Scalar = LAMBDA, c: Scalar = CCHARGE) -> bool:
    return all(r.is_zero() for r in singular_residuals(v, box, lam, c).values())
