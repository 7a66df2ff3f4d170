"""Generalized Verma modules over the t_1-degree grading.

The algebra of rank n >= 2 is Z-graded by the first lattice coordinate; the
degree-zero part is a copy of the rank-(n-1) algebra (plus the center), and
the coefficient module is the rank-(n-1) density module T(a, b) with basis
v_kappa, kappa in Z^(n-1), on which

    E((0, gamma')) . v_kappa = (a + mu'.kappa + b (mu'.gamma')) v_{kappa+gamma'},
    C . v = 0,

writing mu'.gamma for the form sum_{j>=2} mu_j gamma_{j-1}.  Positive degrees
act by zero on the coefficient module and the negative part acts freely, so a
monomial is a normal-ordered word of negative-degree generators over a base
vector v_kappa, stored as in verma: an ascending tuple of the algebra's lattice
points, the letters (-i, gamma') with i >= 1; its level is the sum of the i.
GvmMonomial and GvmVector are verma's Monomial and ModuleVector, and gvm_act
runs verma's action loop act_on_words; only the ceiling of the letters, the
base vector and the action on the coefficient module are its own.

Quotient criterion (level 1).  Write W for the level-one weight slice at
total shift kappa, spanned by E((-1, gamma)) . v_{kappa-gamma}.  A vector w
in W generates a submodule meeting the coefficient module trivially exactly
when every degree-(+1) generator kills w: raisings of degree >= 2 land in
positive degrees (zero), the kernel of all raisings is stable under the
degree-zero action, and a single nonzero raising image generates the whole
coefficient module once T(a, b) is irreducible, which the formal parameters
guarantee.  The unique maximal submodule meeting T trivially therefore cuts
W along the kernel of the raising pairing, and the level-one weight space of
the irreducible quotient has dimension equal to the exact rank of the
pairing matrix.  The computation below reports that rank over increasing
truncation radii together with a two-consecutive-boxes stabilization flag;
the flag is evidence, not proof.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import (
    CENTRAL,
    AlgebraElement,
    basis_element,
    box_points,
    box_size,
    check_pairs,
    point_str,
    vadd,
    vsub,
    vsum,
)
from .density import DensityParams, act_coefficient
from .errors import NotFormalParamsError, RankMismatchError
from .linalg import rank_scalar_matrix
from .scalars import A, B, ONE, ZERO
from .verma import Monomial, ModuleVector, act_on_words


def grade_of(x: AlgebraElement):
    """Split an element by t_1-degree; the central symbol sits in degree 0."""
    parts = {}
    for key, coef in x.terms.items():
        degree = 0 if key == CENTRAL else key[0]
        parts.setdefault(degree, {})[key] = coef
    return {degree: AlgebraElement(x.n, terms)
            for degree, terms in sorted(parts.items())}


# letters (-i, gamma'), i >= 1, are the points below (0,) in tuple order
DEGREE_ZERO = (0,)


class GvmMonomial(Monomial):
    """Normal-ordered word of letters (-i, gamma'), i >= 1, over a base vector.

    The word is stored ascending, as in PBWMonomial.  Kept for report bytes:
    str prints the letters in application order, first-applied leftmost (the
    reverse of PBWMonomial's operator order), and monomials sort level first,
    each letter read as (i,) + gamma', then by base.
    """

    __slots__ = ()
    _not_below = "letter {} has degree >= 0"

    @staticmethod
    def ceiling(n: int):
        return DEGREE_ZERO

    def _check_base(self, n: int, base):
        if n < 2:
            raise ValueError("graded modules need rank n >= 2")
        return _check_kappa(n, (0,) * (n - 1) if base is None else base)

    def level(self) -> int:
        return -sum(letter[0] for letter in self.word)

    def mu_shift(self):
        """Total mu'-index: base plus the word's gamma' entries."""
        return vsum((letter[1:] for letter in self.word), self.base)

    def _sort_key(self):
        return [(-letter[0],) + letter[1:] for letter in self.word], self.base

    def __lt__(self, other):
        return self._sort_key() < other._sort_key()

    def __str__(self):
        return "*".join([point_str("e", letter) for letter in self.word]
                        + [point_str("v", self.base)])


class GvmVector(ModuleVector):
    """Finite Scalar combination of GvmMonomials."""

    __slots__ = ()
    monomial = GvmMonomial


def base_vector(n: int, kappa) -> GvmVector:
    return GvmVector(n, {GvmMonomial(n, (), kappa): ONE})


def gvm_act(x: AlgebraElement, v: GvmVector, p: DensityParams) -> GvmVector:
    """Induced action: straighten negatives, act by degree zero, kill positives."""

    def act(alpha, word, base):
        # on the coefficient module: T(a, b) in degree zero, zero above it
        if word:
            return None
        if alpha[0]:
            return {}
        # mu.(0, kappa) is mu'.kappa, so this is T(a, b) at v_base
        coef = act_coefficient(alpha, (0,) + base, p)
        return {((), vadd(base, alpha[1:])): coef} if coef else {}

    # C acts by zero on the module, so p names it
    return act_on_words(x, v, DEGREE_ZERO, act, ZERO, p)


def _check_kappa(n: int, kappa) -> tuple:
    kappa = tuple(kappa)
    if len(kappa) != n - 1:
        raise RankMismatchError(f"kappa {kappa} in rank {n}: needs {n - 1} entries")
    return kappa


def level_weight_basis(n: int, level: int, kappa, box: int):
    """In-box monomials of the given level whose total mu'-shift is kappa."""
    if level < 1:
        raise ValueError("level must be >= 1")
    kappa = _check_kappa(n, kappa)
    gammas = box_points(n - 1, box)
    out = []

    def words(level_left, word):
        if level_left == 0:
            shift = vsum((letter[1:] for letter in word), (0,) * (n - 1))
            out.append(GvmMonomial(n, word, vsub(kappa, shift)))
            return
        for i in range(1, level_left + 1):
            for gamma in gammas:
                letter = (-i,) + gamma
                if word and letter < word[-1]:
                    continue
                words(level_left - i, word + (letter,))

    words(level, ())
    return sorted(out)


class QuotientRankReport(namedtuple("QuotientRankReport", "n kappa boxes stabilized")):
    """Ranks of the level-one pairing; boxes holds {radius, rows, cols, rank}."""

    __slots__ = ()

    def bound_string(self):
        return "1*3"  # the level-one ceiling, the double factorial (2*0+1)*(2*1+1)

    def as_dict(self):
        return {
            "n": self.n,
            "kappa": list(self.kappa),
            "boxes": self.boxes,
            "bound": self.bound_string(),
            "stabilized": self.stabilized,
        }


def _shell_key(gamma):
    """Shell order: the radius of the smallest box holding gamma, then gamma."""
    return (max(map(abs, gamma)), gamma)


def quotient_dim_level1(n: int, kappa, p: DensityParams, boxes) -> QuotientRankReport:
    """Exact ranks of the level-one raising pairing over increasing boxes.

    Rows are the degree-(+1) generators E((1, gamma')), columns the level-one
    basis monomials E((-1, gamma)) . v_{kappa-gamma}; the entry is the
    coefficient of the single target v_{kappa+gamma'} under the action.
    Formal parameters are required: the kernel criterion in the module
    docstring needs the coefficient module irreducible.

    The matrix is built once, at the largest radius, with rows and columns
    in shell order (_shell_key of gamma' and of gamma), so the matrix of
    each smaller radius is a leading block; one staged elimination
    (linalg.rank_scalar_matrix with corners) ranks every block.  Row and
    column order do not change a rank.
    """
    if p.a != A or p.b != B:
        raise NotFormalParamsError("quotient rank needs formal parameters a, b")
    kappa = _check_kappa(n, kappa)
    radii = sorted(boxes)
    if not radii:
        return QuotientRankReport(n, kappa, [], False)
    if radii[0] < 0:
        raise ValueError(f"radius {radii[0]} is negative")
    # rows and columns are indexed by the rank-(n-1) box of each radius; the
    # one build walks the entries of the largest
    sizes = [box_size(n - 1, radius) for radius in radii]
    check_pairs(sizes[-1] ** 2, f"the rank-{n} level-one pairing")
    gammas = sorted(box_points(n - 1, radii[-1]), key=_shell_key)
    columns = [GvmMonomial(n, ((-1,) + gamma,), vsub(kappa, gamma)) for gamma in gammas]
    matrix = []
    for gamma_r in gammas:
        raiser = basis_element(n, (1,) + gamma_r)
        target = GvmMonomial(n, (), vadd(kappa, gamma_r))
        row = []
        for mono in columns:
            image = gvm_act(raiser, GvmVector(n, {mono: ONE}), p)
            if any(m != target for m in image.terms):
                raise RuntimeError("raising image off the expected base vector")
            row.append(image.coefficient(target))
        matrix.append(row)
    ranks = rank_scalar_matrix(matrix, [(size, size) for size in sizes])
    results = [{"radius": radius, "rows": size, "cols": size, "rank": rank}
               for radius, size, rank in zip(radii, sizes, ranks)]
    stabilized = len(ranks) >= 2 and ranks[-1] == ranks[-2]
    return QuotientRankReport(n, kappa, results, stabilized)
