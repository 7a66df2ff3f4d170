"""Exception hierarchy shared by all solvir modules."""


class SolvirError(Exception):
    """Base class for all library-specific errors."""


class ZeroFormError(SolvirError):
    """A linear form mu.alpha was requested for alpha = 0."""


class DenominatorVanishesError(SolvirError):
    """A numeric assignment sent some denominator form mu.alpha to zero."""


class MissingAssignmentError(SolvirError):
    """evaluate() was called without a value for some indeterminate."""


class CentralTermPresentError(SolvirError):
    """witt_bracket received an element with a central component."""


class RankMismatchError(SolvirError):
    """Two lattice points or elements of different ranks were combined."""


class AxisOutOfRangeError(SolvirError):
    """Axis index outside 1..n."""


class FitFailedError(SolvirError):
    """Sampled central coefficients are inconsistent with a*m^3 + b*m."""


class NotACocycleError(SolvirError):
    """A 2-cochain failed the cocycle condition; carries the failing triple."""

    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        super().__init__(f"cocycle condition fails at triple {triple}: residual {residual}")


class NotCubicOddError(SolvirError):
    """An eta table does not fit a*(mu.alpha)^3 + b*(mu.alpha)."""


class OutsideBoxError(SolvirError):
    """A lattice point needed for a table lookup lies outside the stored box."""


class BoxTooSmallError(SolvirError):
    """The requested box radius is below the minimum for the computation."""


class WrongCaseError(SolvirError):
    """A submodule check was requested for a non-exceptional parameter case."""


class NonHomogeneousError(SolvirError):
    """singular_residuals requires a weight-homogeneous vector."""


class BoxOverflowError(SolvirError):
    """Straightening produced a monomial outside the requested truncation box."""

    def __init__(self, monomial):
        self.monomial = monomial
        super().__init__(f"straightening escapes the box at {monomial}")


class NotFormalParamsError(SolvirError):
    """The rank criterion needs formal parameters a, b (irreducible coefficient module)."""


class ParseError(SolvirError):
    """A text form could not be parsed."""
