"""Exception hierarchy shared by all hgpade modules.

The CLI maps these onto process exit codes: bad input/parsing -> 1,
violated instance hypotheses -> 2, and internal theory violations
(a quantity certified nonzero evaluating to zero, a "constant"
determinant growing a z-degree, ...) -> 3.  The errors that only the
test oracles raise are defined with them, in the tests.
"""


class HgpadeError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class RationalParseError(HgpadeError):
    """A string did not parse as 'num/den' or an integer."""

    exit_code = 1


class InvalidInput(HgpadeError):
    """Structurally invalid arguments (bad lengths, zero denominators, ...)."""

    exit_code = 1


class HypothesisViolation(HgpadeError):
    """An instance hypothesis failed; the message names the violated one."""

    exit_code = 2


class TheoryViolation(HgpadeError):
    """A quantity the theory certifies (nonzero / degree-0) came out wrong."""

    exit_code = 3


class NonconstantDeterminant(TheoryViolation):
    """The generalized Wronskian determinant had positive z-degree."""


class InsufficientPrecision(HgpadeError):
    """An order/comparison query needed coefficients beyond the truncation."""

    exit_code = 1


class StepBudgetExceeded(InsufficientPrecision):
    """A certified sum provably cannot meet its precision within its step
    budget (the argument is too close to the edge of the disk for the bits)."""


class DivergentSeries(HgpadeError):
    """A series evaluation was requested outside its convergence region."""

    exit_code = 1


class CriterionNotSatisfied(HgpadeError):
    """The measure was requested with V - epsilon <= 0."""

    exit_code = 1


class InconclusiveComparison(HgpadeError):
    """Empirical and closed-form criterion routes disagree on the verdict."""

    exit_code = 1
