"""Exception types shared across the package, and the integer policy.

Numbers: every size, count, dimension, offset, period, depth and budget is
an `int` no smaller than its least value, decided by `whole`.  A bool is
refused although it is an int subclass, and so is a float even when it is
whole.  A prime is such an int that is prime, decided by `fplinalg.prime`
with the Miller-Rabin test to the prime bases up to 41, which is exact below
about 3.3 * 10^24 (Sorenson & Webster 2015): a larger p is refused.
The gap delta of the offset-gap spaces is an `int` or a `Fraction`, never a
float (which would be taken at its binary value) or a bool.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition or structural invariant."""


def whole(value, name: str, least: int = 0) -> int:
    """Return value, or raise ValidationError unless it is an int >= least."""
    if type(value) is not int or value < least:
        raise ValidationError(f"{name} {value!r} must be an integer >= {least}")
    return value


# Cells of a cubical model, and simplices of a triangulation, a join or a
# barycentric subdivision, that one computation may build.  A predicted size
# is exact below SIZE_CAP, where a join's size is cut.
DEFAULT_CELL_BUDGET = 10_000_000
SIZE_CAP = DEFAULT_CELL_BUDGET ** 2


class BudgetExceeded(RuntimeError):
    """A combinatorial computation outgrew its resource budget.

    Carries enough context to report the run as inconclusive instead of
    silently truncating.  Distinct from a negative search result.
    """

    def __init__(self, message, *, count=None):
        super().__init__(message)
        self.count = count


def within_budget(size: int, what: str) -> None:
    """Before anything is built: refuse `what` if it would pass the budget.
    A size cut at SIZE_CAP, or too long to print, is named as at least that."""
    if size > DEFAULT_CELL_BUDGET:
        count = min(size, SIZE_CAP)
        raise BudgetExceeded(f"{what} would have {'at least ' * (count == SIZE_CAP)}{count} "
                             f"simplices, above the budget {DEFAULT_CELL_BUDGET}", count=count)


class ConsistencyError(RuntimeError):
    """Certified bounds contradict each other (coindex above index)."""
