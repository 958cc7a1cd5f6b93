"""Exception types shared across the toolkit, and the default budget whose
overrun raises ``BudgetExceeded``."""


class PLocalError(Exception):
    """Base class for all toolkit errors."""


class InvalidPermutation(PLocalError):
    """Raised for image arrays that are not bijections, or degree mismatches."""


class OrderBoundExceeded(PLocalError):
    """Raised when group closure grows past the configured order bound."""

    def __init__(self, bound: int):
        super().__init__(f"group closure exceeded the order bound {bound}")
        self.bound = bound


class NotPSubgroup(PLocalError):
    """Raised when an operation requires a p-group and the input is not one."""


class NotCentric(PLocalError):
    """Raised when a linking-system object fails the p-centricity test."""


# basis-size (and composition-table) bound per degree when none is given
DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(PLocalError):
    """Raised when a chain basis, or the pairs a composition table composes,
    would exceed the budget.  A degree of None counts pairs, of the kind
    ``pairs`` names."""

    def __init__(self, degree: int | None, count: int, budget: int, pairs: str = "composable"):
        counted = (f"{count} {pairs} pairs exceed" if degree is None
                   else f"basis size {count} at degree {degree} exceeds")
        super().__init__(f"{counted} budget {budget}")
        self.degree = degree
        self.count = count
        self.budget = budget


class NotAFunctor(PLocalError):
    """Raised when a value assignment fails the exhaustive functoriality check."""


class UpwardClosureViolated(PLocalError):
    """Raised when a subcollection is not closed under overgroups within its ambient collection."""


class ParseError(PLocalError):
    """Raised on malformed cycle notation; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class OutOfRangePoint(PLocalError):
    """Raised when a cycle mentions a point outside the stated degree."""
