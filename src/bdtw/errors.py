"""Exception types shared across the package."""


class BdtwError(Exception):
    """Base class for all package-specific errors."""


class FormatError(BdtwError):
    """A file or serialized artifact could not be parsed."""


class BudgetExceededError(BdtwError):
    """The game solver's expansion budget ran out; the caller gets an
    error, never a wrong answer."""


class StrategyError(BdtwError):
    """A strategy is partial, illegal, or fails to win within its placement bound."""


class NotApplicableError(BdtwError):
    """An operation's precondition fails, e.g. the submodularity inequality
    is queried for a block pair whose union already covers every edge."""


class ConsistencyError(BdtwError):
    """An internal invariant broke.  Raised by checks that must never fire."""
