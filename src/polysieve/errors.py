"""Shared exception types, the budget charge and the field table caps."""


class PolysieveError(Exception):
    """Base class for library-specific failures."""


class BudgetExceeded(PolysieveError):
    """A scan or sum would exceed its evaluation budget."""


DEFAULT_BUDGET = 10**8
_Q_CAP = 2_000_000  # full dlog tables only; keep desk scale
EXT_DEGREE_CAP = 4  # largest k for which ExtField(p, k) builds tables


def charge(spent, points, budget, what):
    """spent + points, or BudgetExceeded, before the work, where that passes budget."""
    spent += points
    if spent > budget:
        raise BudgetExceeded(f"{what} of {spent} points exceeds budget {budget}")
    return spent


class InvariantViolation(PolysieveError):
    """A runtime self-check failed; maps to CLI exit code 2."""


class PolyParseError(ValueError):
    """Polynomial text could not be parsed; carries the offending offset."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos
