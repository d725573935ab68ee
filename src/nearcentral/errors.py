"""Exception types shared across the package.

Three failure families matter to callers: bad mathematical input (an invalid
partition, a mark that is not a part, mismatched sizes), computations that
were refused because they would enumerate too much, and internal
inconsistencies (an identity the library relies on came out false, which is
a bug, not bad input). The command line maps them to distinct exit codes, so
they must stay distinguishable. Each enumeration limit is a fixed constant
in the module that enforces it, so nothing here reads a setting.
"""

from __future__ import annotations

__all__ = [
    "DomainError",
    "GuardExceeded",
    "InconsistencyError",
    "UnsupportedPattern",
]


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class UnsupportedPattern(DomainError):
    """The marked partition does not match any tabulated closed form."""


class GuardExceeded(RuntimeError):
    """The computation would exceed a fixed enumeration limit."""


class InconsistencyError(ArithmeticError):
    """A result broke an identity that holds for every valid input, such as
    a count that came out fractional: a defect in the library."""
