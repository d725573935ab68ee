"""Exception types shared across the package.

Three failure families matter to callers: bad mathematical input (an invalid
partition, a mark that is not a part, mismatched sizes), computations that
were refused because they would enumerate too much, and internal
inconsistencies (an identity the library relies on came out false, which is
a bug, not bad input). The command line maps them to distinct exit codes, so
they must stay distinguishable.
"""

from __future__ import annotations

import os

__all__ = [
    "DomainError",
    "GuardExceeded",
    "InconsistencyError",
    "UnsupportedPattern",
    "default_guard",
]

# Enumerating S_n becomes unreasonable in pure Python past 9! elements.
DEFAULT_MAX_N = 9

_ENV_GUARD = "NEARCENTRAL_MAX_N"


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class UnsupportedPattern(DomainError):
    """The marked partition does not match any tabulated closed form."""


class GuardExceeded(RuntimeError):
    """The computation would exceed the configured enumeration guard."""


class InconsistencyError(ArithmeticError):
    """A result broke an identity that holds for every valid input, such as
    a count that came out fractional: a defect in the library."""


def default_guard() -> int:
    """Largest n for which full-group enumeration is permitted.

    The environment variable NEARCENTRAL_MAX_N overrides the built-in
    default; explicit function arguments override both.
    """
    raw = os.environ.get(_ENV_GUARD)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"{_ENV_GUARD} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError(f"{_ENV_GUARD} must be positive, got {value}")
    return value


def check_guard(n: int, max_n: int | None, what: str) -> None:
    """Raise GuardExceeded when n is past the effective guard."""
    limit = default_guard() if max_n is None else max_n
    if n > limit:
        raise GuardExceeded(f"{what} at n={n} exceeds the guard max_n={limit}")
