"""Exception types shared across the package, and the one refusal.

Three failure families matter to callers: bad mathematical input (an invalid
partition, a mark that is not a part, mismatched sizes), computations that
were refused because they would enumerate too much, and internal
inconsistencies (an identity the library relies on came out false, which is
a bug, not bad input). The command line maps them to distinct exit codes, so
they must stay distinguishable. Each enumeration limit is a fixed constant
in the module that enforces it, so no limit is read from a setting.

Every refusal is raised by `refuse_past` in one frame, "<the work refused>;
the limit is <name> <= <limit>", and prints each number by `shown`, or by
`counted` when it is a count too costly to form.  An argument refused as out
of range prints its value by `shown` too, so no refusal fails in `str`.
"""

from __future__ import annotations

import sys
from typing import Callable

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


def refuse_past(value: int, limit: int, name: str, work: Callable[[], str]) -> None:
    """Raise GuardExceeded when value is past limit, naming work(), which is
    built only then: it may count, and warm paths check their limits."""
    if value > limit:
        raise GuardExceeded(f"{work()}; the limit is {name} <= {shown(limit)}")


def shown(x: int) -> str:
    """x in decimal; past the digits `str` converts
    (`sys.get_int_max_str_digits()`), "more than 10^k" with 10^k below x, or
    "less than -10^k" with -10^k above a negative x."""
    digits = sys.get_int_max_str_digits()
    # x has at most bits * log10(2) + 1 decimal digits
    if digits and x.bit_length() * 30103 // 100000 >= digits:
        return _more_than(x)
    return str(x)


# largest size whose counts a refusal forms: p(n) takes O(n^1.5) big-integer
# steps, and p(1000) > 10^31 is far past every limit
COUNTED_MAX = 1000


def counted(size: int, count: Callable[[int], int]) -> str:
    """count(size) as `shown` prints it, for a count that grows with size;
    past size COUNTED_MAX, "more than 10^k" below count(COUNTED_MAX)."""
    return shown(count(size)) if size <= COUNTED_MAX else _more_than(count(COUNTED_MAX))


def _more_than(x: int) -> str:
    # 10^k <= 10^((bits - 1) * 0.301) < 2^(bits - 1) <= |x|
    k = (x.bit_length() - 1) * 3010 // 10000
    return f"more than 10^{k}" if x > 0 else f"less than -10^{k}"
