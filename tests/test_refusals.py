"""Every refusal is a GuardExceeded in one frame, whatever int it is given."""

from __future__ import annotations

import math
import sys
import tracemalloc

import pytest

from nearcentral import (
    GuardExceeded,
    Partition,
    Permutation,
    StarClosedCase,
    central_idempotent,
    character_table,
    class_sum,
    connection_coefficient,
    enumerate_star_factorizations,
    genchar,
    genchar_column,
    genchar_hook_row,
    genchar_row,
    genchar_strahov,
    jm_power_coefficients,
    run_verify,
    star_count,
    star_count_by_cycle_count,
    star_count_class,
    star_count_closed,
    star_walk,
    z1_idempotent,
)
from nearcentral.characters import _partition_counts
from nearcentral.errors import counted, shown
from nearcentral.genchar import _marked_count

# more digits than str() converts by default (4300)
HUGE = 10**5000
TOP = Partition((HUGE,))


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: star_count(Partition((2, 1)), 2, HUGE), "r = more than 10^4999"),
        (lambda: star_count_class(TOP, 5), "n = more than 10^4999"),
        (lambda: star_count_by_cycle_count(HUGE, 1, 5), "more than 10^31 shapes"),
        *[
            (lambda case=case: star_count_closed(case, 8, HUGE), "r = more than 10^4999")
            for case in StarClosedCase
        ],
        (lambda: character_table(HUGE), "S_more than 10^4999 has more than 10^62 entries"),
        (lambda: genchar(TOP, HUGE, TOP, HUGE), "gamma at n=more than 10^4999"),
        (lambda: genchar_hook_row(TOP, HUGE), "gamma at n=more than 10^4999"),
        (lambda: genchar_row(TOP, HUGE), "over some of the more than 10^2 shapes"),
        (lambda: genchar_column(TOP, HUGE), "the more than 10^32 marked shapes"),
        (lambda: connection_coefficient(TOP, HUGE, TOP, HUGE, TOP, HUGE), "more than 10^32"),
        (lambda: genchar_strahov(TOP, HUGE, TOP, HUGE), "S_{n-1} at n=more than 10^4999"),
        (lambda: class_sum(TOP, HUGE), "enumeration at n=more than 10^4999"),
        (lambda: central_idempotent(TOP), "expansion at n=more than 10^4999"),
        (lambda: z1_idempotent(TOP, HUGE), "expansion at n=more than 10^4999"),
        (lambda: jm_power_coefficients(HUGE, 1), "expansion at n=more than 10^4999"),
        (lambda: jm_power_coefficients(3, HUGE), "expansion at r=more than 10^4999"),
        (lambda: star_walk(HUGE, 0), "star walk at n=more than 10^4999"),
        (lambda: star_walk(3, HUGE), "star walk of length more than 10^4999"),
        (lambda: run_verify(HUGE), "the more than 10^2567 permutations"),
        (
            lambda: enumerate_star_factorizations(Permutation.identity(9), 5000),
            "of length 5000 walks more than 10^903 sequences",
        ),
    ],
)
def test_a_huge_int_is_refused_with_a_bound(call, named) -> None:
    # str() refuses the numbers these refusals name, so each names a power of
    # ten below it instead of raising ValueError
    with pytest.raises(GuardExceeded, match="; the limit is .* <= [0-9]+$") as refused:
        call()
    assert named in str(refused.value)


def test_star_sequences_are_counted_without_their_power() -> None:
    # (n-1)^r is compared with the limit at r <= 24: 8^(4 * 10^7) would take
    # 15 MB and over a second to form, twice
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match="; the limit is sequences <= 10000000$"):
            enumerate_star_factorizations(Permutation.identity(9), 4 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    with pytest.raises(GuardExceeded, match="of length 8 walks 16777216 sequences"):
        enumerate_star_factorizations(Permutation.identity(9), 8)


def test_star_walk_is_refused_by_the_states_it_would_hold() -> None:
    # levels times the 23,025 marked classes of 30: 21 levels fit under the
    # limit of 5 * 10^5 states, 22 do not, and the walk of 1000 steps the
    # length limit admits is refused before any step
    assert len(star_walk(30, 20)) == 21
    with pytest.raises(GuardExceeded) as refused:
        star_walk(30, 21)
    assert str(refused.value) == (
        "star walk of length 21 at n=30 holding up to 506550 states; "
        "the limit is states <= 500000"
    )
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match="up to 23048025 states"):
            star_walk(30, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_numbers_are_shown_in_full_while_str_can() -> None:
    digits = sys.get_int_max_str_digits()
    assert digits == 4300  # the interpreter's default
    assert shown(10 ** (digits - 1)) == str(10 ** (digits - 1))
    assert shown(10**digits) == f"more than 10^{digits - 1}"
    assert shown(0) == "0"
    assert shown(-(10 ** (digits - 1))) == str(-(10 ** (digits - 1)))
    assert shown(-(10**digits)) == f"less than -10^{digits - 1}"


def test_costly_counts_are_bounded_by_their_value_at_1000() -> None:
    asked: list[int] = []

    def partitions(m: int) -> int:
        asked.append(m)
        return _partition_counts(m)[m]

    assert counted(31, partitions) == "6842"
    assert counted(10**6, partitions) == "more than 10^31"
    assert asked == [31, 1000]
    assert counted(31, _marked_count) == "28629"
    assert counted(1001, _marked_count) == "more than 10^32"
    assert counted(1001, math.factorial) == "more than 10^2567"
