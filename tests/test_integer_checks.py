"""Every public function that takes an integer refuses a value of another
type or out of range, with the wording of `partitions._check_int`."""

from __future__ import annotations

import pytest

from nearcentral import (
    DomainError,
    GroupAlgebraElement,
    Partition,
    Permutation,
    StandardTableau,
    StarClosedCase,
    character_table,
    enumerate_marked_partitions,
    enumerate_partitions,
    enumerate_star_factorizations,
    evaluate_asf_at_jm,
    jm_element,
    jm_power_coefficients,
    run_verify,
    star_count,
    star_count_by_cycle_count,
    star_count_class,
    star_count_closed,
    star_walk,
    table1_rows,
    weighted_sum,
)

LAM = Partition((2, 1))
CYCLE = Permutation((2, 3, 1))


def _first(v):
    # v followed by two of 1, 2, 3 other than v: a permutation when v is one
    # of them, an image v out of 1..3 otherwise
    return (v, *[x for x in (1, 2, 3) if x != v][:2])


# name: (call with the integer v in one place, what it is called, its range)
CALLS = {
    "enumerate_partitions": (enumerate_partitions, "n", 0, None),
    "enumerate_marked_partitions": (enumerate_marked_partitions, "n", 0, None),
    "character_table": (character_table, "n", 0, None),
    "table1_rows": (table1_rows, "n", 1, None),
    "weighted_sum": (lambda v: weighted_sum(LAM, 2, v), "part count", 0, None),
    "star_count": (lambda v: star_count(LAM, 2, v), "length", 0, None),
    "star_count_class": (lambda v: star_count_class(LAM, v), "length", 0, None),
    "star_count_by_cycle_count n": (
        lambda v: star_count_by_cycle_count(v, 1, 2), "n", 1, None
    ),
    "star_count_by_cycle_count k": (
        lambda v: star_count_by_cycle_count(3, v, 2), "cycle count", 1, 3
    ),
    "star_count_by_cycle_count r": (
        lambda v: star_count_by_cycle_count(3, 1, v), "length", 0, None
    ),
    "star_count_closed n": (
        lambda v: star_count_closed(StarClosedCase.FULL_CYCLE, v, 2), "n", 3, None
    ),
    "star_count_closed r": (
        lambda v: star_count_closed(StarClosedCase.FULL_CYCLE, 4, v), "length", 1, None
    ),
    "jm_element k": (lambda v: jm_element(v, 3), "Jucys-Murphy index", 2, 3),
    "jm_element n": (lambda v: jm_element(2, v), "n", 2, None),
    "jm_power_coefficients n": (lambda v: jm_power_coefficients(v, 2), "n", 1, None),
    "jm_power_coefficients r": (lambda v: jm_power_coefficients(3, v), "power", 0, None),
    "enumerate_star_factorizations": (
        lambda v: enumerate_star_factorizations(CYCLE, v), "length", 0, None
    ),
    "star_walk n": (lambda v: star_walk(v, 2), "n", 1, None),
    "star_walk rmax": (lambda v: star_walk(3, v), "length", 0, None),
    "evaluate_asf_at_jm": (lambda v: evaluate_asf_at_jm(lambda x: x.one, v), "n", 1, None),
    "run_verify": (run_verify, "max_n", 2, None),
    "GroupAlgebraElement": (GroupAlgebraElement, "n", 0, None),
    "zero": (GroupAlgebraElement.zero, "n", 0, None),
    "one": (GroupAlgebraElement.one, "n", 0, None),
    "Partition": (lambda v: Partition((v, 1)), "partition part", 1, None),
    "Permutation": (lambda v: Permutation(_first(v)), "image", 1, 3),
    "identity": (Permutation.identity, "n", 0, None),
    "transposition a": (
        lambda v: Permutation.transposition(v, 3, 3), "cycle symbol", 1, 3
    ),
    "transposition b": (
        lambda v: Permutation.transposition(3, v, 3), "cycle symbol", 1, 3
    ),
    "transposition n": (lambda v: Permutation.transposition(1, 2, v), "n", 2, None),
    "from_cycles n": (lambda v: Permutation.from_cycles(v, []), "n", 0, None),
    "from_cycles symbol": (
        lambda v: Permutation.from_cycles(3, [(v, 3)]), "cycle symbol", 1, 3
    ),
    "Permutation.__call__": (CYCLE, "symbol", 1, 3),
    "cycle_length_through": (CYCLE.cycle_length_through, "symbol", 1, 3),
    "StandardTableau": (
        lambda v: StandardTableau((tuple(sorted(_first(v))),)), "symbol", 1, 3
    ),
    "position": (StandardTableau(((1, 2), (3,))).position, "symbol", 1, 3),
}

# 2.0 and True for every call, and the least int in range as a float where
# neither 2 nor 1 is in range
WRONG_TYPE = [
    (name, value)
    for name, (_, _, low, _) in CALLS.items()
    for value in (2.0, True) + ((float(low),) if low > 2 else ())
]


@pytest.mark.parametrize(
    "name, value", WRONG_TYPE, ids=[f"{name} {value!r}" for name, value in WRONG_TYPE]
)
def test_an_integer_of_the_wrong_type_is_refused(name, value) -> None:
    call, what, low, high = CALLS[name]
    # the equal int first where it is in range, so that an answer cached
    # under it would show
    if low <= int(value) and (high is None or int(value) <= high):
        call(int(value))
    with pytest.raises(DomainError, match=f"^{what} must be an integer, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("name", CALLS)
def test_an_integer_below_its_range_is_refused(name) -> None:
    call, what, low, high = CALLS[name]
    bound = f"at least {low}" if high is None else f"in {low}..{high}"
    with pytest.raises(DomainError, match=f"^{what} must be {bound}, got {low - 1}$"):
        call(low - 1)


def test_an_integer_above_its_range_is_refused() -> None:
    with pytest.raises(DomainError, match=r"^cycle count must be in 1\.\.3, got 4$"):
        star_count_by_cycle_count(3, 4, 2)
    with pytest.raises(DomainError, match=r"^symbol must be in 1\.\.3, got 4$"):
        CYCLE(4)


def test_sizes_below_the_range_of_a_shape_are_refused() -> None:
    with pytest.raises(DomainError, match="^n must be at least 1, got 0$"):
        star_count_class(Partition(), 0)


def test_an_integer_past_the_digits_str_converts_is_refused() -> None:
    # the message words the value through `errors.shown`, as `str` refuses
    # an int of more than 4300 digits
    with pytest.raises(
        DomainError, match=r"^cycle count must be in 1\.\.5, got more than 10\^4999$"
    ):
        star_count_by_cycle_count(5, 10**5000, 3)
    with pytest.raises(
        DomainError, match=r"^partition part must be at least 1, got less than -10\^4999$"
    ):
        Partition((-(10**5000),))
