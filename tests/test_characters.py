from __future__ import annotations

import math
import operator
from functools import cache

import pytest

from nearcentral import (
    CHARACTER_TABLE_MAX_N,
    DomainError,
    GuardExceeded,
    Partition,
    character_table,
    chi,
    class_size,
    dimension,
    enumerate_partitions,
    format_partition,
)
from nearcentral.characters import _beta_mask, _chi_column, _mn


def test_trivial_and_sign_characters() -> None:
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            assert chi(Partition((n,)), mu) == 1
            assert chi(Partition((1,) * n), mu) == (-1) ** (n - len(mu))


def test_full_s3_table() -> None:
    values = {
        ((3,), (3,)): 1, ((3,), (2, 1)): 1, ((3,), (1, 1, 1)): 1,
        ((2, 1), (3,)): -1, ((2, 1), (2, 1)): 0, ((2, 1), (1, 1, 1)): 2,
        ((1, 1, 1), (3,)): 1, ((1, 1, 1), (2, 1)): -1, ((1, 1, 1), (1, 1, 1)): 1,
    }
    for (lam, mu), expected in values.items():
        assert chi(Partition(lam), Partition(mu)) == expected


def test_chi_rejects_mismatched_sizes() -> None:
    with pytest.raises(DomainError):
        chi(Partition((2, 1)), Partition((2, 2)))


def test_first_orthogonality_in_class_form() -> None:
    for n in range(1, 8):
        shapes = enumerate_partitions(n)
        for mu in shapes:
            for nu in shapes:
                total = sum(chi(lam, mu) * chi(lam, nu) for lam in shapes)
                expected = math.factorial(n) // class_size(mu) if mu == nu else 0
                assert total * 1 == expected


def test_row_orthogonality_at_bench_sizes() -> None:
    # sum_mu |C_mu| chi^lam(mu) chi^nu(mu) = n! [lam = nu]
    for n in (*range(8, 13), 16):
        sizes = [class_size(mu) for mu in enumerate_partitions(n)]
        table = character_table(n)
        for a, row in enumerate(table):
            weighted = list(map(operator.mul, sizes, row))
            for b in range(a, len(table)):
                total = sum(map(operator.mul, weighted, table[b]))
                assert total == (math.factorial(n) if a == b else 0)


def _tuple_beta_numbers(parts: tuple[int, ...]) -> tuple[int, ...]:
    rows = len(parts)
    return tuple([part + rows - 1 - k for k, part in enumerate(parts)])


@cache
def _tuple_mn(beta: tuple[int, ...], classes: tuple[int, ...]) -> int:
    # the Murnaghan-Nakayama recursion on strictly decreasing beta-number
    # tuples that the bit-set kernel replaced, kept as a reference
    if not classes:
        return 1
    size, rest = classes[0], classes[1:]
    rows = len(beta)
    total = 0
    for k, b in enumerate(beta):
        target = b - size
        if target < 0:
            break
        spot = k + 1
        while spot < rows and beta[spot] > target:
            spot += 1
        if spot < rows and beta[spot] == target:
            continue
        reduced = beta[:k] + beta[k + 1:spot] + (target,) + beta[spot:]
        while reduced and reduced[-1] == 0:
            reduced = tuple([x - 1 for x in reduced[:-1]])
        value = _tuple_mn(reduced, rest)
        total += -value if (spot - k - 1) & 1 else value
    return total


def test_chi_equals_the_tuple_recursion() -> None:
    for n in range(13):
        shapes = enumerate_partitions(n)
        for lam in shapes:
            beta = _tuple_beta_numbers(lam.parts)
            for mu in shapes:
                assert chi(lam, mu) == _tuple_mn(beta, mu.parts), (lam, mu)


def test_chi_columns_equal_the_shape_recursions() -> None:
    # column k of a class is chi of the k-th shape: the tuple recursion for
    # n <= 9, chi (the bit-set recursion) for n <= 12, edge cases included
    assert _chi_column(()) == (1,)
    assert _chi_column((1,)) == (1,)
    assert character_table(0) == [[1]]
    assert character_table(1) == [[1]]
    for n in range(13):
        shapes = enumerate_partitions(n)
        for mu in shapes:
            column = _chi_column(mu.parts)
            assert column == tuple(chi(lam, mu) for lam in shapes), mu
            if n <= 9:
                assert column == tuple(
                    _tuple_mn(_tuple_beta_numbers(lam.parts), mu.parts) for lam in shapes
                ), mu


def test_kernel_states_are_shared_across_zero_rows() -> None:
    # a shape reached with zero rows below it is the same memo entry as the
    # shape itself; without that the n = 16 table, shape by shape, keeps
    # 96,152 states
    _mn.cache_clear()
    shapes = enumerate_partitions(16)
    for lam in shapes:
        mask = _beta_mask(lam.parts)
        for mu in shapes:
            _mn(mask, mu.parts)
    assert _mn.cache_info().currsize == 64657


def test_character_table_leaves_the_chi_cache_alone() -> None:
    before = chi.cache_info()
    character_table(11)
    assert chi.cache_info() == before


def test_chi_at_identity_is_dimension() -> None:
    for n in range(1, 15):
        ident = Partition((1,) * n)
        for lam in enumerate_partitions(n):
            assert chi(lam, ident) == dimension(lam)


# chi^mu on the class (n-1, 1): nonzero only on the row (n), the column
# (1^n) and the near hooks (n-k-1, 2, 1^(k-1)), where it is (-1)^k
NEAR_HOOK_VALUES = {
    2: {"2": 1, "1,1": 1},
    3: {"3": 1, "1,1,1": -1},
    4: {"4": 1, "2,2": -1, "1,1,1,1": 1},
    5: {"5": 1, "3,2": -1, "2,2,1": 1, "1,1,1,1,1": -1},
    6: {"6": 1, "4,2": -1, "3,2,1": 1, "2,2,1,1": -1, "1,1,1,1,1,1": 1},
    7: {"7": 1, "5,2": -1, "4,2,1": 1, "3,2,1,1": -1, "2,2,1,1,1": 1,
        "1,1,1,1,1,1,1": -1},
    8: {"8": 1, "6,2": -1, "5,2,1": 1, "4,2,1,1": -1, "3,2,1,1,1": 1,
        "2,2,1,1,1,1": -1, "1,1,1,1,1,1,1,1": 1},
    9: {"9": 1, "7,2": -1, "6,2,1": 1, "5,2,1,1": -1, "4,2,1,1,1": 1,
        "3,2,1,1,1,1": -1, "2,2,1,1,1,1,1": 1, "1,1,1,1,1,1,1,1,1": -1},
    10: {"10": 1, "8,2": -1, "7,2,1": 1, "6,2,1,1": -1, "5,2,1,1,1": 1,
         "4,2,1,1,1,1": -1, "3,2,1,1,1,1,1": 1, "2,2,1,1,1,1,1,1": -1,
         "1,1,1,1,1,1,1,1,1,1": 1},
}


def test_chi_near_hook_closed_form() -> None:
    for n, nonzero in NEAR_HOOK_VALUES.items():
        target = Partition((n - 1, 1))
        for mu in enumerate_partitions(n):
            assert chi(mu, target) == nonzero.get(format_partition(mu), 0)


def test_character_table_is_refused_past_its_limit() -> None:
    assert CHARACTER_TABLE_MAX_N >= 15  # the aggregates benchmark asks for n = 15
    refused = r"S_20 has 393129 entries, p\(n\)\^2; the limit is n <= 18"
    with pytest.raises(GuardExceeded, match=refused):
        character_table(20)
    with pytest.raises(GuardExceeded, match=f"n <= {CHARACTER_TABLE_MAX_N}"):
        character_table(CHARACTER_TABLE_MAX_N + 1)


def test_character_table_layout() -> None:
    assert character_table(3) == [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]
    for n in range(1, 7):
        shapes = enumerate_partitions(n)
        table = character_table(n)
        assert len(table) == len(shapes)
        for row, lam in zip(table, shapes):
            assert row == [chi(lam, mu) for mu in shapes]
