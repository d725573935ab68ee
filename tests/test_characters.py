from __future__ import annotations

import math

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
    for n in range(8, 13):
        sizes = [class_size(mu) for mu in enumerate_partitions(n)]
        table = character_table(n)
        for a, row in enumerate(table):
            for b in range(a, len(table)):
                total = sum(z * x * y for z, x, y in zip(sizes, row, table[b]))
                assert total == (math.factorial(n) if a == b else 0)


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
    with pytest.raises(GuardExceeded, match=r"p\(20\)\^2 = 393129 entries"):
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
