from __future__ import annotations

import math
import sys
import time

import pytest

from nearcentral import (
    DomainError,
    Partition,
    StandardTableau,
    content_polynomial,
    decrement_part,
    dimension,
    enumerate_partitions,
    enumerate_syt,
    enumerate_syt_marked,
    marked_content,
    shape_contents,
)


def _is_standard(rows: tuple[tuple[int, ...], ...], n: int) -> bool:
    symbols = sorted(s for row in rows for s in row)
    if symbols != list(range(1, n + 1)):
        return False
    for row in rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for upper, lower in zip(rows, rows[1:]):
        if any(upper[c] >= lower[c] for c in range(len(lower))):
            return False
    return True


def test_enumerate_syt_counts() -> None:
    assert len(enumerate_syt(Partition((2, 1)))) == 2
    assert len(enumerate_syt(Partition((2, 2)))) == 2
    for n in range(1, 6):
        assert len(enumerate_syt(Partition((n,)))) == 1


def test_enumerate_syt_produces_valid_tableaux_deterministically() -> None:
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            tableaux = enumerate_syt(lam)
            assert [t.rows for t in tableaux] == [t.rows for t in enumerate_syt(lam)]
            assert len({t.rows for t in tableaux}) == len(tableaux)
            for t in tableaux:
                assert t.shape == lam
                assert _is_standard(t.rows, n)


def _syt_by_recursion(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    # place n, n-1, .., 1 at removable corners, topmost corner first
    lengths = list(lam.parts)
    filling = [[0] * part for part in lengths]
    out: list[tuple[tuple[int, ...], ...]] = []

    def place(symbol: int) -> None:
        if symbol == 0:
            out.append(tuple(map(tuple, filling)))
            return
        for r, length in enumerate(lengths):
            if length and (r + 1 == len(lengths) or lengths[r + 1] < length):
                filling[r][length - 1] = symbol
                lengths[r] -= 1
                place(symbol - 1)
                lengths[r] += 1

    place(lam.n)
    return out


def test_enumerate_syt_order_is_topmost_corner_first() -> None:
    for n in range(9):
        for lam in enumerate_partitions(n):
            assert [t.rows for t in enumerate_syt(lam)] == _syt_by_recursion(lam), lam


def test_enumerate_syt_runs_past_the_recursion_limit() -> None:
    n = sys.getrecursionlimit() + 100
    (row,) = enumerate_syt(Partition((n,)))
    assert row.rows == (tuple(range(1, n + 1)),)
    (column,) = enumerate_syt(Partition((1,) * n))
    assert column.rows == tuple((s,) for s in range(1, n + 1))


def test_enumerate_syt_of_a_tall_column_is_linear() -> None:
    # a corner search that walks down a run of equal rows one row at a time
    # spends seconds on this column; one step per cell takes milliseconds
    n = 10_000
    start = time.perf_counter()
    (column,) = enumerate_syt(Partition((1,) * n))
    elapsed = time.perf_counter() - start
    assert column.rows == tuple((s,) for s in range(1, n + 1))
    assert elapsed < 1.0, elapsed


def test_enumerate_syt_of_a_wide_row_is_linear() -> None:
    n = 10_000
    start = time.perf_counter()
    (row,) = enumerate_syt(Partition((n,)))
    elapsed = time.perf_counter() - start
    assert row.rows == (tuple(range(1, n + 1)),)
    assert elapsed < 1.0, elapsed


def test_enumerate_syt_order_at_the_bench_size() -> None:
    # the four shapes of 13 with 12,012 tableaux each, one of which the
    # aggregates benchmark lists per batch
    shapes = [lam for lam in enumerate_partitions(13) if dimension(lam) == 12012]
    assert len(shapes) == 4
    for lam in shapes:
        assert [t.rows for t in enumerate_syt(lam)] == _syt_by_recursion(lam), lam


def test_enumerated_tableaux_match_validated_construction() -> None:
    for n in range(9):
        for lam in enumerate_partitions(n):
            for t in enumerate_syt(lam):
                checked = StandardTableau(t.rows)
                assert t == checked and hash(t) == hash(checked)
                assert t.n == checked.n == n
                for s in range(1, n + 1):
                    r, c = t.position(s)
                    assert t.rows[r - 1][c - 1] == s
                    assert checked.position(s) == (r, c)
                    assert t.content(s) == checked.content(s) == c - r
                with pytest.raises(DomainError):
                    t.position(n + 1)


def test_tableau_repr_rebuilds_the_tableau() -> None:
    for t in enumerate_syt(Partition((3, 2))):
        assert eval(repr(t), {"StandardTableau": StandardTableau}) == t


def test_standard_tableau_rejects_bad_fillings() -> None:
    assert StandardTableau(((1, 3), (2, 4), (5,))).n == 5
    for rows in (
        ((1,), (2, 3)),  # row lengths increase
        ((1, 2), (4,)),  # a symbol is missing
        ((1, 2), (3, 2)),  # a symbol is repeated
        ((2, 1), (3,)),  # a row decreases
        ((2, 3), (1, 4)),  # a column decreases
    ):
        with pytest.raises(DomainError):
            StandardTableau(rows)


def test_enumerate_syt_marked_small() -> None:
    assert len(enumerate_syt_marked(Partition((2, 1)), 2)) == 1
    assert len(enumerate_syt_marked(Partition((2, 1)), 1)) == 1
    for n in range(1, 6):
        assert len(enumerate_syt_marked(Partition((n,)), n)) == 1
    with pytest.raises(DomainError):
        enumerate_syt_marked(Partition((2, 1)), 3)


def test_enumerate_syt_marked_counts_match_reduced_dimension() -> None:
    # the tableaux with n closing a row of length i biject with SYT of i_-(lam)
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            tableaux = enumerate_syt(lam)
            for i in sorted(set(lam.parts)):
                marked = enumerate_syt_marked(lam, i)
                assert len(marked) == dimension(decrement_part(lam, i))
                # the same list, in the same order, as filtering every tableau
                assert marked == [
                    t for t in tableaux
                    if any(row[-1] == n and len(row) == i for row in t.rows)
                ], (lam.parts, i)
            assert sum(
                len(enumerate_syt_marked(lam, i)) for i in set(lam.parts)
            ) == len(tableaux)


def test_dimension_small_and_hooks() -> None:
    assert dimension(Partition(())) == 1
    assert dimension(Partition((2, 1))) == 2
    assert dimension(Partition((3, 2))) == 5
    for n in range(1, 9):
        for k in range(n):
            hook = Partition((n - k,) + (1,) * k)
            assert dimension(hook) == math.comb(n - 1, k)


def test_dimension_matches_tableau_count() -> None:
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            assert dimension(lam) == len(enumerate_syt(lam))


def _content_vector(tab: StandardTableau) -> tuple[int, ...]:
    # contents of the cells holding 1, 2, ..., n, in symbol order
    return tuple(tab.content(s) for s in range(1, tab.n + 1))


def test_content_vector_examples() -> None:
    row = enumerate_syt(Partition((3,)))[0]
    assert _content_vector(row) == (0, 1, 2)
    column = enumerate_syt(Partition((1, 1, 1)))[0]
    assert _content_vector(column) == (0, -1, -2)
    beside = [t for t in enumerate_syt(Partition((2, 1))) if t.position(2) == (1, 2)]
    assert len(beside) == 1
    assert _content_vector(beside[0]) == (0, 1, -1)


def test_marked_content_examples() -> None:
    for n in range(1, 7):
        assert marked_content(Partition((n,)), n) == n - 1
    assert marked_content(Partition((2, 1)), 1) == -1
    assert marked_content(Partition((2, 2, 1)), 2) == 0
    with pytest.raises(DomainError):
        marked_content(Partition((2, 1)), 3)


def test_marked_content_agrees_with_every_marked_tableau() -> None:
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            for i in sorted(set(lam.parts)):
                expected = marked_content(lam, i)
                for t in enumerate_syt_marked(lam, i):
                    assert t.content(n) == expected


def test_content_polynomial_examples() -> None:
    # coefficient lists are low-degree first
    assert content_polynomial(Partition((2, 1))) == [0, -1, 0, 1]
    assert content_polynomial(Partition((3,))) == [0, 2, 3, 1]
    assert content_polynomial(Partition((2, 2))) == [0, 0, -1, 0, 1]


def test_content_polynomial_matches_elementary_symmetric() -> None:
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            # expand prod (1 + t*c) directly and compare e_{n-m} = [t^m] c_lam(t)
            elem = [1] + [0] * n
            for c in shape_contents(lam):
                for k in range(n, 0, -1):
                    elem[k] += c * elem[k - 1]
            coeffs = content_polynomial(lam)
            assert len(coeffs) == n + 1
            for m in range(n + 1):
                assert coeffs[m] == elem[n - m]


def _content_sums(lam: Partition) -> tuple[int, int]:
    contents = shape_contents(lam)
    return sum(contents), sum(c * c for c in contents)


def test_content_sums_examples() -> None:
    assert _content_sums(Partition((2, 1))) == (0, 2)
    assert _content_sums(Partition((1, 1))) == (-1, 1)
    assert _content_sums(Partition((3, 2))) == (2, 6)
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            # the content sum is sum_rows C(lam_i, 2) - sum_columns C(lam'_j, 2)
            cols = [sum(1 for part in lam if part > c) for c in range(lam[0])]
            assert _content_sums(lam)[0] == sum(
                math.comb(part, 2) for part in lam
            ) - sum(math.comb(col, 2) for col in cols)
