from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearcentral import (
    DomainError,
    MarkedPartition,
    Partition,
    class_size,
    decrement_part,
    enumerate_marked_partitions,
    enumerate_partitions,
    format_marked_partition,
    format_partition,
    marked_class_size,
    parse_marked_partition,
    parse_partition,
)
from nearcentral.characters import _partition_counts
from nearcentral.permutations import Permutation, cycle_type

part_lists = st.lists(st.integers(min_value=1, max_value=12), max_size=8)


def _shapes(n: int) -> list[Partition]:
    return enumerate_partitions(n)


def test_partition_normalizes_and_sums() -> None:
    lam = Partition((1, 3, 2))
    assert lam.parts == (3, 2, 1)
    assert lam.n == 6
    assert Partition(()).parts == ()
    assert Partition(()).n == 0


def test_partition_rejects_nonpositive_parts() -> None:
    with pytest.raises(DomainError):
        Partition((2, 0))
    with pytest.raises(DomainError):
        Partition((-1,))
    with pytest.raises(DomainError):
        Partition((True, 2))


def test_marked_partition_requires_mark_to_be_a_part() -> None:
    marked = MarkedPartition(Partition((2, 1)), 2)
    assert marked.shape.parts == (2, 1) and marked.mark == 2
    with pytest.raises(DomainError):
        MarkedPartition(Partition((2, 1)), 3)
    with pytest.raises(DomainError):
        MarkedPartition(Partition((2, 1)), True)


def test_marked_partition_equality_is_by_part_value() -> None:
    shape = Partition((2, 2, 1))
    assert MarkedPartition(shape, 2) == MarkedPartition(Partition((2, 2, 1)), 2)
    assert MarkedPartition(shape, 2) != MarkedPartition(shape, 1)


def test_marked_partition_is_an_immutable_value() -> None:
    marked = MarkedPartition(Partition((2, 2, 1)), 2)
    assert hash(marked) == hash(MarkedPartition(Partition((2, 1, 2)), 2))
    assert len({marked, MarkedPartition(Partition((2, 2, 1)), 2)}) == 1
    assert marked != (marked.shape, marked.mark)
    assert repr(marked) == "MarkedPartition(shape=Partition([2, 2, 1]), mark=2)"
    assert str(marked) == "2,2,1@2" and marked.n == 5
    with pytest.raises(AttributeError):
        marked.mark = 1
    with pytest.raises(AttributeError):
        del marked.shape
    with pytest.raises(AttributeError):
        marked.extra = 0


def test_enumerate_partitions_small() -> None:
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert len(enumerate_partitions(5)) == 7


def test_enumerate_partitions_reverse_lex_and_counts() -> None:
    # p(0..8) checked against the classical values
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        shapes = enumerate_partitions(n)
        assert len(shapes) == count
        assert all(p.n == n for p in shapes)
        assert all(a.parts > b.parts for a, b in zip(shapes, shapes[1:]))


def _recursive_descending_parts(n: int, max_part: int):
    # the recursive reverse-lex generator, kept as the reference order
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _recursive_descending_parts(n - first, first):
            yield (first,) + rest


def test_enumerate_partitions_match_validated_construction() -> None:
    assert [p.parts for p in enumerate_partitions(6)] == [
        (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1),
        (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    ]
    for n in range(26):
        shapes = enumerate_partitions(n)
        assert [p.parts for p in shapes] == list(_recursive_descending_parts(n, n))
        for p in shapes:
            checked = Partition(p.parts)
            assert p == checked and hash(p) == hash(checked)
            assert p.parts == checked.parts
            assert p.n == checked.n == n


def test_enumerate_partitions_at_the_bench_sizes() -> None:
    # past the recursive reference: p(n) shapes, each a weakly decreasing
    # tuple of positive ints summing to n, in strictly descending order
    for n in (35, 36):
        shapes = enumerate_partitions(n)
        assert len(shapes) == _partition_counts(n)[n]
        assert all(a.parts > b.parts for a, b in zip(shapes, shapes[1:]))
        for p in shapes:
            assert p.n == sum(p.parts) == n
            assert all(a >= b >= 1 for a, b in zip(p.parts, p.parts[1:] + (1,)))


def test_trusted_shapes_match_validated_construction() -> None:
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            for i in set(lam.parts):
                parts = list(lam.parts)
                parts.remove(i)
                if i > 1:
                    parts.append(i - 1)
                expected = Partition(parts)
                got = decrement_part(lam, i)
                assert got == expected and got.parts == expected.parts
                assert got.n == expected.n == n - 1
    for images in itertools.permutations(range(1, 7)):
        lengths = [len(c) for c in Permutation(images).cycles()]
        expected = Partition(lengths + [1] * (6 - sum(lengths)))
        got = cycle_type(images)
        assert got == expected and got.parts == expected.parts
        assert got.n == expected.n == 6


def test_enumerate_marked_partitions_small() -> None:
    got = [(m.shape.parts, m.mark) for m in enumerate_marked_partitions(3)]
    assert got == [((3,), 3), ((2, 1), 2), ((2, 1), 1), ((1, 1, 1), 1)]
    got2 = [(m.shape.parts, m.mark) for m in enumerate_marked_partitions(2)]
    assert got2 == [((2,), 2), ((1, 1), 1)]
    assert len(enumerate_marked_partitions(5)) == 12


def test_enumerate_marked_partitions_order_and_coverage() -> None:
    for n in range(1, 8):
        marked = enumerate_marked_partitions(n)
        # shapes appear in partition enumeration order, marks descend inside
        shapes = [m.shape for m in marked]
        assert shapes == sorted(shapes, key=_shapes(n).index)
        by_shape: dict[tuple[int, ...], list[int]] = {}
        for m in marked:
            by_shape.setdefault(m.shape.parts, []).append(m.mark)
        for lam in _shapes(n):
            assert by_shape[lam.parts] == sorted(set(lam.parts), reverse=True)


def test_decrement_part() -> None:
    assert decrement_part(Partition((2, 1)), 2).parts == (1, 1)
    assert decrement_part(Partition((2, 1)), 1).parts == (2,)
    assert decrement_part(Partition((3,)), 3).parts == (2,)
    with pytest.raises(DomainError):
        decrement_part(Partition((3,)), 2)


def test_decrement_part_always_drops_total_by_one() -> None:
    for n in range(1, 8):
        for lam in _shapes(n):
            for i in sorted(set(lam.parts)):
                assert decrement_part(lam, i).n == n - 1


def test_class_size_small() -> None:
    assert class_size(Partition((1, 1, 1))) == 1
    assert class_size(Partition((3,))) == 2
    assert class_size(Partition((2, 1))) == 3


def test_class_sizes_sum_to_group_order() -> None:
    for n in range(1, 9):
        assert sum(class_size(lam) for lam in _shapes(n)) == math.factorial(n)


def test_marked_class_size_small() -> None:
    assert marked_class_size(Partition((2, 1)), 2) == 2
    for n in range(1, 8):
        assert marked_class_size(Partition((n,)), n) == math.factorial(n - 1)
        assert marked_class_size(Partition((1,) * n), 1) == 1
    with pytest.raises(DomainError):
        marked_class_size(Partition((2, 1)), 3)


def test_marked_class_sizes_refine_class_sizes() -> None:
    for n in range(1, 9):
        total = 0
        for lam in _shapes(n):
            sizes = [marked_class_size(lam, i) for i in sorted(set(lam.parts))]
            assert sum(sizes) == class_size(lam)
            total += sum(sizes)
        assert total == math.factorial(n)


def test_parse_and_format_round_trip() -> None:
    assert parse_partition("3,1,1").parts == (3, 1, 1)
    assert format_partition(Partition((3, 1, 1))) == "3,1,1"
    marked = parse_marked_partition("3,1,1@1")
    assert marked.shape.parts == (3, 1, 1) and marked.mark == 1
    assert format_marked_partition(marked) == "3,1,1@1"
    with pytest.raises(DomainError):
        parse_marked_partition("2,1@3")
    with pytest.raises(DomainError):
        parse_partition("2,x")


def test_parse_edge_cases() -> None:
    assert parse_partition("") == Partition()
    assert parse_partition("  ") == Partition()
    with pytest.raises(DomainError, match="^marked partition needs shape@mark, got '2,1'$"):
        parse_marked_partition("2,1")
    with pytest.raises(DomainError, match="^bad mark in '2,1@x'$"):
        parse_marked_partition("2,1@x")


@given(part_lists)
def test_partition_accepts_any_part_order(parts: list[int]) -> None:
    lam = Partition(parts)
    assert lam.parts == tuple(sorted(parts, reverse=True))
    assert lam.n == sum(parts)


@given(part_lists.filter(bool))
def test_decrement_part_yields_partition_of_n_minus_one(parts: list[int]) -> None:
    lam = Partition(parts)
    for i in set(parts):
        smaller = decrement_part(lam, i)
        assert smaller.n == lam.n - 1
        assert all(a >= b for a, b in zip(smaller.parts, smaller.parts[1:]))
