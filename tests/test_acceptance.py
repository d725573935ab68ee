"""End-to-end checks of the package's headline guarantees.

Each test is one numbered criterion; the conftest hook prints a PASS/FAIL
line per criterion after the run. Everything is exact arithmetic: any
tolerance other than equality would hide a transcription bug.
"""

from __future__ import annotations

import importlib
import itertools
import math
import random
from fractions import Fraction

from nearcentral import (
    GroupAlgebraElement,
    MarkedPartition,
    Partition,
    StarClosedCase,
    UnsupportedPattern,
    central_idempotent,
    chi,
    class_size,
    class_sum,
    connection_coefficient,
    content_polynomial,
    decrement_part,
    dimension,
    enumerate_marked_partitions,
    enumerate_partitions,
    enumerate_syt,
    evaluate_asf_at_jm,
    extract_marked_coefficient,
    ga_multiply,
    genchar,
    genchar_column,
    genchar_hook_row,
    genchar_strahov,
    genchar_table2,
    is_near_central,
    jm_element,
    jm_power_coefficients,
    marked_class_size,
    marked_content,
    orthogonality_check,
    star_count,
    star_count_by_cycle_count,
    star_count_class,
    star_count_closed,
    star_walk,
    subscript_sum_chi,
    superscript_sum,
    table1_rows,
    weighted_sum,
    z1_idempotent,
)
from nearcentral import oracle


def _marked(n: int) -> list[tuple[Partition, int]]:
    return [(m.shape, m.mark) for m in enumerate_marked_partitions(n)]


def test_criterion_01_oracle_equivalence() -> None:
    # spectral star counts equal the literal J_n^r coefficient, n <= 6, r <= 8
    for n in range(2, 7):
        for r in range(1, 9):
            table = jm_power_coefficients(n, r)
            for m, coeff in table.items():
                assert star_count(m.shape, m.mark, r) == coeff, (n, r, m)
    # past the group algebra, the walk over marked cycle types: the counts of
    # every marked class at n = 10, 11 and 12 and of seeded classes at
    # n = 14, 17 and 20, and the class and cycle-count aggregates up to n = 14
    for n in (10, 11, 12, 14, 17, 20):
        walk = star_walk(n, n + 3)
        marked = enumerate_marked_partitions(n)
        if n > 12:
            marked = random.Random(n).sample(marked, 6)
        for m in marked:
            size = marked_class_size(m.shape, m.mark)
            for r in (n + 1, n + 2, n + 3):
                total = walk[r].get(m, 0)
                assert total % size == 0, (m, r)
                assert star_count(m.shape, m.mark, r) == total // size, (m, r)
    for n in range(10, 15):
        walk = star_walk(n, n + 2)
        for r in (n + 1, n + 2):
            by_class: dict[Partition, int] = {}
            by_cycles: dict[int, int] = {}
            for m, count in walk[r].items():
                by_class[m.shape] = by_class.get(m.shape, 0) + count
                by_cycles[len(m.shape)] = by_cycles.get(len(m.shape), 0) + count
            for lam in enumerate_partitions(n):
                assert star_count_class(lam, r) == by_class.get(lam, 0), (lam, r)
            for k in range(1, n + 1):
                assert star_count_by_cycle_count(n, k, r) == by_cycles.get(k, 0), (n, k, r)
    # and the walk itself against the literal J_n^r coefficients, n <= 7
    for n in range(1, 8):
        walk = star_walk(n, 6)
        for r in range(7):
            for m, coeff in jm_power_coefficients(n, r).items():
                assert coeff * marked_class_size(m.shape, m.mark) == walk[r].get(m, 0)


def test_criterion_02_closed_forms() -> None:
    assert star_count_closed(StarClosedCase.FULL_CYCLE, 3, 2) == 1
    assert star_count_closed(StarClosedCase.FIX_POINT_MARK1, 3, 3) == 2
    assert star_count_closed(StarClosedCase.TRANSPOSED_MARK, 3, 3) == 3
    for n in range(3, 13):
        split = Partition((n - 1, 1))
        targets = (
            (StarClosedCase.FULL_CYCLE, Partition((n,)), n),
            (StarClosedCase.FIX_POINT_MARK1, split, 1),
            (StarClosedCase.TRANSPOSED_MARK, split, n - 1),
        )
        for r in range(1, 13):
            for case, lam, i in targets:
                assert star_count_closed(case, n, r) == star_count(lam, i, r), (
                    case,
                    n,
                    r,
                )


def test_criterion_03_generalized_character_triple_agreement() -> None:
    # every marked pair: marked Murnaghan-Nakayama rule == seminormal trace
    # == character sum == oracle extraction; the closed forms too wherever
    # they exist
    rule = importlib.import_module("nearcentral.genchar")._rule_value
    for n in range(3, 7):
        marked = _marked(n)
        hook_target = (Partition((n - 1, 1)), n - 1)
        for mu, j in marked:
            gamma = z1_idempotent(mu, j)
            scale = Fraction(math.factorial(n), dimension(mu))
            for lam, i in marked:
                strahov = genchar_strahov(mu, j, lam, i)
                extracted = scale * extract_marked_coefficient(gamma, lam, i)
                assert rule(mu, j, lam, i) == strahov, (mu.parts, j, lam.parts, i)
                assert genchar_column(lam, i)[MarkedPartition(mu, j)] == strahov, (
                    mu.parts, j, lam.parts, i
                )
                assert strahov == extracted, (mu.parts, j, lam.parts, i)
                try:
                    assert genchar_table2(mu, j, lam, i) == strahov, (
                        mu.parts, j, lam.parts, i
                    )
                except UnsupportedPattern:
                    pass
                if (lam, i) == hook_target:
                    assert genchar_hook_row(mu, j) == strahov, (mu.parts, j)
    # n = 7: rule == seminormal trace == character sum on every marked pair
    marked = _marked(7)
    for lam, i in marked:
        for mu, j in marked:
            strahov = genchar_strahov(mu, j, lam, i)
            assert rule(mu, j, lam, i) == strahov, (mu.parts, j, lam.parts, i)
            assert genchar_column(lam, i)[MarkedPartition(mu, j)] == strahov, (
                mu.parts, j, lam.parts, i
            )
    # n = 9: one seeded class without a closed form, its whole column
    general = []
    for lam, i in _marked(9):
        try:
            genchar_table2(lam, i, lam, i)
        except UnsupportedPattern:
            general.append((lam, i))
    lam, i = random.Random(9).choice(general)
    for m, value in genchar_column(lam, i).items():
        assert value == genchar_strahov(m.shape, m.mark, lam, i), (
            m, lam.parts, i
        )
        assert rule(m.shape, m.mark, lam, i) == value, (m, lam.parts, i)


def test_criterion_04_orthogonality() -> None:
    for n in range(2, 7):
        marked = _marked(n)
        for lam, i in marked:
            for mu, j in marked:
                expected = (
                    Fraction(dimension(decrement_part(lam, i)), dimension(lam))
                    if (lam, i) == (mu, j)
                    else Fraction(0)
                )
                assert orthogonality_check(lam, i, mu, j) == expected


def test_criterion_05_idempotent_structure() -> None:
    for n in range(2, 7):
        marked = _marked(n)
        jn = jm_element(n, n)
        idems = {(lam.parts, i): z1_idempotent(lam, i) for lam, i in marked}
        total = GroupAlgebraElement.zero(n)
        for lam, i in marked:
            gamma = idems[(lam.parts, i)]
            assert is_near_central(gamma)
            eig = Fraction(marked_content(lam, i))
            assert ga_multiply(jn, gamma) == gamma.scale(eig), (lam.parts, i)
            total = total + gamma
        assert total == GroupAlgebraElement.one(n)
        for a, b in itertools.combinations_with_replacement(marked, 2):
            x = idems[(a[0].parts, a[1])]
            y = idems[(b[0].parts, b[1])]
            expected = x if a == b else GroupAlgebraElement.zero(n)
            assert ga_multiply(x, y) == expected, (a, b)


def test_criterion_06_jm_polynomial_identities() -> None:
    # each closed-form row, from the smallest n where its shape exists up to 7;
    # distinct templates may collapse to one (shape, mark) at small n
    expected_rows = {2: 3, 3: 5, 4: 7, 5: 8, 6: 8, 7: 8}
    for n in range(2, 8):
        rows = table1_rows(n)
        assert len(rows) == expected_rows[n]
        for m, poly in rows:
            assert evaluate_asf_at_jm(poly, n) == class_sum(m.shape, m.mark), (
                n,
                m,
            )


def test_criterion_07_sum_lemmas() -> None:
    for n in range(2, 7):
        shapes = enumerate_partitions(n)
        marked = _marked(n)
        for mu in shapes:
            for lam, i in marked:
                assert superscript_sum(mu, lam, i) == chi(mu, lam)
        for mu, j in marked:
            for lam in shapes:
                assert subscript_sum_chi(mu, j, lam) == chi(mu, lam)
        for rho, ell in marked:
            coeffs = content_polynomial(rho)
            for m in range(1, n + 1):
                assert weighted_sum(rho, ell, m) == coeffs[m]


def test_criterion_08_connection_coefficients() -> None:
    swap = Partition((2, 1))
    assert connection_coefficient(swap, 2, swap, 2, Partition((1, 1, 1)), 1) == 2
    assert connection_coefficient(swap, 2, swap, 2, Partition((3,)), 3) == 1
    # every ordered triple for n <= 8, 91,125 of them at n = 8, against a
    # product of class sums in the group algebra, each product read once
    for n in range(3, 9):
        marked = _marked(n)
        sums = {m: class_sum(*m) for m in marked}
        for a, b in itertools.product(marked, repeat=2):
            product = oracle._marked_decomposition(ga_multiply(sums[a], sums[b]))
            for c in marked:
                value = connection_coefficient(*a, *b, *c)
                assert isinstance(value, int) and value >= 0
                assert value == connection_coefficient(*b, *a, *c)
                assert value == product[MarkedPartition(*c)], (a, b, c)


def test_criterion_09_aggregation_theorems() -> None:
    assert star_count_class(Partition((2, 1)), 3) == 8
    assert star_count_by_cycle_count(3, 3, 2) == 2
    for n in range(2, 7):
        for r in range(1, 9):
            table = jm_power_coefficients(n, r)
            by_class: dict[tuple[int, ...], Fraction] = {}
            by_cycles: dict[int, Fraction] = {}
            for m, coeff in table.items():
                weight = marked_class_size(m.shape, m.mark) * coeff
                by_class[m.shape.parts] = by_class.get(m.shape.parts, Fraction(0)) + weight
                k = len(m.shape.parts)
                by_cycles[k] = by_cycles.get(k, Fraction(0)) + weight
            for lam in enumerate_partitions(n):
                assert star_count_class(lam, r) == by_class[lam.parts], (n, r, lam)
            for k in range(1, n + 1):
                assert star_count_by_cycle_count(n, k, r) == by_cycles.get(
                    k, Fraction(0)
                ), (n, r, k)
    for n in range(2, 9):
        for r in range(1, 13):
            total = sum(star_count_by_cycle_count(n, k, r) for k in range(1, n + 1))
            assert total == (n - 1) ** r, (n, r)


def test_criterion_10_combinatorial_substrate() -> None:
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            assert dimension(lam) == len(enumerate_syt(lam)), lam
    for n in range(1, 9):
        shapes = enumerate_partitions(n)
        assert sum(dimension(lam) ** 2 for lam in shapes) == math.factorial(n)
        total = sum(
            marked_class_size(lam, i) for lam in shapes for i in set(lam.parts)
        )
        assert total == math.factorial(n)
