from __future__ import annotations

import importlib
import itertools
import math
import random
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearcentral import (
    COLUMN_MAX_N,
    GENCHAR_MAX_N,
    STAR_CLOSED_MAX,
    STAR_COUNT_MAX_N,
    DomainError,
    GuardExceeded,
    InconsistencyError,
    MarkedPartition,
    Partition,
    Permutation,
    StarClosedCase,
    UnsupportedPattern,
    chi,
    class_size,
    class_sum,
    connection_coefficient,
    content_polynomial,
    decrement_part,
    dimension,
    enumerate_marked_partitions,
    enumerate_partitions,
    enumerate_star_factorizations,
    evaluate_asf,
    genchar,
    genchar_column,
    genchar_hook_row,
    genchar_row,
    genchar_strahov,
    genchar_table2,
    marked_class_size,
    marked_content,
    multi_product_coefficient,
    orthogonality_check,
    star_count,
    star_count_closed,
    subscript_sum_chi,
    superscript_sum,
    weighted_sum,
)
from nearcentral.permutations import cycle_lengths

# the module itself: the package attribute `genchar` is the dispatcher
genchar_module = importlib.import_module("nearcentral.genchar")
oracle_module = importlib.import_module("nearcentral.oracle")
characters_module = importlib.import_module("nearcentral.characters")


def _marked(n: int) -> list[tuple[Partition, int]]:
    return [(m.shape, m.mark) for m in enumerate_marked_partitions(n)]


# gamma values frozen from coefficient extraction on the S_3 idempotents,
# cross-checked by hand expansion of Gamma^{(2,1),2} and Gamma^{(2,1),1}
S3_GAMMA = {
    (((3,), 3), ((3,), 3)): Fraction(1),
    (((3,), 3), ((2, 1), 2)): Fraction(1),
    (((3,), 3), ((2, 1), 1)): Fraction(1),
    (((3,), 3), ((1, 1, 1), 1)): Fraction(1),
    (((2, 1), 2), ((3,), 3)): Fraction(-1, 2),
    (((2, 1), 2), ((2, 1), 2)): Fraction(1, 2),
    (((2, 1), 2), ((2, 1), 1)): Fraction(-1),
    (((2, 1), 2), ((1, 1, 1), 1)): Fraction(1),
    (((2, 1), 1), ((3,), 3)): Fraction(-1, 2),
    (((2, 1), 1), ((2, 1), 2)): Fraction(-1, 2),
    (((2, 1), 1), ((2, 1), 1)): Fraction(1),
    (((2, 1), 1), ((1, 1, 1), 1)): Fraction(1),
    (((1, 1, 1), 1), ((3,), 3)): Fraction(1),
    (((1, 1, 1), 1), ((2, 1), 2)): Fraction(-1),
    (((1, 1, 1), 1), ((2, 1), 1)): Fraction(-1),
    (((1, 1, 1), 1), ((1, 1, 1), 1)): Fraction(1),
}


def test_evaluate_asf_examples() -> None:
    def xn(v):
        return v.xn

    def p1(v):
        return sum(v.inner, 0 * v.one)

    def e2_full(v):
        pairs = itertools.combinations((*v.inner, v.xn), 2)
        return sum((a * b for a, b in pairs), 0 * v.one)

    mu = Partition((2, 1))
    assert evaluate_asf(xn, mu, 2) == 1
    assert evaluate_asf(p1, mu, 2) == -1
    assert evaluate_asf(p1, mu, 1) == 1
    assert evaluate_asf(e2_full, mu, 2) == -1
    with pytest.raises(DomainError):
        evaluate_asf(xn, mu, 3)


def test_asf_arithmetic_evaluates_like_plain_polynomials() -> None:
    def xn(v):
        return v.xn

    def p1(v):
        return sum(v.inner, 0 * v.one)

    def mixed(v):
        return (v.xn + 2 * v.one) * p1(v) - v.xn * v.xn + 5 * v.one

    # (3,2) marked on the 2: inner contents {-1, 1, 2}, marked content 0
    mu = Partition((3, 2))
    x = evaluate_asf(xn, mu, 2)
    s = evaluate_asf(p1, mu, 2)
    assert (x, s) == (0, 2)
    assert evaluate_asf(mixed, mu, 2) == (x + 2) * s - x * x + 5 == 9


def test_elementary_is_the_sum_over_subsets() -> None:
    # the banded convolution against e_d written out, for every degree
    rng = random.Random(5)
    for m in range(8):
        values = [rng.randint(-6, 6) for _ in range(m)]
        for degree in range(m + 2):
            expected = sum(map(math.prod, itertools.combinations(values, degree)))
            assert genchar_module._elementary(values, degree, 1) == expected, (values, degree)


def test_strahov_formula_frozen_s3_values() -> None:
    for ((mu, j), (lam, i)), expected in S3_GAMMA.items():
        got = genchar_strahov(Partition(mu), j, Partition(lam), i)
        assert got == expected, (mu, j, lam, i)


def test_strahov_identity_class_column_is_reduced_dimension() -> None:
    for n in range(2, 6):
        ident = Partition((1,) * n)
        for mu, j in _marked(n):
            expected = dimension(decrement_part(mu, j))
            assert genchar_strahov(mu, j, ident, 1) == expected


def test_strahov_value_does_not_depend_on_class_representative() -> None:
    # recompute the character sum at every member of the marked class
    for n in range(2, 6):
        fact = math.factorial(n - 1)
        for mu, j in (
            (Partition((n - 1, 1)), n - 1),
            (Partition((2,) + (1,) * (n - 2)), 2),
        ):
            reduced = decrement_part(mu, j)
            scale = Fraction(dimension(reduced), fact)
            for lam, i in _marked(n):
                expected = genchar_strahov(mu, j, lam, i)
                for pi in class_sum(lam, i).support():
                    total = 0
                    for images in itertools.permutations(range(1, n)):
                        tau = Permutation(images + (n,))
                        total += chi(mu, (pi * tau).cycle_type()) * chi(
                            reduced, Permutation(images).cycle_type()
                        )
                    assert scale * total == expected, (mu.parts, j, lam.parts, i)


def _strahov_per_value(mu: Partition, j: int, lam: Partition, i: int) -> Fraction:
    # the character sum as one literal walk over S_{n-1} per value
    n = mu.n
    reduced = decrement_part(mu, j)
    rest = list(lam.parts)
    rest.remove(i)
    starts = itertools.accumulate(rest, initial=i)
    cycles = [(*range(1, i), n)] + [
        tuple(range(s, s + length)) for s, length in zip(starts, rest)
    ]
    pi = Permutation.from_cycles(n, cycles).images
    pi_last = pi[n - 1]
    total = 0
    for tau in itertools.permutations(range(1, n)):
        composite = tuple(pi[t - 1] for t in tau) + (pi_last,)
        total += chi(mu, Permutation(composite).cycle_type()) * chi(
            reduced, Permutation(tau).cycle_type()
        )
    return Fraction(dimension(reduced) * total, math.factorial(n - 1))


def test_strahov_equals_a_walk_per_value() -> None:
    # n = 1 and n = 2: S_{n-1} holds one permutation, the empty tuple at n = 1
    for n in range(1, 6):
        for lam, i in _marked(n):
            for mu, j in _marked(n):
                assert genchar_strahov(mu, j, lam, i) == _strahov_per_value(
                    mu, j, lam, i
                ), (mu.parts, j, lam.parts, i)


def test_strahov_histogram_counts_every_permutation_once() -> None:
    # the swap class at n = 12 walks S_11 up to pi's symmetry: pi fixes 10
    # of the 11 points tau moves, so the walk meets 2^11 - 1 nodes for the
    # 39,916,800 tau
    classes = _marked(1) + _marked(2) + _marked(4) + [
        (Partition((3, 2, 1)), 2),
        (Partition((2, 2, 1, 1)), 1),
        (Partition((2,) + (1,) * 6), 2),
        (Partition((2,) + (1,) * 10), 2),
    ]
    for lam, i in classes:
        n = lam.n
        histogram = oracle_module._strahov_histogram(lam, i)
        assert sum(count for _, _, count in histogram) == math.factorial(n - 1)
        by_beta: dict[Partition, int] = defaultdict(int)
        for alpha, beta, count in histogram:
            assert alpha.n == n and beta.n == n - 1
            by_beta[beta] += count
        assert by_beta == {
            beta: class_size(beta) for beta in enumerate_partitions(n - 1)
        }, (lam.parts, i)


def _repeats_a_length(lam: Partition, i: int) -> bool:
    # whether two unmarked cycles of the class share a length, so that the
    # walk merges branches across cycles, not only around one
    rest = list(lam.parts)
    rest.remove(i)
    return len(set(rest)) < len(rest)


def test_strahov_histogram_is_the_literal_count() -> None:
    # the walk against a Counter over itertools.permutations by
    # cycle_lengths, for a member pi of the class taken from the oracle's
    # index: conjugating pi by S_{n-1} permutes the tau, so any member gives
    # the same counts.  n = 1 walks S_0, whose one member is ().  At n = 8,
    # six seeded classes and the 26 whose unmarked cycles repeat a length
    classes = [c for n in range(1, 8) for c in _marked(n)]
    eight = _marked(8)
    repeated = [c for c in eight if _repeats_a_length(*c)]
    assert len(repeated) == 26
    classes += dict.fromkeys(random.Random(8).sample(eight, 6) + repeated)
    for lam, i in classes:
        n = lam.n
        pi = next(class_sum(lam, i).support()).images
        literal = Counter(
            (cycle_lengths((*(pi[t - 1] for t in tau), pi[n - 1])), cycle_lengths(tau))
            for tau in itertools.permutations(range(1, n))
        )
        histogram = oracle_module._strahov_histogram.__wrapped__(lam, i)
        walked = {(alpha.parts, beta.parts): count for alpha, beta, count in histogram}
        assert len(walked) == len(histogram), (lam.parts, i)
        assert walked == literal, (lam.parts, i)


def test_strahov_guard_holds_once_the_walk_is_cached(monkeypatch) -> None:
    lam, i = Partition((3, 2, 1, 1)), 2
    mu, j = Partition((4, 2, 1)), 1
    histogram = oracle_module._strahov_histogram
    histogram.cache_clear()
    value = genchar_strahov(mu, j, lam, i)
    assert histogram.cache_info().currsize == 1
    monkeypatch.setattr(oracle_module, "ORACLE_MAX_N", 6)
    with pytest.raises(GuardExceeded, match="n=7; the limit is n <= 6"):
        genchar_strahov(mu, j, lam, i)
    # the refusal came before the cached walk was read
    assert histogram.cache_info().hits == 0
    monkeypatch.undo()
    assert genchar_strahov(mu, j, lam, i) == value
    assert histogram.cache_info().hits == 1


def test_table2_row_examples() -> None:
    assert genchar_table2(Partition((3,)), 3, Partition((2, 1)), 2) == 1
    assert genchar_table2(Partition((2, 1)), 2, Partition((3,)), 3) == Fraction(-1, 2)
    # the swap-class row at n=3 against values frozen from the oracle
    assert genchar_table2(Partition((2, 1)), 1, Partition((2, 1)), 1) == 1
    assert genchar_table2(Partition((2, 1)), 2, Partition((2, 1)), 1) == -1
    with pytest.raises(UnsupportedPattern):
        genchar_table2(Partition((3, 2)), 2, Partition((3, 2)), 2)


def test_table2_agrees_with_strahov_on_every_applicable_row() -> None:
    for n in range(3, 6):
        for lam, i in _marked(n):
            for mu, j in _marked(n):
                try:
                    got = genchar_table2(mu, j, lam, i)
                except UnsupportedPattern:
                    continue
                assert got == genchar_strahov(mu, j, lam, i), (mu.parts, j, lam.parts, i)


def _paper_top_cycle(mu: Partition, j: int) -> Fraction:
    # gamma^{mu,j}_{(n),n}: nonzero only on hooks (n-k, 1^k)
    n, k = mu.n, len(mu) - 1
    if mu.parts != (n - k,) + (1,) * k:
        return Fraction(0)
    if j == 1 and k >= 1:
        return Fraction((-1) ** k * k, n - 1)
    if j == mu[0] and mu[0] >= 2:
        return Fraction((-1) ** k * (n - k - 1), n - 1)
    return Fraction(0)


def _paper_fixed_mark(mu: Partition, j: int) -> Fraction:
    # gamma^{mu,j}_{(n-1,1),1}: a sign when j_-(mu) is a hook, else 0
    n, k = mu.n, len(mu) - 1
    if mu.parts == (n - k,) + (1,) * k:
        if j == 1 and k >= 1:
            return Fraction((-1) ** (k - 1))
        if j == mu[0] and mu[0] >= 2:
            return Fraction((-1) ** k)
    if k >= 1 and mu.parts == (n - k - 1, 2) + (1,) * (k - 1) and j == 2:
        return Fraction((-1) ** k)
    return Fraction(0)


def test_table2_hook_shape_rows_match_paper_formulas() -> None:
    for n in range(3, 12):
        top, fixed = Partition((n,)), Partition((n - 1, 1))
        for mu, j in _marked(n):
            assert genchar_table2(mu, j, top, n) == _paper_top_cycle(mu, j), (mu, j)
            assert genchar_table2(mu, j, fixed, 1) == _paper_fixed_mark(mu, j), (mu, j)


def test_hook_row_named_cases() -> None:
    for n in range(3, 7):
        assert genchar_hook_row(Partition((n,)), n) == 1
        assert genchar_hook_row(Partition((1,) * n), 1) == (-1) ** n
    assert genchar_hook_row(Partition((2, 1)), 2) == Fraction(1, 2)
    for mu, j in (((2,), 2), ((1, 1), 1), ((1,), 1)):
        with pytest.raises(DomainError, match=f"^n must be at least 3, got {sum(mu)}$"):
            genchar_hook_row(Partition(mu), j)


def test_hook_row_n5_values_frozen_from_strahov() -> None:
    frozen = {
        ((3, 2), 2): Fraction(-1, 2),
        ((3, 2), 3): Fraction(-1, 2),
        ((2, 2, 1), 2): Fraction(1, 2),
        ((2, 2, 1), 1): Fraction(1, 2),
        ((4, 1), 4): Fraction(1, 4),
        ((4, 1), 1): Fraction(-1, 4),
        ((3, 1, 1), 3): Fraction(-1, 4),
        ((3, 1, 1), 1): Fraction(1, 4),
        ((2, 1, 1, 1), 2): Fraction(1, 4),
        ((2, 1, 1, 1), 1): Fraction(-1, 4),
    }
    for (shape, j), expected in frozen.items():
        assert genchar_hook_row(Partition(shape), j) == expected


def test_hook_row_agrees_with_strahov() -> None:
    for n in range(3, 7):
        lam = Partition((n - 1, 1))
        for mu, j in _marked(n):
            assert genchar_hook_row(mu, j) == genchar_strahov(mu, j, lam, n - 1), (
                mu.parts,
                j,
            )


def test_closed_forms_are_refused_past_n1000() -> None:
    # every closed form works with dimensions of shapes of n: n = 1000 is
    # answered (by the paper's formulas), n = 1001 is refused, also through
    # the dispatcher
    assert STAR_CLOSED_MAX == 1000
    for n, answered in ((1000, True), (1001, False)):
        hook, near = Partition((n - 3, 1, 1, 1)), Partition((n - 4, 2, 1, 1))
        top, fixed = Partition((n,)), Partition((n - 1, 1))
        cases = [
            (lambda: genchar_table2(hook, 1, top, n), Fraction(-3, n - 1)),
            (lambda: genchar(near, 2, fixed, 1), Fraction(-1)),
            (lambda: genchar(hook, 1, fixed, n - 1), Fraction(-1, n - 1)),
            (lambda: genchar_hook_row(hook, 1), Fraction(-1, n - 1)),
            (lambda: genchar(hook, n - 3, Partition((1,) * n), 1), math.comb(n - 2, 3)),
        ]
        for value, expected in cases:
            if answered:
                assert value() == expected
            else:
                refusal = f"closed-form gamma at n={n} .*the limit is n <= 1000"
                with pytest.raises(GuardExceeded, match=refusal):
                    value()


def test_dispatcher_refuses_a_huge_class_before_building_the_closed_classes() -> None:
    # every closed class has at most two parts above 1, so past n = 1000 a
    # class with more is refused by the rule's limit and any other by the
    # closed-form limit, without the closed classes of n, whose shapes have
    # up to n parts
    for n in range(1, 13):
        assert all(lam.parts[2:3] <= (1,) for lam, _ in genchar_module._closed_classes(n))
    n = 10**6
    full, wide = Partition((n,)), Partition((n - 6, 2, 2, 2))
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match=f"closed-form gamma at n={n} "):
            genchar(full, n, full, n)
        with pytest.raises(GuardExceeded, match=f"rule at n={n} takes a rim pass"):
            genchar(wide, 2, wide, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_dispatcher_examples() -> None:
    assert genchar(Partition((2, 1)), 1, Partition((2, 1)), 2) == Fraction(-1, 2)
    assert genchar(Partition((1, 1, 1)), 1, Partition((2, 1)), 2) == -1
    for n in range(2, 8):
        ident = Partition((1,) * n)
        for mu, j in _marked(n):
            assert genchar(mu, j, ident, 1) == dimension(decrement_part(mu, j))


def test_dispatcher_matches_strahov_everywhere() -> None:
    for n in range(2, 6):
        for lam, i in _marked(n):
            for mu, j in _marked(n):
                assert genchar(mu, j, lam, i) == genchar_strahov(mu, j, lam, i)


def test_seminormal_route_runs_past_the_character_sum_frontier(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        pytest.fail("a column called the character sum")

    monkeypatch.setattr(oracle_module, "_strahov_histogram", refuse)
    genchar.cache_clear()
    n = 10
    swap3 = Partition((3, 2) + (1,) * (n - 5))
    for lam, i in ((swap3, 2), (Partition((5, 3, 2)), 3)):
        column = genchar_column(lam, i)
        assert list(column) == list(enumerate_marked_partitions(n))
        sums: dict[Partition, Fraction] = defaultdict(Fraction)
        for marked, value in column.items():
            sums[marked.shape] += value
        assert sums == {mu: chi(mu, lam) for mu in enumerate_partitions(n)}, lam
    # five stars is the least length for this class: four for the 3-cycle
    # off n, one for the 2-cycle through n
    pi = Permutation.from_cycles(n, [(1, 2, 3), (4, n)])
    assert star_count(swap3, 2, 5) == enumerate_star_factorizations(pi, 5) == 6


def test_seminormal_route_is_refused_past_its_limit(monkeypatch) -> None:
    # a class without a closed form: n = 31 is refused before any pass,
    # n = 30 gets through to the lattice pass, which fails here on purpose
    refusal = "gamma column at n=31 holds one value for each of the 28629 marked shapes"
    past = Partition((3, 2) + (1,) * 26)
    with pytest.raises(GuardExceeded, match=refusal):
        genchar_column(past, 2)
    with pytest.raises(GuardExceeded, match=refusal):
        multi_product_coefficient([(past, 2)] * 3, past, 2)
    monkeypatch.setattr(genchar_module, "_lattice_pass", _refuse)
    genchar_module._column.cache_clear()
    at = Partition((3, 2) + (1,) * 25)
    with pytest.raises(AssertionError):
        genchar_column(at, 2)


def _refuse(*args) -> None:
    raise AssertionError(f"computed {args}")


def test_rule_is_refused_past_its_limit(monkeypatch) -> None:
    assert GENCHAR_MAX_N == 26
    past = Partition((9, 7, 4, 3, 2, 1, 1))
    work = "at n=27 takes a rim pass from 9,7,4,3,2,1,1@4 over some of the 1475 shapes"
    with pytest.raises(GuardExceeded, match=f"Murnaghan-Nakayama rule {work}"):
        genchar(past, 4, past, 4)
    with pytest.raises(GuardExceeded, match=f"row over the 11732 marked classes {work}"):
        genchar_row(past, 4)
    # classes with a closed form keep their values past the limit
    full = Partition((27,))
    assert genchar(past, 4, full, 27) == genchar_table2(past, 4, full, 27)
    # at the limit both reach the rule, which fails here on purpose
    monkeypatch.setattr(genchar_module, "_rule_value", _refuse)
    genchar.cache_clear()
    genchar_module._row.cache_clear()
    at = Partition((9, 7, 4, 3, 2, 1))
    with pytest.raises(AssertionError):
        genchar(at, 4, at, 4)
    with pytest.raises(AssertionError):
        genchar_row(at, 4)


def test_shapes_inside_counts_the_subdiagrams() -> None:
    for n in range(1, 9):
        smaller = [nu for m in range(n + 1) for nu in enumerate_partitions(m)]
        for mu in enumerate_partitions(n):
            inside = sum(
                len(nu) <= len(mu) and all(a <= b for a, b in zip(nu.parts, mu.parts))
                for nu in smaller
            )
            assert genchar_module._shapes_inside(mu.parts, n) == inside, mu


def test_columns_are_refused_past_the_column_limit(monkeypatch) -> None:
    # one limit for columns and star counts
    assert STAR_COUNT_MAX_N == COLUMN_MAX_N == 30
    assert genchar_module._marked_count(31) == sum(
        len(enumerate_partitions(m)) for m in range(31)
    )
    full, split = Partition((31,)), Partition((30, 1))
    refusal = "gamma column at n=31 holds one value for each of the 28629 marked shapes"
    with pytest.raises(GuardExceeded, match=refusal):
        genchar_column(full, 31)
    with pytest.raises(GuardExceeded, match=refusal):
        connection_coefficient(full, 31, split, 1, full, 31)
    # at the limit classes with a closed form reach the lattice pass too,
    # which fails here on purpose
    monkeypatch.setattr(genchar_module, "_lattice_pass", _refuse)
    genchar_module._column.cache_clear()
    full, split = Partition((30,)), Partition((29, 1))
    with pytest.raises(AssertionError):
        genchar_column(full, 30)
    with pytest.raises(AssertionError):
        connection_coefficient(full, 30, split, 1, full, 30)


def _fraction_trace(mu: Partition, lam: Partition, i: int) -> dict[int, Fraction]:
    # the seminormal path sum with one Fraction division per linked step, as
    # it stood before the integer lattice pass; a literal reference
    n = mu.n
    rest = list(lam.parts)
    rest.remove(i)
    block_ends = set(itertools.accumulate(rest + [i]))
    parts = mu.parts
    rows = range(len(parts))
    states = {((1,) + (0,) * (len(parts) - 1), 0): Fraction(1)}
    for k in range(1, n):
        linked = k not in block_ends
        grown: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for (shape, last), weight in states.items():
            last_content = shape[last] - 1 - last
            for r in rows:
                length = shape[r]
                if length < parts[r] and (r == 0 or shape[r - 1] > length):
                    key = (shape[:r] + (length + 1,) + shape[r + 1 :], r)
                    step = weight / (length - r - last_content) if linked else weight
                    grown[key] = grown.get(key, 0) + step
        states = grown
    return {parts[r]: weight for (_, r), weight in states.items()}


def test_lattice_pass_equals_the_fraction_trace() -> None:
    # every marked pair of n <= 8: the trace over every symbol, against the
    # column's pass over the marked block from the chi column
    for n in range(1, 9):
        for lam, i in _marked(n):
            column = genchar_column(lam, i)
            for mu in enumerate_partitions(n):
                for j, value in _fraction_trace(mu, lam, i).items():
                    assert column[MarkedPartition(mu, j)] == value, (mu, j, lam, i)
    # seeded whole columns where the weights run to hundreds of bits
    for n in (10, 12):
        for lam, i in random.Random(n).sample(_marked(n), 2):
            column = genchar_column(lam, i)
            for mu in enumerate_partitions(n):
                for j, value in _fraction_trace(mu, lam, i).items():
                    assert column[MarkedPartition(mu, j)] == value, (mu, j, lam, i)


def test_rule_equals_the_fraction_trace() -> None:
    # every marked pair of n <= 8, by the rule itself and through `genchar`
    rule = genchar_module._rule_value
    for n in range(1, 9):
        for lam, i in _marked(n):
            for mu in enumerate_partitions(n):
                for j, value in _fraction_trace(mu, lam, i).items():
                    assert rule(mu, j, lam, i) == value, (mu, j, lam, i)
                    assert genchar(mu, j, lam, i) == value, (mu, j, lam, i)


def _border_strip_sign(mu: Partition, nu: Partition) -> int:
    # (-1)^(rows - 1) when mu / nu is a border strip: a nonempty skew shape,
    # edge-connected, holding no 2 x 2 square; else 0.  Cell by cell.
    if len(nu) > len(mu) or any(b > a for a, b in zip(mu.parts, nu.parts)):
        return 0
    inner = nu.parts + (0,) * (len(mu) - len(nu))
    cells = {
        (r, c) for r, (a, b) in enumerate(zip(mu.parts, inner)) for c in range(b, a)
    }
    if not cells:
        return 0
    if any({(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells for r, c in cells):
        return 0
    start = min(cells)
    seen, stack = {start}, [start]
    while stack:
        r, c = stack.pop()
        for cell in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if cell in cells and cell not in seen:
                seen.add(cell)
                stack.append(cell)
    if seen != cells:
        return 0
    return (-1) ** (len({r for r, _ in cells}) - 1)


def test_rim_factors_sum_to_border_strip_signs() -> None:
    # sum_j h_i(nu -> mu; j) is (-1)^height when mu / nu is a border strip
    # of size i and 0 otherwise: ordinary Murnaghan-Nakayama
    beta_mask = characters_module._beta_mask
    for n in range(1, 11):
        for mu in enumerate_partitions(n):
            for i in range(1, n + 1):
                sums: dict[int, int] = defaultdict(int)
                for j in set(mu.parts):
                    rim = genchar_module._rim_pass(mu, j)
                    for mask, weight in rim.level(i - 1):
                        sums[mask] += weight
                scale = math.lcm(*range(1, n)) ** (i - 1)
                expected = {
                    beta_mask(nu.parts): _border_strip_sign(mu, nu) * scale
                    for nu in enumerate_partitions(n - i)
                }
                got = {mask: w for mask, w in sums.items() if w}
                assert got == {m: w for m, w in expected.items() if w}, (mu, i)


def test_rule_at_mark_one_is_the_reduced_character() -> None:
    # gamma^{mu,j}_{lam,1} = chi^{j_-(mu)} on lam less its part 1
    rule = genchar_module._rule_value
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            if 1 not in lam:
                continue
            rest = Partition(lam.parts[:-1])
            for mu, j in _marked(n):
                expected = chi(decrement_part(mu, j), rest)
                assert rule(mu, j, lam, 1) == expected, (mu, j, lam)
                assert genchar(mu, j, lam, 1) == expected, (mu, j, lam)


def test_closed_classes_are_the_classes_with_a_closed_form() -> None:
    for n in range(1, 10):
        closed = genchar_module._closed_classes(n)
        assert closed <= set(_marked(n))
        for lam, i in _marked(n):
            try:
                genchar_table2(lam, i, lam, i)
            except UnsupportedPattern:
                assert (lam, i) not in closed, (lam, i)
            else:
                assert (lam, i) in closed, (lam, i)


def test_rows_equal_the_seminormal_trace() -> None:
    # seeded rows against the lattice pass, read out of every class's column
    for n in (10, 11, 12):
        for mu, j in random.Random(n).sample(_marked(n), 2):
            row = genchar_row(mu, j)
            assert list(row) == enumerate_marked_partitions(n)
            superscript = MarkedPartition(mu, j)
            for m, value in row.items():
                assert value == genchar_column(m.shape, m.mark)[superscript], (
                    mu, j, m
                )


# three marked partitions of one n past the literal traces (n >= 13),
# drawn deterministically
large_triples = (
    st.integers(min_value=13, max_value=GENCHAR_MAX_N)
    .map(_marked)
    .flatmap(lambda marked: st.tuples(*[st.sampled_from(marked)] * 3))
)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(large_triples)
def test_rows_past_the_seminormal_cap(triple) -> None:
    # no literal trace reaches here: check the row of (mu, j) against chi
    # and the content polynomial, and orthogonality with a second row
    (mu, j), (lam, i), (nu, k) = triple
    n = mu.n
    row = genchar_row(mu, j)
    assert list(row) == enumerate_marked_partitions(n)
    assert row[MarkedPartition(lam, i)] == genchar(mu, j, lam, i)
    assert superscript_sum(mu, lam, i) == chi(mu, lam)
    assert subscript_sum_chi(mu, j, lam) == chi(mu, lam)
    assert weighted_sum(mu, j, len(lam)) == content_polynomial(mu)[len(lam)]
    norm = Fraction(dimension(decrement_part(mu, j)), dimension(mu))
    assert orthogonality_check(mu, j, mu, j) == norm
    assert orthogonality_check(mu, j, nu, k) == (norm if (nu, k) == (mu, j) else 0)


def test_benchmark_counters_are_cache_infos() -> None:
    # the benchmark worker reads the hits and misses of these three caches
    for fn in (genchar, chi, dimension):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0


# a marked class of n <= 10, drawn deterministically
small_classes = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.sampled_from(_marked(n))
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_classes)
def test_column_equals_the_single_values(marked_class) -> None:
    # the cached integer column against `genchar` (closed forms and the
    # rule), value by value, and against the literal Fraction trace for n <= 8
    lam, i = marked_class
    n = lam.n
    column = genchar_column(lam, i)
    assert list(column) == enumerate_marked_partitions(n)
    traces = {mu: _fraction_trace(mu, lam, i) for mu in enumerate_partitions(n) if n <= 8}
    for m, value in column.items():
        assert value == genchar(m.shape, m.mark, lam, i), (m, lam, i)
        if n <= 8:
            assert value == traces[m.shape][m.mark], (m, lam, i)


def test_columns_past_the_cap(monkeypatch) -> None:
    # star counts and product coefficients of a class without a closed form:
    # n = 31 is refused naming the shapes or the marked shapes of n, n = 30
    # gets through to the lattice pass, which fails here on purpose
    general, full = Partition((3, 2) + (1,) * 26), Partition((31,))
    with pytest.raises(GuardExceeded, match="star count at n = 31 sums over the 6842 shapes of n"):
        star_count(general, 2, 5)
    refusal = "gamma column at n=31 holds one value for each of the 28629 marked shapes"
    with pytest.raises(GuardExceeded, match=refusal):
        connection_coefficient(full, 31, full, 31, general, 2)
    with pytest.raises(GuardExceeded, match=refusal):
        connection_coefficient(general, 2, full, 31, full, 31)
    monkeypatch.setattr(genchar_module, "_lattice_pass", _refuse)
    genchar_module._column.cache_clear()
    general, full = Partition((3, 2) + (1,) * 25), Partition((30,))
    with pytest.raises(AssertionError):
        star_count(general, 2, 5)
    with pytest.raises(AssertionError):
        connection_coefficient(full, 30, full, 30, general, 2)
    with pytest.raises(AssertionError):
        connection_coefficient(general, 2, full, 30, full, 30)


def test_closed_columns_up_to_the_cap() -> None:
    # classes with a closed form: sampled column entries against
    # `genchar_table2`, and star counts and a product coefficient against
    # closed forms, up to n = 30
    for n in (13, 14, 21, 30):
        rng = random.Random(n)
        marked = genchar_module._marked_shapes(n).marked
        for lam, i in sorted(genchar_module._closed_classes(n), key=str):
            den, weights = genchar_module._column(lam, i)
            for t in rng.sample(range(len(marked)), 60):
                mu, j = marked[t].shape, marked[t].mark
                expected = genchar_table2(mu, j, lam, i)
                assert Fraction(weights[t], den) == expected, (mu, j, lam, i)
        full, split = Partition((n,)), Partition((n - 1, 1))
        for r in (n - 1, n, n + 3):
            assert star_count(full, n, r) == star_count_closed(StarClosedCase.FULL_CYCLE, n, r)
            assert star_count(split, 1, r) == star_count_closed(
                StarClosedCase.FIX_POINT_MARK1, n, r
            )
            assert star_count(split, n - 1, r) == star_count_closed(
                StarClosedCase.TRANSPOSED_MARK, n, r
            )
        # a star (a n) times a fixed n-cycle is an (n-1)-cycle through n
        # for exactly one a: the one next to n on the cycle, which it fixes
        star = Partition((2,) + (1,) * (n - 2))
        assert connection_coefficient(split, n - 1, star, 2, full, n) == 1


def test_marked_shape_table() -> None:
    # every field against the function that defines it for n <= 10, then
    # three identities up to the column limit: the marked classes fill S_n,
    # sum d_mu d_{j_-(mu)} = sum d_mu^2 = n!, and the branching rule
    for n in range(11):
        table = genchar_module._marked_shapes(n)
        marked = enumerate_marked_partitions(n)
        shapes = enumerate_partitions(n)
        assert list(table.marked) == marked
        assert [shapes[k] for k in table.shape] == [m.shape for m in marked]
        assert list(table.dim) == [dimension(m.shape) for m in marked]
        reduced = [dimension(decrement_part(m.shape, m.mark)) for m in marked]
        assert list(table.reduced) == reduced
        assert list(table.content) == [marked_content(m.shape, m.mark) for m in marked]
        assert list(table.size) == [marked_class_size(m.shape, m.mark) for m in marked]
    for n in range(1, COLUMN_MAX_N + 1):
        table = genchar_module._marked_shapes(n)
        assert sum(table.size) == math.factorial(n)
        assert sum(map(math.prod, zip(table.dim, table.reduced))) == math.factorial(n)
        branching: dict[int, int] = defaultdict(int)
        for k, dd in zip(table.shape, table.reduced):
            branching[k] += dd
        assert [branching[k] for k in table.shape] == list(table.dim)


# a marked class of 13 <= n <= 30, drawn deterministically
past_the_trace = st.integers(min_value=13, max_value=COLUMN_MAX_N).flatmap(
    lambda n: st.sampled_from(_marked(n))
)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(past_the_trace)
def test_general_columns_up_to_the_cap(marked_class) -> None:
    # no literal trace reaches here: the column summed over the marks of each
    # sampled shape is chi, and for n <= GENCHAR_MAX_N sampled entries equal
    # the marked rule
    lam, i = marked_class
    n = lam.n
    column = genchar_column(lam, i)
    rng = random.Random(f"{lam}@{i}")
    for mu in rng.sample(enumerate_partitions(n), 40):
        total = sum(column[MarkedPartition(mu, j)] for j in set(mu.parts))
        assert total == chi(mu, lam), (mu, lam, i)
    if n <= GENCHAR_MAX_N:
        for m in rng.sample(list(column), 4):
            assert column[m] == genchar_module._rule_value(m.shape, m.mark, lam, i), (
                m, lam, i
            )


def test_non_integral_superscript_sum_is_an_inconsistency(monkeypatch) -> None:
    monkeypatch.setattr(genchar_module, "genchar", lambda *args: Fraction(1, 3))
    lam = Partition((2, 1))
    with pytest.raises(InconsistencyError, match="non-integral"):
        superscript_sum(lam, lam, 2)


def test_superscript_sum_examples() -> None:
    assert superscript_sum(Partition((2, 1)), Partition((2, 1)), 2) == 0
    for n in range(2, 6):
        for lam, i in _marked(n):
            assert superscript_sum(Partition((n,)), lam, i) == 1
    assert superscript_sum(Partition((1, 1, 1)), Partition((2, 1)), 2) == -1


def test_superscript_sum_is_chi_for_every_free_mark() -> None:
    for n in range(2, 6):
        for mu in enumerate_partitions(n):
            for lam, i in _marked(n):
                assert superscript_sum(mu, lam, i) == chi(mu, lam)


def test_subscript_sum_examples() -> None:
    assert subscript_sum_chi(Partition((2, 1)), 2, Partition((2, 1))) == 0
    for n in range(2, 6):
        for lam in enumerate_partitions(n):
            assert subscript_sum_chi(Partition((n,)), n, lam) == 1
    assert subscript_sum_chi(Partition((2, 1)), 2, Partition((3,))) == -1


def test_subscript_sum_is_chi_for_every_free_mark() -> None:
    for n in range(2, 6):
        for mu, j in _marked(n):
            for lam in enumerate_partitions(n):
                assert subscript_sum_chi(mu, j, lam) == chi(mu, lam)


def test_subscript_sum_reads_its_own_values() -> None:
    # one value per part of lam, no row: past the rule's limit a lam whose
    # marks all have closed forms is answered, and at the limit a cold sum
    # leaves the row cache as it was
    rows = genchar_module._row.cache_info().currsize
    mu, lam = Partition((9, 7, 4, 3, 2, 1)), Partition((10, 6, 4, 3, 3))
    assert subscript_sum_chi(mu, 4, lam) == chi(mu, lam)
    lam = Partition((39, 1))
    for mu in (Partition((20, 10, 5, 5)), Partition((38, 1, 1)), lam):
        for j in set(mu.parts):
            assert subscript_sum_chi(mu, j, lam) == chi(mu, lam), (mu, j)
    assert genchar_module._row.cache_info().currsize == rows


def test_weighted_sum_examples() -> None:
    rho = Partition((2, 1))
    assert weighted_sum(rho, 2, 3) == 1
    assert weighted_sum(rho, 2, 2) == 0
    assert weighted_sum(rho, 2, 1) == -1


def test_weighted_sum_reads_off_content_polynomial() -> None:
    for n in range(2, 6):
        for rho, ell in _marked(n):
            coeffs = content_polynomial(rho)
            for m in range(1, n + 1):
                assert weighted_sum(rho, ell, m) == coeffs[m], (rho.parts, ell, m)


def test_connection_coefficient_pinned_s3_values() -> None:
    lam = Partition((2, 1))
    assert connection_coefficient(lam, 2, lam, 2, Partition((1, 1, 1)), 1) == 2
    assert connection_coefficient(lam, 2, lam, 2, Partition((3,)), 3) == 1
    assert connection_coefficient(lam, 2, lam, 2, lam, 1) == 0


def _connection_reference(
    lam: Partition, i: int, mu: Partition, j: int, nu: Partition, k: int
) -> Fraction:
    # the structure constant as one Fraction term per marked shape, as
    # `multi_product_coefficient` summed it before the integer columns; a
    # literal reference
    n = nu.n
    total = Fraction(0)
    for rho, ell in _marked(n):
        dd = dimension(decrement_part(rho, ell))
        term = genchar(rho, ell, nu, k) * Fraction(dimension(rho), dd**2)
        for a, b in ((lam, i), (mu, j)):
            term *= genchar(rho, ell, a, b)
        total += term
    sizes = marked_class_size(lam, i) * marked_class_size(mu, j)
    return Fraction(sizes, math.factorial(n)) * total


def test_connection_coefficient_equals_the_fraction_sum() -> None:
    for n in range(1, 6):
        for a, b, c in itertools.product(_marked(n), repeat=3):
            assert connection_coefficient(*a, *b, *c) == _connection_reference(
                *a, *b, *c
            ), (a, b, c)


def test_connection_coefficient_symmetric_and_integral() -> None:
    for n in (3, 4):
        marked = _marked(n)
        for (lam, i), (mu, j) in itertools.combinations_with_replacement(marked, 2):
            for nu, k in marked:
                left = connection_coefficient(lam, i, mu, j, nu, k)
                right = connection_coefficient(mu, j, lam, i, nu, k)
                assert left == right
                assert isinstance(left, int) and left >= 0


def test_multi_product_single_factor_is_identity_expansion() -> None:
    for n in (3, 4):
        for lam, i in _marked(n):
            for mu, j in _marked(n):
                expected = 1 if (lam, i) == (mu, j) else 0
                assert multi_product_coefficient([(lam, i)], mu, j) == expected
    with pytest.raises(DomainError, match="^need at least one factor$"):
        multi_product_coefficient([], Partition((2, 1)), 2)


def test_multi_product_triple_swap_class() -> None:
    lam = Partition((2, 1))
    factors = [(lam, 2), (lam, 2), (lam, 2)]
    assert multi_product_coefficient(factors, lam, 2) == 3
    assert multi_product_coefficient(factors, lam, 1) == 2


def test_multi_product_of_three_factors_is_the_oracle_product() -> None:
    # 40 seeded ordered triples of marked classes at each n = 5..8, every
    # coefficient of K_a K_b K_c against (K_a K_b) K_c in the group algebra
    rng = random.Random(2033)
    for n in range(5, 9):
        marked = _marked(n)
        for _ in range(40):
            factors = [rng.choice(marked) for _ in range(3)]
            a, b, c = (class_sum(*m) for m in factors)
            product = oracle_module._marked_decomposition(
                oracle_module.ga_multiply(oracle_module.ga_multiply(a, b), c)
            )
            for nu, k in marked:
                value = multi_product_coefficient(factors, nu, k)
                assert value == product[MarkedPartition(nu, k)], (factors, nu, k)


def test_swap_class_powers_are_star_counts() -> None:
    # the r-fold product of the swap class (2, 1^{n-2})@2 is J_n^r, so its
    # coefficients are the star counts: a seeded tenth of the marked classes
    # of n = 6, 10 and 14, for r = 1..8
    rng = random.Random(2032)
    for n in (6, 10, 14):
        swap = (Partition((2,) + (1,) * (n - 2)), 2)
        marked = _marked(n)
        for lam, i in rng.sample(marked, len(marked) // 10 + 1):
            for r in range(1, 9):
                assert multi_product_coefficient([swap] * r, lam, i) == star_count(lam, i, r)


def test_products_past_the_factor_limit_are_refused(monkeypatch) -> None:
    # refused before any factor is read: a bad mark past the limit goes
    # unchecked, and no column is built; at the limit the product is taken
    swap = (Partition((2, 1)), 2)
    limit = genchar_module._PRODUCT_FACTORS_MAX
    assert multi_product_coefficient([swap] * limit, *swap) == star_count(*swap, limit)
    monkeypatch.setattr(genchar_module, "_column", _refuse)
    with pytest.raises(GuardExceeded) as refused:
        multi_product_coefficient([swap] * limit + [(Partition((2, 1)), 3)], *swap)
    assert str(refused.value) == (
        f"product of {limit + 1} marked class sums; the limit is factors <= {limit}"
    )


def test_multi_product_pair_reduces_to_connection_coefficient() -> None:
    for n in (3, 4):
        marked = _marked(n)
        for lam, i in marked:
            for mu, j in marked:
                for nu, k in marked:
                    assert multi_product_coefficient(
                        [(lam, i), (mu, j)], nu, k
                    ) == connection_coefficient(lam, i, mu, j, nu, k)


def test_orthogonality_examples() -> None:
    lam = Partition((2, 1))
    assert orthogonality_check(lam, 2, lam, 2) == Fraction(1, 2)
    assert orthogonality_check(lam, 2, Partition((3,)), 3) == 0
    for n in range(2, 7):
        full = Partition((n,))
        assert orthogonality_check(full, n, full, n) == 1


# three marked classes of one n <= 7, drawn deterministically
class_triples = (
    st.integers(min_value=2, max_value=7)
    .map(_marked)
    .flatmap(lambda marked: st.tuples(*[st.sampled_from(marked)] * 3))
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(class_triples)
def test_connection_coefficient_is_symmetric_and_a_product_coefficient(triple) -> None:
    (lam, i), (mu, j), (nu, k) = triple
    value = connection_coefficient(lam, i, mu, j, nu, k)
    assert value == connection_coefficient(mu, j, lam, i, nu, k)
    assert value == multi_product_coefficient([(lam, i), (mu, j)], nu, k)
