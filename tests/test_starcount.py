from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearcentral.starcount as starcount
from nearcentral import (
    STAR_CLOSED_MAX,
    STAR_COUNT_MAX_N,
    DomainError,
    GuardExceeded,
    MarkedPartition,
    Partition,
    StarClosedCase,
    chi,
    class_size,
    content_polynomial,
    decrement_part,
    dimension,
    enumerate_marked_partitions,
    enumerate_partitions,
    genchar,
    jm_power_coefficients,
    marked_class_size,
    marked_content,
    star_count,
    star_count_by_cycle_count,
    star_count_class,
    star_count_closed,
    star_walk,
)


def test_star_count_small_examples() -> None:
    assert star_count(Partition((3,)), 3, 2) == 1
    assert star_count(Partition((1, 1, 1)), 1, 2) == 2
    assert star_count(Partition((2, 1)), 2, 3) == 3
    with pytest.raises(DomainError):
        star_count(Partition((2, 1)), 3, 2)


def test_star_count_matches_brute_force_tables() -> None:
    for n in (2, 3, 4):
        for r in range(5):
            table = jm_power_coefficients(n, r)
            for m, v in table.items():
                assert star_count(m.shape, m.mark, r) == v


def test_star_counts_at_n14_equal_the_walk() -> None:
    # every marked class of 14 and every r <= 16, 6,341 counts, against the
    # integer walk over marked cycle types, which needs no gamma
    walk = star_walk(14, 16)
    for m in enumerate_marked_partitions(14):
        size = marked_class_size(m.shape, m.mark)
        for r, totals in enumerate(walk):
            assert star_count(m.shape, m.mark, r) * size == totals.get(m, 0), (m, r)


def test_star_count_parity_vanishing() -> None:
    for n in (3, 4, 5):
        for r in range(7):
            for m in enumerate_marked_partitions(n):
                if (r - (n - len(m.shape))) % 2 == 1:
                    assert star_count(m.shape, m.mark, r) == 0


def test_closed_forms_pinned_values() -> None:
    assert star_count_closed(StarClosedCase.FULL_CYCLE, 3, 2) == 1
    assert star_count_closed(StarClosedCase.FIX_POINT_MARK1, 3, 3) == 2
    assert star_count_closed(StarClosedCase.TRANSPOSED_MARK, 3, 3) == 3
    with pytest.raises(DomainError):
        star_count_closed(StarClosedCase.FULL_CYCLE, 2, 2)
    with pytest.raises(DomainError):
        star_count_closed(StarClosedCase.FULL_CYCLE, 3, 0)
    # the case's value is not a case
    with pytest.raises(DomainError, match="^unknown closed-form case 'full-cycle'$"):
        star_count_closed("full-cycle", 5, 3)
    for n in range(3, 41):
        # an n-cycle has exactly one minimal star factorization
        assert star_count_closed(StarClosedCase.FULL_CYCLE, n, n - 1) == 1
        for r in range(1, n - 1):
            assert star_count_closed(StarClosedCase.FULL_CYCLE, n, r) == 0
        # a product of r stars has the parity of r, so the wrong parity gives 0
        for r in range(1, 60):
            if (r - (n - 1)) % 2:
                assert star_count_closed(StarClosedCase.FULL_CYCLE, n, r) == 0
            if (r - (n - 2)) % 2:
                assert star_count_closed(StarClosedCase.FIX_POINT_MARK1, n, r) == 0
                assert star_count_closed(StarClosedCase.TRANSPOSED_MARK, n, r) == 0


def test_star_count_is_the_literal_spectral_sum() -> None:
    # sum of d_mu gamma^{mu,j}_{lam,i} c_{mu,j}^r over every marked shape,
    # in Fractions, one term per (mu, j)
    for n in range(1, 9):
        shapes = enumerate_marked_partitions(n)
        for m in shapes:
            terms = [
                (dimension(s.shape) * genchar(s.shape, s.mark, m.shape, m.mark),
                 Fraction(marked_content(s.shape, s.mark)))
                for s in shapes
            ]
            for r in range(13):
                total = sum((g * c**r for g, c in terms), Fraction(0))
                assert star_count(m.shape, m.mark, r) == total / math.factorial(n), (m, r)


def test_star_spectrum_is_in_lowest_terms() -> None:
    # the spectrum as it was built from Fraction gammas before the integer
    # columns: d_mu gamma^{mu,j}_{lam,i} summed per marked content c, over the
    # least common denominator; a literal reference
    for n in range(1, 9):
        shapes = enumerate_marked_partitions(n)
        for m in shapes:
            weights: dict[int, Fraction] = {}
            for s in shapes:
                c = marked_content(s.shape, s.mark)
                g = genchar(s.shape, s.mark, m.shape, m.mark)
                weights[c] = weights.get(c, 0) + dimension(s.shape) * g
            den = math.lcm(*(w.denominator for w in weights.values()))
            expected = (den, tuple((c, int(w * den)) for c, w in sorted(weights.items())))
            assert starcount._star_spectrum(m.shape, m.mark) == expected, m


def _refuse(*args) -> None:
    raise AssertionError(f"computed {args}")


def test_star_counts_are_refused_past_the_length_limit(monkeypatch) -> None:
    limit = STAR_CLOSED_MAX
    lam = Partition((3, 2, 1))
    for name in (
        "_star_spectrum", "_descending_parts", "_chi_column", "_class_weights", "_marked_shapes"
    ):
        monkeypatch.setattr(f"nearcentral.starcount.{name}", _refuse)
    with pytest.raises(GuardExceeded, match=f"r = {limit + 1} sums powers c\\^r"):
        star_count(lam, 2, limit + 1)
    with pytest.raises(GuardExceeded, match=f"r <= {limit}"):
        star_count_class(lam, limit + 1)
    with pytest.raises(GuardExceeded, match="each of up to 3003 bits"):
        star_count_by_cycle_count(6, 2, limit + 1)
    for count in (
        lambda: star_count(lam, 2, limit),
        lambda: star_count_class(lam, limit),
        lambda: star_count_by_cycle_count(6, 2, limit),
    ):
        with pytest.raises(AssertionError):
            count()


def test_star_counts_are_refused_past_the_size_limit(monkeypatch) -> None:
    limit = STAR_COUNT_MAX_N
    assert limit >= 18  # the benchmark and the tests count up to n = 18
    for name in (
        "_star_spectrum", "_descending_parts", "_chi_column", "_class_weights", "_marked_shapes"
    ):
        monkeypatch.setattr(f"nearcentral.starcount.{name}", _refuse)
    past = Partition((limit + 1,))
    shapes = re.escape(f"n = {limit + 1} sums over the 6842 shapes of n")
    with pytest.raises(GuardExceeded, match=shapes):
        star_count(past, limit + 1, 5)
    with pytest.raises(GuardExceeded, match=shapes):
        star_count_class(past, 5)
    with pytest.raises(GuardExceeded, match=f"the limit is n <= {limit}"):
        star_count_by_cycle_count(limit + 1, 1, 5)
    with pytest.raises(GuardExceeded, match=re.escape("the more than 10^31 shapes of n")):
        star_count_by_cycle_count(10**6 + 1, 1, 5)
    at = Partition((limit,))
    for count in (
        lambda: star_count(at, limit, 5),
        lambda: star_count_class(at, 5),
        lambda: star_count_by_cycle_count(limit, 1, 5),
    ):
        with pytest.raises(AssertionError):
            count()


def test_closed_forms_are_refused_past_their_limit(monkeypatch) -> None:
    def refuse(*args) -> None:
        raise AssertionError(f"built the spectrum of {args}")

    limit = STAR_CLOSED_MAX
    assert limit >= 92  # the aggregates benchmark asks for n <= 50, r <= 92
    monkeypatch.setattr("nearcentral.starcount._closed_spectrum", refuse)
    for case in StarClosedCase:
        with pytest.raises(GuardExceeded, match=f"n = {limit + 1}, r = 5 sums"):
            star_count_closed(case, limit + 1, 5)
        with pytest.raises(GuardExceeded, match=f"r <= {limit}"):
            star_count_closed(case, 5, limit + 1)
        with pytest.raises(AssertionError):
            star_count_closed(case, limit, limit)


def test_transposed_mark_near_hooks_have_their_hook_length_dimensions() -> None:
    # the near-hook terms of the spectrum, after the two end terms and the
    # 2n hook terms, are n times the hook-length dimension of each near hook
    case = StarClosedCase.TRANSPOSED_MARK
    for n in range(1, 41):
        expected = []
        for k in range(1, n - 3):
            d = dimension(Partition((n - k - 2, 2) + (1,) * (k - 1)))
            expected.append(((-1) ** k * n * d, n - k - 2))
        for k in range(2, n - 2):
            d = dimension(Partition((n - k - 1, 2) + (1,) * (k - 2)))
            expected.append(((-1) ** k * n * d, -k))
        near = starcount._closed_spectrum(case, n)[2 + 2 * n :]
        assert sorted(near) == sorted(expected), n


# frozen from literal J_n^r expansions in the group algebra
BRUTE_FORCE_VALUES = [
    (StarClosedCase.TRANSPOSED_MARK, 4, 2, 1),
    (StarClosedCase.FULL_CYCLE, 4, 3, 1),
    (StarClosedCase.FIX_POINT_MARK1, 4, 4, 3),
    (StarClosedCase.TRANSPOSED_MARK, 4, 4, 8),
    (StarClosedCase.FIX_POINT_MARK1, 4, 6, 45),
    (StarClosedCase.TRANSPOSED_MARK, 4, 6, 66),
    (StarClosedCase.TRANSPOSED_MARK, 5, 3, 1),
    (StarClosedCase.FULL_CYCLE, 5, 4, 1),
    (StarClosedCase.FULL_CYCLE, 5, 6, 35),
    (StarClosedCase.FULL_CYCLE, 5, 8, 777),
    (StarClosedCase.FULL_CYCLE, 6, 5, 1),
    (StarClosedCase.FULL_CYCLE, 6, 7, 70),
]


def test_closed_forms_match_brute_force() -> None:
    for case, n, r, expected in BRUTE_FORCE_VALUES:
        assert star_count_closed(case, n, r) == expected, (case, n, r)


def test_transposed_mark_includes_non_hook_spectrum() -> None:
    # the hyperbolic part alone would give 1/12 here; the true count is 0
    assert star_count_closed(StarClosedCase.TRANSPOSED_MARK, 5, 1) == 0
    for r in (1, 2, 4):
        got = star_count_closed(StarClosedCase.TRANSPOSED_MARK, 7, r)
        assert got == star_count(Partition((6, 1)), 6, r)


def test_closed_forms_match_spectral_sum() -> None:
    for n in (3, 4, 5):
        for r in range(1, 7):
            assert star_count_closed(StarClosedCase.FULL_CYCLE, n, r) == star_count(
                Partition((n,)), n, r
            )
            split = Partition((n - 1, 1))
            assert star_count_closed(
                StarClosedCase.FIX_POINT_MARK1, n, r
            ) == star_count(split, 1, r)
            assert star_count_closed(
                StarClosedCase.TRANSPOSED_MARK, n, r
            ) == star_count(split, n - 1, r)


def test_star_count_class_examples() -> None:
    assert star_count_class(Partition((2, 1)), 3) == 8
    assert star_count_class(Partition((1, 1, 1)), 2) == 2
    assert star_count_class(Partition((3,)), 2) == 2
    # frozen from the literal J_4^r expansions
    assert star_count_class(Partition((1, 1, 1, 1)), 2) == 3
    assert star_count_class(Partition((3, 1)), 2) == 6
    assert star_count_class(Partition((2, 2)), 4) == 12
    assert star_count_class(Partition((3, 1)), 4) == 54
    # the empty sequence gives the identity; S_0 has no stars
    assert star_count_class(Partition((1, 1, 1)), 0) == 1
    assert star_count_class(Partition((3,)), 0) == 0
    for bad in [(Partition((2, 1)), -1), (Partition(), 0), (Partition(), 1)]:
        with pytest.raises(DomainError):
            star_count_class(*bad)


def test_star_count_class_is_the_literal_character_sum() -> None:
    # |C_lam|/n! sum_mu chi^mu_lam sum_j d_{j_-(mu)} c_{mu,j}^r, one chi
    # call per shape mu and one term per distinct part j
    for n in range(1, 11):
        shapes = enumerate_partitions(n)
        for lam in shapes:
            for r in range(0, 13):
                total = sum(
                    chi(mu, lam) * dimension(decrement_part(mu, j)) * marked_content(mu, j) ** r
                    for mu in shapes
                    for j in set(mu.parts)
                )
                expected = Fraction(class_size(lam) * total, math.factorial(n))
                assert star_count_class(lam, r) == expected, (lam, r)


def test_star_count_class_aggregates_marked_counts() -> None:
    for n in (2, 3, 4, 5):
        for r in range(0, 6):
            for lam in enumerate_partitions(n):
                total = sum(
                    marked_class_size(lam, i) * star_count(lam, i, r)
                    for i in set(lam.parts)
                )
                assert star_count_class(lam, r) == total


def test_star_count_by_cycle_count_examples() -> None:
    assert star_count_by_cycle_count(3, 3, 2) == 2
    assert star_count_by_cycle_count(3, 1, 2) == 2
    assert star_count_by_cycle_count(3, 2, 2) == 0
    # frozen from the literal J_4^r expansions
    assert star_count_by_cycle_count(4, 4, 2) == 3
    assert star_count_by_cycle_count(4, 2, 2) == 6
    assert star_count_by_cycle_count(4, 2, 4) == 66


def test_star_count_by_cycle_count_aggregates_marked_counts() -> None:
    for n in (2, 3, 4, 5):
        for r in range(1, 6):
            for k in range(1, n + 1):
                total = sum(
                    marked_class_size(m.shape, m.mark)
                    * star_count(m.shape, m.mark, r)
                    for m in enumerate_marked_partitions(n)
                    if len(m.shape) == k
                )
                assert star_count_by_cycle_count(n, k, r) == total


def test_cycle_columns_are_the_literal_products() -> None:
    # column k holds d_mu times the coefficient of t^k in the product of
    # (t + content) over the cells of mu, for every shape mu of n
    for n in range(1, 21):
        literal = [
            [dimension(mu) * a for a in content_polynomial(mu)] for mu in enumerate_partitions(n)
        ]
        columns = starcount._cycle_columns(n)
        assert len(columns) == n + 1
        for k, column in enumerate(columns):
            assert column == tuple(poly[k] for poly in literal), (n, k)


def test_cycle_count_mass_conservation() -> None:
    for n in (2, 3, 4, 5, 6):
        for r in range(7):
            total = sum(
                star_count_by_cycle_count(n, k, r) for k in range(1, n + 1)
            )
            assert total == (n - 1) ** r


def test_mass_conservation_at_bench_sizes() -> None:
    # every sequence of r stars in S_n has some product, so the counts over
    # all cycle types, or over all cycle counts, add up to (n-1)^r
    shapes = enumerate_partitions(13)
    for r in (10, 11):
        assert sum(star_count_class(lam, r) for lam in shapes) == 12**r
    for r in (19, 24):
        assert sum(star_count_by_cycle_count(18, k, r) for k in range(1, 19)) == 17**r


# a marked class of n <= 7 and a length r <= 8, drawn deterministically
marked_classes = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.sampled_from(enumerate_marked_partitions(n))
)
lengths = st.integers(min_value=0, max_value=8)


@cache
def _jm_power(n: int, r: int) -> dict[MarkedPartition, Fraction]:
    return jm_power_coefficients(n, r)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(marked_classes, lengths)
def test_star_count_is_the_jm_power_coefficient(marked, r) -> None:
    n = marked.shape.n
    assert star_count(marked.shape, marked.mark, r) == _jm_power(n, r)[marked]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=8))
def test_class_counts_add_up_to_every_sequence(n, r) -> None:
    # each of the (n-1)^r star sequences has its product in exactly one class
    assert sum(star_count_class(lam, r) for lam in enumerate_partitions(n)) == (n - 1) ** r


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=8))
def test_cycle_counts_add_up_to_every_sequence(n, r) -> None:
    # each of the (n-1)^r star sequences has a product with some number of cycles
    assert sum(star_count_by_cycle_count(n, k, r) for k in range(1, n + 1)) == (n - 1) ** r
