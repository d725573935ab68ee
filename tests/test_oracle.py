from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from nearcentral import (
    DomainError,
    GroupAlgebraElement,
    GuardExceeded,
    MarkedPartition,
    Partition,
    Permutation,
    VERIFY_MAX_N,
    VerificationError,
    central_idempotent,
    chi,
    class_size,
    class_sum,
    dimension,
    enumerate_marked_partitions,
    enumerate_partitions,
    enumerate_star_factorizations,
    evaluate_asf_at_jm,
    extract_marked_coefficient,
    ga_multiply,
    genchar,
    genchar_row,
    is_near_central,
    jm_element,
    jm_power_coefficients,
    marked_class_size,
    marked_content,
    run_verify,
    table1_poly,
    z1_idempotent,
)
from nearcentral import oracle


def _perm(*images: int) -> Permutation:
    return Permutation(images)


def _marked(n: int) -> list[tuple[Partition, int]]:
    return [(m.shape, m.mark) for m in enumerate_marked_partitions(n)]


def test_composition_is_right_to_left() -> None:
    t13 = Permutation.transposition(1, 3, 3)
    t23 = Permutation.transposition(2, 3, 3)
    # apply (2,3) first, then (1,3)
    assert (t13 * t23).images == (3, 1, 2)
    assert (t23 * t13).images == (2, 3, 1)
    assert t13 * Permutation.identity(3) == t13


def test_permutation_basics() -> None:
    pi = Permutation.from_cycles(5, [(1, 4, 2), (3, 5)])
    assert pi.cycle_type().parts == (3, 2)
    assert (pi * pi.inverse()) == Permutation.identity(5)
    assert pi(1) == 4 and pi(4) == 2 and pi(3) == 5
    with pytest.raises(DomainError):
        Permutation((1, 1, 3))


def test_permutation_refusals_and_cycle_notation() -> None:
    assert str(Permutation.from_cycles(5, [(1, 4, 2), (3, 5)])) == "(1 4 2)(3 5)"
    assert str(Permutation.identity(3)) == "id"
    with pytest.raises(DomainError, match=r"^bad cycle symbol 2 in \(2, 3\)$"):
        Permutation.from_cycles(3, [(1, 2), (2, 3)])
    with pytest.raises(DomainError, match=r"^\(2 2\) is not a transposition inside S_3$"):
        Permutation.transposition(2, 2, 3)
    with pytest.raises(DomainError, match="^cannot compose permutations of different degrees$"):
        _perm(2, 1) * _perm(1, 2, 3)
    with pytest.raises(DomainError, match="^cannot add elements of different group algebras$"):
        GroupAlgebraElement.one(2) + GroupAlgebraElement.one(3)


def test_group_algebra_drops_zero_terms() -> None:
    a = GroupAlgebraElement(3, {Permutation.identity(3): Fraction(1)})
    b = a - a
    assert not b
    assert len(b) == 0
    assert a == a + b


def test_ga_multiply_single_terms() -> None:
    d13 = GroupAlgebraElement.from_permutation(Permutation.transposition(1, 3, 3))
    d23 = GroupAlgebraElement.from_permutation(Permutation.transposition(2, 3, 3))
    prod = ga_multiply(d13, d23)
    assert prod == GroupAlgebraElement.from_permutation(_perm(3, 1, 2))
    prod2 = ga_multiply(d23, d13)
    assert prod2 == GroupAlgebraElement.from_permutation(_perm(2, 3, 1))
    with pytest.raises(DomainError):
        ga_multiply(d13, GroupAlgebraElement.one(4))


def test_products_in_the_trivial_groups() -> None:
    # S_0 and S_1 have only the identity, where itemgetter cannot compose
    for n in (0, 1, 2):
        one = GroupAlgebraElement.one(n)
        assert ga_multiply(one, one) == one
        zero = GroupAlgebraElement.zero(n)
        assert ga_multiply(one, zero) == zero
    half = GroupAlgebraElement(1, {Permutation.identity(1): Fraction(1, 2)})
    assert ga_multiply(half, half.scale(-4)) == GroupAlgebraElement.one(1).scale(-1)
    # (2 id - 3/2 s)(-1/3 id + s) = -2/3 id + 2 s + 1/2 s - 3/2 id in S_2
    s = Permutation.transposition(1, 2, 2)
    a = GroupAlgebraElement(2, {Permutation.identity(2): 2, s: Fraction(-3, 2)})
    b = GroupAlgebraElement(2, {Permutation.identity(2): Fraction(-1, 3), s: 1})
    assert ga_multiply(a, b) == GroupAlgebraElement(
        2, {Permutation.identity(2): Fraction(-13, 6), s: Fraction(5, 2)}
    )


def _random_element(rng: random.Random, n: int, size: int) -> GroupAlgebraElement:
    support = rng.sample(list(itertools.permutations(range(1, n + 1))), size)
    terms = {}
    for images in support:
        numerator = rng.choice((-1, 1)) * rng.randint(1, 9)
        terms[Permutation(images)] = Fraction(numerator, rng.randint(1, 6))
    return GroupAlgebraElement(n, terms)


@functools.cache
def _marked_members(n: int) -> tuple[tuple[Permutation, ...], ...]:
    # the marked classes of S_n, listed here apart from the oracle's index
    classes: dict[tuple[Partition, int], list[Permutation]] = {}
    for images in itertools.permutations(range(1, n + 1)):
        p = Permutation(images)
        classes.setdefault((p.cycle_type(), p.cycle_length_through(n)), []).append(p)
    return tuple(map(tuple, classes.values()))


def _near_central_element(
    rng: random.Random, n: int, budget: int
) -> GroupAlgebraElement:
    # a signed Fraction on each of a seeded choice of marked classes, with at
    # most `budget` terms; the classes left out are absent
    terms = {}
    for members in _marked_members(n):
        if rng.random() < 0.3 or len(terms) + len(members) > budget:
            continue
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        terms.update(dict.fromkeys(members, c))
    return GroupAlgebraElement(n, terms)


def _broken(
    rng: random.Random, g: GroupAlgebraElement
) -> list[GroupAlgebraElement]:
    # g with one coefficient perturbed and g with one member of a class
    # missing, each on a class of two or more members, so neither commutes
    # with S_{n-1}; empty when g touches no such class
    shared = {p for ms in _marked_members(g.n) if len(ms) > 1 for p in ms}
    candidates = [p for p in g.support() if p in shared]
    if not candidates:
        return []
    p = rng.choice(candidates)
    bump = GroupAlgebraElement(g.n, {p: 1})
    drop = GroupAlgebraElement(g.n, {p: g.coefficient(p)})
    return [g + bump, g - drop]


def _assert_lowest_terms(g: GroupAlgebraElement) -> None:
    # one positive denominator, coprime to the numerators, and no zero stored
    assert g._den > 0
    assert math.gcd(g._den, *g._terms.values()) == 1
    assert 0 not in g._terms.values()


def test_elements_stay_in_lowest_terms(monkeypatch) -> None:
    rng = random.Random(2022)
    for n in range(1, 7):
        for _ in range(3):
            a = _near_central_element(rng, n, 150)
            b = _near_central_element(rng, n, 150)
            c = _random_element(rng, n, rng.randint(1, min(8, math.factorial(n))))
            zero = GroupAlgebraElement.zero(n)
            made = [a, b, c, a + b, a - b, b + c, c - c, -a, a + (-a)]
            made += [a.scale(s) for s in (0, 2, -3, Fraction(-5, 6), Fraction(7, 4))]
            made += [ga_multiply(a, b), ga_multiply(b, c), ga_multiply(c, c)]
            with monkeypatch.context() as literal:
                literal.setattr(oracle, "_class_values", lambda *_: None)
                made += [ga_multiply(a, b), ga_multiply(a, zero)]
            for g in made:
                _assert_lowest_terms(g)
            assert a.scale(Fraction(1, 3)).scale(3) == a
            assert (a + b) - b == a
            assert (c + a) - a == c
            assert a - a == zero == c.scale(0)


@pytest.fixture
def class_products(monkeypatch) -> list:
    # the arguments of every call of the class product, in order
    taken = []
    class_product = oracle._class_product

    def spy(*args):
        taken.append(args)
        return class_product(*args)

    monkeypatch.setattr(oracle, "_class_product", spy)
    return taken


def test_class_product_matches_the_literal_product(monkeypatch, class_products) -> None:
    taken = class_products
    by_class_at: Counter[int] = Counter()

    def check(a: GroupAlgebraElement, b: GroupAlgebraElement, near: bool):
        # the class path is taken when both factors are near-central and the
        # larger has more terms than S_n has marked classes
        by_class = near and max(len(a), len(b)) > len(oracle._marked_index(a.n))
        by_class_at[a.n] += by_class
        taken.clear()
        got = ga_multiply(a, b)
        assert bool(taken) == by_class
        with monkeypatch.context() as literal:
            literal.setattr(oracle, "_class_values", lambda *_: None)
            want = ga_multiply(a, b)
        assert got == want
        return got

    rng = random.Random(20111)
    for n in range(2, 8):
        for _ in range(3):
            a = _near_central_element(rng, n, 150)
            b = _near_central_element(rng, n, 150)
            check(a, b, True)
            check(b, a, True)
            zero = GroupAlgebraElement.zero(n)
            assert check(a, zero, True) == zero == check(zero, b, True)
            for bad in _broken(rng, a):
                check(bad, b, False)
            for bad in _broken(rng, b):
                check(a, bad, False)
    # S_2 has two marked classes and two permutations, so no product of it
    # has more terms than classes
    assert by_class_at[2] == 0
    assert all(by_class_at[n] >= 6 for n in range(3, 8))

    # the two idempotents of 6 with the fewest terms, 340 and 450
    marked = [(Partition((3, 2, 1)), 2), (Partition((4, 2)), 2)]
    gamma, other = (z1_idempotent(*m) for m in marked)
    assert check(gamma, gamma, True) == gamma
    assert not check(gamma, other, True)

    # J_7 has 6 terms and S_7 30 marked classes: 1 * J_7 and J_7 * J_7 are
    # literal, and J_7^2 has 31 terms
    jm = jm_element(7, 7)
    power = GroupAlgebraElement.one(7)
    for r in range(4):
        power = check(power, jm, True)
        assert bool(taken) == (r > 1)
    assert extract_marked_coefficient(power, Partition((1,) * 7), 1) == (
        enumerate_star_factorizations(Permutation.identity(7), 4)
    )


@pytest.fixture
def listed_groups(monkeypatch) -> list:
    # every n whose marked-class index is asked for; the index lists no
    # classes, so that a wrong path fails without building a large S_n
    listed = []

    def spy(n):
        listed.append(n)
        return ()

    monkeypatch.setattr(oracle, "_marked_index", spy)
    return listed


def _literal_product(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    # the product from Permutation products, apart from ga_multiply
    terms: Counter = Counter()
    for p, ca in a.items():
        for q, cb in b.items():
            terms[p * q] += ca * cb
    return GroupAlgebraElement(a.n, terms)


def test_class_path_starts_past_the_marked_class_count(class_products) -> None:
    # S_3 has 4 marked classes: (1 1 1)@1, (2 1)@1, (2 1)@2 and (3)@3
    taken = class_products
    assert oracle._marked_count(3) == len(oracle._marked_index(3)) == 4
    four = class_sum(Partition((2, 1)), 2) + class_sum(Partition((3,)), 3)
    five = four + GroupAlgebraElement.one(3)
    assert (len(four), len(five)) == (4, 5)
    swap = class_sum(Partition((2, 1)), 2)
    for a, b, by_class in [(four, swap, False), (swap, four, False), (five, swap, True)]:
        taken.clear()
        got = ga_multiply(a, b)
        assert bool(taken) == by_class
        assert got == _literal_product(a, b)


def test_sparse_products_list_no_group(listed_groups) -> None:
    # J_8 and J_7 of S_9 have 7 and 6 terms, fewer than the 67 marked classes
    # of 9, so their product is the literal one and S_9 is not listed
    assert oracle._marked_count(9) == 67
    a, b = jm_element(8, 9), jm_element(7, 9)
    got = ga_multiply(a, b)
    assert listed_groups == []
    assert got == _literal_product(a, b)


def test_marked_classes_hold_the_inverse_of_each_member() -> None:
    # the class product reads a(p) for a(p^-1): p^-1 is in the class of p
    for n in range(0, 8):
        for _, _, members in oracle._marked_index(n):
            assert {Permutation(p).inverse().images for p in members} == set(members)


def test_near_central_elements_commute(monkeypatch) -> None:
    # the class product swaps its factors so that p runs over the smaller
    # support; checked here on the literal product
    monkeypatch.setattr(oracle, "_class_values", lambda *_: None)
    rng = random.Random(21)
    for n in range(1, 7):
        for _ in range(3):
            a = _near_central_element(rng, n, 150)
            b = _near_central_element(rng, n, 150)
            assert ga_multiply(a, b) == ga_multiply(b, a)
    s, t = (GroupAlgebraElement.from_permutation(_perm(*p)) for p in [(2, 1, 3), (1, 3, 2)])
    assert ga_multiply(s, t) != ga_multiply(t, s)


def test_class_check_agrees_with_is_near_central() -> None:
    rng = random.Random(6)
    seen = set()
    for n in range(1, 8):
        index = oracle._marked_index(n)
        for _ in range(4):
            g = _near_central_element(rng, n, 10**4)
            size = rng.randint(1, min(8, math.factorial(n)))
            for h in [g, _random_element(rng, n, size), *_broken(rng, g)]:
                near = is_near_central(h)
                assert (oracle._class_values(h._terms, index) is not None) == near
                seen.add(near)
    assert seen == {True, False}


def test_class_sum_small() -> None:
    for n in range(1, 6):
        ident = class_sum(Partition((1,) * n), 1)
        assert ident == GroupAlgebraElement.one(n)
    swap = class_sum(Partition((2, 1)), 2)
    assert sorted(p.images for p in swap.support()) == [(1, 3, 2), (3, 2, 1)]
    cycles = class_sum(Partition((3,)), 3)
    assert sorted(p.images for p in cycles.support()) == [(2, 3, 1), (3, 1, 2)]
    for n in range(1, 6):
        for lam, i in _marked(n):
            assert len(class_sum(lam, i)) == marked_class_size(lam, i)


def test_class_sums_and_reads_at_n_8() -> None:
    # the marked-class index lists S_8 too: a class sum and a coefficient
    # read back
    n = 8
    marked = Partition((3, 2, 2, 1)), 2
    g = class_sum(*marked).scale(2)
    assert len(g) == marked_class_size(*marked)
    assert extract_marked_coefficient(g, *marked) == 2
    assert extract_marked_coefficient(g, Partition((n,)), n) == 0


def test_idempotents_at_n_8_take_the_class_product(class_products) -> None:
    taken = class_products
    n = 8
    mu, j = random.Random(2023).choice(_marked(n))
    oracle._z1_idempotent_cached.cache_clear()
    gamma = z1_idempotent(mu, j)
    assert len(taken) == 1
    scale = Fraction(math.factorial(n), dimension(mu))
    row = {
        MarkedPartition(lam, i): scale * extract_marked_coefficient(gamma, lam, i)
        for lam, i in _marked(n)
    }
    assert row == genchar_row(mu, j)


def test_products_past_the_oracle_limit_list_no_group(listed_groups) -> None:
    # J_12 and J_11 are built without a guard, so their product must be the
    # literal one: an index of S_12 would hold 479,001,600 permutations
    listed = listed_groups
    n = 12
    got = ga_multiply(jm_element(n, n), jm_element(n - 1, n))
    assert listed == []
    want = Counter(
        Permutation.transposition(a, n, n) * Permutation.transposition(b, n - 1, n)
        for a in range(1, n)
        for b in range(1, n - 1)
    )
    assert got == GroupAlgebraElement(n, want)
    # nor is S_12 listed to read a coefficient back
    with pytest.raises(GuardExceeded, match="at n=12 exceeds the limit n <= 9"):
        extract_marked_coefficient(got, Partition((3,) + (1,) * 9), 3)
    assert listed == []


def test_jm_elements() -> None:
    assert jm_element(2, 2) == GroupAlgebraElement.from_permutation(_perm(2, 1))
    j3 = jm_element(3, 3)
    assert sorted(p.images for p in j3.support()) == [(1, 3, 2), (3, 2, 1)]
    for n in range(2, 8):
        assert jm_element(n, n) == class_sum(Partition((2,) + (1,) * (n - 2)), 2)
    with pytest.raises(DomainError):
        jm_element(1, 3)


def test_central_idempotent_coefficients() -> None:
    for n in (2, 3, 4):
        triv = central_idempotent(Partition((n,)))
        sign = central_idempotent(Partition((1,) * n))
        fact = math.factorial(n)
        for pi in triv.support():
            assert triv.coefficient(pi) == Fraction(1, fact)
        for pi in sign.support():
            parity = (-1) ** (n - len(pi.cycle_type().parts))
            assert sign.coefficient(pi) == Fraction(parity, fact)
    x = central_idempotent(Partition((2, 1)))
    assert ga_multiply(x, x) == x


def test_central_idempotents_orthogonal_and_complete() -> None:
    for n in (2, 3, 4):
        shapes = enumerate_partitions(n)
        idems = [central_idempotent(lam) for lam in shapes]
        total = GroupAlgebraElement.zero(n)
        for a, x in zip(shapes, idems):
            total = total + x
            for b, y in zip(shapes, idems):
                expected = x if a == b else GroupAlgebraElement.zero(n)
                assert ga_multiply(x, y) == expected
        assert total == GroupAlgebraElement.one(n)


# hand expansion: Gamma^{(2,1),2} = (1/6)(2e - 2(12) + (13) + (23) - (123) - (132))
# and Gamma^{(2,1),1} the same with the signs of (12),(13),(23) flipped
def test_z1_idempotents_frozen_s3_expansion() -> None:
    sixth = Fraction(1, 6)
    expected_2 = GroupAlgebraElement(
        3,
        {
            _perm(1, 2, 3): 2 * sixth,
            _perm(2, 1, 3): -2 * sixth,
            _perm(3, 2, 1): sixth,
            _perm(1, 3, 2): sixth,
            _perm(2, 3, 1): -sixth,
            _perm(3, 1, 2): -sixth,
        },
    )
    expected_1 = GroupAlgebraElement(
        3,
        {
            _perm(1, 2, 3): 2 * sixth,
            _perm(2, 1, 3): 2 * sixth,
            _perm(3, 2, 1): -sixth,
            _perm(1, 3, 2): -sixth,
            _perm(2, 3, 1): -sixth,
            _perm(3, 1, 2): -sixth,
        },
    )
    assert z1_idempotent(Partition((2, 1)), 2) == expected_2
    assert z1_idempotent(Partition((2, 1)), 1) == expected_1


def test_z1_idempotent_structure() -> None:
    for n in (2, 3, 4):
        jn = jm_element(n, n)
        total = GroupAlgebraElement.zero(n)
        for lam in enumerate_partitions(n):
            partial = GroupAlgebraElement.zero(n)
            for i in sorted(set(lam.parts)):
                gamma = z1_idempotent(lam, i)
                assert ga_multiply(gamma, gamma) == gamma
                assert is_near_central(gamma)
                from nearcentral import marked_content

                eig = marked_content(lam, i)
                assert ga_multiply(jn, gamma) == gamma.scale(Fraction(eig))
                partial = partial + gamma
            assert partial == central_idempotent(lam)
            total = total + partial
        assert total == GroupAlgebraElement.one(n)
    assert ga_multiply(
        z1_idempotent(Partition((2, 1)), 2), z1_idempotent(Partition((2, 1)), 1)
    ) == GroupAlgebraElement.zero(3)


def test_a_cached_idempotent_cannot_be_rewritten() -> None:
    # every caller gets the same cached element, so one assignment would
    # change what all later callers read
    gamma = z1_idempotent(Partition((2, 1)), 2)
    with pytest.raises(AttributeError, match="^GroupAlgebraElement is immutable$"):
        gamma._den = 7
    again = z1_idempotent(Partition((2, 1)), 2)
    assert again.coefficient(_perm(1, 2, 3)) == Fraction(1, 3)


def test_extract_marked_coefficient() -> None:
    k = class_sum(Partition((2, 1)), 2)
    assert extract_marked_coefficient(k, Partition((2, 1)), 2) == 1
    assert extract_marked_coefficient(k, Partition((2, 1)), 1) == 0
    j3sq = ga_multiply(jm_element(3, 3), jm_element(3, 3))
    assert extract_marked_coefficient(j3sq, Partition((1, 1, 1)), 1) == 2
    assert extract_marked_coefficient(j3sq, Partition((2, 1)), 2) == 0
    assert extract_marked_coefficient(j3sq, Partition((3,)), 3) == 1
    # (1,3) alone is not constant on its marked class {(1,3), (2,3)}
    lone = GroupAlgebraElement.from_permutation(_perm(3, 2, 1))
    with pytest.raises(DomainError):
        extract_marked_coefficient(lone, Partition((2, 1)), 2)
    # constant on (2,1)@2, but holding one of the two 3-cycles: outside Z1(3)
    uneven = k + GroupAlgebraElement.from_permutation(_perm(2, 3, 1))
    with pytest.raises(DomainError, match="not constant on every marked class"):
        extract_marked_coefficient(uneven, Partition((2, 1)), 2)


def test_coefficients_are_exact() -> None:
    # a float would store its binary expansion, 0.1 as 3602879701896397/2^55
    one = GroupAlgebraElement.one(3)
    ident = Permutation.identity(3)
    for bad in (0.1, 1.0, "1/3"):
        with pytest.raises(TypeError, match="neither an int nor a Fraction"):
            GroupAlgebraElement(3, {ident: bad})
        with pytest.raises(TypeError):
            one.scale(bad)
        with pytest.raises(TypeError):
            one * bad
        with pytest.raises(TypeError):
            bad * one
        with pytest.raises(TypeError):
            GroupAlgebraElement.from_permutation(ident, bad)
    assert one.scale(Fraction(1, 10)).coefficient(ident) == Fraction(1, 10)
    assert (3 * one).coefficient(ident) == 3


def test_coefficient_refuses_another_degree() -> None:
    g = class_sum(Partition((2, 1)), 2)
    with pytest.raises(DomainError, match="does not live in S_3"):
        g.coefficient(Permutation.transposition(1, 2, 2))
    with pytest.raises(DomainError, match="does not live in S_3"):
        g.coefficient(Permutation.identity(4))
    assert g.coefficient(Permutation.transposition(1, 3, 3)) == 1


def test_extraction_matches_generalized_characters() -> None:
    for n in (2, 3, 4):
        fact = math.factorial(n)
        for mu, j in _marked(n):
            gamma = z1_idempotent(mu, j)
            scale = Fraction(fact, dimension(mu))
            for lam, i in _marked(n):
                got = scale * extract_marked_coefficient(gamma, lam, i)
                assert got == genchar(mu, j, lam, i)


def test_is_near_central() -> None:
    for lam, i in _marked(4):
        assert is_near_central(class_sum(lam, i))
    # (1,2) alone IS invariant here: it is the whole class C_{(2,1),1} of S_3
    assert is_near_central(GroupAlgebraElement.from_permutation(_perm(2, 1, 3)))
    assert not is_near_central(
        GroupAlgebraElement.from_permutation(_perm(3, 2, 1))
    )
    a = class_sum(Partition((2, 1, 1)), 2)
    b = class_sum(Partition((3, 1)), 3)
    assert is_near_central(ga_multiply(a, b))
    # equal coefficients on (1 3) and its conjugate (2 3) by (1 2), unequal ones
    t13 = Permutation.transposition(1, 3, 3)
    t23 = Permutation.transposition(2, 3, 3)
    assert is_near_central(
        GroupAlgebraElement(3, {t13: Fraction(-1, 2), t23: Fraction(-1, 2)})
    )
    assert not is_near_central(GroupAlgebraElement(3, {t13: 1, t23: Fraction(1, 2)}))


def test_jm_power_tables() -> None:
    def as_plain(n: int, r: int) -> dict[tuple[tuple[int, ...], int], Fraction]:
        return {
            (m.shape.parts, m.mark): v
            for m, v in jm_power_coefficients(n, r).items()
        }

    assert as_plain(3, 2) == {
        ((1, 1, 1), 1): Fraction(2),
        ((2, 1), 2): Fraction(0),
        ((2, 1), 1): Fraction(0),
        ((3,), 3): Fraction(1),
    }
    assert as_plain(3, 3) == {
        ((1, 1, 1), 1): Fraction(0),
        ((2, 1), 2): Fraction(3),
        ((2, 1), 1): Fraction(2),
        ((3,), 3): Fraction(0),
    }
    for n in (2, 3, 4):
        table = jm_power_coefficients(n, 0)
        for m, v in table.items():
            expected = 1 if m.shape.parts == (1,) * n else 0
            assert v == expected


def test_jm_power_mass() -> None:
    for n in (2, 3, 4, 5):
        for r in range(5):
            table = jm_power_coefficients(n, r)
            total = sum(
                marked_class_size(m.shape, m.mark) * v for m, v in table.items()
            )
            assert total == (n - 1) ** r


def test_star_factorization_enumeration() -> None:
    assert enumerate_star_factorizations(Permutation.from_cycles(3, [(2, 3)]), 3) == 3
    assert enumerate_star_factorizations(Permutation.from_cycles(3, [(1, 2)]), 3) == 2
    assert enumerate_star_factorizations(Permutation.identity(3), 3) == 0
    assert enumerate_star_factorizations(Permutation.identity(4), 2) == 3
    with pytest.raises(GuardExceeded):
        enumerate_star_factorizations(Permutation.identity(8), 10)
    # S_0 and S_1 have no star: only the empty sequence, giving the identity
    for n in (0, 1):
        assert enumerate_star_factorizations(Permutation.identity(n), 0) == 1
        assert enumerate_star_factorizations(Permutation.identity(n), 2) == 0


def test_star_enumeration_matches_jm_powers() -> None:
    for n in (2, 3, 4):
        for r in range(4):
            table = jm_power_coefficients(n, r)
            for m, v in table.items():
                sample = next(iter(class_sum(m.shape, m.mark).support()))
                assert enumerate_star_factorizations(sample, r) == v


def test_jm_evaluation_of_closed_form_rows_at_n4() -> None:
    cases = [
        (Partition((2, 1, 1)), 2),
        (Partition((4,)), 4),
        (Partition((3, 1)), 3),
    ]
    for lam, i in cases:
        f = table1_poly(lam, i)
        assert evaluate_asf_at_jm(f, 4) == class_sum(lam, i)


def test_run_verify_small() -> None:
    checks = run_verify(3)
    assert checks
    assert all(isinstance(line, str) for line in checks)


def test_run_verify_reports_a_broken_identity(monkeypatch) -> None:
    # one identity of the real suite broken: J_n acts on each marked
    # idempotent by its marked content, not by that plus 1
    monkeypatch.setattr(oracle, "marked_content", lambda lam, i: marked_content(lam, i) + 1)
    with pytest.raises(VerificationError) as failed:
        run_verify(3)
    assert failed.value.check == "marked idempotents diagonalize J_n @ n=2"
    # J_2 (id + (1 2))/2 against twice that: each side's own coefficients
    assert failed.value.lhs == "id: 1/2, (1 2): 1/2"
    assert failed.value.rhs == "id: 1, (1 2): 1"


def test_verification_error_shows_where_elements_differ() -> None:
    # at most 8 permutations in image-tuple order, a 0 where a side has no
    # term; other values, and elements of different degrees, keep str
    every = GroupAlgebraElement(4, {Permutation(p): 1 for p in itertools.permutations(range(1, 5))})
    failed = VerificationError("check", every, GroupAlgebraElement.zero(4))
    assert failed.lhs.startswith("id: 1, (3 4): 1, (2 3): 1, ")
    assert failed.lhs.endswith(", (1 2)(3 4): 1, … (16 more)")
    assert failed.rhs.startswith("id: 0, (3 4): 0, ") and failed.rhs.endswith(": 0, … (16 more)")
    apart = VerificationError("check", GroupAlgebraElement.zero(3), GroupAlgebraElement.zero(4))
    assert (apart.lhs, apart.rhs) == (
        "<group algebra element over S_3, 0 terms>",
        "<group algebra element over S_4, 0 terms>",
    )
    assert VerificationError("check", Fraction(1, 2), 3).lhs == "1/2"


def test_run_verify_is_refused_past_n6(monkeypatch) -> None:
    # refused before any n is verified; at the limit the suite starts, and
    # fails here on purpose, since a real run at n = 6 takes seconds
    def refuse(*args) -> None:
        raise AssertionError(f"verified {args}")

    monkeypatch.setattr(oracle, "enumerate_partitions", refuse)
    over = VERIFY_MAX_N + 1
    with pytest.raises(
        GuardExceeded, match=f"{math.factorial(over)} permutations of S_n at n={over} exceeds"
    ):
        run_verify(over)
    with pytest.raises(GuardExceeded, match="more than 10.18 permutations of S_n"):
        run_verify(10**6)
    with pytest.raises(AssertionError, match="verified"):
        run_verify(VERIFY_MAX_N)


def test_guards_reject_oversized_inputs() -> None:
    with pytest.raises(GuardExceeded):
        class_sum(Partition((12,)), 12)
    with pytest.raises(GuardExceeded):
        jm_power_coefficients(12, 2)
