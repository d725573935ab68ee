from __future__ import annotations

import copy
import functools
import itertools
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from nearcentral import (
    DomainError,
    GroupAlgebraElement,
    GuardExceeded,
    InconsistencyError,
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
    star_walk,
    table1_poly,
    table1_rows,
    z1_idempotent,
)
from nearcentral import oracle
from nearcentral.permutations import _composer


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


def test_one_composer_maps_p_to_p_q() -> None:
    # the one composition map of the package, for every pair of S_0, S_1,
    # S_2 and S_4 and for seeded pairs of S_7; in S_0 and S_1 it is the
    # identity, where itemgetter cannot compose
    pairs = [
        (p, q)
        for n in (0, 1, 2, 4)
        for p in itertools.permutations(range(1, n + 1))
        for q in itertools.permutations(range(1, n + 1))
    ]
    rng = random.Random(2035)
    sevens = [tuple(rng.sample(range(1, 8), 7)) for _ in range(400)]
    pairs += zip(sevens[::2], sevens[1::2])
    for p, q in pairs:
        assert _composer(q)(p) == tuple(p[x - 1] for x in q), (p, q)
        assert (Permutation(p) * Permutation(q)).images == tuple(p[x - 1] for x in q)


def _random_element(rng: random.Random, n: int, size: int) -> GroupAlgebraElement:
    support = rng.sample(list(itertools.permutations(range(1, n + 1))), size)
    terms = {}
    for images in support:
        numerator = rng.choice((-1, 1)) * rng.randint(1, 9)
        terms[Permutation(images)] = Fraction(numerator, rng.randint(1, 6))
    return GroupAlgebraElement(n, terms)


@functools.cache
def _listed_classes(n: int) -> tuple[tuple[Partition, int, tuple[tuple[int, ...], ...]], ...]:
    # the marked classes of S_n, listed here apart from the oracle's index:
    # (cycle type, cycle through n, members as image tuples), grouped from
    # the lexicographic listing of S_n; S_0 has no cycle through n
    classes: dict[tuple[Partition, int], list[tuple[int, ...]]] = {}
    for images in itertools.permutations(range(1, n + 1)):
        p = Permutation(images)
        through = p.cycle_length_through(n) if n else 0
        classes.setdefault((p.cycle_type(), through), []).append(images)
    return tuple((ctype, through, tuple(ms)) for (ctype, through), ms in classes.items())


@functools.cache
def _marked_members(n: int) -> tuple[tuple[Permutation, ...], ...]:
    return tuple(tuple(map(Permutation, ms)) for _, _, ms in _listed_classes(n))


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
    # one positive denominator, coprime to the numerators, and no zero stored;
    # class values, where held, one per marked class and coprime to it too
    assert g._den > 0
    if g._values:
        assert len(g._values) == len(oracle._marked_index(g.n))
        assert math.gcd(g._den, *g._values) == 1
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
            # held as class values only: a class sum, an idempotent, their
            # sums and multiples, and their class-path products
            mu, j = rng.choice(_marked(n))
            k, gamma = class_sum(mu, j).scale(Fraction(-4, 6)), z1_idempotent(mu, j)
            made += [k, gamma, k + gamma, gamma - gamma, gamma.scale(Fraction(6, 5)), zero + k]
            made += [ga_multiply(gamma, k), ga_multiply(gamma, a)]
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


def test_the_class_product_is_the_literal_product() -> None:
    # the class values the class product counts, written back, are the
    # literal product, with either factor the smaller
    rng = random.Random(2028)
    for n in range(2, 8):
        classes = oracle._marked_index(n)
        for _ in range(3):
            a = _near_central_element(rng, n, 150)
            b = _near_central_element(rng, n, 150)
            va, vb = oracle._class_values(a), oracle._class_values(b)
            assert len(va) == len(vb) == len(classes)
            want = _literal_product(a, b)
            for args in [(a, b, va, vb), (b, a, vb, va)]:
                got = oracle._from_class_values(n, oracle._class_product(n, *args), a._den * b._den)
                assert got == want and dict(got.items()) == dict(want.items())


def _class_built(rng: random.Random, n: int) -> list:
    # makers of near-central elements built in class coordinates: a seeded
    # signed sum of class sums, a scaled central and a scaled marked
    # idempotent (fresh elements, not the cached ones), zero and one
    marked = _marked(n)
    picks = rng.sample(marked, min(3, len(marked)))
    coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)) for _ in picks]
    (lam, _), (mu, j) = rng.choice(marked), rng.choice(marked)
    zero = GroupAlgebraElement.zero
    return [
        lambda: sum((class_sum(*m).scale(c) for m, c in zip(picks, coeffs)), zero(n)),
        lambda: central_idempotent(lam).scale(Fraction(-7, 3)),
        lambda: z1_idempotent(mu, j).scale(2),
        lambda: zero(n),
        lambda: GroupAlgebraElement.one(n),
    ]


def test_class_values_and_terms_agree() -> None:
    # each element once as built in class coordinates and once rebuilt
    # literally from its terms: every reading and every operation agrees
    # across the two forms
    rng = random.Random(2030)
    for n in range(2, 8):
        makers = _class_built(rng, n)
        built = [make() for make in makers]
        assert built[0]._perms is None and built[1]._perms is None
        literal = [GroupAlgebraElement(n, dict(make().items())) for make in makers]
        forms = list(zip(built, literal))
        for g, lit in forms:
            assert g == lit and lit == g
            assert (len(g), bool(g)) == (len(lit), bool(lit))
            for s in (0, -1, Fraction(3, 4)):
                assert g.scale(s) == lit.scale(s)
            for mu, j in _marked(n):
                want = extract_marked_coefficient(lit, mu, j)
                assert extract_marked_coefficient(g, mu, j) == want
        for (g, lit), (h, other) in itertools.product(forms, repeat=2):
            for x, y in [(g, h), (g, other), (lit, h), (lit, other)]:
                assert x + y == lit + other == g + h
                assert x - y == lit - other == g - h
                assert ga_multiply(x, y) == ga_multiply(lit, other) == ga_multiply(g, h)
                assert dict(ga_multiply(x, y).items()) == dict(ga_multiply(lit, other).items())
        # read last, as a permutation read expands the class values
        perms = list(map(Permutation, itertools.permutations(range(1, n + 1))))
        for g, lit in forms:
            assert [g.coefficient(p) for p in perms] == [lit.coefficient(p) for p in perms]
            assert dict(g.items()) == dict(lit.items())
            assert g == lit and len(g) == len(lit)


def test_class_valued_elements_expand_no_terms(monkeypatch, class_products) -> None:
    # `len`, `bool`, `==`, sums, multiples, class reads and class-path
    # products of elements held as class values list no permutation; the
    # first permutation read expands them, once
    n = 6
    gamma = central_idempotent(Partition((3, 2, 1)))
    k = class_sum(Partition((3, 2, 1)), 2).scale(Fraction(1, 3))
    rebuilt = GroupAlgebraElement(n, dict(central_idempotent(Partition((3, 2, 1))).items()))
    expanded = []
    class_terms = oracle._class_terms

    def spy(n, values):
        expanded.append(n)
        return class_terms(n, values)

    monkeypatch.setattr(oracle, "_class_terms", spy)
    assert (len(gamma), bool(gamma), bool(k.scale(0))) == (len(rebuilt), True, False)
    assert gamma == rebuilt and rebuilt == gamma and gamma != k
    total = gamma + k - gamma.scale(2) + GroupAlgebraElement.zero(n) - (-k)
    product = ga_multiply(gamma, total)
    assert len(class_products) == 1
    assert product == ga_multiply(gamma, k).scale(2) - gamma
    assert ga_multiply(gamma, gamma) == gamma
    gk = ga_multiply(gamma, k)
    read = [extract_marked_coefficient(x, Partition((3, 2, 1)), 2) for x in (product, gk, gamma)]
    assert read[0] == 2 * read[1] - read[2]
    assert repr(product) == "<group algebra element over S_6, 450 terms>"
    assert expanded == []
    identity = Permutation.identity(n)
    assert product.coefficient(identity) == product.coefficient(identity)
    assert expanded == [n]


@pytest.fixture
def counted_columns(monkeypatch) -> list:
    # every (n, x) whose structure constants from class x are counted, in
    # order, starting from none counted
    counted = []
    count = oracle._constants_from.__wrapped__

    def spy(n, x):
        counted.append((n, x))
        return count(n, x)

    monkeypatch.setattr(oracle, "_constants_from", functools.cache(spy))
    return counted


def test_idempotents_count_each_column_once(counted_columns, class_products) -> None:
    # the one class product of a cold z1_idempotent at n = 6 counts the
    # columns of the classes where its smaller factor is nonzero, and no
    # later idempotent counts a column again; the central idempotents, whose
    # operators hold the columns their products summed, start cold too
    n = 6
    classes = oracle._marked_index(n)
    oracle._central_idempotent_cached.cache_clear()
    for mu, j in _marked(n):
        oracle._z1_idempotent_cached.cache_clear()
        class_products.clear()
        before = set(counted_columns)
        gamma = z1_idempotent(mu, j)
        assert len(class_products) == 1
        _, a, b, va, vb = class_products[0]
        smaller = va if len(a) <= len(b) else vb
        nonzero = {(n, x) for x, v in enumerate(smaller) if v}
        assert set(counted_columns) - before <= nonzero <= set(counted_columns)
        # the smaller factor is the idempotent of S_{n-1}, on classes fixing n
        assert all(classes[x][1] == 1 for _, x in nonzero)
        scale = Fraction(math.factorial(n), dimension(mu))
        assert scale * extract_marked_coefficient(gamma, mu, j) == genchar(mu, j, mu, j)
    oracle._z1_idempotent_cached.cache_clear()
    assert len(counted_columns) == len(set(counted_columns))


def test_sparse_products_list_no_group(listed_groups) -> None:
    # J_8 and J_7 of S_9 have 7 and 6 terms, fewer than the 67 marked classes
    # of 9, so their product is the literal one and S_9 is not listed
    assert oracle._marked_count(9) == 67
    a, b = jm_element(8, 9), jm_element(7, 9)
    got = ga_multiply(a, b)
    assert listed_groups == []
    assert got == _literal_product(a, b)


def test_jm_polynomials_list_no_group(listed_groups) -> None:
    # zero and one keep their one term or none, so the Table 1 rows at n = 9,
    # sums and multiples of sparse Jucys-Murphy products, list no S_9
    for _, poly in itertools.islice(table1_rows(9), 5):
        assert evaluate_asf_at_jm(poly, 9)
    assert listed_groups == []


def test_the_index_groups_the_listing_of_s_n() -> None:
    # the walk's classes and members, in order, are those of S_n listed
    # lexicographically and grouped by cycle type and the cycle through n
    for n in range(0, 8):
        assert oracle._marked_index(n) == _listed_classes(n)


def _constant_rows(n: int, x: int) -> list[Counter]:
    # the structure constants from class x, row by row, each row the
    # multiset of its (y, count) pairs, read from the flat format
    pick, counts, ends, starts = oracle._constants_from.__wrapped__(n, x)
    places = range(len(counts) + 1)
    ys = pick(range(len(oracle._marked_index(n))))
    return [
        Counter(zip(ys[start:end], counts[start:end]))
        for start, end in zip(starts(places), ends(places))
    ]


def test_columns_are_the_literal_counts() -> None:
    # every row C of every column x is #{p in class x : p k in class y} for
    # the first member k of class C, counted here over all members of x,
    # whichever class of the pair the oracle composed over
    for n in range(2, 8):
        classes = _listed_classes(n)
        class_of = {p: c for c, (_, _, members) in enumerate(classes) for p in members}
        for x, (_, _, members) in enumerate(classes):
            want = []
            for _, _, (k, *_) in classes:
                row = Counter(class_of[tuple(p[v - 1] for v in k)] for p in members)
                want.append(Counter(row.items()))
            assert _constant_rows(n, x) == want, (n, x)


def test_each_pair_of_classes_is_counted_once(monkeypatch) -> None:
    # all 19 columns of n = 6 count each unordered pair of its marked
    # classes once, the diagonal included, over the smaller class of the
    # pair (the lower index on a tie)
    n = 6
    sizes = oracle._class_sizes(n)
    counted = []
    count = oracle._pair_counts.__wrapped__

    def spy(n, small, large):
        counted.append((small, large))
        return count(n, small, large)

    monkeypatch.setattr(oracle, "_pair_counts", functools.cache(spy))
    for x in range(len(sizes)):
        oracle._constants_from.__wrapped__(n, x)
    assert len(sizes) == 19 and len(counted) == 190
    assert set(counted) == {
        tuple(sorted((x, c), key=lambda at: (sizes[at], at)))
        for x, c in itertools.combinations_with_replacement(range(19), 2)
    }


def test_a_pair_count_that_does_not_divide_is_refused(monkeypatch) -> None:
    # a row read across from the smaller class of its pair is scaled by
    # |x| / |C|, exactly: a count that does not divide is an inconsistency,
    # not a truncated constant
    n = 4
    sizes = oracle._class_sizes(n)
    x, c = next(
        (x, c)
        for x, c in itertools.permutations(range(len(sizes)), 2)
        if (sizes[c], c) < (sizes[x], x) and sizes[x] % sizes[c]
    )
    monkeypatch.setattr(oracle, "_pair_counts", lambda *_: ((0,), (1,)))
    with pytest.raises(InconsistencyError, match="is not a multiple of"):
        oracle._constants_from.__wrapped__(n, x)


def test_the_marks_of_a_shape_share_its_central_idempotent(class_products) -> None:
    # each marked idempotent of a shape is the product of one cached central
    # idempotent of the shape, the larger factor, so that element keeps the
    # operator columns of every mark's product; a public central idempotent
    # is a fresh element holding none
    lam = Partition((3, 2, 1))
    oracle._central_idempotent_cached.cache_clear()
    oracle._z1_idempotent_cached.cache_clear()
    central = oracle._central_idempotent_cached(lam)
    summed = set()
    for i in sorted(set(lam.parts)):
        class_products.clear()
        z1_idempotent(lam, i)
        ((_, a, b, _, vb),) = class_products
        assert a is central and len(b) < len(a)
        summed |= {x for x, v in enumerate(vb) if v}
    assert set(central._operator) == summed
    fresh = central_idempotent(lam)
    assert fresh == central and fresh is not central and fresh._operator is None


def test_a_factor_keeps_its_operator(counted_columns) -> None:
    # the larger factor keeps the columns of its operator for the classes
    # where the smaller one is nonzero, so a repeated product counts and
    # builds nothing; equality and copies leave the columns out
    n = 6
    gamma = central_idempotent(Partition((3, 2, 1)))
    swap, cycle = class_sum(Partition((2, 1, 1, 1, 1)), 2), class_sum(Partition((6,)), 6)
    assert gamma._operator is None
    first = ga_multiply(swap, gamma)
    x = oracle._class_values(swap).index(1)
    assert list(gamma._operator) == [x] and swap._operator is None
    column = gamma._operator[x]
    assert ga_multiply(cycle, gamma) == _literal_product(cycle, gamma)
    assert len(gamma._operator) == 2
    counted = list(counted_columns)
    assert ga_multiply(gamma, swap) == first == _literal_product(swap, gamma)
    assert counted_columns == counted and gamma._operator[x] is column
    fresh = central_idempotent(Partition((3, 2, 1)))
    assert fresh == gamma and gamma == fresh
    copied = pickle.loads(pickle.dumps(gamma))
    assert copied._operator is None and copied == gamma
    assert copy.copy(gamma)._operator is None


def test_class_values_are_near_central_by_the_index(monkeypatch) -> None:
    # an element holding class values is near-central when every class of
    # the index is closed under conjugation by each (k k+1), checked once
    # per n and read without expanding a term; an index with a member moved
    # to another class fails that check
    gamma = z1_idempotent(Partition((3, 2, 1)), 2).scale(3)
    assert is_near_central(gamma) and gamma._perms is None
    assert is_near_central(GroupAlgebraElement(6, dict(gamma.items())))
    index = oracle._marked_index(4)
    # (2 1 1)@2 holds (3 4) and (2 4), conjugate by (2 3)
    (c1, t1, m1), (c2, t2, m2) = index[1:3]
    assert (c1, t1) == (Partition((2, 1, 1)), 2) and m1[0] == (1, 2, 4, 3)
    moved = ((c1, t1, m1[1:]), (c2, t2, m2 + m1[:1]))
    monkeypatch.setattr(oracle, "_marked_index", lambda n: index[:1] + moved + index[3:])
    assert not oracle._index_is_closed.__wrapped__(4)
    monkeypatch.undo()
    assert all(oracle._index_is_closed.__wrapped__(n) for n in range(0, 8))


def test_marked_classes_hold_the_inverse_of_each_member() -> None:
    # the class product reads a(p) for a(p^-1): p^-1 is in the class of p
    for n in range(0, 8):
        for _, _, members in oracle._marked_index(n):
            assert {Permutation(p).inverse().images for p in members} == set(members)


def test_near_central_elements_commute(monkeypatch) -> None:
    # the class product swaps its factors so that x runs over the classes of
    # the smaller support; checked here on the literal product
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
                values = oracle._class_values(h)
                assert (values is not None) == near
                assert values is None or len(values) == len(index)
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
    with pytest.raises(GuardExceeded, match="at n=12; the limit is n <= 9"):
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


def test_a_cached_idempotent_cannot_be_edited_in_place() -> None:
    # the terms are read through a read-only view and the class values are a
    # tuple, so no caller can change what a later caller reads
    with pytest.raises(TypeError):
        z1_idempotent(Partition((2, 1)), 2)._terms[(1, 2, 3)] = 7
    again = z1_idempotent(Partition((2, 1)), 2)
    assert again.coefficient(_perm(1, 2, 3)) == Fraction(1, 3)
    # an idempotent of S_4 made by the class product holds a tuple of class
    # values until its terms are first read, then the same read-only view
    gamma = z1_idempotent(Partition((3, 1)), 3)
    assert isinstance(gamma._values, tuple)
    with pytest.raises(TypeError):
        gamma._terms[(1, 2, 3, 4)] = 7
    again = z1_idempotent(Partition((3, 1)), 3)
    assert again.coefficient(Permutation.identity(4)) == Fraction(1, 4)


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


def test_scalars_multiply_from_either_side() -> None:
    # the Table 1 rows scale Jucys-Murphy elements from the left
    # (`evaluate_asf_at_jm`); anything but an element, an int or a Fraction is
    # left to the other operand, which refuses it too
    g = class_sum(Partition((2, 1)), 2) + GroupAlgebraElement.one(3)
    assert 3 * g == g * 3 == g.scale(3)
    assert Fraction(1, 2) * g == g.scale(Fraction(1, 2))
    for operate in (
        lambda: "x" * g, lambda: g * "x", lambda: g + 1, lambda: g - 1, lambda: 1 - g
    ):
        with pytest.raises(TypeError):
            operate()


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


def test_jm_powers_at_n_9_match_the_star_walk() -> None:
    # past its first literal products J_9^r is held as class values, so each
    # step is one class product: r <= 6 against the integer walk, which
    # counts each class as a whole
    walk = star_walk(9, 6)
    for r in range(7):
        table = jm_power_coefficients(9, r)
        counts = {mp: c * marked_class_size(mp.shape, mp.mark) for mp, c in table.items()}
        assert {mp: c for mp, c in counts.items() if c} == walk[r]


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
    # S_2 has the one star (1 2), so a sequence of length r gives s^r; the
    # walk keeps a stack, not one Python frame per star
    s = Permutation.transposition(1, 2, 2)
    assert enumerate_star_factorizations(Permutation.identity(2), 2000) == 1
    assert enumerate_star_factorizations(s, 2000) == 0
    assert enumerate_star_factorizations(s, 2001) == 1
    # S_0 and S_1 have no star: only the empty sequence, giving the identity
    for n in (0, 1):
        counts = [enumerate_star_factorizations(Permutation.identity(n), r) for r in range(4)]
        assert counts == [1, 0, 0, 0]


def test_star_enumeration_matches_jm_powers() -> None:
    for n in range(2, 8):
        walk = star_walk(n, 4)
        for r in range(5):
            table = jm_power_coefficients(n, r)
            for m, v in table.items():
                sample = next(iter(class_sum(m.shape, m.mark).support()))
                assert enumerate_star_factorizations(sample, r) == v, (n, r, m)
                assert walk[r].get(m, 0) == v * marked_class_size(m.shape, m.mark)
    # and the refusal names the sequences it would walk
    with pytest.raises(GuardExceeded) as refused:
        enumerate_star_factorizations(Permutation.identity(8), 9)
    assert str(refused.value) == (
        "star enumeration of length 9 walks 40353607 sequences; "
        "the limit is sequences <= 10000000"
    )


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


def test_run_verify_names_the_marked_classes_of_a_broken_identity(
    monkeypatch, class_products
) -> None:
    # broken at n = 3 only, where J_3 times the idempotent of (3)@3 takes the
    # class path: both sides hold class values, so the mismatch is listed by
    # marked class, each with both coefficients
    monkeypatch.setattr(
        oracle, "marked_content", lambda lam, i: marked_content(lam, i) + (lam.n == 3)
    )
    with pytest.raises(VerificationError) as failed:
        run_verify(3)
    assert failed.value.check == "marked idempotents diagonalize J_n @ n=3"
    assert class_products
    assert failed.value.lhs == "1,1,1@1: 1/3, 2,1@2: 1/3, 2,1@1: 1/3, 3@3: 1/3"
    assert failed.value.rhs == "1,1,1@1: 1/2, 2,1@2: 1/2, 2,1@1: 1/2, 3@3: 1/2"
    # a class where the two agree is left out
    k = class_sum(Partition((2, 1)), 2)
    one = k + GroupAlgebraElement.one(3) - k
    apart = VerificationError("check", k + one.scale(2), k.scale(Fraction(1, 2)) + one)
    assert (apart.lhs, apart.rhs) == ("1,1,1@1: 2, 2,1@2: 1", "1,1,1@1: 1, 2,1@2: 1/2")


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


def test_run_verify_is_refused_past_its_limit(monkeypatch) -> None:
    # refused before any n is verified; at the limit the suite starts, and
    # fails here on purpose, since a real run at n = 7 takes seconds
    def refuse(*args) -> None:
        raise AssertionError(f"verified {args}")

    monkeypatch.setattr(oracle, "enumerate_partitions", refuse)
    over = VERIFY_MAX_N + 1
    with pytest.raises(
        GuardExceeded, match=f"{math.factorial(over)} permutations of S_n at n={over}; the limit"
    ):
        run_verify(over)
    with pytest.raises(GuardExceeded, match="more than 10.2567 permutations of S_n"):
        run_verify(10**6)
    with pytest.raises(AssertionError, match="verified"):
        run_verify(VERIFY_MAX_N)


def test_guards_reject_oversized_inputs() -> None:
    with pytest.raises(GuardExceeded):
        class_sum(Partition((12,)), 12)
    with pytest.raises(GuardExceeded):
        jm_power_coefficients(12, 2)
