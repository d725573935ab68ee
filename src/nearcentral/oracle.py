"""Brute-force verifier working directly in the group algebra of S_n.

Everything here is computed from first principles: permutations as tuples of
images, algebra elements as literal dictionaries of integer numerators keyed
by those tuples over one common denominator, idempotents as explicit
character sums over the whole group.  Factorial cost throughout, so every
entry point that lists S_n or S_{n-1} refuses n past the fixed
`ORACLE_MAX_N` = 9; the point is to be an independent ground truth for the
closed-form code.

Beside the group algebra, `star_walk` recounts star factorizations as an
integer walk over marked cycle types, cheap far past where S_n can be
listed, so the spectral counts have a check above n = 7; and
`genchar_strahov` recomputes generalized characters as a character sum over
S_{n-1}, with no idempotent built.

One cached index lists the marked classes of S_n (the S_{n-1}-conjugacy
classes) as image tuples and nothing else, for every n up to
`ORACLE_MAX_N`.  Their class sums are a basis of Z1(n), the elements that
commute with S_{n-1}: `_class_values` reads such an element's numerator on
each class, and `_from_class_values` writes the element back from them.
Z1(n) is closed under products, so `ga_multiply` sums a product in it at
one member per marked class; as Z1(n) is commutative and a marked class
holds the inverse of each member, no inverse is formed.  Every other
product composes image tuples term by term, with one `operator.itemgetter`
per right-hand permutation; the tests compare the class path with it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .characters import chi
from .errors import DomainError, GuardExceeded
from .genchar import JMVariables, Row, _common_order, _marked_count, genchar, table1_rows
from .partitions import (
    MarkedPartition,
    Partition,
    _Value,
    _check_int,
    _check_mark,
    _check_order,
    decrement_part,
    enumerate_marked_partitions,
    enumerate_partitions,
    marked_class_size,
)
from .permutations import Permutation, cycle_length_through, cycle_lengths
from .tableaux import dimension, marked_content

__all__ = [
    "ORACLE_MAX_N",
    "Permutation",
    "GroupAlgebraElement",
    "ga_multiply",
    "class_sum",
    "jm_element",
    "central_idempotent",
    "z1_idempotent",
    "extract_marked_coefficient",
    "is_near_central",
    "jm_power_coefficients",
    "enumerate_star_factorizations",
    "star_walk",
    "genchar_strahov",
    "evaluate_asf_at_jm",
    "VERIFY_MAX_N",
    "VerificationError",
    "run_verify",
]

# largest n whose group the oracle lists: S_9 has 362,880 permutations,
# about the most pure Python enumerates in reasonable time
ORACLE_MAX_N = 9

# largest n `run_verify` checks: each n costs about 10 times the one before
VERIFY_MAX_N = 6

# most star sequences `enumerate_star_factorizations` walks one by one
_STAR_SEQUENCES_MAX = 10**7


def check_guard(n: int, limit: int, what: str) -> None:
    """Raise GuardExceeded when n is past limit."""
    if n > limit:
        raise GuardExceeded(f"{what} at n={n} exceeds the limit n <= {limit}")


def _exact(c: Fraction | int) -> Fraction:
    # coefficients are exact: a float would store its binary expansion
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient {c!r} is neither an int nor a Fraction")
    return Fraction(c)


def _images_in(perm: Permutation, n: int) -> tuple[int, ...]:
    if perm.n != n:
        raise DomainError(f"{perm!r} does not live in S_{n}")
    return perm.images


class GroupAlgebraElement(_Value):
    """A formal rational linear combination of permutations of fixed degree.

    Stored as integer numerators keyed by image tuples over one positive
    denominator, in lowest terms: the denominator and the numerators have
    gcd 1 and no zero numerator is kept, so equality compares the parts.
    A coefficient becomes a Fraction only when it is read.  Coefficients and
    scalars must be ints or Fractions: a float raises TypeError.
    """

    __slots__ = ("_n", "_terms", "_den")

    def __init__(self, n: int, terms: Mapping[Permutation, Fraction | int] = ()):
        _check_int(n, "n")
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for perm, coeff in dict(terms).items():
            coeffs[_images_in(perm, n)] = _exact(coeff)
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        numerators = {p: c.numerator * (den // c.denominator) for p, c in coeffs.items()}
        self._set(n, numerators, den)

    def _set(self, n: int, terms: dict[tuple[int, ...], int], den: int) -> None:
        # the numerators `terms` over den > 0, brought to lowest terms
        common = math.gcd(den, *terms.values())
        _set_n(self, n)
        _set_terms(self, {p: v // common for p, v in terms.items() if v})
        _set_den(self, den // common)

    @classmethod
    def _make(
        cls, n: int, terms: dict[tuple[int, ...], int], den: int = 1
    ) -> "GroupAlgebraElement":
        self = object.__new__(cls)
        self._set(n, terms, den)
        return self

    @classmethod
    def zero(cls, n: int) -> "GroupAlgebraElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "GroupAlgebraElement":
        return cls(n, {Permutation.identity(n): 1})

    @classmethod
    def from_permutation(
        cls, perm: Permutation, coeff: Fraction | int = 1
    ) -> "GroupAlgebraElement":
        return cls(perm.n, {perm: coeff})

    @property
    def n(self) -> int:
        return self._n

    def coefficient(self, perm: Permutation) -> Fraction:
        return Fraction(self._terms.get(_images_in(perm, self._n), 0), self._den)

    def items(self) -> Iterator[tuple[Permutation, Fraction]]:
        den, perm = self._den, Permutation.unchecked
        return ((perm(p), Fraction(v, den)) for p, v in self._terms.items())

    def support(self) -> Iterator[Permutation]:
        return map(Permutation.unchecked, self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupAlgebraElement)
            and self._n == other._n
            and self._den == other._den
            and self._terms == other._terms
        )

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        if self._n != other._n:
            raise DomainError("cannot add elements of different group algebras")
        den = math.lcm(self._den, other._den)
        mine, theirs = den // self._den, den // other._den
        out = {p: v * mine for p, v in self._terms.items()}
        for p, v in other._terms.items():
            out[p] = out.get(p, 0) + v * theirs
        return GroupAlgebraElement._make(self._n, out, den)

    def __neg__(self) -> "GroupAlgebraElement":
        return self.scale(-1)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return ga_multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, scalar: Fraction | int) -> "GroupAlgebraElement":
        c = _exact(scalar)
        num, den = c.numerator, self._den * c.denominator
        return GroupAlgebraElement._make(
            self._n, {p: num * v for p, v in self._terms.items()}, den
        )

    def __repr__(self) -> str:
        return f"<group algebra element over S_{self._n}, {len(self._terms)} terms>"


# the slots' own setters, as in `partitions`: `_set` is the one writer
_set_n = GroupAlgebraElement._n.__set__
_set_terms = GroupAlgebraElement._terms.__set__
_set_den = GroupAlgebraElement._den.__set__


_Classes = tuple[tuple[Partition, int, tuple[tuple[int, ...], ...]], ...]


@cache
def _marked_index(n: int) -> _Classes:
    # (cycle type, length of the cycle through n, members as image tuples)
    # for each marked class of S_n, in the order its first member comes in
    # the lexicographic listing of S_n; kept for the life of the process, so
    # at n = ORACLE_MAX_N = 9 it holds all 362,880 permutations (about a
    # second and 44 MB to build)
    grouped: dict[tuple[tuple[int, ...], int], list[tuple[int, ...]]] = {}
    for images in itertools.permutations(range(1, n + 1)):
        # S_0 holds only the empty permutation, with no cycle through n
        through = cycle_length_through(images, n) if n else 0
        grouped.setdefault((cycle_lengths(images), through), []).append(images)
    return tuple(
        (Partition.unchecked(parts), through, tuple(members))
        for (parts, through), members in grouped.items()
    )


def _class_values(terms: dict[tuple[int, ...], int], classes: _Classes) -> list[int] | None:
    # the numerator of `terms` on each marked class, in the order of
    # `classes`, or None when `terms` is not constant on every class, that
    # is, when it does not commute with S_{n-1}: a class is touched when its
    # first member is present, and the touched classes must hold every term
    values, held = [], 0
    for _, _, members in classes:
        c = terms.get(members[0], 0)
        if c:
            if any(terms.get(p) != c for p in members):
                return None
            held += len(members)
        values.append(c)
    return values if held == len(terms) else None


def _from_class_values(
    n: int, classes: _Classes, values: Iterable[int], den: int
) -> GroupAlgebraElement:
    # the element taking the numerator values[k] over den on every member of
    # the k-th marked class
    terms: dict[tuple[int, ...], int] = {}
    for (_, _, members), v in zip(classes, values):
        if v:
            terms.update(dict.fromkeys(members, v))
    return GroupAlgebraElement._make(n, terms, den)


def _class_product(
    ta: dict[tuple[int, ...], int], tb: dict[tuple[int, ...], int], classes: _Classes
) -> list[int]:
    # a product of elements that commute with S_{n-1} commutes with it too,
    # so it is constant on each marked class: c(k) is summed at one member k
    # per class.  c(k) = sum_p a(p) b(p^-1 k) = sum_p a(p) b(p k) by
    # p -> p^-1, as a marked class holds the inverse of each member and a
    # takes one value on it; and such elements commute with each other, so
    # the factors are swapped to let p run over the smaller support
    if len(tb) < len(ta):
        ta, tb = tb, ta
    values = []
    for _, _, members in classes:
        # itemgetter(k(1)-1, .., k(n)-1) maps the images of p to those of p k
        at = itemgetter(*[x - 1 for x in members[0]])
        values.append(sum(ca * tb.get(at(p), 0) for p, ca in ta.items()))
    return values


def ga_multiply(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Product in the group algebra.

    For 2 <= n <= ORACLE_MAX_N, when the larger factor has more terms than
    S_n has marked classes and both commute with S_{n-1} (each is constant
    on every marked class), the product is summed at one member of each
    marked class and shared by the rest of the class: fewer term pairs than
    the literal len(a) * len(b).  That sum uses two facts of the algebra of
    such elements: it is commutative, so the smaller support is walked, and
    each marked class is closed under inversion, so c(k) = sum_p a(p) b(p k).
    Every other product is expanded term by term, and lists no class when
    neither factor has more terms than S_n has marked classes.  Either way
    the integer numerators are multiplied over the product of the two
    denominators.
    """
    if a.n != b.n:
        raise DomainError("cannot multiply elements of different group algebras")
    n, ta, tb = a.n, a._terms, b._terms
    den = a._den * b._den
    if n <= 1:
        # S_0 and S_1 hold only the identity, where itemgetter cannot compose:
        # it raises for no index and returns a bare int for one
        terms = {tuple(range(1, n + 1)): sum(ta.values()) * sum(tb.values())}
        return GroupAlgebraElement._make(n, terms, den)
    if (
        n <= ORACLE_MAX_N
        and max(len(ta), len(tb)) > _marked_count(n)
        and _class_values(ta, classes := _marked_index(n)) is not None
        and _class_values(tb, classes) is not None
    ):
        return _from_class_values(n, classes, _class_product(ta, tb, classes), den)
    terms = {}
    # itemgetter(q(1)-1, .., q(n)-1) maps the images of p to those of p * q
    right = [(itemgetter(*[x - 1 for x in q]), cb) for q, cb in tb.items()]
    for mine, ca in ta.items():
        for compose, cb in right:
            key = compose(mine)
            terms[key] = terms.get(key, 0) + ca * cb
    return GroupAlgebraElement._make(n, terms, den)


def class_sum(lam: Partition, i: int) -> GroupAlgebraElement:
    """Sum of all permutations with cycle type lam and n on an i-cycle."""
    _check_mark(lam, i)
    n = lam.n
    check_guard(n, ORACLE_MAX_N, "marked class enumeration")
    classes = _marked_index(n)
    values = [int(through == i and ctype == lam) for ctype, through, _ in classes]
    return _from_class_values(n, classes, values, 1)


def jm_element(k: int, n: int) -> GroupAlgebraElement:
    """The Jucys-Murphy element J_k: the sum of (i k) for i < k."""
    _check_int(n, "n", 2)
    _check_int(k, "Jucys-Murphy index", 2, n)
    terms = {Permutation.transposition(i, k, n).images: 1 for i in range(1, k)}
    return GroupAlgebraElement._make(n, terms)


def central_idempotent(lam: Partition) -> GroupAlgebraElement:
    """The primitive central idempotent of C[S_n] attached to lam."""
    n = lam.n
    check_guard(n, ORACLE_MAX_N, "central idempotent expansion")
    d = dimension(lam)
    classes = _marked_index(n)
    values = [d * chi(lam, ctype) for ctype, _, _ in classes]
    return _from_class_values(n, classes, values, math.factorial(n))


def z1_idempotent(lam: Partition, i: int) -> GroupAlgebraElement:
    """Primitive idempotent of the marked-class algebra for (lam, i).

    The product of the central idempotent for lam with the central
    idempotent for the reduced shape i_-(lam) of S_{n-1}, taken in S_n.
    """
    _check_mark(lam, i)
    n = lam.n
    check_guard(n, ORACLE_MAX_N, "marked idempotent expansion")
    return _z1_idempotent_cached(lam, i)


@cache
def _z1_idempotent_cached(lam: Partition, i: int) -> GroupAlgebraElement:
    n = lam.n
    reduced, classes = decrement_part(lam, i), _marked_index(n)
    # S_{n-1} fixes n: its class ctype less one 1 is the class (ctype, 1)
    d = dimension(reduced)
    values = [
        d * chi(reduced, decrement_part(ctype, 1)) if through == 1 else 0
        for ctype, through, _ in classes
    ]
    embedded = _from_class_values(n, classes, values, math.factorial(n - 1))
    return ga_multiply(central_idempotent(lam), embedded)


def extract_marked_coefficient(
    g: GroupAlgebraElement, mu: Partition, j: int
) -> Fraction:
    """The coefficient of g on the marked class (mu, j).

    Raises DomainError when g is not constant on every marked class, even
    if it is on (mu, j): g then lies outside the marked-class algebra.
    """
    n = g.n
    _check_order(n, mu)
    _check_mark(mu, j)
    check_guard(n, ORACLE_MAX_N, "marked coefficient read")
    return _marked_decomposition(g)[MarkedPartition(mu, j)]


def is_near_central(g: GroupAlgebraElement) -> bool:
    """Whether g commutes with every permutation fixing the last symbol.

    Checked against the adjacent transpositions (k k+1) for k < n-1, which
    generate that subgroup.
    """
    n, coeffs = g.n, g._terms
    for k in range(1, n - 1):
        # s p s for s = (k k+1): swap the positions k, k+1 of p's images, then
        # the values k, k+1
        positions = list(range(n))
        positions[k - 1], positions[k] = k, k - 1
        swap_positions = itemgetter(*positions)
        relabel = list(range(n + 1))
        relabel[k], relabel[k + 1] = k + 1, k
        swap_value = relabel.__getitem__
        for images, c in coeffs.items():
            if coeffs.get(tuple(map(swap_value, swap_positions(images)))) != c:
                return False
    return True


def jm_power_coefficients(n: int, r: int) -> dict[MarkedPartition, Fraction]:
    """Full marked-class coefficient table of J_n to the power r."""
    _check_int(n, "n", 1)
    _check_int(r, "power")
    check_guard(n, ORACLE_MAX_N, "Jucys-Murphy power expansion")
    jm = jm_element(n, n) if n >= 2 else GroupAlgebraElement.zero(1)
    g = GroupAlgebraElement.one(n)
    for _ in range(r):
        g = ga_multiply(g, jm)
    return _marked_decomposition(g)


def _marked_decomposition(
    g: GroupAlgebraElement,
) -> dict[MarkedPartition, Fraction]:
    classes = _marked_index(g.n)
    values = _class_values(g._terms, classes)
    if values is None:
        raise DomainError(f"{g!r} is not constant on every marked class")
    return {
        MarkedPartition(ctype, through): Fraction(v, g._den)
        for (ctype, through, _), v in zip(classes, values)
    }


def enumerate_star_factorizations(pi: Permutation, r: int) -> int:
    """Count length-r sequences of star transpositions multiplying to pi.

    Stars are the transpositions (a n) for a < n and the product is taken in
    sequence order.  Literal depth-first enumeration over all (n-1)^r
    sequences, refused past `_STAR_SEQUENCES_MAX` of them.
    """
    n = pi.n
    _check_int(r, "length")
    if n < 2:
        return 1 if r == 0 else 0
    if (n - 1) ** r > _STAR_SEQUENCES_MAX:
        raise GuardExceeded(
            f"{(n - 1) ** r} sequences exceed the enumeration budget "
            f"{_STAR_SEQUENCES_MAX}"
        )
    stars = [Permutation.transposition(a, n, n) for a in range(1, n)]

    def walk(prefix: Permutation, depth: int) -> int:
        if depth == r:
            return 1 if prefix == pi else 0
        return sum(walk(prefix * s, depth + 1) for s in stars)

    return walk(Permutation.identity(n), 0)


def star_walk(n: int, rmax: int) -> list[dict[MarkedPartition, int]]:
    """walk[r][(lam, i)]: how many length-r sequences of stars multiply to a
    permutation of marked cycle type (lam, i), summed over the whole marked
    class, for r = 0 .. rmax.

    No representation theory: multiplying by a star (a n) either splits the
    i-cycle through n into a d-cycle through n and an (i-d)-cycle (one a for
    each 1 <= d < i), or merges an m-cycle off n into it (m times the number
    of m-cycles choices of a).  So the counts move as an integer walk over
    the marked partitions of n, and walk[r][(lam, i)] / |C_{lam,i}| is the
    count for one permutation of the class.
    """
    _check_int(n, "n", 1)
    _check_int(rmax, "length")
    state: dict[tuple[tuple[int, ...], int], int] = {((1,) * n, 1): 1}
    walk = [state]
    for _ in range(rmax):
        step: dict[tuple[tuple[int, ...], int], int] = {}
        for (lam, i), count in state.items():
            rest = list(lam)
            rest.remove(i)
            for d in range(1, i):
                key = (tuple(sorted(rest + [d, i - d], reverse=True)), d)
                step[key] = step.get(key, 0) + count
            for m in set(rest):
                merged = list(rest)
                merged.remove(m)
                key = (tuple(sorted(merged + [i + m], reverse=True)), i + m)
                step[key] = step.get(key, 0) + count * m * rest.count(m)
        state = step
        walk.append(state)
    return [
        {
            MarkedPartition(Partition.unchecked(lam), i): count
            for (lam, i), count in level.items()
        }
        for level in walk
    ]


def genchar_strahov(mu: Partition, j: int, lam: Partition, i: int) -> Fraction:
    """gamma^{mu,j}_{lam,i} as a character sum over S_{n-1}.

    Averages chi^mu(pi sigma) chi^{j_-(mu)}(sigma) over sigma in S_{n-1},
    where pi is any fixed member of the marked class (lam, i); the result is
    independent of that choice.  The walk over S_{n-1} depends only on
    (lam, i): it runs once per subscript class and counts the pairs of cycle
    types it meets, so each value is then a sum of at most p(n) p(n-1)
    terms.  The walk is factorial in n, so every call is guarded, also when
    the counts are already cached.
    """
    n = _common_order(mu, j, lam, i)
    check_guard(n, ORACLE_MAX_N, "character sum over S_{n-1}")
    reduced = decrement_part(mu, j)
    total = sum(
        count * chi(mu, alpha) * chi(reduced, beta)
        for alpha, beta, count in _strahov_histogram(lam, i)
    )
    return Fraction(dimension(reduced) * total, math.factorial(n - 1))


@cache
def _strahov_histogram(
    lam: Partition, i: int
) -> tuple[tuple[Partition, Partition, int], ...]:
    # (cycle type of pi tau, cycle type of tau, how many tau in S_{n-1} give
    # that pair), for the fixed pi of (lam, i) below
    n = lam.n
    # n sits on the marked i-cycle with 1..i-1; the other parts take
    # consecutive blocks of the remaining symbols
    rest = list(lam.parts)
    rest.remove(i)
    starts = itertools.accumulate(rest, initial=i)
    cycles = [(*range(1, i), n)] + [
        tuple(range(s, s + length)) for s, length in zip(starts, rest)
    ]
    pi = Permutation.from_cycles(n, cycles).images
    pi_of = (0, *pi).__getitem__  # pi_of(t) = pi(t), 1-indexed
    pi_last = pi[n - 1]
    # summing chi^mu(pi sigma^{-1}) chi^{reduced}(sigma) over sigma equals
    # summing chi^mu(pi tau) chi^{reduced}(tau): substitute tau = sigma^{-1};
    # tau and the cycle lengths stay raw tuples because this loop is the
    # whole cost of the route
    counts: Counter[tuple[tuple[int, ...], tuple[int, ...]]] = Counter()
    for tau in itertools.permutations(range(1, n)):
        composite = (*map(pi_of, tau), pi_last)
        counts[cycle_lengths(composite), cycle_lengths(tau)] += 1
    return tuple(
        (Partition.unchecked(alpha), Partition.unchecked(beta), count)
        for (alpha, beta), count in counts.items()
    )


def evaluate_asf_at_jm(f: Row, n: int) -> GroupAlgebraElement:
    """Call the Table 1 row `f` on the Jucys-Murphy elements of S_n: J_2 ..
    J_{n-1}, J_n and the identity; see `JMVariables`."""
    _check_int(n, "n", 1)
    check_guard(n, ORACLE_MAX_N, "Jucys-Murphy substitution")
    inner = tuple(jm_element(k, n) for k in range(2, n))
    top = jm_element(n, n) if n >= 2 else GroupAlgebraElement.zero(1)
    return f(JMVariables(inner, top, GroupAlgebraElement.one(n)))


class VerificationError(RuntimeError):
    """A structural identity failed inside the verification suite."""

    def __init__(self, check: str, lhs: object, rhs: object):
        if (
            isinstance(lhs, GroupAlgebraElement)
            and isinstance(rhs, GroupAlgebraElement)
            and lhs.n == rhs.n
        ):
            lhs, rhs = _where_they_differ(lhs, rhs)
        super().__init__(f"{check}: {lhs} != {rhs}")
        self.check = check
        self.lhs = str(lhs)
        self.rhs = str(rhs)


def _where_they_differ(lhs: GroupAlgebraElement, rhs: GroupAlgebraElement) -> tuple[str, str]:
    # each side's coefficients on the permutations where the two differ, at
    # most 8, in image-tuple order: an element prints only its degree and its
    # number of terms, so two unequal elements can print alike
    def at(x: GroupAlgebraElement, p: tuple[int, ...]) -> Fraction:
        return Fraction(x._terms.get(p, 0), x._den)

    keys = sorted(lhs._terms.keys() | rhs._terms.keys())
    differ = [p for p in keys if at(lhs, p) != at(rhs, p)]
    more = [f"… ({len(differ) - 8} more)"] if len(differ) > 8 else []
    return tuple(
        ", ".join([f"{Permutation.unchecked(p)}: {at(x, p)}" for p in differ[:8]] + more)
        for x in (lhs, rhs)
    )


def run_verify(max_n: int = 4) -> list[str]:
    """Run the whole invariant suite for each n up to max_n.

    Returns the labels of the checks that ran; raises VerificationError with
    both sides on the first failure.  Each n costs about 10 times the one
    before (2-3 s at n = 6 on a 2-vCPU host), so max_n above `VERIFY_MAX_N`
    = 6 raises GuardExceeded.
    """
    _check_int(max_n, "max_n", 2)
    order = math.factorial(max_n) if max_n <= 20 else "more than 10^18"
    check_guard(max_n, VERIFY_MAX_N, f"verification over the {order} permutations of S_n")
    done: list[str] = []

    def expect(check: str, lhs: object, rhs: object) -> None:
        if lhs != rhs:
            raise VerificationError(check, lhs, rhs)
        done.append(check)

    for n in range(2, max_n + 1):
        shapes = list(enumerate_partitions(n))
        marked = list(enumerate_marked_partitions(n))
        nf = math.factorial(n)

        centrals = {lam: central_idempotent(lam) for lam in shapes}
        total = GroupAlgebraElement.zero(n)
        for lam in shapes:
            for mu in shapes:
                want = centrals[lam] if lam == mu else GroupAlgebraElement.zero(n)
                expect(
                    f"central idempotents multiply diagonally @ n={n}",
                    ga_multiply(centrals[lam], centrals[mu]),
                    want,
                )
            total = total + centrals[lam]
        expect(
            f"central idempotents resolve the identity @ n={n}",
            total,
            GroupAlgebraElement.one(n),
        )

        gammas = {mp: z1_idempotent(mp.shape, mp.mark) for mp in marked}
        top_jm = jm_element(n, n)
        total = GroupAlgebraElement.zero(n)
        for mp in marked:
            for mq in marked:
                want = gammas[mp] if mp == mq else GroupAlgebraElement.zero(n)
                expect(
                    f"marked idempotents multiply diagonally @ n={n}",
                    ga_multiply(gammas[mp], gammas[mq]),
                    want,
                )
            expect(
                f"marked idempotents are near-central @ n={n}",
                is_near_central(gammas[mp]),
                True,
            )
            expect(
                f"marked idempotents diagonalize J_n @ n={n}",
                ga_multiply(top_jm, gammas[mp]),
                gammas[mp].scale(marked_content(mp.shape, mp.mark)),
            )
            total = total + gammas[mp]
        expect(
            f"marked idempotents resolve the identity @ n={n}",
            total,
            GroupAlgebraElement.one(n),
        )

        for mp in marked:
            for mq in marked:
                expect(
                    f"extracted coefficients match the character sum @ n={n}",
                    Fraction(nf, dimension(mp.shape))
                    * extract_marked_coefficient(gammas[mp], mq.shape, mq.mark),
                    genchar_strahov(mp.shape, mp.mark, mq.shape, mq.mark),
                )

        for mq in marked:
            rebuilt = GroupAlgebraElement.zero(n)
            size = marked_class_size(mq.shape, mq.mark)
            for mp in marked:
                weight = Fraction(
                    size, dimension(decrement_part(mp.shape, mp.mark))
                ) * genchar(mp.shape, mp.mark, mq.shape, mq.mark)
                rebuilt = rebuilt + gammas[mp].scale(weight)
            expect(
                f"idempotent expansion rebuilds the class sum @ n={n}",
                rebuilt,
                class_sum(mq.shape, mq.mark),
            )

        swap_tail = Partition((2,) + (1,) * (n - 2))
        expect(
            f"J_n is the marked single-swap class sum @ n={n}",
            jm_element(n, n),
            class_sum(swap_tail, 2),
        )

        for mp, poly in table1_rows(n):
            expect(
                f"Jucys-Murphy template rebuilds K_{mp} @ n={n}",
                evaluate_asf_at_jm(poly, n),
                class_sum(mp.shape, mp.mark),
            )

        for r in range(0, 5):
            table = jm_power_coefficients(n, r)
            mass = sum(
                c * marked_class_size(mp.shape, mp.mark) for mp, c in table.items()
            )
            expect(
                f"J_n^{r} coefficients carry total mass (n-1)^{r} @ n={n}",
                mass,
                Fraction((n - 1) ** r),
            )

        if n <= 4:
            for ctype, through, members in _marked_index(n):
                mp = MarkedPartition(ctype, through)
                for r in range(0, 4):
                    counts = {
                        enumerate_star_factorizations(Permutation.unchecked(p), r)
                        for p in members
                    }
                    expect(
                        f"star counts are constant on marked classes @ n={n}",
                        len(counts),
                        1,
                    )
                    expect(
                        f"star counts match J_n^{r} coefficients @ n={n}",
                        Fraction(counts.pop()),
                        jm_power_coefficients(n, r)[mp],
                    )

    return done
