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
S_{n-1}, with no idempotent built.  Its walk goes over S_{n-1} depth first,
fixing tau's images one at a time: each image adds one edge to tau and one
to pi tau, whose open chains are joined as it goes, and a closed cycle adds
a weight for its length to a key, so no permutation is rescanned.  The walk
is taken up to pi's own symmetry: the images of tau(k) that lie in cycles of
pi of one length which tau's earlier images and 1..k leave untouched give
conjugate branches, so it walks one of them, weighted by their number.  Only
pi's cycle lengths enter it, no character, structure constant or class index.

One cached index lists the marked classes of S_n (the S_{n-1}-conjugacy
classes) as image tuples, for every n up to `ORACLE_MAX_N`, from one walk
over S_n like the character sum's, whose last image closes the cycle
through n.  Their class sums are a basis of Z1(n), the elements that
commute with S_{n-1}, and an element of Z1(n) is held as one numerator per
class for as long as no permutation is read: class sums, idempotents,
their sums, multiples and class-path products never list their terms, and
such an element is near-central when each class of the index is closed
under the generators of S_{n-1}, checked once per n.  Z1(n) is closed
under products, so `ga_multiply` takes a product in it class by class,
from the structure constants of Z1(n): for class C with first member k,
T_C[x, y] = #{p in class x : p k in class y}.  They are counted once per
unordered pair of classes {x, C}, by composing each member of the smaller
with the first member of the other and looking the result up in a cached
map from permutation to class number; the other direction is that count
scaled by |x| / |C|, exactly, as #{(p, q) in x * C : pq in y} = |C|
T_C[x, y] is symmetric in x and C, Z1(n) being commutative.  The counts
are kept, so a cold product composes at most what a direct sum over its
smaller factor would, and a repeated one composes nothing.  The larger
factor keeps the columns of its multiplication operator that a product
summed, so a factor used again only multiplies and adds.  As Z1(n) is
commutative and a marked class holds the inverse of each member, no
inverse is formed.
Every other product composes image tuples term by term, with one
composition map from `permutations` per right-hand permutation; the tests
compare the class product with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import accumulate, compress, repeat
from operator import add, itemgetter, mul, sub
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from .characters import _beta_mask, _mn, chi
from .errors import DomainError, InconsistencyError, counted, refuse_past, shown
from .genchar import JMVariables, Row, _column, _common_order, _marked_count, genchar, table1_rows
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
from .permutations import Permutation, _composer
from .starcount import STAR_CLOSED_MAX, STAR_COUNT_MAX_N
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

# largest n `run_verify` checks: 0.4-0.6 s at n = 7 and 1.8-2.2 s at 32 MB
# peak RSS at n = 8 on a 2-vCPU host, each n 3 to 7 times the one before
VERIFY_MAX_N = 8

# most star sequences `enumerate_star_factorizations` walks one by one
_STAR_SEQUENCES_MAX = 10**7

# most states `star_walk` may hold, counted as its levels times the marked
# classes of n: at this limit the slowest walks found take about 2.5 s at
# 160 MB peak RSS (n = 15, rmax = 983) on a 2-vCPU host, where
# star_walk(30, 80), past it, took 8 s at 310 MB
_STAR_WALK_STATES_MAX = 5 * 10**5


def _check_listed(n: int, what: str) -> None:
    refuse_past(n, ORACLE_MAX_N, "n", lambda: f"{what} at n={shown(n)}")


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

    Integer numerators over one positive denominator, in lowest terms (gcd
    1), in one or both of two coordinates, each built at most once: keyed by
    image tuple, no zero kept, or for an element of Z1(n) one numerator per
    marked class.  Elements made in Z1(n) hold only class values, expanded
    to terms when a permutation is read; an element built from terms finds
    its class values, or that it has none, when first asked.  `len`, `bool`
    and `==` expand nothing.  Coefficients and scalars must be ints or
    Fractions (a float raises TypeError); a Fraction is made when read.
    """

    # _perms: numerators by image tuple, None until expanded; _values: class
    # numerators, None until read, () when not constant on every class;
    # _operator: the columns of this element's multiplication operator on
    # class values, by class, None until a product first builds one
    # (`_operator_columns`), and left out of copies
    __slots__ = ("_n", "_den", "_perms", "_values", "_operator")
    _derived = ("_operator",)

    def __init__(self, n: int, terms: Mapping[Permutation, Fraction | int] = ()):
        _check_int(n, "n")
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for perm, coeff in dict(terms).items():
            coeffs[_images_in(perm, n)] = _exact(coeff)
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        numerators = {p: c.numerator * (den // c.denominator) for p, c in coeffs.items()}
        self._set(n, den, numerators)

    def _set(
        self, n: int, den: int, terms: dict | None, values: Sequence[int] | None = None
    ) -> None:
        # the numerators over den > 0, as terms or as class values, brought
        # to lowest terms: the gcd over the class values is that over the terms
        common = math.gcd(den, *(terms.values() if values is None else values))
        _set_n(self, n)
        _set_den(self, den // common)
        _set_perms(self, None if terms is None else {p: v // common for p, v in terms.items() if v})
        _set_values(self, None if values is None else tuple(v // common for v in values))
        _set_operator(self, None)

    @classmethod
    def _make(
        cls, n: int, terms: dict[tuple[int, ...], int], den: int = 1
    ) -> "GroupAlgebraElement":
        self = object.__new__(cls)
        self._set(n, den, terms)
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

    @property
    def _terms(self) -> Mapping[tuple[int, ...], int]:
        # the numerators keyed by image tuple, read-only, expanded from the
        # class values the first time a permutation is read
        if self._perms is None:
            _set_perms(self, _class_terms(self._n, self._values))
        return MappingProxyType(self._perms)

    def coefficient(self, perm: Permutation) -> Fraction:
        return Fraction(self._terms.get(_images_in(perm, self._n), 0), self._den)

    def items(self) -> Iterator[tuple[Permutation, Fraction]]:
        den, perm = self._den, Permutation.unchecked
        return ((perm(p), Fraction(v, den)) for p, v in self._terms.items())

    def support(self) -> Iterator[Permutation]:
        return map(Permutation.unchecked, self._terms)

    def __len__(self) -> int:
        if self._perms is not None:
            return len(self._perms)
        return sum(compress(_class_sizes(self._n), self._values))

    def __bool__(self) -> bool:
        return bool(self._perms) if self._perms is not None else any(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return False
        if self._n != other._n or self._den != other._den:
            return False
        if self._perms is not None and other._perms is not None:
            return self._perms == other._perms
        mine = _class_values(self)  # a side holds only class values
        return mine is not None and mine == _class_values(other)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        if self._n != other._n:
            raise DomainError("cannot add elements of different group algebras")
        den = math.lcm(self._den, other._den)
        mine, theirs = den // self._den, den // other._den
        # in class coordinates when both sides have class values, read from
        # the terms of one side when the other holds no terms
        va, vb = self._values, other._values
        if self._perms is None or other._perms is None:
            va, vb = _class_values(self), _class_values(other)
        if va and vb:
            return _from_class_values(self._n, [x * mine + y * theirs for x, y in zip(va, vb)], den)
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
        if self._values:
            return _from_class_values(self._n, [num * v for v in self._values], den)
        return GroupAlgebraElement._make(self._n, {p: num * v for p, v in self._terms.items()}, den)

    def __repr__(self) -> str:
        return f"<group algebra element over S_{self._n}, {len(self)} terms>"


# the slots' own setters, as in `partitions`: `_set` is the one writer of an
# element, and `_terms` and `_class_values` fill a coordinate left unbuilt
_set_n = GroupAlgebraElement._n.__set__
_set_den = GroupAlgebraElement._den.__set__
_set_perms = GroupAlgebraElement._perms.__set__
_set_values = GroupAlgebraElement._values.__set__
_set_operator = GroupAlgebraElement._operator.__set__


@cache
def _marked_index(n: int) -> tuple[tuple[Partition, int, tuple[tuple[int, ...], ...]], ...]:
    # (cycle type, length of the cycle through n, members as image tuples)
    # for each marked class of S_n, in the order its first member comes in
    # the lexicographic listing of S_n; kept for the life of the process, so
    # at n = ORACLE_MAX_N = 9 it holds all 362,880 permutations (about 0.4 s
    # and 43 MB to build).  S_n is walked as `_strahov_histogram` walks
    # S_{n-1}: p(1), p(2), .. are fixed in turn to each image still free in
    # increasing order, so members come in lexicographic order.  Each edge
    # k -> p(k) joins two open chains (`end` holds each chain's other end at
    # both its ends, `length` its length at its head) or closes one into an
    # L-cycle, which adds base^(L-1) to an int key, base = n + 1.  The last
    # image closes the cycle through n, the last symbol without an image,
    # and adds its length L times base^n too, so a key holds the cycle type
    # as digits and the mark above them; only the distinct keys become
    # partitions
    base = n + 1
    top = base**n
    weight = [0] + [base ** (m - 1) for m in range(1, n + 1)]
    last = [w + m * top for m, w in enumerate(weight)]
    end, length = list(range(n + 1)), [1] * (n + 1)
    images, free = [0] * n, list(range(1, n + 1))
    grouped: dict[int, list[tuple[int, ...]]] = {}

    def walk(k: int, key: int) -> None:
        for at in range(len(free)):
            v = free.pop(at)
            images[k - 1] = v
            h, closed = end[k], 0
            if h == v:
                closed = weight[length[v]]
            else:
                t = end[v]
                end[h], end[t], length[h] = t, h, length[h] + length[v]
            if k + 1 < n:
                walk(k + 1, key + closed)
            else:
                u = images[k] = free[0]
                leaf = key + closed + last[length[u]]
                if leaf in grouped:
                    grouped[leaf].append(tuple(images))
                else:
                    grouped[leaf] = [tuple(images)]
            if h != v:
                end[h], end[t], length[h] = k, v, length[h] - length[v]
            free.insert(at, v)

    if n > 1:
        walk(1, 0)
    else:
        # the identity alone: mark 1 in S_1, and 0 in S_0, with no cycle through n
        grouped[last[n]] = [tuple(range(1, n + 1))]
    index = []
    for key, members in grouped.items():
        through, key = divmod(key, top)
        index.append((_cycle_type(key, weight, base), through, tuple(members)))
    return tuple(index)


def _cycle_type(key: int, weights: Sequence[int], base: int) -> Partition:
    # the cycle type a walk's key holds as digits below base: key //
    # weights[m] % base cycles of length m, for m = len(weights) - 1 down to 1
    lengths = range(len(weights) - 1, 0, -1)
    return Partition.unchecked(tuple(m for m in lengths for _ in range(key // weights[m] % base)))


@cache
def _class_sizes(n: int) -> tuple[int, ...]:
    # the number of members of each marked class, in `_marked_index` order
    return tuple(len(members) for _, _, members in _marked_index(n))


def _class_values(g: GroupAlgebraElement) -> tuple[int, ...] | None:
    # g's numerator on each marked class, in `_marked_index` order, or None
    # when g is not constant on every class, that is, when it does not
    # commute with S_{n-1}; read from the terms once and kept, the empty
    # tuple standing for None: a class is touched when its first member is
    # present, and the touched classes must hold every term
    if g._values is None:
        terms, classes = g._perms, _marked_index(g._n)
        values = tuple(terms.get(members[0], 0) for _, _, members in classes)
        touched = [(members, c) for (_, _, members), c in zip(classes, values) if c]
        near = sum(len(members) for members, _ in touched) == len(terms) and all(
            terms.get(p) == c for members, c in touched for p in members
        )
        _set_values(g, values if near else ())
    return g._values or None


def _class_terms(n: int, values: Sequence[int]) -> dict[tuple[int, ...], int]:
    # the terms taking the numerator values[k] on every member of the k-th
    # marked class: the one expansion of class values into permutations
    terms: dict[tuple[int, ...], int] = {}
    for (_, _, members), v in zip(_marked_index(n), values):
        if v:
            terms.update(dict.fromkeys(members, v))
    return terms


def _from_class_values(n: int, values: Sequence[int], den: int) -> GroupAlgebraElement:
    # the element taking the numerator values[k] over den on every member of
    # the k-th marked class, held as its class values only
    g = object.__new__(GroupAlgebraElement)
    g._set(n, den, None, values)
    return g


@cache
def _class_map(n: int) -> tuple[dict[tuple[int, ...], int], tuple[Callable, ...]]:
    # the number of each permutation's marked class, and for each class C
    # the map from the images of p to those of p k, k the first member of C;
    # kept for the life of the process, so at n = ORACLE_MAX_N = 9 the map
    # holds all 362,880 permutations (about 0.1 s and 20 MB to build, on top
    # of the index)
    classes = _marked_index(n)
    class_of = {p: c for c, (_, _, members) in enumerate(classes) for p in members}
    return class_of, tuple(_composer(members[0]) for _, _, members in classes)


@cache
def _constants_from(n: int, x: int) -> tuple[itemgetter, tuple[int, ...], itemgetter, itemgetter]:
    # the structure constants of Z1(n) from class x, flat: row C, for the
    # C-th marked class of S_n with first member k, is the pairs (y,
    # T_C[x, y] = #{p in class x : p k in class y}) of nonzero count, from
    # position ends[C] up to ends[C+1], kept as (the itemgetter of every
    # row's y in turn, the counts, the itemgetters of ends[1:] and of
    # ends[:-1]), so that an operator column sums them in C loops; n >= 2,
    # so each getter picks a tuple.  Each row is read from the pair counts
    # of x and C, counted over the smaller of the two classes: as is when
    # that is x, else scaled from T_x[C, y], as #{(p, q) in x * C : pq in y}
    # = |C| T_C[x, y] is symmetric in x and C, Z1(n) being commutative
    sizes = _class_sizes(n)
    ys: list[int] = []
    counts: list[int] = []
    ends = [0]
    for c, size in enumerate(sizes):
        if (sizes[x], x) <= (size, c):
            row, row_counts = _pair_counts(n, x, c)
            counts += row_counts
        else:
            row, row_counts = _pair_counts(n, c, x)
            for y, count in zip(row, row_counts):
                scaled, left = divmod(count * sizes[x], size)
                if left:
                    raise InconsistencyError(
                        f"{count} members of marked class {c} of S_{n} times a member of class "
                        f"{x} land in class {y}, and {count} * {sizes[x]} is not a multiple of "
                        f"{size}"
                    )
                counts.append(scaled)
        ys += row
        ends.append(len(ys))
    return itemgetter(*ys), tuple(counts), itemgetter(*ends[1:]), itemgetter(*ends[:-1])


@cache
def _pair_counts(n: int, small: int, large: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # (the classes y, and the counts T_large[small, y] = #{p in class small :
    # p k in class y} of nonzero count), for k the first member of class
    # large, by |small| compositions; `_constants_from` asks for each
    # unordered pair of classes once, the smaller class first (the lower
    # index on a tie)
    class_of, composers = _class_map(n)
    # a dict, not a Counter, whose setup outweighs its counting on the
    # small classes a cold idempotent counts
    row: dict[int, int] = {}
    for y in map(class_of.__getitem__, map(composers[large], _marked_index(n)[small][2])):
        row[y] = row.get(y, 0) + 1
    return tuple(row), tuple(row.values())


def _class_product(
    n: int, a: GroupAlgebraElement, b: GroupAlgebraElement, va: tuple, vb: tuple
) -> list[int]:
    # the class values of the product of two elements that commute with
    # S_{n-1}, given the elements and their class values.  The product
    # commutes with S_{n-1} too, so it is constant on each marked class: its
    # value at one member k of class C is sum_p a(p) b(p^-1 k) =
    # sum_p a(p) b(p k) by p -> p^-1, as a marked class holds the inverse of
    # each member and a takes one value on it, that is
    # sum_x a_x W_b[x][C], with b's operator W_b[x][C] =
    # sum_y #{p in class x : p k in class y} b_y.  Such elements commute
    # with each other, so the factors are swapped to let x run over the
    # classes of the smaller support
    if len(b) < len(a):
        a, b, va, vb = b, a, vb, va
    xs = [x for x, v in enumerate(va) if v]
    total = [0] * len(va)
    for x, column in zip(xs, _operator_columns(n, b, vb, xs)):
        total = list(map(add, total, map(mul, column, repeat(va[x]))))
    return total


def _operator_columns(n: int, b: GroupAlgebraElement, vb: tuple, xs: list[int]) -> list[tuple]:
    # the columns W_b[x] of b's multiplication operator for the classes xs,
    # each summed from the structure constants of class x the first time a
    # product asks for it, and kept on b
    held = b._operator
    if held is None:
        held = {}
        _set_operator(b, held)
    for x in xs:
        if x not in held:
            # each row a difference of running sums
            pick, counts, ends, starts = _constants_from(n, x)
            running = list(accumulate(map(mul, counts, pick(vb)), initial=0))
            held[x] = tuple(map(sub, ends(running), starts(running)))
    return [held[x] for x in xs]


def ga_multiply(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Product in the group algebra.

    For 2 <= n <= ORACLE_MAX_N, when the larger factor has more terms than
    S_n has marked classes and both commute with S_{n-1} (each is constant
    on every marked class), the product is taken from the factors' class
    values and held as class values, one per marked class: c_C = sum_x a_x
    sum_y T_C[x, y] b_y over the classes x of the smaller support, with the
    structure constants T_C[x, y] = #{p in class x : p k in class y} for one
    member k of C, as such elements commute and each marked class is closed
    under inversion.  The constants from class x are read the first time
    the smaller factor is nonzero on x, and kept, from counts made once per
    pair of classes {x, C} by min(|x|, |C|) compositions; the larger factor
    b keeps each column W_b[x][C] = sum_y T_C[x, y] b_y of its operator
    that a product sums, so a product with b again is one multiply-add per
    class and column.  Every other
    product expands both factors' terms and is taken term by term; it lists
    no class when neither factor has more terms than S_n has marked
    classes.  Either way the integer numerators are multiplied over the
    product of the two denominators.
    """
    if a.n != b.n:
        raise DomainError("cannot multiply elements of different group algebras")
    n, den = a.n, a._den * b._den
    if (
        2 <= n <= ORACLE_MAX_N
        and max(len(a), len(b)) > _marked_count(n)
        and (va := _class_values(a)) is not None
        and (vb := _class_values(b)) is not None
    ):
        return _from_class_values(n, _class_product(n, a, b, va, vb), den)
    ta, tb, terms = a._terms, b._terms, {}
    right = [(_composer(q), cb) for q, cb in tb.items()]
    for mine, ca in ta.items():
        for compose, cb in right:
            key = compose(mine)
            terms[key] = terms.get(key, 0) + ca * cb
    return GroupAlgebraElement._make(n, terms, den)


def class_sum(lam: Partition, i: int) -> GroupAlgebraElement:
    """Sum of all permutations with cycle type lam and n on an i-cycle."""
    _check_mark(lam, i)
    n = lam.n
    _check_listed(n, "marked class enumeration")
    values = [int(through == i and ctype == lam) for ctype, through, _ in _marked_index(n)]
    return _from_class_values(n, values, 1)


def jm_element(k: int, n: int) -> GroupAlgebraElement:
    """The Jucys-Murphy element J_k: the sum of (i k) for i < k."""
    _check_int(n, "n", 2)
    _check_int(k, "Jucys-Murphy index", 2, n)
    terms = {Permutation.transposition(i, k, n).images: 1 for i in range(1, k)}
    return GroupAlgebraElement._make(n, terms)


def central_idempotent(lam: Partition) -> GroupAlgebraElement:
    """The primitive central idempotent of C[S_n] attached to lam."""
    n = lam.n
    _check_listed(n, "central idempotent expansion")
    d = dimension(lam)
    values = [d * chi(lam, ctype) for ctype, _, _ in _marked_index(n)]
    return _from_class_values(n, values, math.factorial(n))


def z1_idempotent(lam: Partition, i: int) -> GroupAlgebraElement:
    """Primitive idempotent of the marked-class algebra for (lam, i).

    The product of the central idempotent for lam with the central
    idempotent for the reduced shape i_-(lam) of S_{n-1}, taken in S_n.
    """
    _check_mark(lam, i)
    n = lam.n
    _check_listed(n, "marked idempotent expansion")
    return _z1_idempotent_cached(lam, i)


@cache
def _z1_idempotent_cached(lam: Partition, i: int) -> GroupAlgebraElement:
    n = lam.n
    reduced = decrement_part(lam, i)
    # S_{n-1} fixes n: its class ctype less one 1 is the class (ctype, 1)
    d = dimension(reduced)
    values = [
        d * chi(reduced, decrement_part(ctype, 1)) if through == 1 else 0
        for ctype, through, _ in _marked_index(n)
    ]
    embedded = _from_class_values(n, values, math.factorial(n - 1))
    return ga_multiply(_central_idempotent_cached(lam), embedded)


@cache
def _central_idempotent_cached(lam: Partition) -> GroupAlgebraElement:
    # one central idempotent per shape, the larger factor of every marked
    # idempotent of the shape, so the operator columns their products sum
    # are kept on it for all its marks
    return central_idempotent(lam)


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
    _check_listed(n, "marked coefficient read")
    return Fraction(_marked_values(g)[_marked_keys(n)[MarkedPartition(mu, j)]], g._den)


def is_near_central(g: GroupAlgebraElement) -> bool:
    """Whether g commutes with every permutation fixing the last symbol.

    Checked against the adjacent transpositions (k k+1) for k < n-1, which
    generate that subgroup.  An element that holds class values takes one
    value on each marked class, so it commutes with them when every class
    of the index is closed under conjugation by each (k k+1): that is
    checked once per n, member by member, and kept.  Any other element
    holds its terms, and is checked term by term.
    """
    n = g.n
    if g._values:
        return _index_is_closed(n)
    coeffs = g._perms  # read directly: the view's get costs more
    return all(
        coeffs.get(tuple(map(relabel, swap(images)))) == c
        for swap, relabel in _conjugations(n)
        for images, c in coeffs.items()
    )


@cache
def _index_is_closed(n: int) -> bool:
    # whether conjugation by each (k k+1), k < n-1, maps every member of each
    # marked class of the index into the same class
    classes = [set(members) for _, _, members in _marked_index(n)]
    return all(
        members.issuperset(tuple(map(relabel, swap(p))) for p in members)
        for swap, relabel in _conjugations(n)
        for members in classes
    )


def _conjugations(n: int) -> Iterator[tuple[Callable, Callable[[int], int]]]:
    # s p s for each s = (k k+1), k < n-1, as two maps: the first composes p
    # with s, swapping the positions k, k+1 of p's images, the second then
    # swaps the values k, k+1
    for k in range(1, n - 1):
        s = Permutation.transposition(k, k + 1, n).images
        yield _composer(s), (0, *s).__getitem__


def jm_power_coefficients(n: int, r: int) -> dict[MarkedPartition, Fraction]:
    """Full marked-class coefficient table of J_n to the power r.

    r above STAR_CLOSED_MAX, the longest star count this table verifies,
    raises GuardExceeded: the table takes r products.
    """
    _check_int(n, "n", 1)
    _check_int(r, "power")
    _check_listed(n, "Jucys-Murphy power expansion")
    refuse_past(r, STAR_CLOSED_MAX, "r", lambda: f"Jucys-Murphy power expansion at r={shown(r)}")
    jm = jm_element(n, n) if n >= 2 else GroupAlgebraElement.zero(1)
    g = GroupAlgebraElement.one(n)
    for _ in range(r):
        g = ga_multiply(g, jm)
    return _marked_decomposition(g)


def _marked_decomposition(
    g: GroupAlgebraElement,
) -> dict[MarkedPartition, Fraction]:
    den = g._den
    return {key: Fraction(v, den) for key, v in zip(_marked_keys(g.n), _marked_values(g))}


def _marked_values(g: GroupAlgebraElement) -> tuple[int, ...]:
    values = _class_values(g)
    if values is None:
        raise DomainError(f"{g!r} is not constant on every marked class")
    return values


@cache
def _marked_keys(n: int) -> dict[MarkedPartition, int]:
    # the place of each marked class of S_n in `_marked_index`, by its marked
    # partition, in index order; built once per n, so a read validates no
    # marked partition of the index
    return {
        MarkedPartition(ctype, through): at
        for at, (ctype, through, _) in enumerate(_marked_index(n))
    }


def enumerate_star_factorizations(pi: Permutation, r: int) -> int:
    """Count length-r sequences of star transpositions multiplying to pi.

    Stars are the transpositions (a n) for a < n and the product is taken in
    sequence order.  Literal depth-first enumeration over all (n-1)^r
    sequences, refused past `_STAR_SEQUENCES_MAX` of them.
    """
    n = pi.n
    _check_int(r, "length")
    # (n-1)^r against the limit without forming it: (n-1)^min(r, 24) is past
    # 10^7 exactly when (n-1)^r is, as 2^24 > 10^7
    refuse_past(
        (n - 1) ** min(r, _STAR_SEQUENCES_MAX.bit_length()), _STAR_SEQUENCES_MAX, "sequences",
        lambda: f"star enumeration of length {shown(r)} walks "
        f"{counted(r, lambda m: (n - 1) ** m)} sequences",
    )
    # the map from the images of p to those of p * s, for each star s; S_0
    # and S_1 have no star, so the walk counts the identity at r = 0 alone
    stars = [_composer(Permutation.transposition(a, n, n).images) for a in range(1, n)]
    # depth first with a stack of (prefix images, length), not by recursion:
    # at n = 2 every r passes the limit, so r may be far past the recursion
    # limit
    count, target, stack = 0, pi.images, [(Permutation.identity(n).images, 0)]
    while stack:
        prefix, depth = stack.pop()
        if depth == r:
            count += prefix == target
        else:
            stack.extend((s(prefix), depth + 1) for s in stars)
    return count


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

    n above STAR_COUNT_MAX_N or rmax above STAR_CLOSED_MAX, the limits of
    the star counts the walk verifies, raises GuardExceeded, and so does a
    walk whose rmax + 1 levels of at most one state per marked class of n
    could hold more than `_STAR_WALK_STATES_MAX` states.
    """
    _check_int(n, "n", 1)
    _check_int(rmax, "length")
    refuse_past(n, STAR_COUNT_MAX_N, "n", lambda: f"star walk at n={shown(n)}")
    refuse_past(rmax, STAR_CLOSED_MAX, "rmax", lambda: f"star walk of length {shown(rmax)}")
    states = (rmax + 1) * _marked_count(n)
    refuse_past(
        states, _STAR_WALK_STATES_MAX, "states",
        lambda: f"star walk of length {rmax} at n={n} holding up to {states} states",
    )
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
    types it meets, joining the cycles of tau and pi tau one image of tau
    at a time and walking one branch, weighted, for images that pi's own
    symmetry makes interchangeable, so each value is then a sum of at most
    p(n) p(n-1) terms, each two Murnaghan-Nakayama lookups.  The walk is
    factorial in n, so every call is guarded, also when the counts are
    already cached.
    """
    n = _common_order(mu, j, lam, i)
    _check_listed(n, "character sum over S_{n-1}")
    reduced = decrement_part(mu, j)
    upper, lower = _beta_mask(mu.parts), _beta_mask(reduced.parts)
    total = sum(
        count * _mn(upper, alpha.parts) * _mn(lower, beta.parts)
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
    # consecutive blocks (first point, length) of the remaining symbols,
    # longest first, so the fixed points come last
    rest = list(lam.parts)
    rest.remove(i)
    blocks = tuple(zip(accumulate(rest, initial=i), rest))
    cycles = [(*range(1, i), n)] + [tuple(range(s, s + length)) for s, length in blocks]
    pi = Permutation.from_cycles(n, cycles).images
    pi_of = (0, *pi).__getitem__  # pi_of(t) = pi(t), 1-indexed
    # summing chi^mu(pi sigma^{-1}) chi^{reduced}(sigma) over sigma equals
    # summing chi^mu(pi tau) chi^{reduced}(tau): substitute tau = sigma^{-1}.
    # tau is walked depth first, fixing tau(1), tau(2), .. in turn to images
    # still free, in increasing order, so a shared prefix is walked once.
    # Fixing tau(k) = v adds the edge k -> v to tau and k -> pi(v) to pi tau,
    # from the tail of an open chain to the head of one.  Each side keeps,
    # at both ends of each open chain, its other end (`tend`, `cend`), and
    # at its head its length (`tlen`, `clen`), restored on the way back.  An
    # edge that closes an L-cycle adds base^(L-1) to the key for tau,
    # base^(n+L-2) for pi tau, so a leaf's key holds both cycle types as
    # numbers of cycles per length, digits below base = n + 1; only the
    # distinct keys become partitions.
    #
    # The walk is taken up to pi's symmetry.  An unmarked cycle of pi is
    # untouched at level k when its first point is past k and none of its
    # points is an image yet.  Conjugating by a sigma in pi's centralizer
    # that permutes and rotates the untouched L-cycles fixes 1..k, n and the
    # images taken, keeps the cycle types of tau and pi tau, and maps the
    # branch tau(k) = v one-to-one onto tau(k) = sigma(v).  So of the free
    # images in untouched L-cycles only the first is tried, weighted by how
    # many there are, and a leaf adds the product of the weights on its path.
    # Each level hands the next the untouched cycles as (first point,
    # length), in block order, less the one an image was taken from
    base = n + 1
    tw = [0] + [base ** (m - 1) for m in range(1, n)]
    cw = [0] + [base ** (n + m - 2) for m in range(1, n + 1)]
    tend, tlen = list(range(n + 1)), [1] * (n + 1)
    cend, clen = list(range(n + 1)), [1] * (n + 1)
    # pi tau maps n to pi(n) whatever tau is
    key, last = 0, pi[n - 1]
    if last == n:
        key = cw[1]
    else:
        cend[n], cend[last], clen[n] = last, n, 2
    counts: dict[int, int] = {}
    free = list(range(1, n))
    # (place in free, weight, untouched cycles below) for each image tried:
    # with no untouched cycle, every free image, once
    every = [tuple((at, 1, ()) for at in range(m)) for m in range(n)]

    def branches(
        untouched: tuple[tuple[int, int], ...]
    ) -> list[tuple[int, int, tuple[tuple[int, int], ...]]]:
        # every free image outside the untouched cycles, and for each length
        # L the first point of the first untouched L-cycle, for all the
        # points of the untouched L-cycles
        inside, lead = set(), {}
        for at, (s, length) in enumerate(untouched):
            inside.update(range(s, s + length))
            if length in lead:
                lead[length][1] += length
            else:
                lead[length] = [s, length, untouched[:at] + untouched[at + 1 :]]
        picked = {s: (weight, below) for s, weight, below in lead.values()}
        tried = []
        for at, v in enumerate(free):
            if v not in inside:
                tried.append((at, 1, untouched))
            elif v in picked:
                tried.append((at, *picked[v]))
        return tried

    def walk(k: int, key: int, weight: int, untouched: tuple[tuple[int, int], ...]) -> None:
        if len(free) < 2:
            # the one image left closes the one open chain of each side
            for v in free:
                key += tw[tlen[v]] + cw[clen[pi_of(v)]]
            counts[key] = counts.get(key, 0) + weight
            return
        # the cycle that starts at k is no longer untouched, and a lone
        # untouched fixed point merges no branches
        if untouched and untouched[0][0] == k:
            untouched = untouched[1:]
        if len(untouched) == 1 and untouched[0][1] == 1:
            untouched = ()
        for at, m, below in branches(untouched) if untouched else every[len(free)]:
            v = free.pop(at)
            w, h, g, add = pi_of(v), tend[k], cend[k], 0
            if h == v:
                add = tw[tlen[v]]
            else:
                t = tend[v]
                tend[h], tend[t], tlen[h] = t, h, tlen[h] + tlen[v]
            if g == w:
                add += cw[clen[w]]
            else:
                s = cend[w]
                cend[g], cend[s], clen[g] = s, g, clen[g] + clen[w]
            walk(k + 1, key + add, weight * m, below)
            if h != v:
                tend[h], tend[t], tlen[h] = k, v, tlen[h] - tlen[v]
            if g != w:
                cend[g], cend[s], clen[g] = k, w, clen[g] - clen[w]
            free.insert(at, v)

    walk(1, key, 1, blocks)
    return tuple(
        (_cycle_type(key, cw, base), _cycle_type(key, tw, base), count)
        for key, count in counts.items()
    )


def evaluate_asf_at_jm(f: Row, n: int) -> GroupAlgebraElement:
    """Call the Table 1 row `f` on the Jucys-Murphy elements of S_n: J_2 ..
    J_{n-1}, J_n and the identity; see `JMVariables`."""
    _check_int(n, "n", 1)
    _check_listed(n, "Jucys-Murphy substitution")
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
    # each side's coefficients where the two differ, at most 8: on the marked
    # classes, in index order, when both sides have class values, else on
    # the permutations, in image-tuple order; an element prints only its
    # degree and its number of terms, so two unequal elements can print alike
    if lhs._values and rhs._values:
        places = zip(_marked_keys(lhs.n), lhs._values, rhs._values)
    else:
        mine, theirs = lhs._terms, rhs._terms
        keys = sorted(mine.keys() | theirs.keys())
        places = ((Permutation.unchecked(p), mine.get(p, 0), theirs.get(p, 0)) for p in keys)
    coeffs = [(at, Fraction(v, lhs._den), Fraction(w, rhs._den)) for at, v, w in places]
    differ = [(at, x, y) for at, x, y in coeffs if x != y]
    more = [f"… ({len(differ) - 8} more)"] if len(differ) > 8 else []
    return tuple(
        ", ".join([f"{at}: {coeff[side]}" for at, *coeff in differ[:8]] + more)
        for side in (0, 1)
    )


def run_verify(max_n: int = 4) -> list[str]:
    """Run the whole invariant suite for each n up to max_n.

    Returns the labels of the checks that ran; raises VerificationError with
    both sides on the first failure.  Each n costs 3 to 7 times the one
    before (0.4-0.6 s at n = 7 and 1.8-2.2 s at n = 8 on a 2-vCPU host), so max_n
    above `VERIFY_MAX_N` = 8 raises GuardExceeded.
    """
    _check_int(max_n, "max_n", 2)
    refuse_past(
        max_n, VERIFY_MAX_N, "n",
        lambda: f"verification over the {counted(max_n, math.factorial)} permutations "
        f"of S_n at n={shown(max_n)}",
    )
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
            # K_{lam,i} = sum of omega Gamma^{mu,j}, with omega = |C| gamma /
            # d_{j_-(mu)} from `genchar`, and as the integer column holds it
            by_genchar = by_column = GroupAlgebraElement.zero(n)
            size = marked_class_size(mq.shape, mq.mark)
            for mp, omega in zip(marked, _column(mq.shape, mq.mark)):
                weight = Fraction(
                    size, dimension(decrement_part(mp.shape, mp.mark))
                ) * genchar(mp.shape, mp.mark, mq.shape, mq.mark)
                by_genchar = by_genchar + gammas[mp].scale(weight)
                by_column = by_column + gammas[mp].scale(omega)
            want = class_sum(mq.shape, mq.mark)
            expect(f"idempotent expansion rebuilds the class sum @ n={n}", by_genchar, want)
            expect(f"eigenvalue column rebuilds the class sum @ n={n}", by_column, want)

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
            for mp, (_, _, members) in zip(_marked_keys(n), _marked_index(n)):
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
