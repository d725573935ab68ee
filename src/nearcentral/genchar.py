"""Generalized characters of the marked-class basis.

The algebra spanned by the marked class sums K_{lam,i} is commutative, and its
primitive idempotents Gamma^{mu,j} are indexed by the same marked partitions.
The coefficient of Gamma^{mu,j} in K_{lam,i}, normalized by n!/d_mu, is the
generalized character gamma^{mu,j}_{lam,i}.  This module computes those
numbers two independent ways (closed forms, chiefly the Jucys-Murphy
polynomials of Table 1 evaluated at contents, and a character sum over
S_{n-1}), plus the structure constants and orthogonality sums built from them.

Everything is exact: values are `fractions.Fraction`, never floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .characters import chi
from .errors import DomainError, UnsupportedPattern, check_guard
from .partitions import (
    MarkedPartition,
    Partition,
    decrement_part,
    enumerate_marked_partitions,
    enumerate_partitions,
    class_size,
    marked_class_size,
)
from .permutations import Permutation, cycle_type
from .tableaux import dimension, marked_content, shape_contents

__all__ = [
    "VarRange",
    "Asf",
    "Const",
    "Xn",
    "PowerSum",
    "Elementary",
    "Sum",
    "Product",
    "Power",
    "XN",
    "table1_rows",
    "table1_poly",
    "evaluate_asf",
    "genchar_strahov",
    "genchar_table2",
    "genchar_hook_row",
    "genchar",
    "superscript_sum",
    "subscript_sum_chi",
    "weighted_sum",
    "connection_coefficient",
    "multi_product_coefficient",
    "orthogonality_check",
]


class VarRange(Enum):
    """Variable ranges for symmetric-function nodes.

    INNER ranges over the Jucys-Murphy elements J_2 .. J_{n-1}; FULL adjoins
    J_n.  Under the content substitution for a marked shape (mu, j), INNER
    becomes the multiset of contents of the reduced shape minus one zero, and
    FULL additionally contains the marked content c_{mu,j}.
    """

    INNER = "inner"
    FULL = "full"


class Asf:
    """Abstract syntax for almost-symmetric polynomials.

    Expressions are symmetric in the INNER variables with the last variable
    (represented by `Xn`) allowed to appear freely.  Nodes are immutable and
    compose with ordinary arithmetic operators; ints and Fractions coerce to
    `Const`.
    """

    __slots__ = ()

    def __add__(self, other: "Asf | int | Fraction") -> "Asf":
        return Sum((self, _coerce(other)))

    def __radd__(self, other: "Asf | int | Fraction") -> "Asf":
        return Sum((_coerce(other), self))

    def __sub__(self, other: "Asf | int | Fraction") -> "Asf":
        return Sum((self, -_coerce(other)))

    def __rsub__(self, other: "Asf | int | Fraction") -> "Asf":
        return Sum((_coerce(other), -self))

    def __mul__(self, other: "Asf | int | Fraction") -> "Asf":
        return Product((self, _coerce(other)))

    def __rmul__(self, other: "Asf | int | Fraction") -> "Asf":
        return Product((_coerce(other), self))

    def __neg__(self) -> "Asf":
        return Product((Const(Fraction(-1)), self))

    def __pow__(self, exponent: int) -> "Asf":
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("exponent must be a nonnegative integer")
        return Power(self, exponent)


@dataclass(frozen=True, slots=True)
class Const(Asf):
    value: Fraction

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Xn(Asf):
    """The distinguished last variable (the top Jucys-Murphy element)."""

    def __str__(self) -> str:
        return "x_n"


@dataclass(frozen=True, slots=True)
class PowerSum(Asf):
    degree: int
    variables: VarRange

    def __str__(self) -> str:
        return f"p_{self.degree}[{self.variables.value}]"


@dataclass(frozen=True, slots=True)
class Elementary(Asf):
    degree: int
    variables: VarRange

    def __str__(self) -> str:
        return f"e_{self.degree}[{self.variables.value}]"


@dataclass(frozen=True, slots=True)
class Sum(Asf):
    terms: tuple[Asf, ...]

    def __str__(self) -> str:
        return "(" + " + ".join(str(t) for t in self.terms) + ")"


@dataclass(frozen=True, slots=True)
class Product(Asf):
    factors: tuple[Asf, ...]

    def __str__(self) -> str:
        return "(" + " * ".join(str(f) for f in self.factors) + ")"


@dataclass(frozen=True, slots=True)
class Power(Asf):
    base: Asf
    exponent: int

    def __str__(self) -> str:
        return f"{self.base}^{self.exponent}"


XN = Xn()


def _coerce(value: "Asf | int | Fraction") -> Asf:
    if isinstance(value, Asf):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    raise DomainError(f"cannot use {value!r} in a polynomial expression")


def _elementary(values: Sequence[int], degree: int) -> int:
    # coefficient of t^degree in prod (1 + v t), by one-row convolution
    if degree < 0:
        raise DomainError("elementary degree must be nonnegative")
    if degree > len(values):
        return 0
    row = [1] + [0] * degree
    for v in values:
        for d in range(min(degree, len(row) - 1), 0, -1):
            row[d] += row[d - 1] * v
    return row[degree]


def _inner_contents(mu: Partition, j: int) -> list[int]:
    reduced = decrement_part(mu, j)
    contents = sorted(shape_contents(reduced))
    if contents:
        contents.remove(0)  # the (1,1) cell of the reduced shape
    return contents


def evaluate_asf(f: Asf, mu: Partition, j: int) -> Fraction:
    """Evaluate `f` under the content substitution attached to (mu, j).

    INNER variables take the contents of the reduced shape j_-(mu) with one
    zero removed; `Xn` takes the marked content c_{mu,j}; FULL is the union.
    """
    if j not in mu:
        raise DomainError(f"mark {j} is not a part of {mu}")
    inner = _inner_contents(mu, j)
    xn = marked_content(mu, j)
    full = inner + [xn]

    def ev(node: Asf) -> Fraction:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Xn):
            return Fraction(xn)
        if isinstance(node, (PowerSum, Elementary)):
            vals = inner if node.variables is VarRange.INNER else full
            if isinstance(node, PowerSum):
                if node.degree < 1:
                    raise DomainError("power sum degree must be positive")
                return Fraction(sum(v**node.degree for v in vals))
            return Fraction(_elementary(vals, node.degree))
        if isinstance(node, Sum):
            return sum((ev(t) for t in node.terms), Fraction(0))
        if isinstance(node, Product):
            out = Fraction(1)
            for g in node.factors:
                out *= ev(g)
            return out
        if isinstance(node, Power):
            return ev(node.base) ** node.exponent
        raise DomainError(f"unknown expression node {node!r}")

    return ev(f)


def table1_rows(n: int) -> list[tuple[MarkedPartition, Asf]]:
    """All marked classes of S_n with a known polynomial in Jucys-Murphy
    elements, paired with that polynomial.

    Substituting J_2 .. J_{n-1} for INNER and J_n for `Xn` in the returned
    expression reproduces the marked class sum exactly.
    """
    if n < 1:
        raise DomainError("n must be positive")
    p1 = PowerSum(1, VarRange.INNER)
    p2 = PowerSum(2, VarRange.INNER)
    rows: list[tuple[MarkedPartition, Asf]] = []
    if n >= 2:
        swap_tail = Partition((2,) + (1,) * (n - 2))
        rows.append((MarkedPartition(swap_tail, 2), XN))
    if n >= 3:
        rows.append((MarkedPartition(swap_tail, 1), p1))
        three_tail = Partition((3,) + (1,) * (n - 3))
        rows.append((MarkedPartition(three_tail, 3), XN**2 - (n - 1)))
    if n >= 4:
        double_tail = Partition((2, 2) + (1,) * (n - 4))
        rows.append((MarkedPartition(double_tail, 2), p1 * XN - XN**2 + (n - 1)))
        rows.append((MarkedPartition(three_tail, 1), p2 - math.comb(n - 1, 2)))
    if n >= 5:
        rows.append(
            (
                MarkedPartition(double_tail, 1),
                Fraction(1, 2) * (p1**2 - 3 * p2) + math.comb(n - 1, 2),
            )
        )
    rows.append((MarkedPartition(Partition((n,)), n), Elementary(n - 1, VarRange.FULL)))
    if n >= 2:
        near_fix = Partition((n - 1, 1))
        rows.append((MarkedPartition(near_fix, 1), Elementary(n - 2, VarRange.INNER)))
    return rows


def table1_poly(lam: Partition, i: int) -> Asf:
    """Polynomial in Jucys-Murphy elements equal to K_{lam,i}, when known."""
    if i not in lam:
        raise DomainError(f"mark {i} is not a part of {lam}")
    target = MarkedPartition(lam, i)
    try:
        return _table1_index(lam.n)[target]
    except KeyError:
        raise UnsupportedPattern(f"no polynomial template for K_{target}") from None


@cache
def _table1_index(n: int) -> dict[MarkedPartition, Asf]:
    # at small n `table1_rows` lists some classes twice; the first row wins
    index: dict[MarkedPartition, Asf] = {}
    for marked, poly in table1_rows(n):
        index.setdefault(marked, poly)
    return index


def genchar_strahov(
    mu: Partition, j: int, lam: Partition, i: int, max_n: int | None = None
) -> Fraction:
    """gamma^{mu,j}_{lam,i} as a character sum over S_{n-1}.

    Averages chi^mu(pi sigma) chi^{j_-(mu)}(sigma) over sigma in S_{n-1},
    where pi is any fixed member of the marked class (lam, i); the result is
    independent of that choice.  Factorial cost, so guarded.
    """
    n = _common_order(mu, j, lam, i)
    check_guard(n, max_n, "character sum over S_{n-1}")
    reduced = decrement_part(mu, j)
    # n sits on the marked i-cycle with 1..i-1; the other parts take
    # consecutive blocks of the remaining symbols
    rest = list(lam.parts)
    rest.remove(i)
    starts = itertools.accumulate(rest, initial=i)
    cycles = [(*range(1, i), n)] + [
        tuple(range(s, s + length)) for s, length in zip(starts, rest)
    ]
    pi = Permutation.from_cycles(n, cycles).images
    pi_last = pi[n - 1]
    total = 0
    # summing chi^mu(pi sigma^{-1}) chi^{reduced}(sigma) over sigma equals
    # summing chi^mu(pi tau) chi^{reduced}(tau): substitute tau = sigma^{-1};
    # tau stays a raw tuple because this loop is the whole cost of the route
    for tau in itertools.permutations(range(1, n)):
        composite = tuple(pi[t - 1] for t in tau) + (pi_last,)
        total += chi(mu, cycle_type(composite)) * chi(reduced, cycle_type(tau))
    return Fraction(dimension(reduced) * total, math.factorial(n - 1))


# ---------------------------------------------------------------------------
# closed-form rows


def _common_order(mu: Partition, j: int, lam: Partition, i: int) -> int:
    if j not in mu:
        raise DomainError(f"mark {j} is not a part of {mu}")
    if i not in lam:
        raise DomainError(f"mark {i} is not a part of {lam}")
    if mu.n != lam.n:
        raise DomainError(f"{mu} and {lam} are partitions of different integers")
    return mu.n


def _parse_hook(parts: tuple[int, ...]) -> int | None:
    # returns k for parts == (n-k, 1^k), else None
    k = len(parts) - 1
    if parts == (sum(parts) - k,) + (1,) * k:
        return k
    return None


def _parse_near_hook(parts: tuple[int, ...]) -> int | None:
    # returns k for parts == (n-k-1, 2, 1^{k-1}) with k >= 1, else None
    k = len(parts) - 1
    if k >= 1 and parts == (sum(parts) - k - 1, 2) + (1,) * (k - 1):
        return k
    return None


def genchar_table2(mu: Partition, j: int, lam: Partition, i: int) -> Fraction:
    """gamma^{mu,j}_{lam,i} in closed form, when (lam, i) has one.

    The identity class gives d_{j_-(mu)}; the class (n-1, 1) marked on the
    long cycle gives the hook row; any class with a Table 1 polynomial f
    gives f(contents of (mu, j)) d_{j_-(mu)} / |C_{lam,i}|, because K_{lam,i}
    acts on Gamma^{mu,j} by that scalar.  Other classes raise
    `UnsupportedPattern`.
    """
    n = _common_order(mu, j, lam, i)
    if lam.parts == (1,) * n:
        return Fraction(dimension(decrement_part(mu, j)))
    # below n = 5 Table 1 already holds this class
    if n >= 5 and lam.parts == (n - 1, 1) and i == n - 1:
        return genchar_hook_row(mu, j)
    poly = table1_poly(lam, i)
    return evaluate_asf(poly, mu, j) * Fraction(
        dimension(decrement_part(mu, j)), marked_class_size(lam, i)
    )


def genchar_hook_row(mu: Partition, j: int) -> Fraction:
    """gamma^{mu,j}_{(n-1,1), n-1} in closed form, for n >= 3."""
    n = mu.n
    if n < 3:
        raise DomainError("the near-fixed-point row needs n >= 3")
    if j not in mu:
        raise DomainError(f"mark {j} is not a part of {mu}")
    parts = mu.parts
    if parts == (n,):
        return Fraction(1)
    if parts == (1,) * n:
        return Fraction((-1) ** n)
    k = _parse_hook(parts)
    if k is not None:
        if j == 1:
            return Fraction((-1) ** k, n - 1)
        return Fraction((-1) ** (k + 1), n - 1)
    k = _parse_near_hook(parts)
    if k is not None:
        if j == 2:
            return Fraction((-1) ** k, k * (n - k - 2))
        # marks other than 2 leave a non-hook reduced shape, so the companion
        # value for the fixed-point mark vanishes and the recurrence collapses
        # to n chi^mu_{(n-1,1)} d_{j_-(mu)} / ((n-1) d_mu)
        return Fraction(
            (-1) ** k * n * dimension(decrement_part(mu, j)),
            (n - 1) * dimension(mu),
        )
    return Fraction(0)


@cache
def genchar(mu: Partition, j: int, lam: Partition, i: int) -> Fraction:
    """gamma^{mu,j}_{lam,i}: the closed form of `genchar_table2` when the
    class has one, else the guarded character sum."""
    try:
        return genchar_table2(mu, j, lam, i)
    except UnsupportedPattern:
        return genchar_strahov(mu, j, lam, i)


def superscript_sum(mu: Partition, lam: Partition, i: int) -> int:
    """Sum of gamma^{mu,j}_{lam,i} over the distinct parts j of mu.

    Equals the ordinary character chi^mu_lam, hence an integer.
    """
    total = sum(
        (genchar(mu, j, lam, i) for j in sorted(set(mu.parts))), Fraction(0)
    )
    if total.denominator != 1:
        raise DomainError(f"superscript sum came out non-integral: {total}")
    return int(total)


def subscript_sum_chi(mu: Partition, j: int, lam: Partition) -> Fraction:
    """Class-size-weighted sum of gamma^{mu,j}_{lam,i} over marks i of lam.

    Normalized by d_mu / (|C_lam| d_{j_-(mu)}), this again yields chi^mu_lam.
    """
    if lam.n != mu.n:
        raise DomainError(f"{mu} and {lam} are partitions of different integers")
    total = sum(
        (
            marked_class_size(lam, i) * genchar(mu, j, lam, i)
            for i in sorted(set(lam.parts))
        ),
        Fraction(0),
    )
    return (
        Fraction(dimension(mu), class_size(lam) * dimension(decrement_part(mu, j)))
        * total
    )


def weighted_sum(rho: Partition, ell: int, m: int) -> Fraction:
    """Sum of |C_{lam,i}| gamma^{rho,ell}_{lam,i} / d_{ell_-(rho)} over all
    marked classes whose shape has exactly m parts.

    Equals the elementary symmetric polynomial e_{n-m} of the contents of rho,
    i.e. a coefficient of the content polynomial.
    """
    if ell not in rho:
        raise DomainError(f"mark {ell} is not a part of {rho}")
    n = rho.n
    dd = dimension(decrement_part(rho, ell))
    total = Fraction(0)
    for lam in enumerate_partitions(n):
        if len(lam) != m:
            continue
        for i in sorted(set(lam.parts)):
            total += Fraction(marked_class_size(lam, i), dd) * genchar(rho, ell, lam, i)
    return total


def connection_coefficient(
    lam: Partition, i: int, mu: Partition, j: int, nu: Partition, k: int
) -> int:
    """Structure constant [K_{nu,k}] K_{lam,i} K_{mu,j}.

    Always a nonnegative integer (it counts factorizations), which is
    asserted.
    """
    return multi_product_coefficient([(lam, i), (mu, j)], nu, k)


def multi_product_coefficient(
    factors: Sequence[tuple[Partition, int]], mu: Partition, j: int
) -> int:
    """Coefficient of K_{mu,j} in the product of the given marked class sums."""
    if not factors:
        raise DomainError("need at least one factor")
    n = mu.n
    if j not in mu:
        raise DomainError(f"mark {j} is not a part of {mu}")
    for lam, i in factors:
        if lam.n != n:
            raise DomainError(f"{lam} is not a partition of {n}")
        if i not in lam:
            raise DomainError(f"mark {i} is not a part of {lam}")
    r = len(factors)
    total = Fraction(0)
    for rho, ell in _marked_iter(n):
        dd = dimension(decrement_part(rho, ell))
        term = genchar(rho, ell, mu, j) * Fraction(dimension(rho), dd**r)
        for lam, i in factors:
            term *= genchar(rho, ell, lam, i)
        total += term
    sizes = math.prod(marked_class_size(lam, i) for lam, i in factors)
    value = Fraction(sizes, math.factorial(n)) * total
    if value.denominator != 1 or value < 0:
        raise DomainError(f"product coefficient came out as {value}")
    return int(value)


def orthogonality_check(lam: Partition, i: int, mu: Partition, j: int) -> Fraction:
    """Weighted inner product of two rows of generalized characters.

    Returns d_{i_-(lam)} / d_lam when (lam,i) == (mu,j) and 0 otherwise; this
    function computes the sum literally so callers can verify that.
    """
    n = _common_order(lam, i, mu, j)
    total = Fraction(0)
    for rho, k in _marked_iter(n):
        total += (
            marked_class_size(rho, k)
            * genchar(lam, i, rho, k)
            * genchar(mu, j, rho, k)
        )
    return total / math.factorial(n)


def _marked_iter(n: int) -> Iterable[tuple[Partition, int]]:
    for marked in enumerate_marked_partitions(n):
        yield marked.shape, marked.mark
