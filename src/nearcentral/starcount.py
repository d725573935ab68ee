"""Counting factorizations into star transpositions.

A star transposition moves the last symbol: (a n) for a < n.  The number of
length-r sequences of stars multiplying to a fixed permutation depends only
on its marked cycle type, and is a spectral sum over marked shapes weighted
by powers of marked contents.  Three special shapes also admit closed forms
as coefficients of hyperbolic generating functions; those are evaluated here
with exact truncated Taylor series, never floats.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .characters import chi
from .errors import DomainError
from .genchar import genchar
from .partitions import Partition, class_size, decrement_part, enumerate_partitions
from .tableaux import content_polynomial, dimension, marked_content

__all__ = [
    "TruncatedSeries",
    "series_exp",
    "series_sinh",
    "series_cosh",
    "StarClosedCase",
    "star_count",
    "star_count_closed",
    "star_count_class",
    "star_count_by_cycle_count",
]


class TruncatedSeries:
    """A Taylor polynomial with exact rational coefficients.

    The order is part of the value: arithmetic requires matching orders and
    truncates products back to it.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise DomainError("a series needs at least its constant term")
        self._coeffs = cs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise DomainError(f"index {k} is outside order {self.order}")
        return self._coeffs[k]

    def extract(self, r: int) -> Fraction:
        """r! times the coefficient of x^r."""
        if r < 0 or r > self.order:
            raise DomainError(f"cannot extract degree {r} at order {self.order}")
        return math.factorial(r) * self._coeffs[r]

    def _match(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise DomainError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._match(other)
        return TruncatedSeries(
            a + b for a, b in zip(self._coeffs, other._coeffs)
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._match(other)
        return TruncatedSeries(
            a - b for a, b in zip(self._coeffs, other._coeffs)
        )

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._match(other)
            order = self.order
            out = [Fraction(0)] * (order + 1)
            for i, a in enumerate(self._coeffs):
                if not a:
                    continue
                for k in range(order - i + 1):
                    out[i + k] += a * other._coeffs[k]
            return TruncatedSeries(out)
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(other * c for c in self._coeffs)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(other * c for c in self._coeffs)
        return NotImplemented

    def __pow__(self, k: int) -> "TruncatedSeries":
        if not isinstance(k, int) or k < 0:
            raise DomainError("series exponent must be a nonnegative integer")
        out = TruncatedSeries([1] + [0] * self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries) and self._coeffs == other._coeffs
        )

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self._coeffs)!r})"


def series_exp(a: Fraction | int, order: int) -> TruncatedSeries:
    """exp(a x) through x^order."""
    a = Fraction(a)
    return TruncatedSeries(a**k / math.factorial(k) for k in range(order + 1))


def series_sinh(a: Fraction | int, order: int) -> TruncatedSeries:
    """sinh(a x) through x^order."""
    a = Fraction(a)
    return TruncatedSeries(
        a**k / math.factorial(k) if k % 2 else Fraction(0)
        for k in range(order + 1)
    )


def series_cosh(a: Fraction | int, order: int) -> TruncatedSeries:
    """cosh(a x) through x^order."""
    a = Fraction(a)
    return TruncatedSeries(
        a**k / math.factorial(k) if k % 2 == 0 else Fraction(0)
        for k in range(order + 1)
    )


def _as_count(value: Fraction, what: str) -> int:
    if value.denominator != 1 or value < 0:
        raise DomainError(f"{what} came out as {value}, not a count")
    return int(value)


def star_count(lam: Partition, i: int, r: int) -> int:
    """Number of length-r star sequences multiplying to a fixed permutation
    of marked cycle type (lam, i)."""
    if i not in lam:
        raise DomainError(f"mark {i} is not a part of {lam}")
    if r < 0:
        raise DomainError("length must be nonnegative")
    n = lam.n
    total = Fraction(0)
    for mu in enumerate_partitions(n):
        d = dimension(mu)
        for j in sorted(set(mu.parts)):
            total += (
                d
                * genchar(mu, j, lam, i)
                * Fraction(marked_content(mu, j)) ** r
            )
    return _as_count(total / math.factorial(n), "star count")


class StarClosedCase(Enum):
    """Marked shapes whose star counts have hyperbolic generating functions."""

    FULL_CYCLE = "full-cycle"
    FIX_POINT_MARK1 = "fix-point-mark1"
    TRANSPOSED_MARK = "transposed-mark"


def star_count_closed(case: StarClosedCase, n: int, r: int) -> int:
    """Closed-form star count for one of the three special marked shapes.

    FULL_CYCLE is the n-cycle; the other two are the shape (n-1, 1) with the
    mark on the fixed point or on the long cycle respectively.
    """
    if n < 3:
        raise DomainError("closed forms need n >= 3")
    if r < 1:
        raise DomainError("length must be positive")
    order = r + 1
    half = series_sinh(Fraction(1, 2), order)
    s = series_sinh(Fraction(n - 1, 2), order) * half ** (n - 1)
    nf = math.factorial(n)
    if case is StarClosedCase.FULL_CYCLE:
        value = Fraction(2**n, nf * (n - 1)) * s.extract(r + 1)
    elif case is StarClosedCase.FIX_POINT_MARK1:
        value = Fraction(2**n, nf) * s.extract(r)
    elif case is StarClosedCase.TRANSPOSED_MARK:
        wave = series_cosh(n - 1, order) if n % 2 == 0 else series_sinh(n - 1, order)
        value = ((2 * n) * wave - (2**n) * s).extract(r) / Fraction(nf * (n - 1))
        # The hyperbolic expression only accounts for hook eigenvalues plus the
        # near-hook mark-2 ones (all zero).  For n >= 5 the shape (n-1,1) also
        # picks up near-hook eigenvalues with the mark at either end of the
        # diagram; restore those spectral terms directly.
        extra = Fraction(0)
        for k in range(1, n - 3):
            shape = Partition((n - k - 2, 2) + (1,) * (k - 1))
            extra += (-1) ** k * dimension(shape) * Fraction(n - k - 2) ** r
        for k in range(2, n - 2):
            shape = Partition((n - k - 1, 2) + (1,) * (k - 2))
            extra += (-1) ** k * dimension(shape) * Fraction(-k) ** r
        value += extra / Fraction((n - 1) * math.factorial(n - 1))
    else:
        raise DomainError(f"unknown closed-form case {case!r}")
    return _as_count(value, "closed-form star count")


def star_count_class(lam: Partition, r: int) -> int:
    """Number of length-r star sequences whose product has cycle type lam,
    over all members of the whole conjugacy class."""
    if r < 1:
        raise DomainError("length must be positive")
    n = lam.n
    total = Fraction(0)
    for mu in enumerate_partitions(n):
        spectral = Fraction(0)
        for j in sorted(set(mu.parts)):
            spectral += (
                dimension(decrement_part(mu, j))
                * Fraction(marked_content(mu, j)) ** r
            )
        total += spectral * chi(mu, lam)
    value = Fraction(class_size(lam)) * total / math.factorial(n)
    return _as_count(value, "class star count")


def star_count_by_cycle_count(n: int, k: int, r: int) -> int:
    """Number of length-r star sequences whose product has exactly k cycles."""
    if not 1 <= k <= n:
        raise DomainError(f"cycle count {k} is outside 1..{n}")
    if r < 0:
        raise DomainError("length must be nonnegative")
    total = Fraction(0)
    for mu in enumerate_partitions(n):
        d = dimension(mu)
        weights = content_polynomial(mu)
        for j in sorted(set(mu.parts)):
            total += (
                d
                * dimension(decrement_part(mu, j))
                * Fraction(marked_content(mu, j)) ** r
                * weights[k]
            )
    return _as_count(total / math.factorial(n), "cycle-count star total")
