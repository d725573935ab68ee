"""Counting factorizations into star transpositions.

A star transposition moves the last symbol: (a n) for a < n.  The number of
length-r sequences of stars multiplying to a fixed permutation depends only
on its marked cycle type: a spectral sum over the marked shapes of n (one
cached table in `genchar`) weighted by powers of marked contents.  Three
special shapes also have closed forms from hyperbolic generating functions.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from operator import add, mul

from .characters import _chi_column, _partition_counts
from .errors import DomainError, counted, refuse_past, shown
from .genchar import (
    COLUMN_MAX_N,
    STAR_CLOSED_MAX,
    _as_count,
    _column,
    _marked_shapes,
)
from .partitions import (
    Partition, _check_int, _check_mark, _descending_parts, class_size, marked_class_size
)

__all__ = [
    "STAR_CLOSED_MAX",
    "STAR_COUNT_MAX_N",
    "StarClosedCase",
    "star_count",
    "star_count_closed",
    "star_count_class",
    "star_count_by_cycle_count",
]

# largest n `star_count`, `star_count_class` and `star_count_by_cycle_count`
# take, the gamma columns' limit: at n = 30 a cold class count takes about
# 0.25 s, a cold cycle count about 0.55 s and a cold star count 0.45-0.85 s
STAR_COUNT_MAX_N = COLUMN_MAX_N


@cache
def _class_weights(n: int) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    # (c, ks, ws) for each marked content c of n: the ks[a]-th shape mu of n
    # has a mark j with c_{mu,j} = c and d_{j_-(mu)} = ws[a] (at most one,
    # as the corners of mu lie on distinct diagonals), so that
    # sum_mu f(mu) sum_j d_{j_-(mu)} c_{mu,j}^r is
    # sum_c c^r sum_a ws[a] f(mu_ks[a]) for any f on the shapes of n
    table = _marked_shapes(n)
    weights: dict[int, dict[int, int]] = {}
    for k, c, dd in zip(table.shape, table.content, table.reduced):
        weights.setdefault(c, {})[k] = dd
    return tuple((c, tuple(w), tuple(w.values())) for c, w in sorted(weights.items()))


def _weighted_power_sum(n: int, r: int, f: tuple[int, ...]) -> int:
    # sum_mu f[mu] sum_j d_{j_-(mu)} c_{mu,j}^r over the shapes mu of n,
    # f indexed in enumerate_partitions order
    return sum(
        c**r * sum(map(mul, ws, map(f.__getitem__, ks)))
        for c, ks, ws in _class_weights(n)
    )


@cache
def _cycle_columns(n: int) -> tuple[tuple[int, ...], ...]:
    # _cycle_columns(n)[k][a] is d_mu times the coefficient of t^k in the
    # content polynomial of the a-th shape mu of n.  The polynomials are
    # built up Young's lattice a level at a time: a shape's is its parent's,
    # the shape less the last cell of its last row, times (t + that cell's
    # content), so only two levels of raw part tuples are held.  d_mu is
    # read from the marked-shape table, which the weights read anyway.
    level = {(): (1,)}
    for m in range(1, n + 1):
        below, level = level, {}
        for parts in _descending_parts(m):
            last = parts[-1]
            poly = below[parts[:-1] + (last - 1,) if last > 1 else parts[:-1]]
            c = last - len(parts)
            # low degree first, and monic
            level[parts] = (c * poly[0], *map(add, poly, map(c.__mul__, poly[1:])), 1)
    dims = [1] * len(level)  # the empty shape has no mark
    table = _marked_shapes(n)
    for k, d in zip(table.shape, table.dim):
        dims[k] = d
    return tuple(zip(*[tuple(map(d.__mul__, poly)) for d, poly in zip(dims, level.values())]))


@cache
def _star_spectrum(lam: Partition, i: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # (den, ((c, w), ..)) in lowest terms: den times the sum of
    # d_mu gamma^{mu,j}_{lam,i} over the marked shapes (mu, j) with marked
    # content c is the integer w.  That sum is d_mu d_{j_-(mu)} omega summed,
    # over |C_{lam,i}|, with omega the integer eigenvalue column of (lam, i)
    column, size, table = _column(lam, i), marked_class_size(lam, i), _marked_shapes(lam.n)
    sums: dict[int, int] = {}
    for d, dd, c, w in zip(table.dim, table.reduced, table.content, column):
        sums[c] = sums.get(c, 0) + d * dd * w
    common = math.gcd(size, *sums.values())
    return size // common, tuple((c, sums[c] // common) for c in sorted(sums))


def _check_size(n: int, r: int) -> None:
    refuse_past(
        n, STAR_COUNT_MAX_N, "n",
        lambda: f"star count at n = {shown(n)} sums over the "
        f"{counted(n, lambda m: _partition_counts(m)[m])} shapes of n",
    )
    refuse_past(
        r, STAR_CLOSED_MAX, "r",
        lambda: f"star count at n = {shown(n)}, r = {shown(r)} sums powers c^r with "
        f"|c| <= {shown(n - 1)}, each of up to {shown(r * (n - 1).bit_length())} bits",
    )


def star_count(lam: Partition, i: int, r: int) -> int:
    """Number of length-r star sequences multiplying to a fixed permutation
    of marked cycle type (lam, i): the sum of d_mu gamma^{mu,j}_{lam,i}
    c_{mu,j}^r over the marked shapes (mu, j), divided by n!.  The gammas
    come from the cached integer eigenvalue column of (lam, i) in `genchar`,
    the seminormal trace, not the marked Murnaghan-Nakayama rule that single
    values and rows take.

    n above STAR_COUNT_MAX_N (the column limit COLUMN_MAX_N) or r above
    STAR_CLOSED_MAX raises GuardExceeded.
    """
    _check_mark(lam, i)
    _check_int(r, "length")
    n = lam.n
    _check_size(n, r)
    den, spectrum = _star_spectrum(lam, i)
    total = sum(w * c**r for c, w in spectrum)
    return _as_count(total, den * math.factorial(n), "star count")


class StarClosedCase(Enum):
    """Marked shapes whose star counts have hyperbolic generating functions."""

    FULL_CYCLE = "full-cycle"
    FIX_POINT_MARK1 = "fix-point-mark1"
    TRANSPOSED_MARK = "transposed-mark"


def _closed_spectrum(case: StarClosedCase, n: int) -> list[tuple[int, int]]:
    # (weight, eigenvalue) pairs over the common denominator n!(n-1)
    hooks = [
        (sign * (-1) ** k * math.comb(n - 1, k), c)
        for k in range(n)
        for sign, c in ((1, n - 1 - k), (-1, -k))
    ]
    if case is StarClosedCase.FULL_CYCLE:
        return [(w * c, c) for w, c in hooks]
    if case is StarClosedCase.FIX_POINT_MARK1:
        return [(w * (n - 1), c) for w, c in hooks]
    if case is StarClosedCase.TRANSPOSED_MARK:
        spectrum = [(n, n - 1), ((-1) ** n * n, 1 - n)] + [(-w, c) for w, c in hooks]
        for j in range(1, n - 3):
            # d is the dimension of the near hook (n-j-2, 2, 1^(j-1)) of n-1
            # cells, whose hook lengths are n-2, n-j-2, j+1, 1, 1..n-j-4 and
            # 1..j-1
            d = (n - 1) * (n - 3) * (n - 4) * math.comb(n - 5, j - 1) // ((n - j - 2) * (j + 1))
            s = (-1) ** j * n * d
            spectrum += [(s, n - j - 2), (-s, -j - 1)]
        return spectrum
    raise DomainError(f"unknown closed-form case {case!r}")


def star_count_closed(case: StarClosedCase, n: int, r: int) -> int:
    """Closed-form star count for one of the three special marked shapes.

    FULL_CYCLE is the n-cycle; the other two are the shape (n-1, 1) with the
    mark on the fixed point or on the long cycle respectively.  With
    S(x) = 2^n sinh((n-1)x/2) sinh(x/2)^(n-1) and W(x) = cosh((n-1)x) for
    even n, sinh((n-1)x) for odd n, the counts have exponential generating
    functions S'(x)/(n!(n-1)), S(x)/n! and, up to near-hook terms,
    (2n W(x) - S(x))/(n!(n-1)).  These are finite sums of e^{cx}, since
    2 sinh(y) = e^y - e^{-y} gives
    S(x) = sum_{k<n} (-1)^k C(n-1, k) (e^{(n-1-k)x} - e^{-kx}),
    and r! [x^r] e^{cx} = c^r: each count is sum w c^r over integer
    (weight w, eigenvalue c) pairs, divided by n!(n-1).

    TRANSPOSED_MARK is the spectral sum of `star_count` over the support of
    `genchar_hook_row`.  The shapes (n), (1^n) and the hooks (n-k, 1^k) give
    2n W(x) - S(x).  The near hooks mu = (n-k-1, 2, 1^{k-1}) have
    gamma = (-1)^k n d_{j_-(mu)} / ((n-1) d_mu) when marked on the first row
    (eigenvalue n-k-2, 1 <= k <= n-4) or on the last row (eigenvalue -k,
    2 <= k <= n-3), so each adds the pair ((-1)^k n d_{j_-(mu)}, c); marked
    on the row of length 2 their eigenvalue is 0.  They count from n = 5 on.

    n or r above STAR_CLOSED_MAX raises GuardExceeded.
    """
    _check_int(n, "n", 3)
    _check_int(r, "length", 1)
    refuse_past(
        max(n, r), STAR_CLOSED_MAX, "n and r",
        lambda: f"closed-form star count at n = {shown(n)}, r = {shown(r)} sums O(n) "
        f"powers c^r with |c| <= {shown(n - 1)}, each of up to "
        f"{shown(r * (n - 1).bit_length())} bits",
    )
    total = sum(w * c**r for w, c in _closed_spectrum(case, n))
    return _as_count(total, math.factorial(n) * (n - 1), "closed-form star count")


def star_count_class(lam: Partition, r: int) -> int:
    """Number of length-r star sequences whose product has cycle type lam,
    over all members of the whole conjugacy class: |C_lam|/n! times
    sum_mu chi^mu_lam sum_j d_{j_-(mu)} c_{mu,j}^r, over the shapes mu of n
    and their distinct parts j.  chi is read as one cached column of every
    shape on the class lam, and the inner sums as a cached table of weights
    per marked content of n.

    n above STAR_COUNT_MAX_N or r above STAR_CLOSED_MAX raises GuardExceeded.
    """
    n = lam.n
    # S_0 has no star, and the sum over marked shapes would read 0 at r = 0
    # where the empty sequence gives the empty permutation
    _check_int(n, "n", 1)
    _check_int(r, "length")
    _check_size(n, r)
    total = _weighted_power_sum(n, r, _chi_column(lam.parts))
    return _as_count(class_size(lam) * total, math.factorial(n), "class star count")


def star_count_by_cycle_count(n: int, k: int, r: int) -> int:
    """Number of length-r star sequences whose product has exactly k cycles:
    sum_mu d_mu [t^k] prod over cells (t + content) sum_j d_{j_-(mu)}
    c_{mu,j}^r over n!, read as a cached table of d_mu [t^k] against the
    same weights per marked content as `star_count_class`.

    n above STAR_COUNT_MAX_N or r above STAR_CLOSED_MAX raises GuardExceeded.
    """
    _check_int(n, "n", 1)
    _check_int(k, "cycle count", 1, n)
    _check_int(r, "length")
    _check_size(n, r)
    total = _weighted_power_sum(n, r, _cycle_columns(n)[k])
    return _as_count(total, math.factorial(n), "cycle-count star total")
