"""Irreducible characters of the symmetric group.

Both traversals below run the Murnaghan-Nakayama rule in its beta-number
form. A shape is the set of its first-column hook lengths (beta numbers),
held as the bits of one int. Removing a border strip of size t lowers one
beta number b by t onto a free value, so the candidates are the set bits of
(mask >> t) & ~mask, and the strip's sign is the parity of the beta numbers
strictly between b - t and b. A zero row is a beta number 0 and shifts the
others up by one; the low run of set bits is shifted off, so equal shapes
have equal masks at every n. Values are exact integers.

- By shape: `_mn(mask, classes)` recurses from one shape, memoized on
  (mask, cycle lengths still to remove). `chi`, the marked rule in
  `genchar` and the oracle read chi at a few shapes, so they take this one.
- By class: `_chi_column(parts)` is chi on the class `parts` for every shape
  of n at once, p_lam = sum_mu chi^mu(lam) s_mu built one part at a time
  (Macdonald, I.7). The column of `parts` is the column of `parts[1:]`
  gathered through a cached table of the parts[0]-strips of every shape,
  signed and summed per shape, all at C level. `character_table` and the
  class star counts read every shape, so they take this one. Serving the
  few-shape readers from columns instead would cost one column per rest
  partition (about 10^7 cached entries at n = 26).
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from operator import mul, sub

from .errors import counted, refuse_past, shown
from .partitions import (
    Partition,
    _check_int,
    _check_order,
    _descending_parts,
    enumerate_partitions,
)

__all__ = ["CHARACTER_TABLE_MAX_N", "chi", "character_table"]

# largest n `character_table` builds; a cold table at n = 18 (385^2 entries)
# takes about 0.08 s by columns (0.5 s shape by shape), and the cost grows
# about 2.5x per two steps of n
CHARACTER_TABLE_MAX_N = 18


def _beta_mask(parts: tuple[int, ...]) -> int:
    # bit lam_k + (rows below row k) for each row k; no zero rows, so bit 0 is clear
    rows = len(parts)
    mask = 0
    for k, part in enumerate(parts):
        mask |= 1 << (part + rows - 1 - k)
    return mask


@cache
def _mn(mask: int, classes: tuple[int, ...]) -> int:
    """chi of the shape with beta-number set `mask` on the cycle lengths `classes`."""
    if not classes:
        return 1
    size, rest = classes[0], classes[1:]
    total = 0
    movable = (mask >> size) & ~mask  # bit b - size for each b that can drop by size
    while movable:
        low = movable & -movable
        movable ^= low
        high = low << size
        reduced = mask ^ high ^ low
        if low == 1:
            # the strip emptied a row: drop the zero rows, the low run of set bits
            reduced >>= (reduced ^ (reduced + 1)).bit_length() - 1
        value = _mn(reduced, rest)
        # the strip's height is the number of beta numbers jumped over, the
        # set bits strictly between low and high
        total += -value if (mask & (high - (low << 1))).bit_count() & 1 else value
    return total


@cache
def _shapes(n: int) -> tuple[Partition, ...]:
    return tuple(enumerate_partitions(n))


@cache
def _shape_masks(n: int) -> tuple[int, ...]:
    # the beta masks of the shapes of n, in enumerate_partitions order
    return tuple([_beta_mask(parts) for parts in _descending_parts(n)])


@cache
def _strip_table(m: int, t: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The t-strips of every shape of m, flat in enumerate_partitions order:
    (index of the shape each leaves among the shapes of m - t, sign, and the
    bounds 0 = b_0 <= b_1 <= .. of the shapes' spans)."""
    below = {mask: k for k, mask in enumerate(_shape_masks(m - t))}
    index: list[int] = []
    sign: list[int] = []
    bounds = [0]
    for mask in _shape_masks(m):
        # the strips of `_mn`, found the same way; a helper shared by both
        # loops made `_mn` 10-20% slower on a cold n = 16 table
        movable = (mask >> t) & ~mask
        while movable:
            low = movable & -movable
            movable ^= low
            high = low << t
            reduced = mask ^ high ^ low
            if low == 1:
                reduced >>= (reduced ^ (reduced + 1)).bit_length() - 1
            index.append(below[reduced])
            sign.append(-1 if (mask & (high - (low << 1))).bit_count() & 1 else 1)
        bounds.append(len(index))
    return tuple(index), tuple(sign), tuple(bounds)


@cache
def _chi_column(parts: tuple[int, ...]) -> tuple[int, ...]:
    """chi^lam on the class `parts` for every shape lam of sum(parts), in
    enumerate_partitions order; suffixes of `parts` share their columns."""
    if not parts:
        return (1,)
    index, sign, bounds = _strip_table(sum(parts), parts[0])
    rest = _chi_column(parts[1:])
    totals = [0, *accumulate(map(mul, sign, map(rest.__getitem__, index)))]
    at = list(map(totals.__getitem__, bounds))
    return tuple(map(sub, at[1:], at))


@cache
def chi(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible indexed by lam on the class mu."""
    _check_order(lam.n, mu)
    return _mn(_beta_mask(lam.parts), mu.parts)


def _partition_counts(n: int) -> list[int]:
    # p(0), .., p(n) by Euler's pentagonal number recurrence
    counts = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            low = k * (3 * k - 1) // 2
            if low > m:
                break
            term = counts[m - low]
            high = low + k
            if high <= m:
                term += counts[m - high]
            total += term if k & 1 else -term
            k += 1
        counts[m] = total
    return counts


def character_table(n: int) -> list[list[int]]:
    """Full character table of S_n, for n <= CHARACTER_TABLE_MAX_N.

    Rows are indexed by the irreducible lam and columns by the class mu,
    both in the order produced by enumerate_partitions(n). A larger n raises
    GuardExceeded naming the p(n)^2 entries it would compute.
    """
    _check_int(n, "n")
    refuse_past(
        n, CHARACTER_TABLE_MAX_N, "n",
        lambda: f"character table of S_{shown(n)} has "
        f"{counted(n, lambda m: _partition_counts(m)[m] ** 2)} entries, p(n)^2",
    )
    # by columns, so a table leaves chi's cache as it was
    columns = [_chi_column(mu.parts) for mu in _shapes(n)]
    return [list(row) for row in zip(*columns)]
