"""Irreducible characters of the symmetric group.

chi(lam, mu) is computed by the Murnaghan-Nakayama rule in its beta-number
form. A shape is the set of its first-column hook lengths (beta numbers),
held as the bits of one int. Removing a border strip of size t lowers one
beta number b by t onto a free value, so the candidates are the set bits of
(mask >> t) & ~mask, and the strip's sign is the parity of the beta numbers
strictly between b - t and b. A zero row is a beta number 0 and shifts the
others up by one; the low run of set bits is shifted off, so equal shapes
have equal masks at every n. The recursion is memoized on (mask, cycle
lengths still to remove); values are exact integers.
"""

from __future__ import annotations

from functools import cache

from .errors import DomainError, GuardExceeded
from .partitions import Partition, enumerate_partitions

__all__ = ["CHARACTER_TABLE_MAX_N", "chi", "character_table"]

# largest n `character_table` builds; a cold table at n = 18 (385^2 entries)
# takes about 0.6 s, and the cost grows about 3x per two steps of n
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
def chi(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible indexed by lam on the class mu."""
    if lam.n != mu.n:
        raise DomainError(f"sizes differ: |{lam}| = {lam.n}, |{mu}| = {mu.n}")
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
    if n > CHARACTER_TABLE_MAX_N:
        # p(n) itself takes O(n^1.5) big-integer steps; past n = 1000 name a bound
        entries = f"= {_partition_counts(n)[n] ** 2}" if n <= 1000 else "> 10^62"
        raise GuardExceeded(
            f"character table of S_{n} has p({n})^2 {entries} entries; "
            f"the limit is n <= {CHARACTER_TABLE_MAX_N}"
        )
    parts = enumerate_partitions(n)
    # straight to the kernel, so a table leaves chi's cache as it was
    classes = [mu.parts for mu in parts]
    masks = [_beta_mask(lam.parts) for lam in parts]
    return [[_mn(mask, c) for c in classes] for mask in masks]
