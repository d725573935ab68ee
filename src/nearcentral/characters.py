"""Irreducible characters of the symmetric group.

chi(lam, mu) is computed by the Murnaghan-Nakayama rule in its beta-number
form. A shape is the strictly decreasing tuple of its first-column hook
lengths (beta numbers); removing a border strip of size t lowers one beta
number by t onto a value not already taken, and the strip's sign is the
parity of the beta numbers jumped over. Trailing zero rows are dropped, so
equal shapes have equal tuples. The recursion runs on plain tuples and is
memoized on (beta numbers, cycle lengths still to remove); values are exact
integers.
"""

from __future__ import annotations

from functools import cache

from .errors import DomainError, GuardExceeded
from .partitions import Partition, enumerate_partitions

__all__ = ["CHARACTER_TABLE_MAX_N", "chi", "character_table"]

# largest n `character_table` builds; a cold table at n = 18 (385^2 entries)
# takes about 2 s, and the cost grows about 3x per two steps of n
CHARACTER_TABLE_MAX_N = 18


def _beta_numbers(parts: tuple[int, ...]) -> tuple[int, ...]:
    # first-column hook lengths: lam_k + (rows below row k), strictly decreasing
    rows = len(parts)
    return tuple([part + rows - 1 - k for k, part in enumerate(parts)])


@cache
def _mn(beta: tuple[int, ...], classes: tuple[int, ...]) -> int:
    """chi of the shape with beta numbers `beta` on the cycle lengths `classes`."""
    if not classes:
        return 1
    size, rest = classes[0], classes[1:]
    rows = len(beta)
    total = 0
    for k, b in enumerate(beta):
        target = b - size
        if target < 0:
            break  # beta is decreasing, so every later target is negative too
        spot = k + 1
        while spot < rows and beta[spot] > target:
            spot += 1
        if spot < rows and beta[spot] == target:
            continue
        reduced = beta[:k] + beta[k + 1:spot] + (target,) + beta[spot:]
        while reduced and reduced[-1] == 0:
            reduced = tuple([x - 1 for x in reduced[:-1]])
        value = _mn(reduced, rest)
        # the strip's height is the number of beta numbers jumped over
        total += -value if (spot - k - 1) & 1 else value
    return total


@cache
def chi(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible indexed by lam on the class mu."""
    if lam.n != mu.n:
        raise DomainError(f"sizes differ: |{lam}| = {lam.n}, |{mu}| = {mu.n}")
    return _mn(_beta_numbers(lam.parts), mu.parts)


def _partition_count(n: int) -> int:
    # p(n) by Euler's pentagonal number recurrence
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
    return counts[n]


def character_table(n: int) -> list[list[int]]:
    """Full character table of S_n, for n <= CHARACTER_TABLE_MAX_N.

    Rows are indexed by the irreducible lam and columns by the class mu,
    both in the order produced by enumerate_partitions(n). A larger n raises
    GuardExceeded naming the p(n)^2 entries it would compute.
    """
    if n > CHARACTER_TABLE_MAX_N:
        # p(n) itself takes O(n^1.5) big-integer steps; past n = 1000 name a bound
        entries = f"= {_partition_count(n) ** 2}" if n <= 1000 else "> 10^62"
        raise GuardExceeded(
            f"character table of S_{n} has p({n})^2 {entries} entries; "
            f"the limit is n <= {CHARACTER_TABLE_MAX_N}"
        )
    parts = enumerate_partitions(n)
    return [[chi(lam, mu) for mu in parts] for lam in parts]
