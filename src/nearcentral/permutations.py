"""Permutations of {1, .., n} in one-line notation.

A permutation is a tuple of images, 1-indexed, composed right to left.  The
character-sum formula in `oracle` (`genchar_strahov`) works on raw tuples in
its inner loop and counts them by `cycle_lengths`; the rest of the oracle
works with `Permutation` objects.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DomainError
from .partitions import Partition

__all__ = ["Permutation", "cycle_lengths", "cycle_type"]


def cycle_lengths(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of the permutation with one-line notation `images`,
    largest first: the parts of `cycle_type` as a plain tuple."""
    lengths = []
    seen = [False] * (len(images) + 1)
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x - 1]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def cycle_type(images: Sequence[int]) -> Partition:
    """Cycle type of the permutation with one-line notation `images`."""
    return Partition.unchecked(cycle_lengths(images))


class Permutation:
    """A permutation of {1, .., n} stored in one-line notation.

    Composition is right to left: (p * q)(x) = p(q(x)).
    """

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise DomainError(f"not a permutation in one-line notation: {images!r}")
        self._images = images

    @classmethod
    def unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap `images` without validating it.

        The caller guarantees that `images` is a tuple holding each of
        1 .. len(images) exactly once; the constructor's check is skipped for
        speed in loops that build permutations from known-good tuples.
        """
        self = object.__new__(cls)
        self._images = images
        return self

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls.unchecked(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, a: int, b: int, n: int) -> "Permutation":
        if not (1 <= a <= n and 1 <= b <= n and a != b):
            raise DomainError(f"({a} {b}) is not a transposition inside S_{n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls.unchecked(tuple(images))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for x in cycle:
                if not (1 <= x <= n) or x in seen:
                    raise DomainError(f"bad cycle symbol {x} in {cycle!r}")
                seen.add(x)
            for a, b in zip(cycle, cycle[1:]):
                images[a - 1] = b
            if cycle:
                images[cycle[-1] - 1] = cycle[0]
        return cls.unchecked(tuple(images))

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def n(self) -> int:
        return len(self._images)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= len(self._images):
            raise DomainError(f"{x} is outside 1..{len(self._images)}")
        return self._images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self._images) != len(other._images):
            raise DomainError("cannot compose permutations of different degrees")
        mine = self._images
        return Permutation.unchecked(tuple(mine[x - 1] for x in other._images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._images)
        for spot, image in enumerate(self._images, 1):
            inv[image - 1] = spot
        return Permutation.unchecked(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each led by its smallest symbol, sorted."""
        out = []
        seen = [False] * (len(self._images) + 1)
        for start in range(1, len(self._images) + 1):
            if seen[start] or self._images[start - 1] == start:
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = self._images[x - 1]
            out.append(tuple(cycle))
        return out

    def cycle_type(self) -> Partition:
        return cycle_type(self._images)

    def cycle_length_through(self, x: int) -> int:
        if not 1 <= x <= len(self._images):
            raise DomainError(f"{x} is outside 1..{len(self._images)}")
        length = 1
        y = self._images[x - 1]
        while y != x:
            y = self._images[y - 1]
            length += 1
        return length

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)!r})"

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
