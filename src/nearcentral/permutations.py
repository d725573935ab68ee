"""Permutations of {1, .., n} in one-line notation.

A permutation is a tuple of images, 1-indexed, composed right to left.  The
oracle works on raw tuples inside: its group-algebra elements are keyed by
them, and the character sum (`genchar_strahov`) counts them by
`cycle_lengths`.  `Permutation` wraps a tuple where a caller names or reads
one permutation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DomainError
from .partitions import Partition, _Value, _check_int

__all__ = ["Permutation", "cycle_length_through", "cycle_lengths"]


def cycle_lengths(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of the permutation with one-line notation `images`,
    largest first: the parts of `Permutation.cycle_type` as a plain tuple."""
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


def cycle_length_through(images: Sequence[int], x: int) -> int:
    """Length of the cycle through x, one of 1 .. len(images), of the
    permutation with one-line notation `images`."""
    length, y = 1, images[x - 1]
    while y != x:
        y = images[y - 1]
        length += 1
    return length


class Permutation(_Value):
    """A permutation of {1, .., n} stored in one-line notation.

    Composition is right to left: (p * q)(x) = p(q(x)).
    """

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        for x in images:
            _check_int(x, "image", 1, len(images))
        if len(set(images)) != len(images):
            raise DomainError(f"not a permutation in one-line notation: {images!r}")
        object.__setattr__(self, "_images", images)

    @classmethod
    def unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap `images` without validating it.

        The caller guarantees that `images` is a tuple holding each of
        1 .. len(images) exactly once; the constructor's check is skipped for
        speed in loops that build permutations from known-good tuples.
        """
        self = object.__new__(cls)
        _set_images(self, images)
        return self

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls.from_cycles(n, [])

    @classmethod
    def transposition(cls, a: int, b: int, n: int) -> "Permutation":
        _check_int(n, "n", 2)
        if a == b:
            raise DomainError(f"({a} {b}) is not a transposition inside S_{n}")
        return cls.from_cycles(n, [(a, b)])

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        _check_int(n, "n")
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for x in cycle:
                _check_int(x, "cycle symbol", 1, n)
                if x in seen:
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
        _check_int(x, "symbol", 1, len(self._images))
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
        return Partition.unchecked(cycle_lengths(self._images))

    def cycle_length_through(self, x: int) -> int:
        _check_int(x, "symbol", 1, len(self._images))
        return cycle_length_through(self._images, x)

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


# the slot's own setter, as in `partitions`, for `unchecked`
_set_images = Permutation._images.__set__
