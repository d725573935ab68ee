"""Permutations of {1, .., n} in one-line notation.

A permutation is a tuple of images, 1-indexed, composed right to left.  The
oracle works on raw tuples inside: its group-algebra elements are keyed by
them.  `Permutation` wraps a tuple where a caller names or reads one
permutation.  This module is the one place that composes image tuples
(`_composer`, which the oracle's products, class maps, conjugations and
star walks share with `Permutation.__mul__`) and walks their cycles
(`_cycles`, read by `cycle_lengths` and the `Permutation` methods); the
oracle's walks over S_n and S_{n-1} close each cycle as they go and do not
call `_cycles`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import DomainError
from .partitions import Partition, _Value, _check_int

__all__ = ["Permutation", "cycle_lengths"]


def _composer(q: Sequence[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    # the map from the images of p to those of p q, for p of q's degree:
    # itemgetter(q(1)-1, .., q(n)-1) for n >= 2; S_0 and S_1 hold only the
    # identity, where itemgetter would raise for no index and return a bare
    # int for one, and `tuple` returns a tuple argument itself
    if len(q) < 2:
        return tuple
    return itemgetter(*[x - 1 for x in q])


def _cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    # every cycle of the permutation with one-line notation `images`, fixed
    # points included, each led by its smallest symbol, in that order
    out = []
    seen = [False] * (len(images) + 1)
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = images[x - 1]
        out.append(tuple(cycle))
    return out


def cycle_lengths(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of the permutation with one-line notation `images`,
    largest first: the parts of `Permutation.cycle_type` as a plain tuple."""
    return tuple(sorted(map(len, _cycles(images)), reverse=True))


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
        return Permutation.unchecked(_composer(other._images)(self._images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._images)
        for spot, image in enumerate(self._images, 1):
            inv[image - 1] = spot
        return Permutation.unchecked(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each led by its smallest symbol, sorted."""
        return [cycle for cycle in _cycles(self._images) if len(cycle) > 1]

    def cycle_type(self) -> Partition:
        return Partition.unchecked(cycle_lengths(self._images))

    def cycle_length_through(self, x: int) -> int:
        """Length of the cycle through the symbol x."""
        _check_int(x, "symbol", 1, len(self._images))
        return next(len(cycle) for cycle in _cycles(self._images) if x in cycle)

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
