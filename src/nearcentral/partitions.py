"""Integer partitions, marked partitions, and conjugacy class sizes.

A partition here is a weakly decreasing tuple of positive integers. A
marked partition is a pair (shape, mark) where the mark is one of the part
sizes; it labels the conjugacy classes of the subgroup-fixed setting where,
in addition to the cycle type, the length of the cycle through the largest
symbol n is remembered. The mark is a value, not a position: marking either
part of (2,2) means the same thing.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import DomainError, InconsistencyError, shown

__all__ = [
    "Partition",
    "MarkedPartition",
    "enumerate_partitions",
    "enumerate_marked_partitions",
    "decrement_part",
    "class_size",
    "marked_class_size",
    "parse_partition",
    "format_partition",
    "parse_marked_partition",
    "format_marked_partition",
]


class _Value:
    """The one immutability and pickle policy of the value types: attribute
    syntax can neither rebind nor delete a slot, and pickle and copy store
    the slots back through their own setters, unchecked.  A slot named in
    `_derived` holds what is derived from the others, so a copy stores None
    there, as a fresh value holds before deriving it."""

    __slots__ = ()
    _derived: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        stored = (None if s in self._derived else getattr(self, s) for s in self.__slots__)
        return _restore, (type(self), tuple(stored))


def _restore(cls: type, values: tuple) -> _Value:
    # unchecked: unpickling runs arbitrary callables, so a check adds no safety
    self = _new(cls)
    for name, value in zip(cls.__slots__, values):
        getattr(cls, name).__set__(self, value)
    return self


class Partition(_Value):
    """An integer partition stored as a weakly decreasing tuple.

    Parts may be given in any order; the constructor sorts them and checks
    each one. Partitions are immutable, hashable, and compare equal exactly
    when their part tuples agree. The size n is stored once.
    """

    __slots__ = ("_parts", "_n")

    def __init__(self, parts: Iterable[int] = ()):
        ordered = tuple(sorted(parts, reverse=True))
        for p in ordered:
            _check_int(p, "partition part", 1)
        object.__setattr__(self, "_parts", ordered)
        object.__setattr__(self, "_n", sum(ordered))

    @classmethod
    def unchecked(cls, parts: tuple[int, ...]) -> "Partition":
        """Wrap `parts` without sorting or validating it.

        The caller guarantees that `parts` is a weakly decreasing tuple of
        positive ints; the constructor's sort and check are skipped for speed
        where that holds by construction (`decrement_part`,
        `Permutation.cycle_type`; enumeration stores its known n directly).
        Input from outside goes through `Partition(...)`.
        """
        self = _new(cls)
        _set_parts(self, parts)
        _set_n(self, sum(parts))
        return self

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def n(self) -> int:
        """Sum of the parts."""
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, k: int) -> int:
        return self._parts[k]

    def __contains__(self, i: object) -> bool:
        return i in self._parts

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)!r})"

    def __str__(self) -> str:
        return format_partition(self)


class MarkedPartition(_Value):
    """A partition together with a marked part size.

    Immutable and hashable like `Partition`; two marked partitions are equal
    when their shapes and marks are.
    """

    __slots__ = ("shape", "mark")

    shape: Partition
    mark: int

    def __init__(self, shape: Partition, mark: int):
        _check_mark(shape, mark)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "mark", mark)

    @property
    def n(self) -> int:
        return self.shape.n

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MarkedPartition):
            return self.shape == other.shape and self.mark == other.mark
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.shape, self.mark))

    def __repr__(self) -> str:
        return f"MarkedPartition(shape={self.shape!r}, mark={self.mark!r})"

    def __str__(self) -> str:
        return format_marked_partition(self)


# The slots' own setters, for objects built from data that is valid by
# construction: each store costs about a third of an object.__setattr__ call,
# which looks the slot up by name every time. The checked constructors keep
# object.__setattr__.
_new = object.__new__
_set_parts = Partition._parts.__set__
_set_n = Partition._n.__set__


def _check_int(value: int, what: str, low: int = 0, high: int | None = None) -> None:
    # the one test of an integer argument, for every function that takes a
    # size, count, length or index: bool is an int subclass, and True would
    # pass as 1, as 2.0 would as 2 and turn an exact count into a float
    if type(value) is not int:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < low or high is not None and value > high:
        bound = f"at least {shown(low)}" if high is None else f"in {shown(low)}..{shown(high)}"
        raise DomainError(f"{what} must be {bound}, got {shown(value)}")


def _check_order(n: int, *shapes: Partition) -> None:
    # the one test that shapes are partitions of the same n
    for lam in shapes:
        if lam.n != n:
            raise DomainError(f"{lam} is not a partition of {n}")


def _check_mark(lam: Partition, i: int) -> None:
    # the one test that a mark names a part, for every function that takes
    # a marked class (lam, i)
    _check_int(i, "mark", 1)
    if i not in lam.parts:
        raise DomainError(f"mark {i} is not a part of {lam}")


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order, (n) first."""
    _check_int(n, "n")
    # `Partition.unchecked` inlined with the known n: its call and the sum of
    # each tuple are about 7% of the `aggregates` benchmark's batch time, which
    # enumerates the 32,860 partitions of 35 and 36 in every batch
    out = []
    for parts in _descending_parts(n):
        lam = _new(Partition)
        _set_parts(lam, parts)
        _set_n(lam, n)
        out.append(lam)
    return out


def _descending_parts(n: int) -> Iterator[tuple[int, ...]]:
    # ZS1 (Zoghbi and Stojmenovic, "Fast algorithms for generating integer
    # partitions", Int. J. Comput. Math. 70, 1998): reverse-lex order in
    # constant amortized time on one array. The first m entries of x are the
    # parts, every entry after index h is 1, and each step lowers x[h] by one
    # and refills the parts after it as greedily as the lowered part allows.
    if not n:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            r = x[h] - 1
            t = m - h  # the units to refill: the 1s after h and the one taken off
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def enumerate_marked_partitions(n: int) -> list[MarkedPartition]:
    """All marked partitions of n, ordered by (reverse-lex shape, decreasing mark)."""
    out: list[MarkedPartition] = []
    for lam in enumerate_partitions(n):
        for i in sorted(set(lam.parts), reverse=True):
            out.append(MarkedPartition(lam, i))
    return out


def decrement_part(lam: Partition, i: int) -> Partition:
    """Replace one part i of lam by i - 1, deleting it when i = 1.

    This is the shape obtained by removing the cell holding the largest
    symbol from a tableau whose last symbol sits on a row of length i.
    The result is a partition of n - 1.
    """
    _check_mark(lam, i)
    parts = lam.parts
    if i == 1:
        return Partition.unchecked(parts[:-1])
    # lowering the last copy of i keeps the tuple weakly decreasing
    last = len(parts) - 1 - parts[::-1].index(i)
    return Partition.unchecked(parts[:last] + (parts[last] - 1,) + parts[last + 1:])


def _cycle_type_symmetry(lam: Partition) -> int:
    # The order of the centralizer of a permutation of type lam divided by n:
    # prod_i i^{m_i} * m_i!.
    z = 1
    for i in set(lam.parts):
        m = lam.parts.count(i)
        z *= i**m * math.factorial(m)
    return z


def class_size(lam: Partition) -> int:
    """Number of permutations of cycle type lam in S_n."""
    return math.factorial(lam.n) // _cycle_type_symmetry(lam)


def marked_class_size(lam: Partition, i: int) -> int:
    """Number of permutations of type lam whose cycle through n has length i.

    Equals (n-1)! * i * m_i(lam) / prod_j j^{m_j} m_j!. Summed over the
    distinct parts i this recovers class_size(lam).
    """
    _check_mark(lam, i)
    m_i = lam.parts.count(i)
    num = math.factorial(lam.n - 1) * i * m_i
    den = _cycle_type_symmetry(lam)
    size, rem = divmod(num, den)
    if rem:
        raise InconsistencyError(f"marked class size of ({lam}, {i}) is not an integer")
    return size


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts such as "3,1,1"; "" is the empty partition."""
    stripped = text.strip()
    if not stripped:
        return Partition()
    try:
        parts = [int(piece) for piece in stripped.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad partition syntax: {text!r}") from exc
    return Partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam.parts)


def parse_marked_partition(text: str) -> MarkedPartition:
    """Parse "shape@mark" syntax such as "3,1,1@1"."""
    if "@" not in text:
        raise DomainError(f"marked partition needs shape@mark, got {text!r}")
    shape_text, _, mark_text = text.partition("@")
    try:
        mark = int(mark_text)
    except ValueError as exc:
        raise DomainError(f"bad mark in {text!r}") from exc
    return MarkedPartition(parse_partition(shape_text), mark)


def format_marked_partition(marked: MarkedPartition) -> str:
    return f"{format_partition(marked.shape)}@{marked.mark}"
