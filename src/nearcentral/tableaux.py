"""Standard Young tableaux, dimensions, and cell contents.

Shapes are drawn in English notation: row 1 on top, row r has lam[r-1]
cells, and the cell in row j and column k (both 1-indexed) has content
k - j. A marked tableau is a standard tableau whose largest symbol n ends
a row of length i; removing that cell gives a tableau of the decremented
shape, which is why marked enumeration refines the usual branching rule.

A tableau stores only its rows. The symbol-to-cell lookup behind
`position` and `content` is built on the first call and kept. Tableaux from
`enumerate_syt` are standard by construction and skip the constructor's
checks, stored through the slots' own setters; `StandardTableau(...)` checks
every filling given to it. `enumerate_syt` is a depth-first search that
places n, n-1, .. at corners on an explicit stack and stops where the free
cells form one row or one column, whose filling is forced.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import DomainError, InconsistencyError
from .partitions import Partition, _check_int, _check_mark, decrement_part

__all__ = [
    "StandardTableau",
    "enumerate_syt",
    "enumerate_syt_marked",
    "dimension",
    "marked_content",
    "content_polynomial",
    "shape_contents",
]


class StandardTableau:
    """An immutable standard filling of a partition shape."""

    __slots__ = ("_rows", "_where")

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        lengths = [len(row) for row in rows]
        if any(lengths[k] < lengths[k + 1] for k in range(len(lengths) - 1)):
            raise DomainError("row lengths must be weakly decreasing")
        symbols = [s for row in rows for s in row]
        for s in symbols:
            _check_int(s, "symbol", 1, len(symbols))
        if len(set(symbols)) != len(symbols):
            raise DomainError("filling must use the symbols 1..n exactly once")
        for row in rows:
            if any(row[k] >= row[k + 1] for k in range(len(row) - 1)):
                raise DomainError("rows must increase left to right")
        for r in range(1, len(rows)):
            if any(rows[r - 1][c] >= rows[r][c] for c in range(len(rows[r]))):
                raise DomainError("columns must increase top to bottom")
        object.__setattr__(self, "_rows", tuple(tuple(row) for row in rows))
        object.__setattr__(self, "_where", None)

    @classmethod
    def _unchecked(cls, rows: tuple[tuple[int, ...], ...]) -> "StandardTableau":
        # The caller guarantees `rows` is a tuple of tuples forming a standard
        # filling of a partition shape.
        self = _new(cls)
        _set_rows(self, rows)
        _set_where(self, None)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StandardTableau is immutable")

    def __reduce__(self):
        return StandardTableau, (self._rows,)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self._rows)

    @property
    def n(self) -> int:
        return sum(map(len, self._rows))

    def position(self, symbol: int) -> tuple[int, int]:
        """(row, column) of a symbol, 1-indexed."""
        _check_int(symbol, "symbol", 1, self.n)
        where = self._where
        if where is None:
            where = {
                s: (r, c)
                for r, row in enumerate(self._rows, start=1)
                for c, s in enumerate(row, start=1)
            }
            _set_where(self, where)
        return where[symbol]

    def content(self, symbol: int) -> int:
        r, c = self.position(symbol)
        return c - r

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StandardTableau):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"StandardTableau({self._rows!r})"


# the slots' own setters, as in `partitions`: the lazy symbol lookup and
# tableaux valid by construction skip object.__setattr__
_new = object.__new__
_set_rows = StandardTableau._rows.__set__
_set_where = StandardTableau._where.__set__


def enumerate_syt(lam: Partition) -> list[StandardTableau]:
    """All standard tableaux of shape lam.

    Symbols are placed from n downward at removable corners, trying the
    topmost corner first, so the output order is deterministic.  The search
    backtracks through an explicit stack, so a shape of any number of cells
    stays within Python's recursion limit, and finds the next corner through
    the column lengths in one step, so a tall shape costs no more per cell
    than a long row.  Once the cells left form one row or one column, the
    symbols left fill them in order, so the search stops there.
    """
    parts = lam.parts
    # a free cell (r, c) of row 0 or column 0 holds r + c + 1, its symbol
    # when the free cells are one row or one column; the other free cells
    # are overwritten before any tableau is read
    filling = [list(range(r + 1, r + 1 + part)) for r, part in enumerate(parts)]
    results: list[StandardTableau] = []
    lengths = [*parts, 0]  # free cells per row; the 0 ends the corner search
    # depth[c] is the number of rows with more than c free cells, so among the
    # rows of L free cells the lowest, the only removable corner, is row
    # depth[L - 1] - 1
    depth = _conjugate_lengths(lam)
    placed: list[int] = []  # the row of each symbol placed so far, n first
    symbol = lam.n  # the next symbol to place
    r = 0  # the first row to try it in
    while True:
        if lengths[0] == symbol or depth[0] == symbol:
            results.append(StandardTableau._unchecked(tuple(map(tuple, filling))))
        elif lengths[r]:
            length = lengths[r]
            r = depth[length - 1] - 1
            filling[r][length - 1] = symbol
            lengths[r] = length - 1
            depth[length - 1] = r
            placed.append(r)
            symbol -= 1
            r = 0
            continue
        # every corner for this symbol is tried: take back the last one placed
        if not placed:
            return results
        r = placed.pop()
        length = lengths[r]
        depth[length] = r + 1
        filling[r][length] = r + length + 1  # free again
        lengths[r] = length + 1
        symbol += 1
        r += 1


def enumerate_syt_marked(lam: Partition, i: int) -> list[StandardTableau]:
    """Standard tableaux of shape lam whose largest symbol ends a row of length i.

    n can only end the lowest row of length i, so each is a tableau of
    i_-(lam) with n appended to that row (a new one-cell row when i = 1),
    listed in `enumerate_syt`'s order.
    """
    n = lam.n
    r = sum(1 for part in lam if part >= i) - 1  # the lowest row of length i
    marked = []
    for tab in enumerate_syt(decrement_part(lam, i)):
        rows = list(tab.rows)
        if r == len(rows):
            rows.append(())
        rows[r] += (n,)
        marked.append(StandardTableau._unchecked(tuple(rows)))
    return marked


def _conjugate_lengths(lam: Partition) -> list[int]:
    if len(lam) == 0:
        return []
    cols = [0] * lam[0]
    for part in lam:
        for c in range(part):
            cols[c] += 1
    return cols


@cache
def dimension(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by the hook length formula."""
    cols = _conjugate_lengths(lam)
    hooks = 1
    for r, part in enumerate(lam, start=1):
        for c in range(1, part + 1):
            hooks *= part - c + cols[c - 1] - r + 1
    d, rem = divmod(math.factorial(lam.n), hooks)
    if rem:
        raise InconsistencyError(f"hook length product of {lam} does not divide n!")
    return d


def marked_content(lam: Partition, i: int) -> int:
    """Content of the cell where n sits in any tableau marked at part i.

    The cell is the last one of the lowest row of length i, so its content
    is i minus the number of rows of length at least i.
    """
    _check_mark(lam, i)
    return i - sum(1 for part in lam if part >= i)


def shape_contents(lam: Partition) -> list[int]:
    """Multiset of contents of all cells of lam."""
    return [c - r for r, part in enumerate(lam, start=1) for c in range(1, part + 1)]


def content_polynomial(lam: Partition) -> list[int]:
    """Coefficients of prod over cells of (t + content), low degree first.

    Entry k is the coefficient of t^k, which equals the elementary
    symmetric polynomial of degree n - k in the contents of lam.
    """
    coeffs = [1]
    for c in shape_contents(lam):
        nxt = [0] * (len(coeffs) + 1)
        for k, a in enumerate(coeffs):
            nxt[k + 1] += a
            nxt[k] += c * a
        coeffs = nxt
    return coeffs
