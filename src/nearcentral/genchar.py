"""Generalized characters of the marked-class basis.

The algebra spanned by the marked class sums K_{lam,i} is commutative, and its
primitive idempotents Gamma^{mu,j} are indexed by the same marked partitions.
The coefficient of Gamma^{mu,j} in K_{lam,i}, normalized by n!/d_mu, is the
generalized character gamma^{mu,j}_{lam,i}.  This module computes those
numbers three ways, plus the structure constants and orthogonality sums
built from them:

- closed forms (`genchar_table2`), chiefly the Jucys-Murphy polynomials of
  Table 1 evaluated at contents, for n <= STAR_CLOSED_MAX;
- the marked Murnaghan-Nakayama rule (`genchar`, `genchar_row`) for every
  other class at n <= GENCHAR_MAX_N: gamma^{mu,j}_{lam,i} is the sum over
  nu of chi^nu on lam less one part i, times a marked rim factor that one
  backward pass from (mu, j) yields for every nu and every i (`_RimPass`);
- a trace in Young's seminormal form (`genchar_column`), a sum over the
  standard tableaux run as paths in Young's lattice, for every class at
  n <= COLUMN_MAX_N: one forward pass over the marked block's i cells,
  started from chi on lam less one part i, gives a whole column
  (`_lattice_pass`).

The character sum over S_{n-1} (`oracle.genchar_strahov`) is their
verifier.  Both passes, like the chi kernels of `characters`, hold a shape
as its beta-number set in the bits of one int: the rim pass over len(mu)
rows, the lattice pass over n rows.

The dispatcher `genchar` takes the closed form when the class has one (a
cached set per n), else the rule, whose rim pass is cached per superscript
(mu, j) and deepened only as far as the mark i asks.  Rows, a fixed (mu, j)
against every class, are cached too (`genchar_row`); the row sums
`weighted_sum` and `orthogonality_check` read them, while
`subscript_sum_chi`, a sum over the parts of one lam, takes its own values.
Sums over every marked shape (mu, j) for one class (lam, i) read its cached
integer column instead (`_column`, the seminormal pass): `genchar_column`,
the star-count spectra of `starcount` and `multi_product_coefficient`
(hence `connection_coefficient`), which sums the factor columns in integers
and divides once.  Every sum over the marked shapes of n takes their order
and weights d_mu, d_{j_-(mu)}, c_{mu,j}, |C_{mu,j}| from `_marked_shapes`.

Everything is exact: values are `fractions.Fraction`, never floats.  The
rim pass and the lattice pass keep integer weights over powers of
scale = lcm(1..n-1); a column keeps them as integers over its lowest
common denominator, and single values become Fractions at the end.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache, lru_cache
from typing import Any, Callable, NamedTuple, Sequence

from .characters import (
    _beta_mask,
    _chi_column,
    _mn,
    _partition_counts,
    _shape_masks,
    _shapes,
)
from .errors import (
    DomainError,
    InconsistencyError,
    UnsupportedPattern,
    counted,
    refuse_past,
    shown,
)
from .partitions import (
    MarkedPartition,
    Partition,
    _check_int,
    _check_mark,
    _check_order,
    _cycle_type_symmetry,
    decrement_part,
    class_size,
    marked_class_size,
)
from .tableaux import dimension, marked_content, shape_contents

__all__ = [
    "JMVariables",
    "table1_rows",
    "table1_poly",
    "evaluate_asf",
    "COLUMN_MAX_N",
    "GENCHAR_MAX_N",
    "STAR_CLOSED_MAX",
    "genchar_column",
    "genchar_table2",
    "genchar_hook_row",
    "genchar",
    "genchar_row",
    "superscript_sum",
    "subscript_sum_chi",
    "weighted_sum",
    "connection_coefficient",
    "multi_product_coefficient",
    "orthogonality_check",
]


class JMVariables(NamedTuple):
    """The values a Table 1 row is evaluated at.

    A row of `table1_rows` is a plain function of one `JMVariables` built
    from `+`, `-`, `*` and int or Fraction scaling, so the same function
    serves two kinds of value.  In the group algebra (`evaluate_asf_at_jm`)
    `inner` is J_2 .. J_{n-1}, `xn` is J_n and `one` is the identity.  Under
    the content substitution for a marked shape (mu, j) (`evaluate_asf`),
    `inner` is the multiset of contents of the reduced shape j_-(mu) minus
    one zero, `xn` is the marked content c_{mu,j} and `one` is 1; a
    polynomial in Jucys-Murphy elements acts on Gamma^{mu,j} by that value.
    Constants enter through `one`, and sums start at `0 * one`.
    """

    inner: tuple[Any, ...]
    xn: Any
    one: Any


# a Table 1 row: a polynomial in the Jucys-Murphy elements
Row = Callable[[JMVariables], Any]


def _elementary(values: Sequence[Any], degree: int, one: Any) -> Any:
    # coefficient of t^degree in prod (1 + v t), by one-row convolution;
    # the values commute, so this holds for Jucys-Murphy elements as well.
    # After value t, row[d] is e_d of the first t + 1 values; only the band
    # of d <= t + 1 that the remaining values can still lift to `degree` is
    # kept, so e_m of m values costs m steps instead of m^2
    m = len(values)
    if degree > m:
        return 0 * one
    row = [one] + [0 * one] * degree
    for t, v in enumerate(values):
        for d in range(min(degree, t + 1), max(0, degree - m + t), -1):
            row[d] = row[d] + row[d - 1] * v
    return row[degree]


def _p1(v: JMVariables) -> Any:
    return sum(v.inner, 0 * v.one)


def _p2(v: JMVariables) -> Any:
    return sum((x * x for x in v.inner), 0 * v.one)


def _inner_contents(mu: Partition, j: int) -> list[int]:
    reduced = decrement_part(mu, j)
    contents = sorted(shape_contents(reduced))
    if contents:
        contents.remove(0)  # the (1,1) cell of the reduced shape
    return contents


def evaluate_asf(f: Row, mu: Partition, j: int) -> Fraction:
    """Evaluate the row `f` under the content substitution attached to
    (mu, j); see `JMVariables`."""
    values = JMVariables(tuple(_inner_contents(mu, j)), marked_content(mu, j), 1)
    return Fraction(f(values))


def table1_rows(n: int) -> list[tuple[MarkedPartition, Row]]:
    """All marked classes of S_n with a known polynomial in Jucys-Murphy
    elements, paired with that polynomial as a function of `JMVariables`.

    Called on J_2 .. J_{n-1}, J_n and the identity, a row returns the marked
    class sum exactly; called on contents it returns the scalar by which the
    class sum acts on the matching idempotent.
    """
    _check_int(n, "n", 1)
    half = Fraction(1, 2)
    pairs = math.comb(n - 1, 2)
    rows: list[tuple[MarkedPartition, Row]] = []
    if n >= 2:
        swap_tail = Partition((2,) + (1,) * (n - 2))
        rows.append((MarkedPartition(swap_tail, 2), lambda v: v.xn))
    if n >= 3:
        rows.append((MarkedPartition(swap_tail, 1), _p1))
        three_tail = Partition((3,) + (1,) * (n - 3))
        rows.append(
            (MarkedPartition(three_tail, 3), lambda v: v.xn * v.xn - (n - 1) * v.one)
        )
    if n >= 4:
        double_tail = Partition((2, 2) + (1,) * (n - 4))
        rows.append(
            (
                MarkedPartition(double_tail, 2),
                lambda v: _p1(v) * v.xn - v.xn * v.xn + (n - 1) * v.one,
            )
        )
        rows.append((MarkedPartition(three_tail, 1), lambda v: _p2(v) - pairs * v.one))
    if n >= 5:
        rows.append(
            (
                MarkedPartition(double_tail, 1),
                lambda v: half * (_p1(v) * _p1(v) - 3 * _p2(v)) + pairs * v.one,
            )
        )
    rows.append(
        (
            MarkedPartition(Partition((n,)), n),
            lambda v: _elementary((*v.inner, v.xn), n - 1, v.one),
        )
    )
    if n >= 2:
        near_fix = Partition((n - 1, 1))
        rows.append(
            (MarkedPartition(near_fix, 1), lambda v: _elementary(v.inner, n - 2, v.one))
        )
    return rows


def table1_poly(lam: Partition, i: int) -> Row:
    """Polynomial in Jucys-Murphy elements equal to K_{lam,i}, when known."""
    target = MarkedPartition(lam, i)
    try:
        return _table1_index(lam.n)[target]
    except KeyError:
        raise UnsupportedPattern(f"no polynomial template for K_{target}") from None


@cache
def _table1_index(n: int) -> dict[MarkedPartition, Row]:
    # at small n `table1_rows` lists some classes twice; the first row wins
    index: dict[MarkedPartition, Row] = {}
    for marked, poly in table1_rows(n):
        index.setdefault(marked, poly)
    return index


# ---------------------------------------------------------------------------
# the marked shapes of n


class _MarkedShapes(NamedTuple):
    marked: tuple[MarkedPartition, ...]  # in `enumerate_marked_partitions` order
    shape: tuple[int, ...]  # position of mu among the shapes of n
    dim: tuple[int, ...]  # d_mu
    reduced: tuple[int, ...]  # d_{j_-(mu)}
    content: tuple[int, ...]  # c_{mu,j}
    size: tuple[int, ...]  # |C_{mu,j}|


@cache
def _marked_shapes(n: int) -> _MarkedShapes:
    # the marked shapes of n in column and row order, and the weights of the
    # sums over them; each reader checks its limit on n first.  The mark j
    # ends the lowest row r of length j: c_{mu,j} = j - 1 - r, j_-(mu)
    # shortens row r (dropping it when j = 1), d_mu = sum_j d_{j_-(mu)} and
    # |C_{mu,j}| = (n-1)! j m_j / prod_i i^m_i m_i!
    mus, marks, shape, dim, reduced, content, size = [], [], [], [], [], [], []
    below = {nu.parts: dimension(nu) for nu in _shapes(n - 1)} if n else {}
    factorial = math.factorial(n - 1) if n else 0
    for k, mu in enumerate(_shapes(n)):
        parts, z, first = mu.parts, _cycle_type_symmetry(mu), len(marks)
        for r, (j, after) in enumerate(zip(parts, parts[1:] + (0,))):
            if j != after:
                mus.append(mu)
                marks.append(j)
                shape.append(k)
                reduced.append(below[parts[:r] + (j - 1,) * (j > 1) + parts[r + 1 :]])
                content.append(j - 1 - r)
                size.append(factorial * j * parts.count(j) // z)
        dim += [sum(reduced[first:])] * (len(marks) - first)
    return _MarkedShapes(
        tuple(map(MarkedPartition, mus, marks)),
        *map(tuple, (shape, dim, reduced, content, size)),
    )


# ---------------------------------------------------------------------------
# the seminormal trace

# largest n of any sum over every marked shape of n: a gamma column, and so
# every star count and product coefficient (`starcount` re-exports it as
# STAR_COUNT_MAX_N); a cold column at n = 30 takes 0.2-0.85 s
COLUMN_MAX_N = 30


def _marked_count(n: int) -> int:
    # a marked partition (mu, j) of n is a partition of n - j plus the part
    # j, so there are p(0) + .. + p(n-1) of them
    return sum(_partition_counts(n)[:n])


def genchar_column(lam: Partition, i: int) -> dict[MarkedPartition, Fraction]:
    """gamma^{mu,j}_{lam,i} for every marked shape (mu, j) of n, keyed in
    `enumerate_marked_partitions` order, from the cached integer column
    `_column`: one lattice pass of the seminormal trace over the marked
    block, for every class up to COLUMN_MAX_N.  A larger n raises
    `GuardExceeded` naming the marked shapes of n."""
    _check_mark(lam, i)  # before the cache, which answers 2.0 under 2
    den, weights = _column(lam, i)
    return dict(zip(_marked_shapes(lam.n).marked, (Fraction(w, den) for w in weights)))


@cache
def _column(lam: Partition, i: int) -> tuple[int, tuple[int, ...]]:
    # (den, weights) in lowest terms: gamma^{mu,j}_{lam,i} is weights[t] / den
    # for the t-th marked shape (mu, j) of enumerate_marked_partitions(n).
    # The summed weight of the paths that end on mu with n's cell at content
    # c_{mu,j} is the value at (mu, j); a marked shape no path reaches has
    # the value 0.  Every caller has checked the mark.
    n = lam.n
    refuse_past(
        n, COLUMN_MAX_N, "n",
        lambda: f"gamma column at n={shown(n)} holds one value for each of the "
        f"{counted(n, _marked_count)} marked shapes of n",
    )
    ends, den = _lattice_pass(lam, i)
    table, masks = _marked_shapes(n), _shape_masks(n)
    weights = [ends.get(masks[k], {}).get(c, 0) for k, c in zip(table.shape, table.content)]
    common = math.gcd(den, *weights)
    return den // common, tuple(w // common for w in weights)


def _lattice_pass(lam: Partition, i: int) -> tuple[dict[int, dict[int, int]], int]:
    # K_{lam,i} commutes with S_{n-1}, so it acts by a scalar on the block of
    # V^mu that restricts to j_-(mu), and gamma^{mu,j}_{lam,i} is the trace
    # of rho^mu(pi) on that block for any pi in (lam, i).  A Young basis is
    # adapted to the restriction, so the trace is the sum of rho^mu(pi)_{T,T}
    # over the standard tableaux T of mu whose n ends a row of length j.
    #
    # Take pi as cycles on consecutive blocks of symbols, the marked cycle on
    # the top block n-i+1 .. n: pi is then the product of the adjacent
    # transpositions s_k with k and k+1 in one block, each once.  In the
    # seminormal form s_k v_T = v_T / r + a v_{s_k T}, where
    # r = c_T(k+1) - c_T(k) is the difference of contents; a = 0 when k and
    # k+1 share a row (r = 1) or a column (r = -1), else a = 1 for r > 0 and
    # a = 1 - 1/r^2 for r < 0 (Murphy, J. Algebra 1981; Okounkov-Vershik,
    # Selecta Math. 1996).  Expanding the product, a path that leaves T
    # through the transpositions of a nonempty subword ends at sigma T, with
    # sigma that subword's product, which is not the identity because its
    # letters are distinct.  So only the path that stays on T returns to it,
    # and rho^mu(pi)_{T,T} = prod_k 1 / r_k(T).
    #
    # The sum over tableaux runs as paths in Young's lattice: place the
    # symbols one cell at a time and keep, per shape so far and content of
    # the last cell, the summed weight of the tableaux that reach it.  The
    # symbols 1 .. n-i carry pi's other cycles, so the paths up to there sum,
    # per shape nu of n-i, to the ordinary trace chi^nu_{lam minus i}: the
    # pass starts from that chi column.  s_{n-i} ends a block, so placing
    # n-i+1 is unlinked; each later step divides by r with 0 < |r| <= n - 1,
    # i.e. multiplies by scale // r exactly, scale = lcm(1..n-1).
    #
    # A shape is its beta-number set over n rows, held as the bits of one
    # int, and the states are {mask: {content of the last cell: weight}}, so
    # a mask's addable cells are found once for all of its contents.  Adding
    # a cell to row k moves bead b = nu_k + n - 1 - k up onto a free b + 1,
    # and the cell's content is b + 1 - n.  A step multiplies by step[r]: 1
    # for the unlinked cell, then link[r] = scale // r.  The pair
    # (mu, content) is the marked shape (mu, j), because the corners of mu
    # lie on distinct diagonals.  Returns the states after n cells, keyed by
    # the mask without zero rows as `_shape_masks` holds it, integers over
    # scale^(i - 1), and that denominator.
    n, parts = lam.n, lam.parts
    t = parts.index(i)
    scale = math.lcm(*range(1, n))
    link = {d: scale // d for d in range(1 - n, n) if d}
    chis = zip(_shape_masks(n - i), _chi_column(parts[:t] + parts[t + 1 :]))
    # one set bit per zero row; the start's content key meets only the
    # unlinked step's 1s
    states = {(m + 1 << n - m.bit_count()) - 1: {0: w} for m, w in chis if w}
    for step in [dict.fromkeys(range(1 - n, n), 1)] + [link] * (i - 1):
        grown: dict[int, dict[int, int]] = {}
        for mask, lasts in states.items():
            # a bead b with b + 1 free ends a row that can take a cell
            addable = mask & ~(mask >> 1)
            while addable:
                bead = addable & -addable
                addable ^= bead
                content = bead.bit_length() - n
                weight = 0
                for c, w in lasts.items():
                    weight += w * step[content - c]
                grown.setdefault(mask ^ bead ^ bead << 1, {})[content] = weight
        states = grown
    return {_without_zero_rows(m): w for m, w in states.items()}, scale ** (i - 1)


# ---------------------------------------------------------------------------
# the marked Murnaghan-Nakayama rule

# largest n at which `genchar` and `genchar_row` take the rule, for classes
# without a closed form; the slowest cold rows found at n = 26, such as
# (9,7,4,3,2,1)@4, take about a second (about 1.5 s at n = 27, 0.6 s at 24)
GENCHAR_MAX_N = 26


class _RimPass:
    """The backward rim pass of a marked shape (mu, j), deepened on demand.

    In the seminormal trace the marked cycle sits on the top block
    n-i+1 .. n, and s_{n-i} is not in the word, so the symbols below the
    block contribute the ordinary trace of pi's other cycles on V^nu, which
    is chi^nu_{lam minus i}.  Hence
    gamma^{mu,j}_{lam,i} = sum over nu of chi^nu_{lam minus i} h_i(nu),
    where the marked rim factor h_i(nu) sums, over the fillings of mu / nu
    by n-i+1 .. n that put n at the end of the lowest row of length j,
    prod_k 1 / (c(k+1) - c(k)) for k = n-i+1 .. n-1.

    The pass takes n off mu and then one corner at a time: a state is (the
    shape left, content of the last cell removed).  Removing a cell of
    content c after one of content c_last multiplies by 1 / (c_last - c),
    held as scale // (c_last - c), scale = lcm(1..n-1).  After d more cells
    the weights, summed by shape, are h_{d+1}(nu) scale^d.  A shape is its
    beta-number set over len(mu) rows, held as the bits of one int: taking
    a cell off row k lowers bead b = mu_k + len(mu) - 1 - k by one, onto a
    free place, and the cell's content is b - len(mu).
    """

    __slots__ = ("scale", "rows", "states", "levels")

    def __init__(self, mu: Partition, j: int):
        parts = mu.parts
        self.scale = math.lcm(*range(1, mu.n))
        self.rows = rows = len(parts)
        # n ends the lowest row k of length j: its bead is j + rows - 1 - k
        k = rows - 1 - parts[::-1].index(j)
        bead = 1 << (j + rows - 1 - k)
        mask = _beta_mask(parts) ^ bead ^ (bead >> 1)
        self.states = {(mask, j - 1 - k): 1}
        # levels[d]: ((beta mask of nu without zero rows, h_{d+1}(nu) scale^d), ..)
        self.levels = [((_without_zero_rows(mask), 1),)]

    def level(self, d: int) -> tuple[tuple[int, int], ...]:
        while len(self.levels) <= d:
            self._step()
        return self.levels[d]

    def _step(self) -> None:
        # one more cell off every state; the level is summed on the way
        scale, rows = self.scale, self.rows
        grown: dict[tuple[int, int], int] = {}
        by_shape: dict[int, int] = {}
        for (mask, last), weight in self.states.items():
            # a bead b >= 1 with b - 1 free is a corner of its row
            movable = mask & ~(mask << 1) & ~1
            while movable:
                bead = movable & -movable
                movable ^= bead
                content = bead.bit_length() - 1 - rows
                smaller = mask ^ bead ^ (bead >> 1)
                step = weight * (scale // (last - content))
                key = (smaller, content)
                grown[key] = grown.get(key, 0) + step
                by_shape[smaller] = by_shape.get(smaller, 0) + step
        self.states = grown
        self.levels.append(
            tuple((_without_zero_rows(m), w) for m, w in by_shape.items() if w)
        )


def _without_zero_rows(mask: int) -> int:
    # a beta mask as `_mn` keys it: the zero rows, the low run of set bits,
    # shifted off
    return mask >> (mask ^ (mask + 1)).bit_length() - 1


@cache
def _rim_pass(mu: Partition, j: int) -> _RimPass:
    return _RimPass(mu, j)


def _rule_value(mu: Partition, j: int, lam: Partition, i: int) -> Fraction:
    # gamma^{mu,j}_{lam,i} by the marked rule: level i - 1 of the rim pass
    # against chi^nu on lam less one part i, then one division
    rim = _rim_pass(mu, j)
    parts = lam.parts
    t = parts.index(i)
    rest = parts[:t] + parts[t + 1 :]
    total = sum(weight * _mn(mask, rest) for mask, weight in rim.level(i - 1))
    return Fraction(total, rim.scale ** (i - 1))


def _shapes_inside(parts: tuple[int, ...], cells: int) -> int:
    # the partitions nu inside the first `cells` cells of parts read row by
    # row, itself a partition, the empty one too: counts[v] is the number of
    # choices of the rows so far whose last row has length v
    before = itertools.accumulate(parts, initial=0)
    rows = [min(part, cells - s) for part, s in zip(parts, before) if s < cells]
    counts = [1] * (rows[0] + 1)
    for bound in rows[1:]:
        counts = list(itertools.accumulate(reversed(counts)))[::-1][: bound + 1]
    return sum(counts)


def _rim_work(mu: Partition, j: int) -> str:
    # what a refused rule names: its rim pass, whose states are shapes inside mu
    inside = counted(mu.n, lambda cells: _shapes_inside(mu.parts, cells))
    return (
        f"at n={shown(mu.n)} takes a rim pass from {','.join(map(shown, mu.parts))}"
        f"@{shown(j)} over some of the {inside} shapes inside it"
    )


@cache
def _closed_classes(n: int) -> frozenset[tuple[Partition, int]]:
    # the classes (lam, i) of n that `genchar_table2` answers: the identity,
    # (n-1, 1) marked on the long cycle, and every class of Table 1; none has
    # more than two parts above 1.  Past STAR_CLOSED_MAX they are refused
    # before any is built, as their shapes have up to n parts
    _check_closed(n)
    closed = {(m.shape, m.mark) for m in _table1_index(n)}
    closed.add((Partition.unchecked((1,) * n), 1))
    if n >= 5:
        closed.add((Partition.unchecked((n - 1, 1)), n - 1))
    return frozenset(closed)


# ---------------------------------------------------------------------------
# closed-form rows

# largest n of a closed-form gamma and of `starcount.star_count_closed`, and
# largest r every star count takes.  Every closed-form gamma tried at
# n = 1000 takes at most 4 ms, but its dimensions of shapes of n grow like
# sqrt(n!): (99997,2,1)@1 on (99999,1)@99999 took 8.7 s.  In `starcount`
# the transposed-mark case needs O(n) near-hook dimensions, which cost about
# n^3 (a cold n = 1000 takes about 0.25 s), and r sets the bit length of
# every power c^r (`star_count_class` at n = 18 took 2.5 s at r = 10^5)
STAR_CLOSED_MAX = 1000


def _check_closed(n: int) -> None:
    refuse_past(
        n, STAR_CLOSED_MAX, "n",
        lambda: f"closed-form gamma at n={shown(n)} works with dimensions of shapes of n",
    )


def _common_order(mu: Partition, j: int, lam: Partition, i: int) -> int:
    _check_mark(mu, j)
    _check_mark(lam, i)
    _check_order(mu.n, lam)
    return mu.n


def _parse_hook(parts: tuple[int, ...]) -> int | None:
    # returns k for parts == (n-k, 1^k), else None
    k = len(parts) - 1
    if parts == (sum(parts) - k,) + (1,) * k:
        return k
    return None


def _parse_near_hook(parts: tuple[int, ...]) -> int | None:
    # returns k for parts == (n-k-1, 2, 1^{k-1}) with k >= 1, else None
    k = len(parts) - 1
    if k >= 1 and parts == (sum(parts) - k - 1, 2) + (1,) * (k - 1):
        return k
    return None


def genchar_table2(mu: Partition, j: int, lam: Partition, i: int) -> Fraction:
    """gamma^{mu,j}_{lam,i} in closed form, when (lam, i) has one.

    The identity class gives d_{j_-(mu)}; the class (n-1, 1) marked on the
    long cycle gives the hook row; any class with a Table 1 polynomial f
    gives f(contents of (mu, j)) d_{j_-(mu)} / |C_{lam,i}|, because K_{lam,i}
    acts on Gamma^{mu,j} by that scalar.  Other classes raise
    `UnsupportedPattern`, and n above STAR_CLOSED_MAX raises `GuardExceeded`.
    """
    n = _common_order(mu, j, lam, i)
    _check_closed(n)
    if lam.parts == (1,) * n:
        return Fraction(dimension(decrement_part(mu, j)))
    # below n = 5 Table 1 already holds this class
    if n >= 5 and lam.parts == (n - 1, 1) and i == n - 1:
        return genchar_hook_row(mu, j)
    poly = table1_poly(lam, i)
    return evaluate_asf(poly, mu, j) * Fraction(
        dimension(decrement_part(mu, j)), marked_class_size(lam, i)
    )


def genchar_hook_row(mu: Partition, j: int) -> Fraction:
    """gamma^{mu,j}_{(n-1,1), n-1} in closed form, for 3 <= n <= STAR_CLOSED_MAX;
    a larger n raises `GuardExceeded`."""
    n = mu.n
    _check_int(n, "n", 3)
    _check_mark(mu, j)
    _check_closed(n)
    parts = mu.parts
    if parts == (n,):
        return Fraction(1)
    if parts == (1,) * n:
        return Fraction((-1) ** n)
    k = _parse_hook(parts)
    if k is not None:
        if j == 1:
            return Fraction((-1) ** k, n - 1)
        return Fraction((-1) ** (k + 1), n - 1)
    k = _parse_near_hook(parts)
    if k is not None:
        if j == 2:
            return Fraction((-1) ** k, k * (n - k - 2))
        # marks other than 2 leave a non-hook reduced shape, so the companion
        # value for the fixed-point mark vanishes and the recurrence collapses
        # to n chi^mu_{(n-1,1)} d_{j_-(mu)} / ((n-1) d_mu)
        return Fraction(
            (-1) ** k * n * dimension(decrement_part(mu, j)),
            (n - 1) * dimension(mu),
        )
    return Fraction(0)


# typed, so that a mark of another type equal to an int mark (2.0, True)
# misses the cache and is refused instead of answered
@lru_cache(maxsize=None, typed=True)
def genchar(mu: Partition, j: int, lam: Partition, i: int) -> Fraction:
    """gamma^{mu,j}_{lam,i}: the closed form of `genchar_table2` when the
    class has one (n <= STAR_CLOSED_MAX), else the marked Murnaghan-Nakayama
    rule, for n <= GENCHAR_MAX_N; a larger n raises `GuardExceeded` naming
    n and the limit, or the rim pass it would take."""
    n = _common_order(mu, j, lam, i)
    # at most two parts above 1, like every class with a closed form
    if lam.parts[2:3] <= (1,) and (lam, i) in _closed_classes(n):
        return genchar_table2(mu, j, lam, i)
    refuse_past(
        n, GENCHAR_MAX_N, "n", lambda: f"marked Murnaghan-Nakayama rule {_rim_work(mu, j)}"
    )
    return _rule_value(mu, j, lam, i)


def genchar_row(mu: Partition, j: int) -> dict[MarkedPartition, Fraction]:
    """gamma^{mu,j}_{lam,i} for every marked class (lam, i) of n, keyed in
    `enumerate_marked_partitions` order.

    Classes with a closed form take it; the rest read levels of one cached
    rim pass from (mu, j), as `genchar` does.  n above GENCHAR_MAX_N raises
    `GuardExceeded` naming that pass."""
    _check_mark(mu, j)  # before the cache, which answers 2.0 under 2
    row = _row(mu, j)  # refuses a large n before the table of n is built
    return dict(zip(_marked_shapes(mu.n).marked, row))


@cache
def _row(mu: Partition, j: int) -> tuple[Fraction, ...]:
    # gamma^{mu,j} at the t-th marked class of enumerate_marked_partitions(n);
    # every caller has checked the mark
    refuse_past(
        mu.n, GENCHAR_MAX_N, "n",
        lambda: f"gamma row over the {counted(mu.n, _marked_count)} marked classes "
        f"{_rim_work(mu, j)}",
    )
    return tuple(genchar(mu, j, m.shape, m.mark) for m in _marked_shapes(mu.n).marked)


def superscript_sum(mu: Partition, lam: Partition, i: int) -> int:
    """Sum of gamma^{mu,j}_{lam,i} over the distinct parts j of mu.

    Equals the ordinary character chi^mu_lam, hence an integer.
    """
    # an empty mu calls no genchar, which would check the mark and the sizes
    _check_mark(lam, i)
    _check_order(lam.n, mu)
    total = sum(
        (genchar(mu, j, lam, i) for j in sorted(set(mu.parts))), Fraction(0)
    )
    if total.denominator != 1:
        raise InconsistencyError(f"superscript sum came out non-integral: {total}")
    return int(total)


def subscript_sum_chi(mu: Partition, j: int, lam: Partition) -> Fraction:
    """Class-size-weighted sum of gamma^{mu,j}_{lam,i} over the distinct
    parts i of lam, each value from `genchar`.

    Normalized by d_mu / (|C_lam| d_{j_-(mu)}), this again yields chi^mu_lam.
    """
    # an empty lam has no part for `genchar` to check the sizes on
    _check_order(mu.n, lam)
    values = [(i, genchar(mu, j, lam, i)) for i in sorted(set(lam.parts))]
    total = sum((marked_class_size(lam, i) * value for i, value in values), Fraction(0))
    norm = Fraction(dimension(mu), class_size(lam) * dimension(decrement_part(mu, j)))
    return norm * total


def weighted_sum(rho: Partition, ell: int, m: int) -> Fraction:
    """Sum of |C_{lam,i}| gamma^{rho,ell}_{lam,i} / d_{ell_-(rho)} over all
    marked classes whose shape has exactly m parts, read from the row of
    (rho, ell).

    Equals the elementary symmetric polynomial e_{n-m} of the contents of rho,
    i.e. a coefficient of the content polynomial.
    """
    _check_mark(rho, ell)  # before the cache, which answers 2.0 under 2
    _check_int(m, "part count")
    row, table = _row(rho, ell), _marked_shapes(rho.n)
    total = Fraction(0)
    for marked, size, value in zip(table.marked, table.size, row):
        if len(marked.shape) == m:
            total += size * value
    return total / dimension(decrement_part(rho, ell))


def _as_count(total: int, denominator: int, what: str) -> int:
    """total / denominator (denominator > 0), which must be a nonnegative
    integer; one integer division, a Fraction only to word a failure."""
    value, remainder = divmod(total, denominator)
    if remainder or value < 0:
        shown = Fraction(total, denominator)
        raise InconsistencyError(f"{what} came out as {shown}, not a count")
    return value


def connection_coefficient(
    lam: Partition, i: int, mu: Partition, j: int, nu: Partition, k: int
) -> int:
    """Structure constant [K_{nu,k}] K_{lam,i} K_{mu,j}.

    Always a nonnegative integer (it counts factorizations); any other
    value raises `InconsistencyError`.
    """
    return multi_product_coefficient([(lam, i), (mu, j)], nu, k)


# most factors `multi_product_coefficient` multiplies: at n = COLUMN_MAX_N on
# a 2-vCPU host, 30-32 seeded distinct marked classes took 2.8-3.4 s at
# 70 MB peak RSS, and 32 copies of the swap class 0.9 s, where 100 copies
# took 4.8 s
_PRODUCT_FACTORS_MAX = 32


def multi_product_coefficient(
    factors: Sequence[tuple[Partition, int]], mu: Partition, j: int
) -> int:
    """Coefficient of K_{mu,j} in the product of the given marked class sums.

    More than `_PRODUCT_FACTORS_MAX` factors raises GuardExceeded, before
    any factor is read.
    """
    if not factors:
        raise DomainError("need at least one factor")
    refuse_past(
        len(factors), _PRODUCT_FACTORS_MAX, "factors",
        lambda: f"product of {len(factors)} marked class sums",
    )
    n = mu.n
    _check_mark(mu, j)
    for lam, i in factors:
        _check_order(n, lam)
        _check_mark(lam, i)
    r = len(factors)
    # gamma^{rho,ell}_{mu,j} d_rho / d_{ell_-(rho)}^r times the factors'
    # gammas, summed over (rho, ell) in integers: every column is an integer
    # vector over its own denominator
    columns = [_column(mu, j)] + [_column(lam, i) for lam, i in factors]
    scale, weights = _product_weights(n, r)
    total = sum(map(math.prod, zip(weights, *(w for _, w in columns))))
    numerator = math.prod(marked_class_size(lam, i) for lam, i in factors) * total
    denominator = math.factorial(n) * scale * math.prod(den for den, _ in columns)
    return _as_count(numerator, denominator, "product coefficient")


@cache
def _product_weights(n: int, r: int) -> tuple[int, tuple[int, ...]]:
    # (scale, v): v[t] = d_rho scale / d_{ell_-(rho)}^r, an integer, for the
    # t-th marked shape (rho, ell) of n
    table = _marked_shapes(n)
    powers = [dd**r for dd in table.reduced]
    scale = math.lcm(*(dd // math.gcd(d, dd) for d, dd in zip(table.dim, powers)))
    return scale, tuple(d * scale // dd for d, dd in zip(table.dim, powers))


def orthogonality_check(lam: Partition, i: int, mu: Partition, j: int) -> Fraction:
    """Weighted inner product of two rows of generalized characters.

    Returns d_{i_-(lam)} / d_lam when (lam,i) == (mu,j) and 0 otherwise; this
    function computes the sum literally so callers can verify that.
    """
    n = _common_order(lam, i, mu, j)
    left, right = _row(lam, i), _row(mu, j)
    total = sum(map(math.prod, zip(_marked_shapes(n).size, left, right)), Fraction(0))
    return total / math.factorial(n)
