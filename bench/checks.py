"""Independent routes that the benchmark checks every answer against.

Nothing here imports nearcentral: each expected value comes from plain
combinatorics or from an identity the library's answer must satisfy.

- Star counts, class and cycle aggregates and J_n^r coefficients come from
  a walk over marked cycle types: right-multiplying a permutation whose
  symbol n lies on an i-cycle by a star transposition (a n) either splits
  that cycle (a on it) or merges another cycle into it (a elsewhere).
- Connection coefficients and class-sum products are counted literally in
  the group.
- Closed-form star counts are the spectral sum over hooks and near hooks,
  the only shapes on which their generalized characters are nonzero.
- Characters come from a Murnaghan-Nakayama recursion over the boundary
  word of the diagram; dimensions from the hook length formula; standard
  tableaux from placing 1, 2, ..., n at addable cells.

Partitions are tuples of weakly decreasing parts; a marked class is a
(shape, mark) pair.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from functools import cache


def partitions(n: int, largest: int | None = None):
    """Partitions of n in reverse lexicographic order, (n) first."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def marked_classes(n: int) -> list[tuple[tuple[int, ...], int]]:
    return [(lam, i) for lam in partitions(n) for i in sorted(set(lam), reverse=True)]


def label(lam, i=None) -> str:
    text = ",".join(map(str, lam))
    return text if i is None else f"{text}@{i}"


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


# ---------------------------------------------------------------------------
# shapes


def centralizer(lam) -> int:
    z = 1
    for part in set(lam):
        m = lam.count(part)
        z *= part**m * math.factorial(m)
    return z


def class_size(lam) -> int:
    return math.factorial(sum(lam)) // centralizer(lam)


def marked_class_size(lam, i) -> int:
    return math.factorial(sum(lam) - 1) * i * lam.count(i) // centralizer(lam)


def reduce_at(lam, j) -> tuple[int, ...]:
    """The shape left after removing the last cell of the lowest row of length j."""
    rows = list(lam)
    k = max(r for r, part in enumerate(rows) if part == j)
    rows[k] -= 1
    return tuple(p for p in rows if p)


def contents(lam) -> list[int]:
    return [c - r for r, part in enumerate(lam) for c in range(part)]


def marked_content(lam, j) -> int:
    return j - sum(1 for part in lam if part >= j)


def dimension(lam) -> int:
    cols = [sum(1 for part in lam if part > c) for c in range(lam[0])] if lam else []
    hooks = 1
    for r, part in enumerate(lam):
        for c in range(part):
            hooks *= part - c + cols[c] - r - 1
    return math.factorial(sum(lam)) // hooks


def elementary(values, degree: int) -> int:
    row = [1] + [0] * degree
    for v in values:
        for d in range(degree, 0, -1):
            row[d] += row[d - 1] * v
    return row[degree]


@cache
def chi(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character of the irreducible lam on the class mu.

    Works on the boundary word of lam (0 = right step, 1 = up step, read
    from the bottom left): a rim hook of length t is a 0 followed t places
    later by a 1, removed by swapping the two; the sign counts the 1s
    jumped over.
    """
    if not mu:
        return 1
    t, rest = mu[0], mu[1:]
    word = _boundary(lam)
    total = 0
    for p in range(len(word) - t):
        if word[p] == 0 and word[p + t] == 1:
            height = sum(word[p + 1 : p + t])
            swapped = word[:p] + (1,) + word[p + 1 : p + t] + (0,) + word[p + t + 1 :]
            total += (-1) ** height * chi(_shape(swapped), rest)
    return total


def _boundary(lam) -> tuple[int, ...]:
    # walking the rim from the bottom of column 1 to the end of row 1, with
    # rows read bottom-up: a right step per column gained, an up step per row
    word: list[int] = []
    previous = 0
    for part in reversed(lam):
        word.extend([0] * (part - previous))
        word.append(1)
        previous = part
    return tuple(word)


def _shape(word) -> tuple[int, ...]:
    rows = []
    width = 0
    for step in word:
        if step == 0:
            width += 1
        elif width:
            rows.append(width)
    return tuple(sorted(rows, reverse=True))


def syt(lam) -> list[tuple[tuple[int, ...], ...]]:
    """All standard tableaux of shape lam, as tuples of rows, sorted."""
    n = sum(lam)
    out = []

    def grow(rows: list[list[int]], symbol: int) -> None:
        if symbol > n:
            out.append(tuple(tuple(row) for row in rows))
            return
        for r in range(len(lam)):
            if len(rows[r]) < lam[r] and (r == 0 or len(rows[r - 1]) > len(rows[r])):
                rows[r].append(symbol)
                grow(rows, symbol + 1)
                rows[r].pop()

    grow([[] for _ in lam], 1)
    return sorted(out)


# ---------------------------------------------------------------------------
# star factorizations by a walk over marked cycle types


def star_walk(n: int, rmax: int) -> list[dict[tuple[tuple[int, ...], int], int]]:
    """walk[r][(lam, i)]: length-r star sequences whose product has marked type (lam, i)."""
    state = {((1,) * n, 1): 1}
    walk = [state]
    for _ in range(rmax):
        step: dict[tuple[tuple[int, ...], int], int] = {}
        for (lam, i), count in state.items():
            rest = list(lam)
            rest.remove(i)
            for d in range(1, i):  # a on n's cycle: n keeps a d-cycle
                key = (tuple(sorted(rest + [d, i - d], reverse=True)), d)
                step[key] = step.get(key, 0) + count
            for m in set(rest):  # a on an m-cycle: merged into n's cycle
                merged = list(rest)
                merged.remove(m)
                key = (tuple(sorted(merged + [i + m], reverse=True)), i + m)
                step[key] = step.get(key, 0) + count * m * rest.count(m)
        state = step
        walk.append(state)
    return walk


def star_count(walk, lam, i, r) -> int:
    total = walk[r].get((lam, i), 0)
    size = marked_class_size(lam, i)
    if total % size:
        raise ArithmeticError(f"walk total {total} is not a multiple of {size}")
    return total // size


def star_count_class(walk, lam, r) -> int:
    return sum(walk[r].get((lam, i), 0) for i in set(lam))


def star_count_by_cycle_count(walk, k, r) -> int:
    return sum(v for (lam, _), v in walk[r].items() if len(lam) == k)


def jm_power(walk, n, r) -> dict[str, str]:
    return {
        label(lam, i): str(Fraction(walk[r].get((lam, i), 0), marked_class_size(lam, i)))
        for lam, i in marked_classes(n)
    }


# ---------------------------------------------------------------------------
# closed forms: spectral sums over hooks and near hooks


def _closed_gamma(case: str, n: int, mu, j: int, k: int, hook: bool) -> Fraction:
    # the paper's closed rows for the three subscripts, on hooks (n-k, 1^k)
    # and near hooks (n-k-1, 2, 1^(k-1)); zero on every other shape
    head = j == mu[0] and mu[0] >= 2
    if case == "full-cycle":
        if not hook:
            return Fraction(0)
        if j == 1 and k >= 1:
            return Fraction((-1) ** k * k, n - 1)
        return Fraction((-1) ** k * (n - k - 1), n - 1) if head else Fraction(0)
    if case == "fix-point-mark1":
        if not hook:
            return Fraction((-1) ** k) if j == 2 else Fraction(0)
        if j == 1 and k >= 1:
            return Fraction((-1) ** (k - 1))
        return Fraction((-1) ** k) if head else Fraction(0)
    if hook:
        if mu == (n,):
            return Fraction(1)
        if mu == (1,) * n:
            return Fraction((-1) ** n)
        return Fraction((-1) ** (k if j == 1 else k + 1), n - 1)
    if j == 2:
        return Fraction((-1) ** k, k * (n - k - 2))
    return Fraction(
        (-1) ** k * n * dimension(reduce_at(mu, j)), (n - 1) * dimension(mu)
    )


def closed_spectrum(case: str, n: int) -> list[tuple[Fraction, int]]:
    """(d_mu gamma^{mu,j}, c_{mu,j}) over the shapes where gamma may be nonzero."""
    shapes = [(k, (n - k,) + (1,) * k, True) for k in range(n)]
    shapes += [(k, (n - k - 1, 2) + (1,) * (k - 1), False) for k in range(1, n - 2)]
    return [
        (dimension(mu) * _closed_gamma(case, n, mu, j, k, hook), marked_content(mu, j))
        for k, mu, hook in shapes
        for j in set(mu)
    ]


def star_count_closed(spectrum, n: int, r: int) -> int:
    value = sum((w * Fraction(c) ** r for w, c in spectrum), Fraction(0)) / math.factorial(n)
    if value.denominator != 1:
        raise ArithmeticError(f"closed spectral sum came out as {value}")
    return int(value)


# ---------------------------------------------------------------------------
# literal counts in the group


def compose(p, q) -> tuple[int, ...]:
    """p after q, permutations as 1-indexed image tuples."""
    return tuple(p[x - 1] for x in q)


def marked_type(p) -> tuple[tuple[int, ...], int]:
    n = len(p)
    seen = [False] * (n + 1)
    lengths = []
    through = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        x = start
        hit = False
        while not seen[x]:
            seen[x] = True
            hit = hit or x == n
            x = p[x - 1]
            length += 1
        lengths.append(length)
        if hit:
            through = length
    return tuple(sorted(lengths, reverse=True)), through


def representative(lam, i) -> tuple[int, ...]:
    """A permutation of marked type (lam, i): n closes the cycle 1..i-1, n."""
    n = sum(lam)
    images = list(range(1, n + 1))

    def install(cycle):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b

    install(list(range(1, i)) + [n])
    rest = list(lam)
    rest.remove(i)
    start = i
    for length in rest:
        install(list(range(start, start + length)))
        start += length
    return tuple(images)


class Group:
    """S_n with every element filed under its marked type."""

    def __init__(self, n: int):
        self.n = n
        self.members: dict[tuple[tuple[int, ...], int], list[tuple[int, ...]]] = {}
        for p in itertools.permutations(range(1, n + 1)):
            self.members.setdefault(marked_type(p), []).append(p)

    def product_coefficient(self, a, b, c) -> int:
        """[K_c] K_a K_b: pairs (s, t) in a x b with s t equal to one member of c."""
        pi = representative(*c)
        return sum(1 for s in self.members[a] if marked_type(compose(s, pi)) == b)


def gamma_charsum(mu, j, lam, i) -> Fraction:
    """gamma^{mu,j}_{lam,i} as a character sum over S_{n-1}."""
    n = sum(mu)
    reduced = reduce_at(mu, j)
    pi = representative(lam, i)
    total = 0
    for tau in itertools.permutations(range(1, n)):
        sigma = tau + (n,)
        total += chi(mu, marked_type(compose(pi, sigma))[0]) * chi(
            reduced, marked_type(tau)[0]
        )
    return Fraction(dimension(reduced) * total, math.factorial(n - 1))


# ---------------------------------------------------------------------------
# the gate: the expected summary of every query of a batch


def expected(queries) -> list:
    """Expected worker summary of each (op, args) query, in order."""
    walks: dict[int, list] = {}
    groups: dict[int, Group] = {}
    spectra: dict[tuple[str, int], list] = {}

    def walk(n, r):
        if n not in walks or len(walks[n]) <= r:
            rmax = max(r for op, args in queries for r in _walk_lengths(op, args, n))
            walks[n] = star_walk(n, rmax)
        return walks[n]

    def group(n):
        if n not in groups:
            groups[n] = Group(n)
        return groups[n]

    out = []
    for op, args in queries:
        if op == "column":
            lam, i = args
            n = sum(lam)
            out.append({label(mu): str(chi(mu, lam)) for mu in partitions(n)})
        elif op == "star_count":
            lam, i, r = args
            out.append(str(star_count(walk(sum(lam), r), lam, i, r)))
        elif op == "connection":
            a, b, c = args
            out.append(str(group(sum(a[0])).product_coefficient(a, b, c)))
        elif op == "strahov":
            (mu, j), (lam, i) = args
            # the transposition row: gamma = c_{mu,j} d_{j_-(mu)} / |C_{lam,i}|
            out.append(str(Fraction(marked_content(mu, j) * dimension(reduce_at(mu, j)),
                                    marked_class_size(lam, i))))
        elif op == "row":
            mu, j = args
            scale = Fraction(dimension(reduce_at(mu, j)), dimension(mu))
            out.append({label(lam): str(scale * chi(mu, lam) * class_size(lam))
                        for lam in partitions(sum(mu))})
        elif op == "subscript_sum":
            mu, j, lam = args
            out.append(str(chi(mu, lam)))
        elif op == "weighted_sum":
            mu, j, m = args
            out.append(str(elementary(contents(mu), sum(mu) - m)))
        elif op == "orthogonality":
            (lam, i), (mu, j) = args
            same = (lam, i) == (mu, j)
            out.append(str(Fraction(dimension(reduce_at(lam, i)), dimension(lam)) if same else 0))
        elif op == "character_table":
            (n,) = args
            shapes = list(partitions(n))
            out.append([[str(dimension(lam)) for lam in shapes],
                        [str(centralizer(mu)) for mu in shapes],
                        ["1"] * len(shapes)])
        elif op == "enumerate_syt":
            out.append(digest(syt(args[0])))
        elif op == "enumerate_partitions":
            out.append(digest(list(partitions(args[0]))))
        elif op == "star_class":
            lam, r = args
            out.append(str(star_count_class(walk(sum(lam), r), lam, r)))
        elif op == "star_cycles":
            n, k, r = args
            out.append(str(star_count_by_cycle_count(walk(n, r), k, r)))
        elif op == "star_closed":
            case, n, r = args
            if (case, n) not in spectra:
                spectra[case, n] = closed_spectrum(case, n)
            out.append(str(star_count_closed(spectra[case, n], n, r)))
        elif op == "gamma_oracle":
            (mu, j), (lam, i) = args
            out.append(str(gamma_charsum(mu, j, lam, i)))
        elif op == "dense_product":
            a, b = args
            out.append("left" if a == b else "zero")
        elif op == "sparse_product":
            a, b = args
            g = group(sum(a[0]))
            if len(g.members[b]) < len(g.members[a]):
                a, b = b, a  # the algebra is commutative; count over the smaller class
            counts = {c: g.product_coefficient(a, b, c) for c in marked_classes(g.n)}
            out.append({label(*c): str(v) for c, v in counts.items() if v})
        elif op == "jm_power":
            n, r = args
            out.append(jm_power(walk(n, r), n, r))
        elif op == "cli":
            out.append("ok")  # the worker compares the parsed output with the library
        else:
            raise ValueError(f"no expected value for {op}")
    return out


def _walk_lengths(op, args, n):
    if op == "star_count" and sum(args[0]) == n:
        yield args[2]
    elif op == "star_class" and sum(args[0]) == n:
        yield args[1]
    elif op == "star_cycles" and args[0] == n:
        yield args[2]
    elif op == "jm_power" and args[0] == n:
        yield args[1]
