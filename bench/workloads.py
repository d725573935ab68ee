"""Seeded inputs of the four benchmark workloads, as plain data.

A query is an (op, args) pair: op names what the worker calls, args are
tuples and ints only, so run.py (which never imports nearcentral) and the
worker build identical batches from the same seed.

Why these four:

- spectral: star counts and connection coefficients for general marked
  classes, where every generalized character comes from the character sum
  over S_{n-1}.  Each column of gamma is filled once and then reused.
- aggregates: the same character sum read the other way round (rows at a
  fixed superscript), plus the substrate (character table, tableaux,
  partitions) and the star-count aggregates and closed forms.
- oracle: literal group-algebra products, dense (composition table) and
  sparse (direct), and idempotents; it barely touches genchar.
- cli_cold: one cold interpreter per answer, so import and argument
  handling dominate.
"""

from __future__ import annotations

import random
from collections import defaultdict

from checks import dimension, marked_class_size, marked_classes, partitions

# "full" batches take two to five seconds, so a run holds six or more and
# pools well over ten answers beyond the 90th percentile.  Answer mixes are
# fixed in kind and count, so the percentiles fall inside groups of like
# answers whatever the seed; the counts put each percentile well inside its
# group (spectral: p50 among the star counts, p90 among the genchar_strahov
# sums; aggregates: p50 among the class counts, p90 among the cycle counts).
# "tiny" only exercises every code path.
SIZES = {
    "full": {
        "spectral": {"n": 8, "classes": 2, "r_values": 20, "triples": 8, "strahov": 6},
        "aggregates": {
            "n": 8, "table_n": 15, "syt_n": 13, "syt_dims": (12012, 12012),
            "partitions_n": (35, 36), "class_n": 13, "class_queries": 70,
            "cycles_n": 18, "cycle_queries": 10, "closed_n": (30, 50), "closed_r": (88, 92),
        },
        "oracle": {"dense_n": 6, "dense_pairs": 30, "sparse_n": 7, "sparse_pairs": 20,
                   "jm_r": (2, 4, 6, 8)},
        "cli_cold": {"variants": 11},
    },
    "tiny": {
        "spectral": {"n": 5, "classes": 2, "r_values": 3, "triples": 2, "strahov": 1},
        "aggregates": {
            "n": 5, "table_n": 6, "syt_n": 6, "syt_dims": (5, 16),
            "partitions_n": (6, 8), "class_n": 6, "class_queries": 2,
            "cycles_n": 6, "cycle_queries": 2, "closed_n": (5, 8), "closed_r": (6, 12),
        },
        "oracle": {"dense_n": 4, "dense_pairs": 6, "sparse_n": 5, "sparse_pairs": 3,
                   "jm_r": (2, 3)},
        "cli_cold": {"variants": 3},
    },
}

CLOSED_CASES = ("full-cycle", "fix-point-mark1", "transposed-mark")


def closed_form_classes(n: int) -> set[tuple[tuple[int, ...], int]]:
    """Marked classes the genchar dispatcher answers without the character sum."""
    one = (1,) * n
    out = {(one, 1), ((n,), n), ((n - 1, 1), 1), ((n - 1, 1), n - 1)}
    out |= {((2,) + one[2:], 2), ((2,) + one[2:], 1)}
    if n >= 3:
        out.add(((3,) + one[3:], 3))
    if n >= 4:
        out |= {((2, 2) + one[4:], 2), ((3,) + one[3:], 1)}
    if n >= 5:
        out.add(((2, 2) + one[4:], 1))
    return out


def general_classes(n: int) -> list[tuple[tuple[int, ...], int]]:
    special = closed_form_classes(n)
    return [c for c in marked_classes(n) if c not in special]


def _parity_r(lam, r: int) -> int:
    # a product of r transpositions has sign (-1)^r, so other r give 0
    return r if (r - (sum(lam) - len(lam))) % 2 == 0 else r + 1


def spectral(rng: random.Random, s: dict) -> list:
    n = s["n"]
    classes = rng.sample(general_classes(n), s["classes"])
    queries = []
    for lam, i in classes:
        queries.append(("column", (lam, i)))
        # the same r range for every class, so star counts cost alike whatever the seed
        r0 = n + (len(lam) % 2)
        for r in range(r0, r0 + 2 * s["r_values"], 2):
            queries.append(("star_count", (lam, i, r)))
    for _ in range(s["triples"]):
        a, b, c = (rng.choice(classes) for _ in range(3))
        queries.append(("connection", (a, b, c)))
    swap = ((2,) + (1,) * (n - 2), 2)
    for mu, j in rng.sample(marked_classes(n), s["strahov"]):
        queries.append(("strahov", ((mu, j), swap)))
    return queries


def aggregates(rng: random.Random, s: dict) -> list:
    n = s["n"]
    mu, j = rng.choice(general_classes(n))
    queries = [("row", (mu, j))]
    queries += [("subscript_sum", (mu, j, lam)) for lam in partitions(n)]
    queries += [("weighted_sum", (mu, j, m)) for m in range(1, n + 1)]
    queries.append(("orthogonality", ((mu, j), (mu, j))))
    queries.append(("character_table", (s["table_n"],)))
    low, high = s["syt_dims"]
    shapes = [lam for lam in partitions(s["syt_n"]) if low <= dimension(lam) <= high]
    queries.append(("enumerate_syt", (rng.choice(shapes),)))
    queries.append(("enumerate_partitions", (rng.randint(*s["partitions_n"]),)))
    # shapes at even strides from a seeded start and r spread evenly over
    # 10..18, so that every batch holds the same spread of costs
    class_shapes = list(partitions(s["class_n"]))
    start, count = rng.randrange(len(class_shapes)), s["class_queries"]
    for t in range(count):
        lam = class_shapes[(start + t * len(class_shapes) // count) % len(class_shapes)]
        queries.append(("star_class", (lam, _parity_r(lam, 10 + t * 9 // count))))
    m = s["cycles_n"]
    for t in range(s["cycle_queries"]):
        k = 1 + t * m // s["cycle_queries"]  # k spread evenly, so the cost mix is the same for every seed
        r = rng.randint(m - k, m - k + 8)
        queries.append(("star_cycles", (m, k, r + (r - (m - k)) % 2)))
    for case in CLOSED_CASES:
        queries.append(("star_closed", (case, rng.randint(*s["closed_n"]), rng.randint(*s["closed_r"]))))
    return queries


def _matched(rng: random.Random, items: list, count: int, cost) -> list:
    """count seeded items whose costs are the same for every seed.

    The costs are count evenly spaced ranks of cost over items; each slot
    takes a seeded item among those of exactly that cost.
    """
    same_cost = defaultdict(list)
    for item in items:
        same_cost[cost(item)].append(item)
    ranked = sorted(items, key=cost)
    picks = [rng.choice(same_cost[cost(ranked[len(ranked) * k // count])]) for k in range(count)]
    rng.shuffle(picks)
    return picks


def oracle(rng: random.Random, s: dict) -> list:
    dense = marked_classes(s["dense_n"])
    # every idempotent once, in a fixed order, so the cold first answer is the same kind of work
    queries = [("gamma_oracle", (mu_j, rng.choice(dense))) for mu_j in dense]
    pairs = [(a, b) for a in dense for b in dense]
    queries += [("dense_product", pair) for pair in rng.sample(pairs, s["dense_pairs"])]
    sparse = marked_classes(s["sparse_n"])
    pairs = [(a, b) for a in sparse for b in sparse]
    for a, b in _matched(rng, pairs, s["sparse_pairs"],
                         lambda pair: marked_class_size(*pair[0]) * marked_class_size(*pair[1])):
        queries.append(("sparse_product", (a, b)))
    queries += [("jm_power", (s["sparse_n"], r)) for r in s["jm_r"]]
    return queries


README_EXAMPLES = (
    "partitions --n 5 --marked",
    "tableaux --shape 3,2 --mark 2",
    "chartable --n 5 --format csv",
    "genchar --n 3 --mu 2,1 --j 2 --lambda 2,1 --i 2",
    "genchar --n 4 --mu 3,1 --j 3 --lambda 2,2 --i 2 --method oracle",
    "connection --n 3 --lambda 2,1 --i 2 --mu 2,1 --j 2 --nu 3 --k 3",
    "starfact count --lambda 2,1 --i 2 --r 3",
    "starfact class --lambda 2,1 --r 3",
    "starfact cycles --n 3 --k 3 --r 2",
    "starfact closed --case full-cycle --n 8 --r 13",
    "oracle verify --max-n 4",
)


def _shape_text(lam) -> str:
    return ",".join(map(str, lam))


def _cli_variant(rng: random.Random, kind: int) -> str:
    n = 3 + kind % 4  # template and n by slot, so the mix is the same for every seed
    marked = marked_classes(n)
    shape = rng.choice(list(partitions(n)))
    (mu, j), (lam, i), (nu, k) = (rng.choice(marked) for _ in range(3))
    r = rng.randint(1, 8)
    variants = (
        lambda: f"genchar --n {n} --mu {_shape_text(mu)} --j {j} --lambda {_shape_text(lam)} --i {i}",
        lambda: f"genchar --n {n} --mu {_shape_text(mu)} --j {j} --lambda {_shape_text(lam)} --i {i} --method strahov",
        lambda: f"genchar --n {n} --mu {_shape_text(mu)} --j {j} --lambda {_shape_text(lam)} --i {i} --method oracle",
        lambda: (f"connection --n {n} --lambda {_shape_text(lam)} --i {i} --mu {_shape_text(mu)} --j {j}"
                 f" --nu {_shape_text(nu)} --k {k}"),
        lambda: f"starfact count --lambda {_shape_text(lam)} --i {i} --r {r}",
        lambda: f"starfact class --lambda {_shape_text(shape)} --r {r}",
        lambda: f"starfact cycles --n {n} --k {rng.randint(1, n)} --r {r}",
        lambda: f"starfact closed --case {rng.choice(CLOSED_CASES)} --n {n} --r {r}",
        lambda: f"partitions --n {n}" + rng.choice(("", " --marked")),
        lambda: f"tableaux --shape {_shape_text(shape)}" + rng.choice(("", f" --mark {shape[-1]}")),
        lambda: f"chartable --n {n} --format " + rng.choice(("json", "csv")),
    )
    return variants[kind % len(variants)]()


def cli_cold(rng: random.Random, s: dict) -> list:
    lines = list(README_EXAMPLES) + [_cli_variant(rng, k) for k in range(s["variants"])]
    return [("cli", tuple(line.split())) for line in lines]


WORKLOAD_INPUTS = {"spectral": spectral, "aggregates": aggregates, "oracle": oracle, "cli_cold": cli_cold}
WORKLOADS = tuple(WORKLOAD_INPUTS)


def build(workload: str, seed: int, batch: int, size: str = "full") -> list:
    """The queries of batch number batch of a run; the same seed gives the same batches.

    Each batch of a run draws its own inputs, so that a run's medians pool
    several draws and depend less on which inputs one seed picks.
    """
    rng = random.Random(f"{workload}:{seed}:{batch}")
    return WORKLOAD_INPUTS[workload](rng, SIZES[size][workload])
