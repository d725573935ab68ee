"""Every small value of the spectral layer, pinned by digests.

Each digest was computed once over its lines below and is checked on every
run, so any change to a generalized character, a gamma column, a star count
or a connection coefficient at these sizes fails here, whatever route
produced it.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterator

from nearcentral import (
    MarkedPartition,
    Partition,
    connection_coefficient,
    enumerate_marked_partitions,
    genchar,
    genchar_column,
    star_count,
)

PINNED_SHA256 = "49b92f1ca05a5163b588f382eeb7f2696a8c1a39c5322f755dc5e71af3446079"
PINNED_COLUMNS_SHA256 = (
    "86cfca91c6aeeeb87924b1606a67117d90d88c3720ffcf0fd412f41d5db61839"
)


def _label(m: MarkedPartition) -> str:
    return ",".join(map(str, m.shape.parts)) + f"@{m.mark}"


def _lines() -> Iterator[str]:
    # gamma for every marked pair with n <= 7
    for n in range(1, 8):
        marked = enumerate_marked_partitions(n)
        for sup, sub in itertools.product(marked, repeat=2):
            value = genchar(sup.shape, sup.mark, sub.shape, sub.mark)
            yield f"gamma {_label(sup)} {_label(sub)} {value}"
    # star counts for n <= 7 and r <= 8
    for n in range(1, 8):
        for m in enumerate_marked_partitions(n):
            for r in range(9):
                yield f"star {_label(m)} {r} {star_count(m.shape, m.mark, r)}"
    # connection coefficients for every triple with n <= 5
    for n in range(1, 6):
        marked = enumerate_marked_partitions(n)
        for a, b, c in itertools.product(marked, repeat=3):
            value = connection_coefficient(
                a.shape, a.mark, b.shape, b.mark, c.shape, c.mark
            )
            yield f"connection {_label(a)} {_label(b)} {_label(c)} {value}"


def _column_lines() -> Iterator[str]:
    # every gamma column with n <= 12, then four deep marks at n = 16..30
    classes = [m for n in range(1, 13) for m in enumerate_marked_partitions(n)]
    for parts, mark in [
        ((5, 4, 3, 2, 1, 1), 4),
        ((6, 5, 4, 3, 2), 3),
        ((7, 6, 5, 4, 3, 1), 5),
        ((8, 7, 6, 5, 4), 4),
    ]:
        classes.append(MarkedPartition(Partition(parts), mark))
    for sub in classes:
        for sup, value in genchar_column(sub.shape, sub.mark).items():
            yield f"column {_label(sub)} {_label(sup)} {value}"


def _digest(lines: Iterator[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_pinned_spectral_values() -> None:
    assert _digest(_lines()) == PINNED_SHA256


def test_pinned_gamma_columns() -> None:
    assert _digest(_column_lines()) == PINNED_COLUMNS_SHA256
