"""Every small value of the spectral layer, pinned by one digest.

The digest was computed once over the lines below and is checked on every
run, so any change to a generalized character, a star count or a
connection coefficient at these sizes fails here, whatever route produced
it.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterator

from nearcentral import (
    MarkedPartition,
    connection_coefficient,
    enumerate_marked_partitions,
    genchar,
    star_count,
)

PINNED_SHA256 = "49b92f1ca05a5163b588f382eeb7f2696a8c1a39c5322f755dc5e71af3446079"


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


def test_pinned_spectral_values() -> None:
    digest = hashlib.sha256()
    for line in _lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_SHA256
