"""The immutable value types, and results keyed by them, survive pickle and
copy, so they can be sent to a worker process."""

from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction

import pytest

from nearcentral import (
    GroupAlgebraElement,
    MarkedPartition,
    Partition,
    StandardTableau,
    central_idempotent,
    class_sum,
    genchar_row,
    jm_power_coefficients,
    star_walk,
)

VALUES = {
    "Partition": lambda: Partition((2, 1)),
    "MarkedPartition": lambda: MarkedPartition(Partition((2, 1)), 2),
    "StandardTableau": lambda: StandardTableau(((1, 2), (3,))),
    "genchar_row": lambda: genchar_row(Partition((2, 1)), 2),
    "star_walk": lambda: star_walk(4, 3),
    "jm_power_coefficients": lambda: jm_power_coefficients(3, 2),
}

COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", VALUES)
def test_values_round_trip(name, how) -> None:
    value = VALUES[name]()
    copied = COPIES[how](value)
    assert copied == value
    assert type(copied) is type(value)


@pytest.mark.parametrize("how", COPIES)
def test_copies_stay_immutable_and_hash_alike(how) -> None:
    for name in ("Partition", "MarkedPartition", "StandardTableau"):
        value = VALUES[name]()
        copied = COPIES[how](value)
        assert hash(copied) == hash(value)
        with pytest.raises(AttributeError):
            copied.extra = 0
    tableau = COPIES[how](VALUES["StandardTableau"]())
    assert tableau.position(3) == (2, 1)


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("read", [False, True], ids=["class values only", "terms read"])
def test_class_valued_elements_round_trip(how, read) -> None:
    # an element held as class values, copied before and after its terms
    # were first read: equal, in lowest terms, and still read-only
    shape = Partition((3, 1))
    value = class_sum(shape, 3).scale(Fraction(2, 3)) + central_idempotent(shape)
    if read:
        dict(value.items())
    copied = COPIES[how](value)
    assert type(copied) is GroupAlgebraElement
    assert copied == value and value == copied
    assert copied._values == value._values and math.gcd(copied._den, *copied._values) == 1
    assert dict(copied.items()) == dict(value.items())
    assert math.gcd(copied._den, *copied._terms.values()) == 1
    with pytest.raises(TypeError):
        copied._terms[(1, 2, 3, 4)] = 0
