"""The five value types share one immutability and one pickle policy: no
slot can be rebound, added or deleted, and every copy is an equal value that
is still immutable."""

from __future__ import annotations

import copy
import pickle

import pytest

from nearcentral import (
    GroupAlgebraElement,
    MarkedPartition,
    Partition,
    Permutation,
    StandardTableau,
    z1_idempotent,
)

VALUES = {
    "Partition": lambda: Partition((2, 1)),
    "MarkedPartition": lambda: MarkedPartition(Partition((2, 1)), 2),
    "StandardTableau": lambda: StandardTableau(((1, 2), (3,))),
    "Permutation": lambda: Permutation((2, 1, 3)),
    "GroupAlgebraElement": lambda: z1_idempotent(Partition((2, 1)), 2),
}

COPIES = {
    **{
        f"pickle protocol {protocol}": lambda value, protocol=protocol: pickle.loads(
            pickle.dumps(value, protocol)
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _assert_immutable(value: object) -> None:
    refused = f"^{type(value).__name__} is immutable$"
    slot = type(value).__slots__[0]
    with pytest.raises(AttributeError, match=refused):
        setattr(value, slot, getattr(value, slot))
    with pytest.raises(AttributeError, match=refused):
        value.extra = 0
    with pytest.raises(AttributeError, match=refused):
        delattr(value, slot)


@pytest.mark.parametrize("name", VALUES)
def test_value_is_immutable_and_copies_alike(name) -> None:
    value = VALUES[name]()
    _assert_immutable(value)
    for how, make_copy in COPIES.items():
        copied = make_copy(value)
        assert copied == value, how
        assert type(copied) is type(value), how
        if type(value).__hash__ is not None:
            assert hash(copied) == hash(value), how
        _assert_immutable(copied)
