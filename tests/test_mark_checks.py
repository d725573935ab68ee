"""Every public function that takes a marked class refuses a bad one."""

from __future__ import annotations

import pytest

from nearcentral import (
    DomainError,
    MarkedPartition,
    Partition,
    class_sum,
    connection_coefficient,
    decrement_part,
    enumerate_syt_marked,
    evaluate_asf,
    extract_marked_coefficient,
    genchar,
    genchar_column,
    genchar_hook_row,
    genchar_row,
    genchar_strahov,
    genchar_table2,
    marked_class_size,
    marked_content,
    multi_product_coefficient,
    orthogonality_check,
    star_count,
    subscript_sum_chi,
    superscript_sum,
    table1_poly,
    weighted_sum,
    z1_idempotent,
)

# a mark that is not a part, a valid class of the same n, and a class of
# another n
BAD = (Partition((3, 1)), 2)
GOOD = (Partition((2, 1, 1)), 2)
OTHER = (Partition((2, 1)), 2)


def _calls(bad):
    # every public call that takes a marked class, with `bad` in one place
    return {
        "MarkedPartition": lambda: MarkedPartition(*bad),
        "decrement_part": lambda: decrement_part(*bad),
        "marked_class_size": lambda: marked_class_size(*bad),
        "marked_content": lambda: marked_content(*bad),
        "enumerate_syt_marked": lambda: enumerate_syt_marked(*bad),
        "evaluate_asf": lambda: evaluate_asf(lambda v: v.xn, *bad),
        "table1_poly": lambda: table1_poly(*bad),
        "genchar superscript": lambda: genchar(*bad, *GOOD),
        "genchar subscript": lambda: genchar(*GOOD, *bad),
        "genchar_table2 superscript": lambda: genchar_table2(*bad, *GOOD),
        "genchar_table2 subscript": lambda: genchar_table2(*GOOD, *bad),
        "genchar_strahov superscript": lambda: genchar_strahov(*bad, *GOOD),
        "genchar_strahov subscript": lambda: genchar_strahov(*GOOD, *bad),
        "genchar_column": lambda: genchar_column(*bad),
        "genchar_hook_row": lambda: genchar_hook_row(*bad),
        "genchar_row": lambda: genchar_row(*bad),
        "superscript_sum": lambda: superscript_sum(GOOD[0], *bad),
        "subscript_sum_chi": lambda: subscript_sum_chi(*bad, GOOD[0]),
        "weighted_sum": lambda: weighted_sum(*bad, 2),
        "connection_coefficient first": lambda: connection_coefficient(*bad, *GOOD, *GOOD),
        "connection_coefficient second": lambda: connection_coefficient(*GOOD, *bad, *GOOD),
        "connection_coefficient product": lambda: connection_coefficient(*GOOD, *GOOD, *bad),
        "multi_product_coefficient factor": lambda: multi_product_coefficient([bad], *GOOD),
        "multi_product_coefficient product": lambda: multi_product_coefficient([GOOD], *bad),
        "orthogonality_check left": lambda: orthogonality_check(*bad, *GOOD),
        "orthogonality_check right": lambda: orthogonality_check(*GOOD, *bad),
        "class_sum": lambda: class_sum(*bad),
        "z1_idempotent": lambda: z1_idempotent(*bad),
        "extract_marked_coefficient": lambda: extract_marked_coefficient(class_sum(*GOOD), *bad),
        "star_count": lambda: star_count(*bad, 3),
    }


NOT_A_PART = _calls(BAD)

# marks of another type, each equal to a part of GOOD's shape
WRONG_TYPE = [(name, mark) for mark in (2.0, True) for name in NOT_A_PART]

MISMATCHED = {
    "genchar": lambda: genchar(*GOOD, *OTHER),
    "genchar_table2": lambda: genchar_table2(*GOOD, *OTHER),
    "genchar_strahov": lambda: genchar_strahov(*GOOD, *OTHER),
    "superscript_sum": lambda: superscript_sum(GOOD[0], *OTHER),
    "superscript_sum empty": lambda: superscript_sum(Partition(), *GOOD),
    "subscript_sum_chi": lambda: subscript_sum_chi(*GOOD, OTHER[0]),
    "subscript_sum_chi empty": lambda: subscript_sum_chi(*GOOD, Partition()),
    "connection_coefficient": lambda: connection_coefficient(*GOOD, *OTHER, *GOOD),
    "multi_product_coefficient": lambda: multi_product_coefficient([OTHER], *GOOD),
    "orthogonality_check": lambda: orthogonality_check(*GOOD, *OTHER),
    "extract_marked_coefficient": lambda: extract_marked_coefficient(
        class_sum(*GOOD), *OTHER
    ),
}


@pytest.mark.parametrize("call", NOT_A_PART.values(), ids=NOT_A_PART.keys())
def test_a_mark_that_is_not_a_part_is_refused(call) -> None:
    with pytest.raises(DomainError, match="mark 2 is not a part of 3,1$"):
        call()


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_classes_of_different_n_are_refused(call) -> None:
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "name, mark", WRONG_TYPE, ids=[f"{name} {mark!r}" for name, mark in WRONG_TYPE]
)
def test_a_mark_of_the_wrong_type_is_refused(name, mark) -> None:
    # the equal int mark first, so that an answer cached under it would show
    _calls((GOOD[0], int(mark)))[name]()
    with pytest.raises(DomainError, match=f"^mark must be an integer, got {mark!r}$"):
        _calls((GOOD[0], mark))[name]()
