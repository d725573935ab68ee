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

NOT_A_PART = {
    "MarkedPartition": lambda: MarkedPartition(*BAD),
    "decrement_part": lambda: decrement_part(*BAD),
    "marked_class_size": lambda: marked_class_size(*BAD),
    "marked_content": lambda: marked_content(*BAD),
    "enumerate_syt_marked": lambda: enumerate_syt_marked(*BAD),
    "evaluate_asf": lambda: evaluate_asf(lambda v: v.xn, *BAD),
    "table1_poly": lambda: table1_poly(*BAD),
    "genchar superscript": lambda: genchar(*BAD, *GOOD),
    "genchar subscript": lambda: genchar(*GOOD, *BAD),
    "genchar_table2 superscript": lambda: genchar_table2(*BAD, *GOOD),
    "genchar_table2 subscript": lambda: genchar_table2(*GOOD, *BAD),
    "genchar_strahov superscript": lambda: genchar_strahov(*BAD, *GOOD),
    "genchar_strahov subscript": lambda: genchar_strahov(*GOOD, *BAD),
    "genchar_column": lambda: genchar_column(*BAD),
    "genchar_hook_row": lambda: genchar_hook_row(*BAD),
    "genchar_row": lambda: genchar_row(*BAD),
    "superscript_sum": lambda: superscript_sum(GOOD[0], *BAD),
    "subscript_sum_chi": lambda: subscript_sum_chi(*BAD, GOOD[0]),
    "weighted_sum": lambda: weighted_sum(*BAD, 2),
    "connection_coefficient first": lambda: connection_coefficient(*BAD, *GOOD, *GOOD),
    "connection_coefficient second": lambda: connection_coefficient(*GOOD, *BAD, *GOOD),
    "connection_coefficient product": lambda: connection_coefficient(*GOOD, *GOOD, *BAD),
    "multi_product_coefficient factor": lambda: multi_product_coefficient([BAD], *GOOD),
    "multi_product_coefficient product": lambda: multi_product_coefficient([GOOD], *BAD),
    "orthogonality_check left": lambda: orthogonality_check(*BAD, *GOOD),
    "orthogonality_check right": lambda: orthogonality_check(*GOOD, *BAD),
    "class_sum": lambda: class_sum(*BAD),
    "z1_idempotent": lambda: z1_idempotent(*BAD),
    "extract_marked_coefficient": lambda: extract_marked_coefficient(class_sum(*GOOD), *BAD),
    "star_count": lambda: star_count(*BAD, 3),
}

MISMATCHED = {
    "genchar": lambda: genchar(*GOOD, *OTHER),
    "genchar_table2": lambda: genchar_table2(*GOOD, *OTHER),
    "genchar_strahov": lambda: genchar_strahov(*GOOD, *OTHER),
    "superscript_sum": lambda: superscript_sum(GOOD[0], *OTHER),
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
