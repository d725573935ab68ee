"""Exact arithmetic in the near-center of the symmetric group algebra.

The subalgebra of C[S_n] commuting with every permutation that fixes the
last symbol is spanned by marked class sums: conjugacy classes refined by
the length of the cycle through n.  This package computes its generalized
characters, structure constants, and star-factorization counts with exact
rational arithmetic, alongside a brute-force oracle that recomputes the same
quantities directly in the group algebra.
"""

from .errors import (
    DomainError,
    GuardExceeded,
    InconsistencyError,
    UnsupportedPattern,
)
from .partitions import (
    MarkedPartition,
    Partition,
    class_size,
    decrement_part,
    enumerate_marked_partitions,
    enumerate_partitions,
    format_marked_partition,
    format_partition,
    marked_class_size,
    parse_marked_partition,
    parse_partition,
)
from .tableaux import (
    StandardTableau,
    content_polynomial,
    dimension,
    enumerate_syt,
    enumerate_syt_marked,
    marked_content,
    shape_contents,
)
from .characters import CHARACTER_TABLE_MAX_N, character_table, chi
from .permutations import Permutation
from .genchar import (
    COLUMN_MAX_N,
    GENCHAR_MAX_N,
    JMVariables,
    connection_coefficient,
    evaluate_asf,
    genchar,
    genchar_column,
    genchar_hook_row,
    genchar_row,
    genchar_table2,
    multi_product_coefficient,
    orthogonality_check,
    subscript_sum_chi,
    superscript_sum,
    table1_poly,
    table1_rows,
    weighted_sum,
)
from .oracle import (
    ORACLE_MAX_N,
    VERIFY_MAX_N,
    GroupAlgebraElement,
    VerificationError,
    central_idempotent,
    class_sum,
    enumerate_star_factorizations,
    evaluate_asf_at_jm,
    extract_marked_coefficient,
    ga_multiply,
    genchar_strahov,
    is_near_central,
    jm_element,
    jm_power_coefficients,
    run_verify,
    star_walk,
    z1_idempotent,
)
from .starcount import (
    STAR_CLOSED_MAX,
    STAR_COUNT_MAX_N,
    StarClosedCase,
    star_count,
    star_count_by_cycle_count,
    star_count_class,
    star_count_closed,
)

__version__ = "0.1.0"
