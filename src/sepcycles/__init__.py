"""Exact separation/isolation statistics for products of permutations.

The package computes, in exact big-integer / rational arithmetic, how
often the product of two long cycles separates a prescribed set of
elements into distinct cycles (or fixes them all), both by closed
formulas and recurrences over diagonal cycle types, and verifies every
formula against an exhaustive enumeration oracle at small n.
"""
from .counting import (
    CountTable,
    alpha_separated_count,
    build_count_table,
    c_fix,
    c_sep,
    fixed_point_moments,
    fixed_point_pair_counts,
    fpf_probability,
    i_base,
    i_lambda,
    i_ncycle,
    iso_prob_ncycle,
    p_base,
    p_lambda,
    p_ncycle,
    sep_prob_ncycle,
    stirling_c,
)
from .oracle import (
    OracleCapError,
    oracle_alpha,
    oracle_fixed_point_distribution,
    oracle_i,
    oracle_i_by_vertical_type,
    oracle_p,
    oracle_p_by_vertical_type,
    oracle_p_stratified,
)
from .partitions import (
    Composition,
    IntegerPartition,
    PartitionParseError,
    partitions_of,
)
from .perm import (
    Permutation,
    compose,
    cycle_type,
    enumerate_n_cycles,
    isolates,
    parse_permutation,
    separates,
)
from .plane import PlanePermutation
from .verify import resolve_p_base_reading

__version__ = "0.1.0"

__all__ = [
    "Composition",
    "CountTable",
    "IntegerPartition",
    "OracleCapError",
    "PartitionParseError",
    "Permutation",
    "PlanePermutation",
    "alpha_separated_count",
    "build_count_table",
    "c_fix",
    "c_sep",
    "compose",
    "cycle_type",
    "enumerate_n_cycles",
    "fixed_point_moments",
    "fixed_point_pair_counts",
    "fpf_probability",
    "i_base",
    "i_lambda",
    "i_ncycle",
    "iso_prob_ncycle",
    "isolates",
    "oracle_alpha",
    "oracle_fixed_point_distribution",
    "oracle_i",
    "oracle_i_by_vertical_type",
    "oracle_p",
    "oracle_p_by_vertical_type",
    "oracle_p_stratified",
    "p_base",
    "p_lambda",
    "p_ncycle",
    "parse_permutation",
    "partitions_of",
    "resolve_p_base_reading",
    "sep_prob_ncycle",
    "separates",
    "stirling_c",
]
