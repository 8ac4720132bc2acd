"""Exact separation/isolation statistics for products of permutations.

The package computes, in exact big-integer / rational arithmetic, how
often the product of two long cycles separates a prescribed set of
elements into distinct cycles (or fixes them all), both by closed
formulas and recurrences over diagonal cycle types, and verifies every
formula against an exhaustive enumeration oracle at small n.

``import sepcycles`` loads no submodule: each public name, and each
submodule, is imported on first access (PEP 562), so a process that only
counts never compiles the oracle or the verification suites.
"""
__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "counting": (
        "CountTable", "alpha_separated_count", "build_count_table", "c_fix", "c_sep",
        "fixed_point_moments", "fixed_point_pair_counts", "fpf_probability", "i_base",
        "i_lambda", "i_ncycle", "iso_prob_ncycle", "p_base", "p_lambda", "p_ncycle",
        "sep_prob_ncycle", "stirling_c",
    ),
    "oracle": (
        "OracleCapError", "oracle_alpha", "oracle_fixed_point_distribution", "oracle_i",
        "oracle_i_by_vertical_type", "oracle_p", "oracle_p_by_vertical_type",
        "oracle_p_stratified",
    ),
    "partitions": ("Composition", "IntegerPartition", "PartitionParseError", "partitions_of"),
    "perm": (
        "Permutation", "compose", "cycle_type", "enumerate_n_cycles", "isolates",
        "parse_permutation", "separates",
    ),
    "plane": ("PlanePermutation",),
    "verify": ("resolve_p_base_reading",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # a submodule: importing it binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
