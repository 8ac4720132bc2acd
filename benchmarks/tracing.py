"""Span tracing for the benchmark's traced run.

The wrappers live here, outside the package: ``install`` replaces a fixed
list of public functions and methods of ``sepcycles`` with wrappers that
record one span per call (name, start, end, parent span, request id) and
a few counters.  Spans stay in memory in flat arrays and are written out
once, by ``Tracer.dump``, when the traced process ends.

Hot arithmetic helpers (``counting.binom``, ``counting.exact_div``) and
partition/permutation constructors are deliberately left unwrapped:
their time counts as self time of the caller, and wrapping them would
make the tracing overhead larger than the work it measures.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from math import factorial

# (module, attribute path, span name).  An attribute path with a dot is a
# method on a class of that module.
TARGETS = (
    ("perm", "compose", "perm.compose"),
    ("perm", "cycle_type", "perm.cycle_type"),
    ("perm", "separates", "perm.separates"),
    ("perm", "isolates", "perm.isolates"),
    ("perm", "parse_permutation", "perm.parse_permutation"),
    ("perm", "Permutation.__post_init__", "perm.validate"),
    ("perm", "Permutation.cycle_count", "perm.cycle_count"),
    ("plane", "PlanePermutation.__post_init__", "plane.validate"),
    ("plane", "PlanePermutation.ntae_count", "plane.ntae_count"),
    ("plane", "PlanePermutation.reflect", "plane.reflect"),
    ("plane", "PlanePermutation.diagonal", "plane.diagonal"),
    ("plane", "PlanePermutation.transpose_blocks", "plane.transpose_blocks"),
    ("plane", "PlanePermutation.hat", "plane.hat"),
    ("partitions", "partitions_of", "partitions.partitions_of"),
    ("partitions", "splits_of", "partitions.splits_of"),
    ("partitions", "merge_multiplicity", "partitions.merge_multiplicity"),
    ("counting", "stirling_c", "counting.stirling_c"),
    ("counting", "c_sep", "counting.c_sep"),
    ("counting", "c_fix", "counting.c_fix"),
    ("counting", "p_ncycle", "counting.p_ncycle"),
    ("counting", "i_ncycle", "counting.i_ncycle"),
    ("counting", "p_base", "counting.p_base"),
    ("counting", "i_base", "counting.i_base"),
    ("counting", "resolve_p_base_reading", "counting.resolve_p_base_reading"),
    ("counting", "p_lambda", "counting.p_lambda"),
    ("counting", "i_lambda", "counting.i_lambda"),
    ("counting", "sep_prob_ncycle", "counting.sep_prob_ncycle"),
    ("counting", "iso_prob_ncycle", "counting.iso_prob_ncycle"),
    ("counting", "fixed_point_pair_counts", "counting.fixed_point_pair_counts"),
    ("counting", "fpf_probability", "counting.fpf_probability"),
    ("counting", "fixed_point_moments", "counting.fixed_point_moments"),
    ("counting", "alpha_separated_count", "counting.alpha_separated_count"),
    ("counting", "build_count_table", "counting.build_count_table"),
    ("counting", "CountTable.to_json", "counting.to_json"),
    ("oracle", "oracle_p", "oracle.oracle_p"),
    ("oracle", "oracle_i", "oracle.oracle_i"),
    ("oracle", "oracle_p_by_vertical_type", "oracle.oracle_p_by_vertical_type"),
    ("oracle", "oracle_i_by_vertical_type", "oracle.oracle_i_by_vertical_type"),
    ("oracle", "oracle_p_stratified", "oracle.oracle_p_stratified"),
    ("oracle", "oracle_fixed_point_distribution", "oracle.oracle_fixed_point_distribution"),
    ("oracle", "oracle_alpha", "oracle.oracle_alpha"),
    ("oracle", "_census", "oracle.census"),
    ("oracle", "_census_stratified", "oracle.stratified_census"),
    ("oracle", "_alpha_census", "oracle.alpha_census"),
    ("verify", "suite_closed_forms", "verify.closed_forms"),
    ("verify", "suite_recurrences", "verify.recurrences"),
    ("verify", "suite_identities", "verify.identities"),
    ("verify", "run_suites", "verify.run_suites"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("perm", "plane", "partitions", "counting", "oracle", "verify", "cli")

# Pairs enumerated when a census for n is built (a cache miss).
CENSUS_PAIRS = {
    "oracle.census": lambda n: factorial(n - 1) * factorial(n),
    "oracle.stratified_census": lambda n: factorial(n - 1) * factorial(n),
    "oracle.alpha_census": lambda n: factorial(n - 1) ** 2,
}


class Tracer:
    """Spans in flat arrays plus named counters, for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []  # targets absent from this version of the package
        self.request_id = 0
        self._stack: list[int] = []
        self._splits_args: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        stack, perf = self._stack, time.perf_counter
        names, parents, requests = self.name, self.parent, self.request
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result, t1 - t0)
            return result

        return traced

    def dump(self, path: str) -> None:
        self.counts["partitions.splits_of.distinct"] = (
            self.counts.get("partitions.splits_of.distinct", 0) + len(self._splits_args)
        )
        self._splits_args.clear()
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": self.counts,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))


def _hooks(tracer: Tracer) -> dict:
    def splits(args, result, _dt):
        lam, k = args[0], args[1]
        tracer._splits_args.add((lam.parts, k))

    def table(_args, result, _dt):
        tracer.add("counting.table_entries", len(result.entries))

    def suites(_args, result, _dt):
        tracer.add("verify.checks", len(result))
        tracer.add("verify.mismatches", sum(1 for r in result if not r.ok))

    return {"partitions.splits_of": splits, "counting.build_count_table": table,
            "verify.run_suites": suites}


def _census_wrapper(tracer: Tracer, name: str, fn):
    """Span wrapper for an lru-cached census builder that also counts
    the pairs enumerated whenever the call is a cache miss."""
    pairs = CENSUS_PAIRS[name]

    def after(args, _result, dt):
        if fn.cache_info().misses > state["misses"]:
            tracer.add("oracle.census_pairs", pairs(args[0]))
            tracer.add("oracle.census_build_s", dt)

    traced = tracer.wrap(name, fn, after)
    state = {"misses": 0}

    @functools.wraps(fn)
    def wrapper(n):
        state["misses"] = fn.cache_info().misses
        return traced(n)

    return wrapper


def install(tracer: Tracer):
    """Wrap every target that exists and return a function that undoes
    it; absent targets are listed in ``tracer.missing``.  Module-level
    functions are replaced in every loaded ``sepcycles`` module that
    holds a reference to them, so calls made through ``from .x import f``
    bindings are traced too."""
    package = importlib.import_module("sepcycles")
    modules = {name: importlib.import_module(f"sepcycles.{name}") for name in LAYERS}
    holders = [package, *modules.values()]
    hooks = _hooks(tracer)
    undo: list = []
    missing = tracer.missing
    for module_name, path, span in TARGETS:
        module = modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(tracer.wrap(span, raw.__func__, hooks.get(span)))
            else:
                new = tracer.wrap(span, raw, hooks.get(span))
            setattr(cls, attr, new)
            undo.append((cls, attr, raw))
            continue
        original = getattr(module, path, None)
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        if span in CENSUS_PAIRS and hasattr(original, "cache_info"):
            new = _census_wrapper(tracer, span, original)
        else:
            new = tracer.wrap(span, original, hooks.get(span))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, new)
                    undo.append((holder, attr, original))

    def restore() -> None:
        for holder, attr, value in reversed(undo):
            setattr(holder, attr, value)
        undo.clear()

    return restore


# ---------------------------------------------------------------------------
# aggregation

def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class SpanTotals:
    """Per-span-name calls, self time and inclusive time, summed over any
    number of dumped traces (one per process)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self.spans = 0

    def add_trace(self, data: dict) -> None:
        names, name = data["names"], data["name"]
        parent, start, end = data["parent"], data["start"], data["end"]
        child_time = [0.0] * len(name)
        for i, p in enumerate(parent):
            if p >= 0:
                child_time[p] += end[i] - start[i]
        for i, nid in enumerate(name):
            key = names[nid]
            dur = end[i] - start[i]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.incl_s[key] = self.incl_s.get(key, 0.0) + dur
            self.self_s[key] = self.self_s.get(key, 0.0) + dur - child_time[i]
        for key, value in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.missing.update(data["missing"])
        self.spans += len(name)

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as a mean per traced pass."""
        calls = lambda key: self.calls.get(key, 0) / passes  # noqa: E731
        self_s = lambda *keys: sum(self.self_s.get(k, 0.0) for k in keys) / passes  # noqa: E731
        incl_s = lambda key: self.incl_s.get(key, 0.0) / passes  # noqa: E731
        count = lambda key: self.counts.get(key, 0) / passes  # noqa: E731
        layer_self = lambda layer: sum(  # noqa: E731
            v for k, v in self.self_s.items() if k.startswith(layer + ".")
        ) / passes
        split_calls = self.calls.get("partitions.splits_of", 0)
        build_s = self.counts.get("oracle.census_build_s", 0.0)
        oracle_queries = sum(
            v for k, v in self.calls.items() if k.startswith("oracle.oracle_")
        )
        out = {
            "partitions.merge_multiplicity.calls": (calls("partitions.merge_multiplicity"), "count"),
            "partitions.merge_multiplicity.self_s": (self_s("partitions.merge_multiplicity"), "s"),
            "partitions.splits_of.calls": (calls("partitions.splits_of"), "count"),
            "partitions.splits_of.self_s": (self_s("partitions.splits_of"), "s"),
            "partitions.splits_of.distinct_share": (
                self.counts.get("partitions.splits_of.distinct", 0) / split_calls
                if split_calls else 0.0, "ratio"),
            "counting.p_base.calls": (calls("counting.p_base"), "count"),
            "counting.p_base.self_s": (self_s("counting.p_base"), "s"),
            "counting.i_base.calls": (calls("counting.i_base"), "count"),
            "counting.i_base.self_s": (self_s("counting.i_base"), "s"),
            "counting.p_lambda.self_s": (self_s("counting.p_lambda"), "s"),
            "counting.i_lambda.self_s": (self_s("counting.i_lambda"), "s"),
            "counting.build_count_table.calls": (calls("counting.build_count_table"), "count"),
            "counting.build_count_table.self_s": (self_s("counting.build_count_table"), "s"),
            "counting.to_json.self_s": (self_s("counting.to_json"), "s"),
            "counting.table_entries": (count("counting.table_entries"), "count"),
            "counting.resolve_p_base_reading.s": (incl_s("counting.resolve_p_base_reading"), "s"),
            "oracle.queries": (oracle_queries / passes, "count"),
            "oracle.census_pairs": (count("oracle.census_pairs"), "count"),
            "oracle.census_pairs_per_s": (
                self.counts.get("oracle.census_pairs", 0) / build_s if build_s else 0.0, "1/s"),
            "oracle.alpha.self_s": (self_s("oracle.oracle_alpha", "oracle.alpha_census"), "s"),
            "oracle.stratified.self_s": (
                self_s("oracle.oracle_p_stratified", "oracle.stratified_census"), "s"),
            "verify.closed_forms.s": (incl_s("verify.closed_forms"), "s"),
            "verify.recurrences.s": (incl_s("verify.recurrences"), "s"),
            "verify.identities.s": (incl_s("verify.identities"), "s"),
            "verify.checks": (count("verify.checks"), "count"),
            "verify.mismatches": (count("verify.mismatches"), "count"),
            "perm.compose.calls": (calls("perm.compose"), "count"),
            "perm.compose.self_s": (self_s("perm.compose"), "s"),
            "perm.cycle_count.self_s": (self_s("perm.cycle_count"), "s"),
            "perm.validate.calls": (calls("perm.validate"), "count"),
            "perm.validate.self_s": (self_s("perm.validate"), "s"),
            "plane.ntae_count.self_s": (self_s("plane.ntae_count"), "s"),
            "plane.reflect.self_s": (self_s("plane.reflect"), "s"),
            "plane.diagonal.self_s": (self_s("plane.diagonal"), "s"),
            "plane.transpose_blocks.self_s": (self_s("plane.transpose_blocks"), "s"),
            "plane.hat.self_s": (self_s("plane.hat"), "s"),
            "plane.validate.self_s": (self_s("plane.validate"), "s"),
            "cli.import_s": (count("cli.import_s"), "s"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
            "cli.invocations": (count("cli.invocations"), "count"),
            "cli.nonzero_exit": (count("cli.nonzero_exit"), "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self(layer), "s")
        return out
