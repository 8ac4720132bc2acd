"""The four workloads: seeded inputs, one pass of work, exact checks.

A workload runs in passes.  Pass ``index`` takes its inputs from
``Random(f"{name}/{seed}/{index}")``, so a seed fixes every pass, and the
traced run can replay the inputs of an untraced pass.  Each pass returns
its operation latencies and how many of its checked operations failed.
The package only ever sees generated inputs; expected values come from
the benchmark's own reference code or from a second path through the
public API.
"""
from __future__ import annotations

import json
import random
import re
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path
from statistics import median, quantiles
from typing import Callable

import sepcycles
from sepcycles import Composition, IntegerPartition, Permutation, PlanePermutation

CHILD = Path(__file__).resolve().parent / "child.py"


@dataclass
class Context:
    root: Path
    python: str
    env: dict
    tiny: bool
    between: Callable[[], None] = lambda: None  # called between operations


@dataclass
class PassResult:
    samples: list[float]  # latency of each operation in the pass, seconds
    attempted: int
    failed: int
    inputs: object  # JSON-able description of the pass inputs, for the digest
    # which operation slot each sample belongs to; None: all samples are
    # repeats of one operation
    slots: list | None = None


def best_per_slot(passes: list[PassResult]) -> dict:
    """The fastest repeat of each operation slot over the given passes."""
    best: dict = {}
    for p in passes:
        for slot, sample in zip(p.slots or [None] * len(p.samples), p.samples):
            best[slot] = min(sample, best.get(slot, sample))
    return best


def run_child(ctx: Context, argv: list[str], timeout: float = 150.0):
    """Run one cold child interpreter; return (wall seconds, process or None)."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [ctx.python, "-s", *argv], env=ctx.env, cwd=ctx.root,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - started, None
    return time.perf_counter() - started, proc


def cli_argv(argv: list[str], spans: Path | None, request: int = 0) -> list[str]:
    if spans is None:
        return ["-m", "sepcycles.cli", *argv]
    return [str(CHILD), "cli", "--spans", str(spans), "--request", str(request), "--", *argv]


# ---------------------------------------------------------------------------
# reference arithmetic, independent of the package

def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n as non-increasing tuples, largest first part first."""
    if n == 0:
        return [()]
    top = n if largest is None else min(n, largest)
    return [(p, *rest) for p in range(top, 0, -1) for rest in partitions(n - p, p)]


@lru_cache(maxsize=None)
def ref_c_sep(n: int, k: int, m: int) -> int:
    """Permutations of [n] with k cycles and 1..m in distinct cycles, by
    inserting n (> m) as a new fixed point or after one of n - 1 elements."""
    if n == m:
        return 1 if k == m else 0
    if k < 0:
        return 0
    return ref_c_sep(n - 1, k - 1, m) + (n - 1) * ref_c_sep(n - 1, k, m)


def ref_c_fix(n: int, k: int, m: int) -> int:
    return ref_c_sep(n - m, k - m, 0) if k >= m else 0


def z_lambda(parts: tuple[int, ...]) -> int:
    z = 1
    for value in set(parts):
        count = parts.count(value)
        z *= value**count * factorial(count)
    return z


def parse_parts(text: str) -> tuple[int, ...]:
    return IntegerPartition.from_string(text).parts


# ---------------------------------------------------------------------------

class Workload:
    name = ""
    in_process = False
    # Every run makes at least this many passes, and the gated best-case
    # latency uses exactly these first passes, so each run takes the best
    # of the same number of repeats.  Sized to fit the run length even
    # when the host is in its slow mode.
    best_of = 1

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.seed = seed
        self.min_passes = 1 if ctx.tiny else self.best_of

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def describe(self) -> dict:
        raise NotImplementedError

    def run_pass(self, index: int, spans: Path | None) -> PassResult:
        raise NotImplementedError

    def named_metrics(self, passes: list[PassResult]) -> dict:
        """This workload's own metrics for the report: name -> (value,
        unit, sample count)."""
        raise NotImplementedError


class TableFrontier(Workload):
    """Every (lambda, k) table at one n: m = 0..3, kinds p and i, built
    in a fresh process per pass and serialized with to_json.  The
    operation is the whole frontier of eight tables, so caches shared
    between the builds of one process are paid inside it."""

    name = "table-frontier"
    best_of = 7

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.n = 5 if ctx.tiny else 12
        self.builds = [(kind, m) for kind in "pi" for m in range(4)]

    def describe(self):
        return {"n": self.n, "builds_per_pass": len(self.builds),
                "base": "closed_form", "process": "one cold child per pass"}

    def run_pass(self, index, spans):
        order = list(self.builds)
        self.rng(index).shuffle(order)
        argv = [str(CHILD), "frontier", "--n", str(self.n),
                "--order", ",".join(f"{kind}{m}" for kind, m in order)]
        if spans is not None:
            argv += ["--spans", str(spans), "--request", str(index)]
        wall, proc = run_child(self.ctx, argv)
        inputs = {"n": self.n, "order": order}
        try:
            if proc is None or proc.returncode != 0:
                raise ValueError("frontier child failed")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            times, tables = out["build_s"], out["tables"]
        except (IndexError, KeyError, ValueError):
            return PassResult([wall], len(order), len(order), inputs)
        failed = len(order) - len(tables) + sum(
            not self.table_ok(text, kind, m) for text, (kind, m) in zip(tables, order))
        return PassResult([sum(times)], len(order), failed, inputs)

    def table_ok(self, text: str, kind: str, m: int) -> bool:
        """Column sums, the n-cycle row and (at m = 0) the row sums, all
        exact; values only, never the bytes of the record."""
        n = self.n
        entries: dict[tuple[tuple[int, ...], int], int] = {}
        try:
            for item in json.loads(text)["entries"]:
                entries[(parse_parts(item["lambda"]), int(item["k"]))] = int(item["value"])
        except (KeyError, TypeError, ValueError):
            return False
        lams = partitions(n)
        if any(lam not in lams or not 1 <= k <= n for lam, k in entries):
            return False
        ref = ref_c_sep if kind == "p" else ref_c_fix
        ncycle = sepcycles.p_ncycle if kind == "p" else sepcycles.i_ncycle
        for k in range(1, n + 1):
            column = sum(entries.get((lam, k), 0) for lam in lams)
            if column != factorial(n - 1) * ref(n, k, m):
                return False
            if entries.get(((n,), k), 0) != ncycle(n, m, k):
                return False
        if m == 0:
            for lam in lams:
                row = sum(entries.get((lam, k), 0) for k in range(1, n + 1))
                if row != factorial(n - 1) * factorial(n) // z_lambda(lam):
                    return False
        return True

    def named_metrics(self, passes):
        frontiers = [s for p in passes for s in p.samples]
        return {"table_s": (median(frontiers), "s", len(frontiers))}


SUMMARY = re.compile(r"(\d+) checks, (\d+) mismatches")


class OracleVerify(Workload):
    """The full formula-vs-oracle check in a fresh process, so every
    census is built cold.  The command is fixed; the seed changes
    nothing here."""

    name = "oracle-verify"
    best_of = 6

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.argv = ["verify", "--max-n", "4" if ctx.tiny else "7", "--suite", "all", "--quiet"]

    def describe(self):
        return {"argv": self.argv, "process": "one cold child per pass"}

    def run_pass(self, index, spans):
        wall, proc = run_child(self.ctx, cli_argv(self.argv, spans, index))
        found = SUMMARY.findall(proc.stdout) if proc is not None else []
        checks, mismatches = (int(v) for v in found[-1]) if found else (0, -1)
        ok = proc is not None and proc.returncode == 0 and mismatches == 0 and checks > 0
        return PassResult([wall], 1, 0 if ok else 1, self.argv)

    def named_metrics(self, passes):
        samples = [s for p in passes for s in p.samples]
        return {"verify_s": (median(samples), "s", len(samples))}


# A round of cold CLI invocations.  No usage data exists, so each of the
# five query families gets the same number of slots: p-ncycle counts,
# separation probabilities, alpha counts, lambda counts and small tables.
# Each slot fixes the cost class (the quantity and, where the cost depends
# on it, n and kind); the seed picks the remaining parameters and the
# order.  One slot is the n = 7 p-lambda query that --base auto answers
# with the brute-force census.
CLI_SLOTS = (
    [("p-ncycle", None)] * 10
    + [("separation", None)] * 10
    + [("alpha", None)] * 10
    + [("p-lambda", n) for n in (4, 6, 7, 8, 10, 12)]
    + [("i-lambda", n) for n in (5, 7, 9, 11)]
    + [(f"table-{kind}", n) for n in (4, 5, 6, 8, 9) for kind in "pi"]
)
CLI_SLOTS_TINY = [("p-ncycle", None), ("separation", None), ("alpha", None),
                  ("p-lambda", 4), ("i-lambda", 5), ("table-p", 5)]


class CliMix(Workload):
    """A seeded closed-loop stream of cold ``python -m sepcycles.cli``
    invocations, one fresh process each, checked against values the
    benchmark computes in its own process."""

    name = "cli-mix"
    best_of = 2  # 100 invocations: p90 wants at least 100, so 10 lie beyond it

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.slots = CLI_SLOTS_TINY if ctx.tiny else CLI_SLOTS
        self.big = 8 if ctx.tiny else 30

    def describe(self):
        return {"invocations_per_pass": len(self.slots), "slots": self.slots,
                "largest_closed_form_n": self.big, "process": "one cold child per invocation"}

    def query(self, rng: random.Random, slot) -> dict:
        family, n = slot
        if family == "p-ncycle":
            return {"q": family, "n": rng.randint(4, self.big), "m": rng.randint(0, 3)}
        if family == "separation":
            n = rng.randint(2, self.big)
            return {"q": family, "n": n, "m": rng.randint(0, min(n, 6))}
        if family == "alpha":
            n = rng.randint(4, self.big)
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
            bounds = [0, *cuts, n]
            return {"q": family, "parts": [b - a for a, b in zip(bounds, bounds[1:])]}
        if family.startswith("table"):
            return {"q": "table", "kind": family[-1], "n": n, "m": rng.randint(0, 3)}
        return {"q": family, "lam": list(rng.choice(partitions(n))), "m": rng.randint(0, 3)}

    @staticmethod
    def argv(q: dict) -> list[str]:
        if q["q"] == "p-ncycle":
            return ["count", "p-ncycle", "--n", str(q["n"]), "--m", str(q["m"]), "--k", "all"]
        if q["q"] == "separation":
            return ["prob", "separation", "--n", str(q["n"]), "--m", str(q["m"])]
        if q["q"] == "alpha":
            return ["count", "alpha", "--alpha", ",".join(map(str, q["parts"]))]
        if q["q"] == "table":
            return ["table", "--n", str(q["n"]), "--m", str(q["m"]), "--kind", q["kind"]]
        lam = "+".join(map(str, q["lam"]))
        return ["count", q["q"], "--lambda", lam, "--m", str(q["m"]), "--k", "all"]

    @staticmethod
    def expected(q: dict) -> dict:
        """Nonzero values keyed on the query, computed in this process
        through the public API (lambda counts via the closed-form base,
        a different path from the CLI's --base auto census at n <= 7)."""
        if q["q"] == "p-ncycle":
            n, m = q["n"], q["m"]
            out = {("p-ncycle", n, m, k): sepcycles.p_ncycle(n, m, k) for k in range(1, n + 1)}
        elif q["q"] == "separation":
            out = {("separation", q["n"], q["m"]): sepcycles.sep_prob_ncycle(q["n"], q["m"])}
        elif q["q"] == "alpha":
            parts = tuple(q["parts"])
            out = {("alpha", parts): sepcycles.alpha_separated_count(Composition(parts))}
        elif q["q"] == "table":
            table = sepcycles.build_count_table(q["n"], q["m"], kind=q["kind"], base="closed_form")
            out = {("table", q["n"], q["m"], q["kind"], lam.parts, k): v
                   for (lam, k), v in table.entries.items()}
        else:
            lam = IntegerPartition(tuple(q["lam"]))
            fn = sepcycles.p_lambda if q["q"] == "p-lambda" else sepcycles.i_lambda
            out = {(q["q"], lam.n, q["m"], k, lam.parts): fn(lam, q["m"], k, base="closed_form")
                   for k in range(1, lam.n + 1)}
        return {key: value for key, value in out.items() if value}

    @staticmethod
    def observed(stdout: str) -> dict:
        payload = json.loads(stdout)
        records = payload if isinstance(payload, list) else [payload]
        out = {}
        for rec in records:
            if "entries" in rec:
                for item in rec["entries"]:
                    key = ("table", rec["n"], rec["m"], rec["kind"],
                           parse_parts(item["lambda"]), int(item["k"]))
                    out[key] = Fraction(item["value"])
                continue
            q = rec["query"]
            quantity = q["quantity"]
            if quantity == "alpha":
                key = ("alpha", tuple(int(p) for p in q["alpha"].split(",")))
            elif quantity == "separation":
                key = ("separation", q["n"], q["m"])
            elif quantity == "p-ncycle":
                key = ("p-ncycle", q["n"], q["m"], q["k"])
            else:
                key = (quantity, q["n"], q["m"], q["k"], parse_parts(q["lambda"]))
            out[key] = Fraction(rec["value"])
        return {key: value for key, value in out.items() if value}

    def run_pass(self, index, spans):
        rng = self.rng(index)
        order = list(range(len(self.slots)))
        rng.shuffle(order)
        queries = [self.query(rng, self.slots[i]) for i in order]
        samples, failed = [], 0
        for i, q in enumerate(queries):
            self.ctx.between()
            child_spans = None if spans is None else spans.with_name(f"{spans.stem}-{i}.json")
            request = index * len(queries) + i
            wall, proc = run_child(self.ctx, cli_argv(self.argv(q), child_spans, request))
            samples.append(wall)
            try:
                ok = proc is not None and proc.returncode == 0 and (
                    self.observed(proc.stdout) == self.expected(q))
            except (ValueError, KeyError, TypeError):
                ok = False
            failed += not ok
        return PassResult(samples, len(queries), failed, queries, slots=order)

    @staticmethod
    def family(slot) -> str:
        name = slot[0]
        if name.endswith("-lambda"):
            return "lambda"
        return "table" if name.startswith("table") else name

    def named_metrics(self, passes):
        samples = [s for p in passes for s in p.samples]
        out = {
            "query_p50_s": (median(samples), "s", len(samples)),
            "query_p90_s": (p90(samples), "s", len(samples)),
            "queries_per_s": (len(samples) / sum(samples), "1/s", len(samples)),
        }
        # each family's share of op_best_s, so the weights the gate gives
        # the families can be read off
        best = best_per_slot(passes[:self.min_passes])
        families: dict[str, list[float]] = {}
        for slot, value in best.items():
            families.setdefault(self.family(self.slots[slot]), []).append(value)
        total = sum(best.values())
        for family, values in families.items():
            out[f"op_best_share[{family}]"] = (sum(values) / total, "ratio", len(values))
        return out


class PlaneSample(Workload):
    """Seeded random plane permutations (s, pi) through the public
    PlanePermutation/Permutation API, in this process."""

    name = "plane-sample"
    in_process = True
    best_of = 40

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        # (n, pairs per batch); n = 8 is the size of the acceptance check
        self.sizes = ((5, 8), (6, 4)) if ctx.tiny else ((8, 64), (16, 16))
        self.batches = 2 if ctx.tiny else 40
        self.extra_every = 8  # transpose_blocks and hat on every 8th pair

    def describe(self):
        return {"sizes": [{"n": n, "pairs_per_batch": c} for n, c in self.sizes],
                "batches_per_pass": self.batches, "extra_checks_every": self.extra_every,
                "process": "in-process"}

    def make_batch(self, rng: random.Random) -> list:
        batch = []
        for n, count in self.sizes:
            pairs = []
            for i in range(count):
                tail = list(range(2, n + 1))
                rng.shuffle(tail)
                images = list(range(1, n + 1))
                rng.shuffle(images)
                h = None
                if i % self.extra_every == 0:
                    a = rng.randint(1, n - 2)
                    b = rng.randint(a, n - 2)
                    h = (a, b, rng.randint(b + 1, n - 1))
                pairs.append(((1, *tail), tuple(images), h))
            batch.append((n, pairs))
        return batch

    @staticmethod
    def check(n: int, seq, images, h) -> bool:
        pp = PlanePermutation(seq, Permutation(images))
        ok = (pp.ntae_count() + pp.reflect().ntae_count()
              == n + 1 - pp.pi.cycle_count() - pp.diagonal().cycle_count())
        if h is not None:
            ok = ok and pp.transpose_blocks(h).diagonal() == pp.diagonal()
            d = pp.hat().diagonal().images
            ok = ok and all(d[x] != x + 1 and d[d[x] - 1] == x + 1 for x in range(2 * n))
        return ok

    def run_pass(self, index, spans):
        rng = self.rng(index)
        batches = [self.make_batch(rng) for _ in range(self.batches)]
        tracer = restore = None
        if spans is not None:
            from tracing import Tracer, install
            tracer = Tracer()
            restore = install(tracer)
        samples, slots, failed = [], [], 0
        check, perf = self.check, time.perf_counter
        try:
            for number, batch in enumerate(batches):
                if tracer is not None:
                    tracer.request_id = index * len(batches) + number
                for n, group in batch:
                    started = perf()
                    for seq, images, h in group:
                        failed += not check(n, seq, images, h)
                    samples.append(perf() - started)
                    slots.append(n)
        finally:
            if tracer is not None:
                restore()
                tracer.dump(str(spans))
        pairs = sum(len(group) for batch in batches for _, group in batch)
        return PassResult(samples, pairs, failed, batches, slots=slots)

    def named_metrics(self, passes):
        out = {}
        for n, count in self.sizes:
            times = [s for p in passes for s, slot in zip(p.samples, p.slots) if slot == n]
            out[f"mirror_pairs_per_s[n={n}]"] = (count * len(times) / sum(times), "1/s",
                                                 count * len(times))
        return out


WORKLOADS = {cls.name: cls for cls in (TableFrontier, OracleVerify, CliMix, PlaneSample)}


def p90(values: list[float]) -> float:
    return quantiles(values, n=10)[8] if len(values) > 1 else values[0]
