"""Layered benchmark of sepcycles: one command, four seeded workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from
``src/`` and nowhere else.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it alternates
untraced and traced passes over the same inputs and reports per-layer
metrics and the tracing overhead.  A human-readable report (environment,
inputs digest, each workload's own median metrics with units and
sample counts) comes first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_CODE = "import sepcycles; sepcycles.resolve_p_base_reading()"
# A cold process that does the kinds of work a cold set-up does (start
# the interpreter, compile source, run Python code) without the package.
# Its fastest time in a run measures how fast the shared host is during
# that run; see README.md, "Noise, repeats and bounds".
REFERENCE_CODE = (
    "src = ''.join(f'def f{i}(a, b=1):\\n    c = a * {i} + b\\n    return [c, a, b]\\n'"
    " for i in range(200))\n"
    "for _ in range(4):\n    exec(compile(src, 'reference', 'exec'), {})\n"
    "d = {}\n"
    "for i in range(60000):\n    t = (i % 97, i % 13)\n    d[t] = d.get(t, 0) + i\n"
)
# The gated timings are host-normalized: scaled to a host on which the
# reference process takes this long at best (about its fastest on the
# 2-core host the benchmark was tuned on).
REFERENCE_S = 0.08
SETUP_SAMPLES = 16


def child_env() -> dict:
    """The complete environment of every child process.  No bytecode is
    written, so in a fresh checkout every cold process compiles the
    package from source."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
    }


def git_sha(root: Path) -> str | None:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class SetupSampler:
    """Cold set-ups (process start until ``import sepcycles`` and the lazy
    p_base resolution have finished), each followed by one cold reference
    process.  A fixed number of pairs is spread evenly over the run
    (``between`` is called between operations); the fastest of each kind
    counts, like op_best_s."""

    def __init__(self, ctx, count: int, seconds: float):
        self.ctx = ctx
        self.count = count
        self.interval = seconds / count
        self.samples: list[float] = []
        self.reference: list[float] = []
        self.started = time.perf_counter()

    def sample(self) -> None:
        from workloads import run_child

        for code, out in ((SETUP_CODE, self.samples), (REFERENCE_CODE, self.reference)):
            wall, proc = run_child(self.ctx, ["-c", code])
            if proc is None or proc.returncode != 0:
                raise RuntimeError(f"cold process failed: {proc.stderr if proc else 'timeout'}")
            out.append(wall)

    def between(self) -> None:
        elapsed = time.perf_counter() - self.started
        while len(self.samples) < min(self.count, int(elapsed / self.interval) + 1):
            self.sample()

    def finish(self) -> list[float]:
        while len(self.samples) < self.count:
            self.sample()
        return self.samples


def run_untraced(workload, seconds: float, digest) -> list:
    """Passes until the time is up.  Another pass starts only while at
    least half a typical pass fits before the deadline, so long passes
    do not overrun the run length by a whole pass."""
    passes = []
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        now = time.perf_counter()
        typical = (now - started) / len(passes) if passes else 0.0
        if len(passes) >= workload.min_passes and now + typical / 2 >= deadline:
            return passes
        workload.ctx.between()
        passes.append(digest(workload.run_pass(len(passes), None)))


def run_traced(workload, seconds: float, span_dir: Path, digest):
    """Pairs of passes on the same inputs, untraced then traced, under
    the same deadline rule as untraced passes (at least one pair).  Each
    traced pass writes its spans when its process ends; they are summed
    here pass by pass, so only one pass's spans are ever in memory."""
    from tracing import SpanTotals, load

    untraced, traced = [], []
    totals = SpanTotals()
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        now = time.perf_counter()
        typical = (now - started) / len(traced) if traced else 0.0
        if traced and now + typical / 2 >= deadline:
            return untraced, traced, totals
        index = len(traced)
        untraced.append(digest(workload.run_pass(index, None)))
        traced.append(digest(workload.run_pass(index, span_dir / f"pass{index}.json")))
        # one file per traced process: pass{index}.json or pass{index}-{i}.json;
        # the first pass's files are kept for inspection, later ones removed
        for path in [*span_dir.glob(f"pass{index}.json"), *span_dir.glob(f"pass{index}-*.json")]:
            totals.add_trace(load(str(path)))
            if index:
                path.unlink()


def best_case(passes) -> float:
    """The fastest repeat of each operation slot in the given passes,
    averaged over slots.  The shared host's speed moves in phases seconds
    to minutes long, so a run's median lands in whichever phase dominated
    the run; its fastest repeats measure the work itself.  See README.md,
    "Noise, repeats and bounds"."""
    from workloads import best_per_slot

    best = best_per_slot(passes)
    return sum(best.values()) / len(best)


class InputsDigest:
    """SHA-256 over the inputs of every pass, in order.  Inputs are hashed
    as each pass ends and then dropped, so a long run holds no more of
    them than a short one."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()

    def __call__(self, result):
        self.hash.update(json.dumps(result.inputs, sort_keys=True).encode())
        result.inputs = None
        return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of sepcycles.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes for the harness smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "sepcycles" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sepcycles'}; run from a "
              "sepcycles checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sepcycles
    from workloads import WORKLOADS, Context

    if Path(sepcycles.__file__).resolve().parent != SRC / "sepcycles":
        print(f"error: sepcycles imported from {sepcycles.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    ctx = Context(root=ROOT, python=sys.executable, env=child_env(), tiny=args.tiny)
    workload = WORKLOADS[args.workload](ctx, args.seed)
    report: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_sha": git_sha(ROOT),
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "child_command": [sys.executable, "-s", "..."],
            "child_env": ctx.env,
        },
        "inputs": workload.describe(),
    }

    digest = InputsDigest()
    if args.trace == 0:
        sampler = SetupSampler(ctx, 2 if args.tiny else SETUP_SAMPLES, args.seconds)
        ctx.between = sampler.between
        passes = run_untraced(workload, args.seconds, digest)
        setup = sampler.finish()
        usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        peak_mb = resource.getrusage(usage).ru_maxrss / 1024
        best = best_case(passes[:workload.min_passes])
        scale = REFERENCE_S / min(sampler.reference)
        metrics = {
            "setup_s": (min(setup) * scale, "s"),
            "op_best_s": (best * scale, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        # the report gives the measured seconds, before normalization
        named = {"setup_s": (min(setup), "s", len(setup)),
                 "op_best_s": (best, "s", workload.min_passes),
                 "host_reference_s": (min(sampler.reference), "s", len(sampler.reference)),
                 **workload.named_metrics(passes), "peak_rss_mb": (peak_mb, "MB", 1)}
        report["samples"] = {"setup": len(setup), "passes": len(passes),
                             "ops": sum(len(p.samples) for p in passes)}
    else:
        span_dir = OUT / "spans" / workload.name
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
        untraced, traced, totals = run_traced(workload, args.seconds, span_dir, digest)
        base = median([sum(p.samples) for p in untraced])
        overhead = median([sum(p.samples) for p in traced]) - base
        metrics = totals.layer_metrics(len(traced))
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / base, "ratio")
        passes = untraced + traced
        named = {}
        report["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                             "spans": totals.spans}
        report["span_files"] = str(span_dir.relative_to(ROOT))
        report["unwrapped_targets"] = sorted(totals.missing)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report["inputs_sha256"] = digest.hash.hexdigest()
    report["failed_share"] = failed / attempted
    report["named_metrics"] = {
        name: {"value": value, "unit": unit, "samples": count}
        for name, (value, unit, count) in named.items()
    }
    print(json.dumps(report, indent=2, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
