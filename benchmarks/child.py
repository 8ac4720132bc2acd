"""Child process of the benchmark: one cold ``sepcycles`` process.

    python child.py frontier --n N --order p0,i3,... [--spans FILE --request ID]
        Builds the listed CountTables (kind, m) with base="closed_form"
        after the lazy p_base resolution, serializes each with to_json,
        and prints {"build_s": [seconds per table], "tables": [...]} as
        one JSON line.
    python child.py cli --spans FILE [--request ID] -- ARGV...
        The traced stand-in for ``python -m sepcycles.cli ARGV``: installs
        the span wrappers, calls ``cli.main(ARGV)`` and exits with its
        code.

With ``--spans`` the process traces and writes its spans to FILE when it
ends; every span carries the request id ID.  The package is found through PYTHONPATH, which the parent sets.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from tracing import Tracer, install


def frontier(args) -> int:
    import sepcycles

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.request_id = args.request
        install(tracer)
    try:
        sepcycles.resolve_p_base_reading()
        builds = [(item[0], int(item[1:])) for item in args.order.split(",")]
        tables, build_s = [], []
        for kind, m in builds:
            started = time.perf_counter()
            tables.append(
                sepcycles.build_count_table(args.n, m, kind=kind, base="closed_form").to_json())
            build_s.append(time.perf_counter() - started)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
    print(json.dumps({"build_s": build_s, "tables": tables}))
    return 0


def cli(args) -> int:
    started = time.perf_counter()
    from sepcycles import cli as sepcycles_cli

    tracer = Tracer()
    tracer.request_id = args.request
    tracer.add("cli.import_s", time.perf_counter() - started)
    tracer.add("cli.invocations", 1)
    install(tracer)
    code = 1
    try:
        code = sepcycles_cli.main(args.argv)
    finally:
        if code != 0:
            tracer.add("cli.nonzero_exit", 1)
        sys.stdout.flush()
        tracer.dump(args.spans)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_frontier = sub.add_parser("frontier")
    p_frontier.add_argument("--n", type=int, required=True)
    p_frontier.add_argument("--order", required=True)
    p_frontier.add_argument("--spans")
    p_frontier.add_argument("--request", type=int, default=0)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--spans", required=True)
    p_cli.add_argument("--request", type=int, default=0)
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "frontier":
        return frontier(args)
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return cli(args)


if __name__ == "__main__":
    sys.exit(main())
