"""Command-line interface.

Subcommands:

* ``count``  -- one exact count (Stirling refinements, n-cycle products,
  general diagonal types, block-separated products).
* ``prob``   -- exact rational probabilities and moments.
* ``table``  -- the full (lambda, k) table for one (n, m).
* ``verify`` -- formula-vs-oracle suites; exit 1 on any mismatch.

Every record echoes its query and reports the value as a string (counts
overflow 64-bit integers quickly, so JSON never carries them as
numbers).  ``--format csv`` emits the same values in CSV; ``--out``
redirects either form to a file.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction

from . import counting, oracle, verify
from .partitions import Composition, IntegerPartition, PartitionParseError

COUNT_QUANTITIES = (
    "stirling", "c-sep", "c-fix", "p-ncycle", "i-ncycle", "p-lambda",
    "i-lambda", "alpha",
)
PROB_QUANTITIES = ("separation", "isolation", "fpf", "moments")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        out_format = args.format or config.get("format", "json")
        if out_format not in ("json", "csv"):
            raise ValueError(f"unsupported format {out_format!r}")
        cap = args.cap if getattr(args, "cap", None) is not None else config.get("oracle_cap")
        if args.command == "count":
            records = _run_count(args, cap)
        elif args.command == "prob":
            records = _run_prob(args)
        elif args.command == "table":
            records = _run_table(args, cap)
        else:
            return _run_verify(args, cap)
    except (PartitionParseError, ValueError, ArithmeticError, oracle.OracleCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(records, out_format, out_stream(args))
    return 0


def out_stream(args):
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8", newline="")
    return sys.stdout


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepcycles",
        description="Exact separation/isolation statistics for products of n-cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"], default=None,
                        help="output format (default json, or the config value)")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    common.add_argument("--config", metavar="FILE",
                        help="key=value config file (oracle_cap, format)")

    p_count = sub.add_parser("count", parents=[common], help="exact counts")
    p_count.add_argument("quantity", choices=COUNT_QUANTITIES)
    p_count.add_argument("--n", type=int)
    p_count.add_argument("--m", type=int, default=0)
    p_count.add_argument("--k", default=None,
                         help="vertical cycle count, or 'all' for one record per k")
    p_count.add_argument("--lambda", dest="lam", metavar="PARTITION",
                         help="diagonal cycle type, e.g. 2+1+1 or 1^2 2^1")
    p_count.add_argument("--alpha", metavar="COMPOSITION",
                         help="composition, e.g. 1,3")
    p_count.add_argument("--base", choices=["auto", "oracle", "closed_form"],
                         default="auto", help="defect-0 source for *-lambda counts")
    p_count.add_argument("--source", choices=["formula", "oracle"], default="formula",
                         help="compute by formula/recurrence or by enumeration")
    p_count.add_argument("--cap", type=int, default=None,
                         help="oracle enumeration cap (default 7, hard max 9)")

    p_prob = sub.add_parser("prob", parents=[common], help="exact probabilities")
    p_prob.add_argument("quantity", choices=PROB_QUANTITIES)
    p_prob.add_argument("--n", type=int, required=True)
    p_prob.add_argument("--m", type=int, default=0)
    p_prob.add_argument("--decimal", type=int, metavar="D", default=None,
                        help="also render D decimal digits")

    p_table = sub.add_parser("table", parents=[common],
                             help="full (lambda, k) table for one (n, m)")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--m", type=int, default=0)
    p_table.add_argument("--kind", choices=["p", "i"], default="p")
    p_table.add_argument("--table-source", choices=["recurrence", "oracle"],
                         default="recurrence")
    p_table.add_argument("--base", choices=["auto", "oracle", "closed_form"],
                         default="auto")
    p_table.add_argument("--cap", type=int, default=None)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run formula-vs-oracle suites")
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument("--suite", choices=list(verify.SUITES) + ["all"],
                          default="all")
    p_verify.add_argument("--cap", type=int, default=None)
    p_verify.add_argument("--quiet", action="store_true",
                          help="print failures and the summary only")
    return parser


def _load_config(path: str) -> dict:
    config: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "oracle_cap":
                config[key] = int(value)
            elif key == "format":
                config[key] = value
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return config


def _record(query: dict, value, source: str, started: float) -> dict:
    return {
        "query": query,
        "value": str(value),
        "source": source,
        "time_seconds": round(time.perf_counter() - started, 6),
    }


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"--{name} is required for this quantity")


def _k_values(args, n: int) -> list[int] | None:
    if args.k is None:
        return None
    if args.k == "all":
        return list(range(1, n + 1))
    return [int(args.k)]


def _run_count(args, cap) -> list[dict]:
    q = args.quantity
    records = []
    if q == "alpha":
        _need(args, "alpha")
        alpha = Composition.from_string(args.alpha)
        started = time.perf_counter()
        if args.source == "oracle":
            value = oracle.oracle_alpha(alpha, cap=cap)
        else:
            value = counting.alpha_separated_count(alpha)
        source = "oracle" if args.source == "oracle" else "closed_form"
        return [_record({"command": "count", "quantity": q, "alpha": str(alpha)},
                        value, source, started)]

    if q in ("p-lambda", "i-lambda"):
        _need(args, "lam", "k")
        lam = IntegerPartition.from_string(args.lam)
        n = lam.n
    else:
        _need(args, "n")
        n = args.n
        if n < 1:
            raise ValueError(f"--n must be >= 1, got {n}")
    ks = _k_values(args, n) if q != "stirling" else None

    if q == "stirling":
        if args.k is None:
            raise ValueError("--k is required for this quantity")
        k_list = list(range(0, n + 1)) if args.k == "all" else [int(args.k)]
        for k in k_list:
            started = time.perf_counter()
            value = counting.stirling_c(n, k)
            records.append(_record({"command": "count", "quantity": q, "n": n, "k": k},
                                   value, "closed_form", started))
        return records

    if ks is None:
        raise ValueError("--k is required for this quantity")

    for k in ks:
        started = time.perf_counter()
        query = {"command": "count", "quantity": q, "n": n, "m": args.m, "k": k}
        if q == "c-sep":
            value, source = counting.c_sep(n, k, args.m), "closed_form"
        elif q == "c-fix":
            value, source = counting.c_fix(n, k, args.m), "closed_form"
        elif q == "p-ncycle":
            if args.source == "oracle":
                value = oracle.oracle_p(IntegerPartition((n,)), args.m, k, cap=cap)
                source = "oracle"
            else:
                value, source = counting.p_ncycle(n, args.m, k), "closed_form"
        elif q == "i-ncycle":
            if args.source == "oracle":
                value = oracle.oracle_i(IntegerPartition((n,)), args.m, k, cap=cap)
                source = "oracle"
            else:
                value, source = counting.i_ncycle(n, args.m, k), "closed_form"
        elif q == "p-lambda":
            query["lambda"] = str(lam)
            if args.source == "oracle":
                value, source = oracle.oracle_p(lam, args.m, k, cap=cap), "oracle"
            else:
                value = counting.p_lambda(lam, args.m, k, base=args.base, cap=cap)
                source = "recurrence"
        elif q == "i-lambda":
            query["lambda"] = str(lam)
            if args.source == "oracle":
                value, source = oracle.oracle_i(lam, args.m, k, cap=cap), "oracle"
            else:
                value = counting.i_lambda(lam, args.m, k, base=args.base, cap=cap)
                source = "recurrence"
        else:  # pragma: no cover
            raise ValueError(f"unhandled quantity {q!r}")
        records.append(_record(query, value, source, started))
    return records


def _decimal_string(value: Fraction, digits: int) -> str:
    scaled = value * 10**digits
    rounded = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    text = str(rounded).rjust(digits + 1, "0")
    if digits == 0:
        return text
    return f"{text[:-digits]}.{text[-digits:]}"


def _run_prob(args) -> list[dict]:
    q = args.quantity
    records = []
    queries: list[tuple[dict, Fraction]] = []
    if q == "separation":
        started = time.perf_counter()
        value = counting.sep_prob_ncycle(args.n, args.m)
        queries.append(({"command": "prob", "quantity": q, "n": args.n, "m": args.m}, value))
    elif q == "isolation":
        started = time.perf_counter()
        value = counting.iso_prob_ncycle(args.n, args.m)
        queries.append(({"command": "prob", "quantity": q, "n": args.n, "m": args.m}, value))
    elif q == "fpf":
        started = time.perf_counter()
        value = counting.fpf_probability(args.n)
        queries.append(({"command": "prob", "quantity": q, "n": args.n}, value))
    else:  # moments
        started = time.perf_counter()
        mean, variance = counting.fixed_point_moments(args.n)
        queries.append(({"command": "prob", "quantity": q, "n": args.n,
                         "statistic": "mean"}, mean))
        queries.append(({"command": "prob", "quantity": q, "n": args.n,
                         "statistic": "variance"}, variance))
    for query, value in queries:
        record = _record(query, value, "closed_form", started)
        if args.decimal is not None:
            record["decimal"] = _decimal_string(value, args.decimal)
        records.append(record)
    return records


def _run_table(args, cap) -> list[dict]:
    started = time.perf_counter()
    table = counting.build_count_table(
        args.n, args.m, kind=args.kind, source=args.table_source,
        base=args.base, cap=cap,
    )
    data = table.to_json_dict()
    data["time_seconds"] = round(time.perf_counter() - started, 6)
    return [data]


def _run_verify(args, cap) -> int:
    suites = list(verify.SUITES) if args.suite == "all" else [args.suite]
    effective_cap = oracle.DEFAULT_CAP if cap is None else cap
    if args.max_n > effective_cap:
        print(
            f"error: --max-n {args.max_n} exceeds the oracle cap {effective_cap}",
            file=sys.stderr,
        )
        return 2
    records = verify.run_suites(suites, args.max_n, cap=cap)
    failures = [r for r in records if not r.ok]
    # opened only now, so a refused or failed run leaves --out untouched
    stream = out_stream(args)
    try:
        for record in records:
            if record.ok and args.quiet:
                continue
            print(record.line(), file=stream)
        print(
            f"{len(records)} checks, {len(failures)} mismatches "
            f"(suites: {', '.join(suites)}, max n {args.max_n})",
            file=stream,
        )
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 1 if failures else 0


def _emit(records: list[dict], out_format: str, stream) -> None:
    try:
        if out_format == "json":
            payload = records[0] if len(records) == 1 else records
            print(json.dumps(payload, indent=2), file=stream)
            return
        fields: list[str] = []
        rows = []
        for record in records:
            if "entries" in record:  # a materialised table: one row per entry
                header = {k: v for k, v in record.items() if k != "entries"}
                for entry in record["entries"]:
                    rows.append({**header, **entry})
                continue
            row = dict(record.get("query", {}))
            row.update((k, v) for k, v in record.items() if k != "query")
            rows.append(row)
        for row in rows:
            for key in row:
                if key not in fields:
                    fields.append(key)
        writer = csv.DictWriter(stream, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if stream is not sys.stdout:
            stream.close()


if __name__ == "__main__":
    sys.exit(main())
