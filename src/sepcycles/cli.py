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
redirects either form to a file.  ``verify`` prints text lines only and
has no ``--format``.

A ``count``, ``prob`` or ``table`` answered by formula imports only this
module, :mod:`~sepcycles.counting` and :mod:`~sepcycles.partitions`; the
oracle is imported where an enumeration runs or a cap is checked, and
:mod:`~sepcycles.verify` only by ``verify``.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import partial

from . import counting
from .partitions import Composition, IntegerPartition, PartitionParseError, partitions_of

COUNT_QUANTITIES = (
    "stirling", "c-sep", "c-fix", "p-ncycle", "i-ncycle", "p-lambda",
    "i-lambda", "alpha",
)
PROB_QUANTITIES = ("separation", "isolation", "fpf", "moments")
# the quantities with no enumeration to answer --source oracle from
FORMULA_ONLY = ("stirling", "c-sep", "c-fix")
# oracle.DEFAULT_CAP, oracle.HARD_CAP and the names of verify.SUITES,
# spelled out so that building the parser imports neither module (a test
# holds them equal)
CAP_HELP = "oracle enumeration cap (default 7, hard maximum 8)"
VERIFY_SUITES = ("closed-forms", "recurrences", "identities")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        out_format = getattr(args, "format", None) or config.get("format", "json")
        if out_format not in ("json", "csv"):
            raise ValueError(f"unsupported format {out_format!r}")
        cap = args.cap if getattr(args, "cap", None) is not None else config.get("oracle_cap")
        if cap is not None:  # refuse a cap outside 1..HARD_CAP on every command
            from . import oracle

            oracle.active_cap(cap)
        if args.command == "count":
            records = _run_count(args, cap)
        elif args.command == "prob":
            records = _run_prob(args)
        elif args.command == "table":
            records = _run_table(args, cap)
        else:
            return _run_verify(args, cap)
        stream = out_stream(args)
    except (PartitionParseError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(records, out_format, stream)
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
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    common.add_argument("--config", metavar="FILE",
                        help="key=value config file (oracle_cap, format)")
    formatted = argparse.ArgumentParser(add_help=False, parents=[common])
    formatted.add_argument("--format", choices=["json", "csv"], default=None,
                           help="output format (default json, or the config value)")

    p_count = sub.add_parser("count", parents=[formatted], help="exact counts")
    p_count.add_argument("quantity", choices=COUNT_QUANTITIES)
    p_count.add_argument("--n", type=int)
    p_count.add_argument("--m", type=int, default=0)
    p_count.add_argument("--k", default=None,
                         help="vertical cycle count, or 'all' for one record per k")
    p_count.add_argument("--lambda", dest="lam", metavar="PARTITION",
                         help="diagonal cycle type, e.g. 2+1+1 or 1^2 2^1")
    p_count.add_argument("--alpha", metavar="COMPOSITION",
                         help="composition, e.g. 1,3")
    p_count.add_argument("--source", choices=["formula", "oracle"], default="formula",
                         help="compute by formula/recurrence or by enumeration "
                              "(no enumeration for stirling, c-sep, c-fix)")
    p_count.add_argument("--cap", type=int, default=None, help=CAP_HELP)

    p_prob = sub.add_parser("prob", parents=[formatted], help="exact probabilities")
    p_prob.add_argument("quantity", choices=PROB_QUANTITIES)
    p_prob.add_argument("--n", type=int, required=True)
    p_prob.add_argument("--m", type=int, default=0)
    p_prob.add_argument("--decimal", type=int, metavar="D", default=None,
                        help="also render D decimal digits")

    p_table = sub.add_parser("table", parents=[formatted],
                             help="full (lambda, k) table for one (n, m)")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--m", type=int, default=0)
    p_table.add_argument("--kind", choices=["p", "i"], default="p")
    p_table.add_argument("--table-source", choices=["recurrence", "oracle"],
                         default="recurrence")
    p_table.add_argument("--cap", type=int, default=None, help=CAP_HELP)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run formula-vs-oracle suites")
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument("--suite", choices=[*VERIFY_SUITES, "all"],
                          default="all")
    p_verify.add_argument("--cap", type=int, default=None, help=CAP_HELP)
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
                try:
                    config[key] = int(value)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: oracle_cap must be an integer, got {value!r}"
                    ) from None
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


def _run_count(args, cap) -> list[dict]:
    q = args.quantity
    if args.source == "oracle" and q in FORMULA_ONLY:
        raise ValueError(f"--source oracle is not available for {q}")
    records = []
    if q == "alpha":
        _need(args, "alpha")
        alpha = Composition.from_string(args.alpha)
        started = time.perf_counter()
        if args.source == "oracle":
            from . import oracle

            value, source = oracle.oracle_alpha(alpha, cap=cap), "oracle"
        else:
            value, source = counting.alpha_separated_count(alpha), "closed_form"
        return [_record({"command": "count", "quantity": q, "alpha": str(alpha)},
                        value, source, started)]

    by_lambda = q in ("p-lambda", "i-lambda")
    if by_lambda:
        _need(args, "lam", "k")
        lam = IntegerPartition.from_string(args.lam)
        n = lam.n
    else:
        _need(args, "n")
        n = args.n
        if n < 1:
            raise ValueError(f"--n must be >= 1, got {n}")
        lam = IntegerPartition((n,))
    if args.k is None:
        raise ValueError("--k is required for this quantity")
    first_k = 0 if q == "stirling" else 1
    if args.k == "all":
        ks = list(range(first_k, n + 1))
    else:
        try:
            ks = [int(args.k)]
        except ValueError:
            raise ValueError(f"--k must be an integer or 'all', got {args.k!r}") from None

    if q == "stirling":
        for k in ks:
            started = time.perf_counter()
            value = counting.stirling_c(n, k)
            records.append(_record({"command": "count", "quantity": q, "n": n, "k": k},
                                   value, "closed_form", started))
        return records

    if q in ("p-ncycle", "i-ncycle", "p-lambda", "i-lambda"):
        # the formula's domain, in its order (m, then k), whichever source
        # answers: i_ncycle divides by n - m, and the enumeration, which
        # counts any k, would answer 0 outside 1 <= k <= n
        if q == "i-ncycle" and not 0 <= args.m < n:
            raise ValueError(f"m must satisfy 0 <= m < n, got m={args.m}, n={n}")
        if not 0 <= args.m <= n:
            raise ValueError(f"m must satisfy 0 <= m <= {n}, got {args.m}")
        for k in ks:
            if not 1 <= k <= n:
                raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    # quantity -> (formula, the source it reports), each called as
    # f(lam, m, k); lam is the n-cycle type (n) unless --lambda gives it.
    # --source oracle, refused above for the formula-only quantities,
    # enumerates instead: oracle_p for the p- quantities, oracle_i for i-.
    methods = {
        "c-sep": (lambda lam, m, k: counting.c_sep(lam.n, k, m), "closed_form"),
        "c-fix": (lambda lam, m, k: counting.c_fix(lam.n, k, m), "closed_form"),
        "p-ncycle": (lambda lam, m, k: counting.p_ncycle(lam.n, m, k), "closed_form"),
        "i-ncycle": (lambda lam, m, k: counting.i_ncycle(lam.n, m, k), "closed_form"),
        "p-lambda": (counting.p_lambda, "recurrence"),
        "i-lambda": (counting.i_lambda, "recurrence"),
    }
    value_of, source = methods[q]
    if args.source == "oracle":
        from . import oracle

        enumeration = oracle.oracle_p if q.startswith("p-") else oracle.oracle_i
        value_of, source = partial(enumeration, cap=cap), "oracle"
    for k in ks:
        started = time.perf_counter()
        query = {"command": "count", "quantity": q, "n": n, "m": args.m, "k": k}
        if by_lambda:
            query["lambda"] = str(lam)
        records.append(_record(query, value_of(lam, args.m, k), source, started))
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
    if args.decimal is not None and args.decimal < 0:
        raise ValueError(f"--decimal must be >= 0, got {args.decimal}")
    started = time.perf_counter()
    query = {"command": "prob", "quantity": q, "n": args.n}
    queries: list[tuple[dict, Fraction]]
    if q == "separation":
        queries = [({**query, "m": args.m}, counting.sep_prob_ncycle(args.n, args.m))]
    elif q == "isolation":
        queries = [({**query, "m": args.m}, counting.iso_prob_ncycle(args.n, args.m))]
    elif q == "fpf":
        queries = [(query, counting.fpf_probability(args.n))]
    else:  # moments
        mean, variance = counting.fixed_point_moments(args.n)
        queries = [({**query, "statistic": "mean"}, mean),
                   ({**query, "statistic": "variance"}, variance)]
    records = []
    for query, value in queries:
        record = _record(query, value, "closed_form", started)
        if args.decimal is not None:
            record["decimal"] = _decimal_string(value, args.decimal)
        records.append(record)
    return records


def _run_table(args, cap) -> list[dict]:
    started = time.perf_counter()
    if args.table_source == "oracle":
        table = _oracle_table(args.n, args.m, args.kind, cap)
    else:
        table = counting.build_count_table(args.n, args.m, kind=args.kind)
    data = table.to_json_dict()
    data["time_seconds"] = round(time.perf_counter() - started, 6)
    return [data]


def _oracle_table(n: int, m: int, kind: str, cap: int | None) -> counting.CountTable:
    """The (lambda, k) table of :func:`counting.build_count_table`, every
    entry read off the enumeration instead."""
    from . import oracle

    value_of = oracle.oracle_p if kind == "p" else oracle.oracle_i
    entries = {}
    for lam in partitions_of(n):
        for k in range(1, n + 1):
            value = value_of(lam, m, k, cap=cap)
            if value:
                entries[(lam, k)] = value
    return counting.CountTable(n=n, m=m, kind=kind, source="oracle", entries=entries)


def _run_verify(args, cap) -> int:
    from . import verify

    suites = list(verify.SUITES) if args.suite == "all" else [args.suite]
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
            # the table serializer writes json.dumps's text, only faster
            dump = counting.table_json if "entries" in payload else json.dumps
            print(dump(payload, indent=2), file=stream)
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
        import csv

        writer = csv.DictWriter(stream, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if stream is not sys.stdout:
            stream.close()


if __name__ == "__main__":
    sys.exit(main())
