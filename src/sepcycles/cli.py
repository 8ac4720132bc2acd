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
has no ``--format``.  Each command returns its text, and :func:`main`
writes it once, to stdout or to ``--out``, after the command succeeded.

A ``count``, ``prob`` or ``table`` answered by formula imports only this
module, :mod:`~sepcycles.counting` and :mod:`~sepcycles.partitions`; the
oracle is imported where an enumeration runs, and :mod:`~sepcycles.verify`
only by ``verify``.

Every size is bounded, and refused before any work past its bound:
``TABLE_MAX_N`` for a count or table read off a recurrence table,
``ROW_MAX_N`` for every other formula, ``DECIMAL_MAX`` for ``--decimal``,
and the oracle's own hard maximum (``CENSUS_MAX_N`` here) for an
enumeration.  A query for many values (``--k all``, ``prob moments``)
prints a JSON list, even of one record, and any other query one object.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import counting
from .partitions import (
    Composition, IntegerPartition, PartitionParseError, partition_size, partitions_of,
)

# count quantity -> (formula, the source it reports, the oracle query that
# answers --source oracle or None, the subject flags it reads).  Each
# formula and query is called as f(lam, m, k), lam the n-cycle type (n)
# unless --lambda gives it, m 0 unless --m gives it; alpha's as f(alpha).
COUNTS = {
    "stirling": (lambda lam, m, k: counting.stirling_c(lam.n, k), "closed_form", None,
                 ("n", "k")),
    "c-sep": (lambda lam, m, k: counting.c_sep(lam.n, k, m), "closed_form", None,
              ("n", "k", "m")),
    "c-fix": (lambda lam, m, k: counting.c_fix(lam.n, k, m), "closed_form", None,
              ("n", "k", "m")),
    "p-ncycle": (lambda lam, m, k: counting.p_ncycle(lam.n, m, k), "closed_form", "oracle_p",
                 ("n", "k", "m")),
    "i-ncycle": (lambda lam, m, k: counting.i_ncycle(lam.n, m, k), "closed_form", "oracle_i",
                 ("n", "k", "m")),
    "p-lambda": (counting.p_lambda, "recurrence", "oracle_p", ("lambda", "k", "m")),
    "i-lambda": (counting.i_lambda, "recurrence", "oracle_i", ("lambda", "k", "m")),
    "alpha": (counting.alpha_separated_count, "closed_form", "oracle_alpha", ("alpha",)),
}
PROB_QUANTITIES = ("separation", "isolation", "fpf", "moments")
# oracle.HARD_CAP and the names of verify.SUITES, spelled out so that
# building the parser imports neither module (a test holds them equal)
CENSUS_MAX_N = 8
VERIFY_SUITES = ("closed-forms", "recurrences", "identities")
# The largest n a formula command accepts.  One row over k costs about
# n^2 big-integer steps: a cold `count stirling --n 3000 --k 3` took 4.5 s
# and 30 MB, n = 6000 35 s, and `prob fpf --n 3000` 2.9 s.  A recurrence
# table grows about 1.35x per step of n: a cold `table --n 36 --m 3` took
# 16 s and 570 MB.  `--decimal 100000` took 0.24 s, 1000000 10 s (2-core
# x86 host, Python 3.11).
ROW_MAX_N = 3000
TABLE_MAX_N = 36
DECIMAL_MAX = 100_000


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            code, text = _run_verify(args)
        else:
            if args.command == "count":
                payload = _run_count(args)
            elif args.command == "prob":
                payload = _run_prob(args)
            else:
                payload = _run_table(args)
            code, text = 0, _render(payload, args.format)
        # the one writer: a refused or failed command leaves --out untouched
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as stream:
                stream.write(text)
        else:
            sys.stdout.write(text)
    except (PartitionParseError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepcycles",
        description="Exact separation/isolation statistics for products of n-cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    formatted = argparse.ArgumentParser(add_help=False, parents=[common])
    formatted.add_argument("--format", choices=["json", "csv"], default="json",
                           help="output format (default json)")

    p_count = sub.add_parser("count", parents=[formatted], help="exact counts")
    p_count.add_argument("quantity", choices=COUNTS)
    p_count.add_argument("--n", type=int, help=f"size, at most {ROW_MAX_N}")
    p_count.add_argument("--m", type=int)
    p_count.add_argument("--k", default=None,
                         help="vertical cycle count, or 'all' for one record per k")
    p_count.add_argument("--lambda", metavar="PARTITION",
                         help="diagonal cycle type, e.g. 2+1+1 or 1^2 2^1, "
                              f"of size at most {TABLE_MAX_N}")
    p_count.add_argument("--alpha", metavar="COMPOSITION",
                         help=f"composition, e.g. 1,3, of size at most {ROW_MAX_N}")
    p_count.add_argument("--source", choices=["formula", "oracle"], default="formula",
                         help=f"oracle: enumeration, hard maximum {CENSUS_MAX_N} (none "
                              "for stirling, c-sep, c-fix); formula: closed form or "
                              "recurrence")

    p_prob = sub.add_parser("prob", parents=[formatted], help="exact probabilities")
    p_prob.add_argument("quantity", choices=PROB_QUANTITIES)
    p_prob.add_argument("--n", type=int, required=True,
                        help=f"size, at most {ROW_MAX_N}")
    p_prob.add_argument("--m", type=int)
    p_prob.add_argument("--decimal", type=int, metavar="D", default=None,
                        help=f"also render D decimal digits, at most {DECIMAL_MAX}")

    p_table = sub.add_parser("table", parents=[formatted],
                             help="full (lambda, k) table for one (n, m)")
    p_table.add_argument("--n", type=int, required=True,
                         help=f"size, at most {TABLE_MAX_N}")
    p_table.add_argument("--m", type=int)
    p_table.add_argument("--kind", choices=["p", "i"], default="p")
    p_table.add_argument("--table-source", choices=["recurrence", "oracle"],
                         default="recurrence",
                         help=f"oracle: enumeration, hard maximum {CENSUS_MAX_N}; "
                              "recurrence: the defect recurrence")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run formula-vs-oracle suites")
    p_verify.add_argument("--max-n", type=int, required=True,
                          help=f"largest n checked, at most {CENSUS_MAX_N}, the "
                               f"census's hard maximum (about 11 s at {CENSUS_MAX_N})")
    p_verify.add_argument("--suite", choices=[*VERIFY_SUITES, "all"],
                          default="all")
    p_verify.add_argument("--quiet", action="store_true",
                          help="print failures and the summary only")
    return parser


def _text(value: int | Fraction) -> str:
    """``str(value)`` for an int or a Fraction of any size.  ``str`` of an
    int refuses more digits than the interpreter's conversion limit (4300
    by default, 640 at the least), so a large value is written in halves
    of below 600 digits each; the limit itself is left as it is.
    """
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_text(value.numerator)}/{_text(value.denominator)}"
    value = int(value)
    if -10**600 < value < 10**600:
        return str(value)
    if value < 0:
        return "-" + _text(-value)
    half = value.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(value, 10**half)
    return _text(high) + _text(low).rjust(half, "0")


def _record(query: dict, value, source: str, started: float) -> dict:
    return {
        "query": query,
        "value": _text(value),
        "source": source,
        "time_seconds": round(time.perf_counter() - started, 6),
    }


def _run_count(args) -> dict | list[dict]:
    q = args.quantity
    formula, source, enumeration, reads = COUNTS[q]
    if args.source == "oracle" and enumeration is None:
        raise ValueError(f"--source oracle is not available for {q}")
    for flag in ("n", "lambda", "alpha", "k", "m"):
        if flag not in reads and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to {q}")
    for flag in reads:
        if getattr(args, flag) is None and flag != "m":
            raise ValueError(f"--{flag} is required for this quantity")
        if flag == "n" and args.n < 1:
            raise ValueError(f"--n must be >= 1, got {args.n}")
    m = args.m or 0

    if args.source == "oracle":
        from . import oracle

        formula, source = getattr(oracle, enumeration), "oracle"
    if q == "alpha":  # no k: one record for the composition
        alpha = Composition.from_string(args.alpha)
        _check_size(alpha.n, ROW_MAX_N, q)
        started = time.perf_counter()
        return _record({"command": "count", "quantity": q, "alpha": str(alpha)},
                       formula(alpha), source, started)

    by_lambda = "lambda" in reads
    if by_lambda:
        text = getattr(args, "lambda")
        # sized from the text, so 1^100000000 is refused before its parts exist
        _check_size(partition_size(text), TABLE_MAX_N, q)
        lam = IntegerPartition.from_string(text)
    else:
        _check_size(args.n, ROW_MAX_N, q)
        lam = IntegerPartition((args.n,))
    n = lam.n
    if args.k == "all":
        ks = range(0 if q == "stirling" else 1, n + 1)
    else:
        try:
            ks = [int(args.k)]
        except ValueError:
            raise ValueError(f"--k must be an integer or 'all', got {args.k!r}") from None
    if q == "i-ncycle" and not 0 <= m < n:
        # i_ncycle divides by n - m; the enumeration, which could count
        # m = n, refuses it the same way
        raise ValueError(f"m must satisfy 0 <= m < n, got m={m}, n={n}")
    records = []
    for k in ks:
        started = time.perf_counter()
        query = {"command": "count", "quantity": q, "n": n, "m": m, "k": k}
        if q == "stirling":  # c(n, k) has no m
            del query["m"]
        if by_lambda:
            query["lambda"] = str(lam)
        records.append(_record(query, formula(lam, m, k), source, started))
    return records if args.k == "all" else records[0]


def _check_size(n: int, limit: int, name: str) -> None:
    if n > limit:
        raise ValueError(f"n must be <= {limit} for {name}, got {n}")


def _decimal_string(value: Fraction, digits: int) -> str:
    scaled = value * 10**digits
    rounded = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    text = _text(rounded).rjust(digits + 1, "0")
    if digits == 0:
        return text
    return f"{text[:-digits]}.{text[-digits:]}"


def _run_prob(args) -> dict | list[dict]:
    q = args.quantity
    _check_size(args.n, ROW_MAX_N, q)
    if args.decimal is not None and not 0 <= args.decimal <= DECIMAL_MAX:
        raise ValueError(f"--decimal must be >= 0 and <= {DECIMAL_MAX}, got {args.decimal}")
    if q in ("fpf", "moments") and args.m is not None:
        raise ValueError(f"--m does not apply to {q}")
    m = args.m or 0
    started = time.perf_counter()
    query = {"command": "prob", "quantity": q, "n": args.n}
    queries: list[tuple[dict, Fraction]]
    if q == "separation":
        queries = [({**query, "m": m}, counting.sep_prob_ncycle(args.n, m))]
    elif q == "isolation":
        queries = [({**query, "m": m}, counting.iso_prob_ncycle(args.n, m))]
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
    return records if q == "moments" else records[0]


def _run_table(args) -> dict:
    started = time.perf_counter()
    m = args.m or 0
    _check_size(args.n, TABLE_MAX_N, "table")
    if args.table_source == "oracle":
        table = _oracle_table(args.n, m, args.kind)
    else:
        table = counting.build_count_table(args.n, m, kind=args.kind)
    data = table.to_json_dict()
    data["time_seconds"] = round(time.perf_counter() - started, 6)
    return data


def _oracle_table(n: int, m: int, kind: str) -> counting.CountTable:
    """The (lambda, k) table of :func:`counting.build_count_table`, every
    entry read off the enumeration instead."""
    from . import oracle

    value_of = getattr(oracle, COUNTS[f"{kind}-lambda"][2])
    entries = {}
    for lam in partitions_of(n):
        for k in range(1, n + 1):
            value = value_of(lam, m, k)
            if value:
                entries[(lam, k)] = value
    return counting.CountTable(n=n, m=m, kind=kind, source="oracle", entries=entries)


def _run_verify(args) -> tuple[int, str]:
    from . import verify

    suites = list(verify.SUITES) if args.suite == "all" else [args.suite]
    records = verify.run_suites(suites, args.max_n)
    failures = [r for r in records if not r.ok]
    lines = [r.line() for r in records if not (r.ok and args.quiet)]
    lines.append(f"{len(records)} checks, {len(failures)} mismatches "
                 f"(suites: {', '.join(suites)}, max n {args.max_n})")
    return (1 if failures else 0), "\n".join(lines) + "\n"


def _render(payload: dict | list[dict], out_format: str) -> str:
    records = payload if isinstance(payload, list) else [payload]
    if out_format == "json":
        if "entries" in records[0]:  # one table: json.dumps's text, only faster
            return counting.table_json(payload) + "\n"
        return json.dumps(payload, indent=2) + "\n"
    rows = []
    for record in records:
        if "entries" in record:  # a materialised table: one row per entry
            header = {k: v for k, v in record.items() if k != "entries"}
            rows.extend({**header, **entry} for entry in record["entries"])
        else:
            rest = {k: v for k, v in record.items() if k != "query"}
            rows.append({**record["query"], **rest})
    import csv
    import io

    text = io.StringIO()
    fields = list(dict.fromkeys(key for row in rows for key in row))
    writer = csv.DictWriter(text, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


if __name__ == "__main__":
    sys.exit(main())
