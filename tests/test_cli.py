import collections
import csv
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from sepcycles import cli, counting, oracle, verify
from sepcycles.oracle import HARD_CAP
from sepcycles.partitions import IntegerPartition


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_count_p_ncycle(capsys):
    record = run_json(capsys, "count", "p-ncycle", "--n", "4", "--m", "2", "--k", "2")
    assert record["value"] == "16"
    assert record["source"] == "closed_form"
    assert record["query"]["n"] == 4
    assert "time_seconds" in record


def test_count_stirling_and_alpha(capsys):
    assert run_json(capsys, "count", "stirling", "--n", "4", "--k", "2")["value"] == "11"
    assert run_json(capsys, "count", "alpha", "--alpha", "1,3")["value"] == "12"


@pytest.mark.parametrize("argv, value", [
    (["count", "stirling", "--n", "600", "--k", "599"], "179700"),
    (["count", "p-ncycle", "--n", "600", "--m", "1", "--k", "2"], None),
])
def test_count_cold_stirling_row_at_n_600(argv, value):
    # a fresh process starts with no Stirling rows cached; row 600 is
    # built without recursion, so the recursion limit does not bound n
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    script = "import sys; from sepcycles.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert value is None or record["value"] == value


def test_count_k_all_emits_one_record_per_k(capsys):
    records = run_json(capsys, "count", "p-ncycle", "--n", "4", "--m", "0", "--k", "all")
    assert [r["query"]["k"] for r in records] == [1, 2, 3, 4]
    assert [r["value"] for r in records] == ["0", "30", "0", "6"]


@pytest.mark.parametrize("argv", [
    ["count", "p-ncycle", "--n", "1", "--k", "all"],
    ["count", "i-ncycle", "--n", "1", "--k", "all"],
    ["count", "p-lambda", "--lambda", "1", "--k", "all"],
])
def test_k_all_is_a_list_even_of_one_record(capsys, argv):
    # the JSON shape follows the query, not the number of records
    records = run_json(capsys, *argv)
    assert isinstance(records, list)
    assert [(r["query"]["k"], r["value"]) for r in records] == [(1, "1")]
    # one k is one object
    record = run_json(capsys, *argv[:-1], "1")
    assert record == {**records[0], "time_seconds": record["time_seconds"]}


def test_count_lambda_quantities(capsys, refuse_census):
    refuse_census()
    record = run_json(
        capsys, "count", "p-lambda", "--lambda", "2+1+1", "--m", "1", "--k", "2",
    )
    assert record["value"] == "36"
    assert record["source"] == "recurrence"
    record = run_json(
        capsys, "count", "i-lambda", "--lambda", "2+2", "--m", "1", "--k", "1",
    )
    assert record["source"] == "recurrence"
    # a size past the census never turns the recurrence into enumeration
    records = run_json(
        capsys, "count", "p-lambda", "--lambda", "9", "--m", "1", "--k", "all",
    )
    assert [r["value"] for r in records] == [
        str(counting.p_ncycle(9, 1, k)) for k in range(1, 10)
    ]
    assert {r["source"] for r in records} == {"recurrence"}


@pytest.mark.parametrize("m", ["4", "5"])
def test_count_i_ncycle_domain_independent_of_source(capsys, m):
    # i_ncycle divides by n - m: m = n is outside the quantity, and the
    # enumeration, which could count it, refuses it the same way
    errors = set()
    for source in ("formula", "oracle"):
        code, out, err = run_cli(capsys, "count", "i-ncycle", "--n", "4", "--m", m,
                                 "--k", "all", "--source", source)
        assert code == 2
        assert out == ""
        errors.add(err)
    assert errors == {f"error: m must satisfy 0 <= m < n, got m={m}, n=4\n"}
    # m = n stays a valid query for the general diagonal type (4)
    records = run_json(capsys, "count", "i-lambda", "--lambda", "4", "--m", "4",
                       "--k", "all", "--source", "oracle")
    assert [r["value"] for r in records] == ["0", "0", "0", "6"]


@pytest.mark.parametrize("k", ["0", "5"])
@pytest.mark.parametrize("quantity, subject", [
    ("p-ncycle", ["--n", "4"]), ("i-ncycle", ["--n", "4"]),
    ("p-lambda", ["--lambda", "2+1+1"]), ("i-lambda", ["--lambda", "2+1+1"]),
])
def test_count_k_domain_independent_of_source(capsys, quantity, subject, k):
    # k outside 1..n is refused with the formula's message; the enumeration,
    # which counts any k, used to answer 0
    errors = set()
    for source in ("formula", "oracle"):
        code, out, err = run_cli(capsys, "count", quantity, *subject, "--m", "1",
                                 "--k", k, "--source", source)
        assert code == 2
        assert out == ""
        errors.add(err)
    assert errors == {f"error: k must satisfy 1 <= k <= 4, got {k}\n"}


def test_count_oracle_source(capsys, refuse_census):
    record = run_json(
        capsys, "count", "p-ncycle", "--n", "4", "--m", "2", "--k", "2",
        "--source", "oracle",
    )
    assert record["value"] == "16"
    assert record["source"] == "oracle"
    # --source oracle reaches the census
    refuse_census()
    with pytest.raises(RuntimeError, match="census refused"):
        cli.main(["count", "p-lambda", "--lambda", "4+3", "--m", "1", "--k", "1",
                  "--source", "oracle"])


@pytest.mark.parametrize("argv", [
    ["stirling", "--n", "4", "--k", "2"],
    ["c-sep", "--n", "4", "--k", "2", "--m", "1"],
    ["c-fix", "--n", "4", "--k", "2", "--m", "1"],
])
def test_count_source_oracle_refused_without_enumeration(capsys, argv):
    # these quantities have no enumeration: --source oracle is refused,
    # not answered from the formula
    code, out, err = run_cli(capsys, "count", *argv, "--source", "oracle")
    assert code == 2
    assert err == f"error: --source oracle is not available for {argv[0]}\n"
    assert out == ""


@pytest.mark.parametrize("quantity", ["p-lambda", "i-lambda"])
def test_count_missing_lambda_names_the_flag(capsys, quantity):
    code, out, err = run_cli(capsys, "count", quantity, "--k", "1")
    assert code == 2
    assert err == "error: --lambda is required for this quantity\n"
    assert out == ""


# the subject flags each count quantity reads, and a value for every flag
READS = {
    "stirling": {"n", "k"}, "c-sep": {"n", "k", "m"}, "c-fix": {"n", "k", "m"},
    "p-ncycle": {"n", "k", "m"}, "i-ncycle": {"n", "k", "m"},
    "p-lambda": {"lambda", "k", "m"}, "i-lambda": {"lambda", "k", "m"}, "alpha": {"alpha"},
}
FLAG_VALUES = {"n": "4", "lambda": "2+1+1", "alpha": "1,3", "k": "2", "m": "1"}


@pytest.mark.parametrize("quantity, flag", [
    (q, flag) for q, reads in READS.items() for flag in FLAG_VALUES if flag not in reads
])
def test_count_refuses_a_flag_the_quantity_does_not_read(capsys, monkeypatch, quantity, flag):
    # a flag the quantity would drop (--n beside --lambda answered for the
    # partition's size) is refused before any value is computed
    formula, *rest = cli.COUNTS[quantity]
    assert rest[2] == tuple(f for f in FLAG_VALUES if f in READS[quantity])

    def refused(*args, **kwargs):
        raise AssertionError("a value was computed")

    monkeypatch.setitem(cli.COUNTS, quantity, (refused, *rest))
    argv = [a for f in sorted(READS[quantity]) for a in (f"--{f}", FLAG_VALUES[f])]
    code, out, err = run_cli(capsys, "count", quantity, *argv, f"--{flag}", FLAG_VALUES[flag])
    assert code == 2
    assert err == f"error: --{flag} does not apply to {quantity}\n"
    assert out == ""


@pytest.mark.parametrize("quantity", ["fpf", "moments"])
def test_prob_refuses_m_where_it_is_not_read(capsys, quantity):
    code, out, err = run_cli(capsys, "prob", quantity, "--n", "4", "--m", "0")
    assert code == 2
    assert err == f"error: --m does not apply to {quantity}\n"
    assert out == ""


def test_m_defaults_to_zero_where_it_is_read(capsys):
    # an absent --m is read as 0, the value its old default gave: the
    # same bytes out, time_seconds masked
    for argv in (["count", "c-sep", "--n", "5", "--k", "2"],
                 ["count", "p-lambda", "--lambda", "3+1+1", "--k", "all"],
                 ["prob", "isolation", "--n", "5"],
                 ["table", "--n", "4", "--kind", "i"]):
        without, given = run_cli(capsys, *argv), run_cli(capsys, *argv, "--m", "0")
        assert without[0] == given[0] == 0
        assert _masked(without[1], False) == _masked(given[1], False)


def _from_digits(text):
    """The int written in ``text``, read in chunks of 500 digits, each
    under the interpreter's int-to-str conversion limit."""
    value = 0
    for start in range(0, len(text), 500):
        chunk = text[start:start + 500]
        value = value * 10**len(chunk) + int(chunk)
    return value


def test_values_longer_than_the_conversion_limit_are_written(capsys):
    # str() of an int stops at 4300 digits by default; the CLI writes
    # every digit without raising that limit
    record = run_json(capsys, "count", "alpha", "--alpha", "1700")
    assert len(record["value"]) > 4300
    assert _from_digits(record["value"]) == factorial(1699) ** 2
    record = run_json(capsys, "prob", "separation", "--n", "4", "--m", "2", "--decimal", "5000")
    assert record["value"] == "11/18"
    assert record["decimal"] == "0.6" + "1" * 4999
    # zeros across the split, a sign, and both halves of a fraction
    assert cli._text(10**600) == "1" + "0" * 600
    assert cli._text(-(10**5000) - 7) == "-1" + "0" * 4999 + "7"
    numerator, denominator = cli._text(Fraction(10**5000 + 1, 3**9000)).split("/")
    assert numerator == "1" + "0" * 4999 + "1"
    assert _from_digits(denominator) == 3**9000


def test_prob_commands(capsys):
    assert run_json(capsys, "prob", "separation", "--n", "4", "--m", "2")["value"] == "11/18"
    assert run_json(capsys, "prob", "isolation", "--n", "5", "--m", "2")["value"] == "1/12"
    assert run_json(capsys, "prob", "fpf", "--n", "3")["value"] == "1/2"
    records = run_json(capsys, "prob", "moments", "--n", "3")
    by_stat = {r["query"]["statistic"]: r["value"] for r in records}
    assert by_stat == {"mean": "3/2", "variance": "9/4"}


def test_prob_decimal_rendering(capsys):
    record = run_json(capsys, "prob", "separation", "--n", "4", "--m", "2",
                      "--decimal", "6")
    assert record["decimal"] == "0.611111"
    code, out, err = run_cli(capsys, "prob", "separation", "--n", "4", "--m", "2",
                             "--decimal", "-1")
    assert code == 2
    assert "--decimal must be >= 0" in err
    assert out == ""


PROB_FUNCTIONS = {"separation": "sep_prob_ncycle", "isolation": "iso_prob_ncycle",
                  "fpf": "fpf_probability", "moments": "fixed_point_moments"}


@pytest.mark.parametrize("quantity", [*PROB_FUNCTIONS, "alpha"])
def test_prob_and_alpha_refuse_n_past_their_limit_before_any_value(capsys, monkeypatch,
                                                                   quantity):
    computed = []

    def fake(*args):
        computed.append(args)
        return (Fraction(1), Fraction(0)) if quantity == "moments" else 1

    if quantity == "alpha":  # --alpha N is the composition of N with one part
        monkeypatch.setitem(cli.COUNTS, "alpha", (fake, *cli.COUNTS["alpha"][1:]))
        argv = ["count", "alpha", "--alpha"]
    else:
        monkeypatch.setattr(counting, PROB_FUNCTIONS[quantity], fake)
        m = ["--m", "1"] if quantity in ("separation", "isolation") else []
        argv = ["prob", quantity, *m, "--n"]
    limit = cli.ROW_MAX_N
    code, out, err = run_cli(capsys, *argv, str(limit + 1))
    assert (code, out, computed) == (2, "", [])
    assert err == f"error: n must be <= {limit} for {quantity}, got {limit + 1}\n"
    # the limit itself is accepted (a real fpf there takes seconds)
    code, out, err = run_cli(capsys, *argv, str(limit))
    assert code == 0, err
    assert computed


def test_decimal_refused_past_its_limit_before_any_value(capsys, monkeypatch):
    computed = []

    def fake(n, m):
        computed.append((n, m))
        return Fraction(11, 18)

    monkeypatch.setattr(counting, "sep_prob_ncycle", fake)
    limit = cli.DECIMAL_MAX
    argv = ["prob", "separation", "--n", "4", "--m", "2", "--decimal"]
    code, out, err = run_cli(capsys, *argv, str(limit + 1))
    assert (code, out, computed) == (2, "", [])
    assert err == f"error: --decimal must be >= 0 and <= {limit}, got {limit + 1}\n"
    record = run_json(capsys, *argv, str(limit))
    assert record["decimal"] == "0.6" + "1" * (limit - 1)


def test_csv_and_json_values_agree(capsys):
    json_records = run_json(
        capsys, "count", "i-ncycle", "--n", "5", "--m", "1", "--k", "all",
    )
    code, out, _ = run_cli(
        capsys, "count", "i-ncycle", "--n", "5", "--m", "1", "--k", "all",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["value"] for r in rows] == [r["value"] for r in json_records]
    assert [int(r["k"]) for r in rows] == [r["query"]["k"] for r in json_records]


def test_table_command(capsys, refuse_census):
    refuse_census()
    data = run_json(capsys, "table", "--n", "4", "--m", "2", "--kind", "p")
    entries = {(e["lambda"], e["k"]): e["value"] for e in data["entries"]}
    assert entries[("4", 2)] == "16"
    assert data["source"] == "recurrence"
    # a size past the census never turns the recurrence into enumeration
    data9 = run_json(capsys, "table", "--n", "9", "--m", "2", "--kind", "p")
    assert data9["source"] == "recurrence"
    entries9 = {(e["lambda"], e["k"]): e["value"] for e in data9["entries"]}
    assert entries9[("9", 3)] == str(counting.p_ncycle(9, 2, 3))
    oracle_data = run_json(
        capsys, "table", "--n", "4", "--m", "2", "--kind", "p",
        "--table-source", "oracle",
    )
    assert oracle_data["source"] == "oracle"
    assert oracle_data["entries"] == data["entries"]


@pytest.mark.parametrize("n, m, kind", [(1, 0, "p"), (5, 2, "i"), (9, 3, "p")])
def test_table_stdout_is_indented_json_of_its_record(capsys, n, m, kind):
    # the table record has its own serializer; the bytes must be exactly
    # what json.dumps(..., indent=2) writes, time_seconds included
    code, out, err = run_cli(capsys, "table", "--n", str(n), "--m", str(m), "--kind", kind)
    assert code == 0, err
    payload = json.loads(out)
    assert list(payload)[-2:] == ["entries", "time_seconds"]
    assert out == json.dumps(payload, indent=2) + "\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "count", "stirling", "--n", "5", "--k", "3", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"] == "35"


# every command that enumerates, its size n (the alpha composition 1,{rest}: n = rest + 1)
ENUMERATING = [
    "count p-ncycle --n {n} --m 0 --k 1 --source oracle",
    "count i-ncycle --n {n} --m 0 --k all --source oracle",
    "count p-lambda --lambda {n} --m 1 --k 1 --source oracle",
    "count i-lambda --lambda {n} --m 1 --k all --source oracle",
    "count alpha --alpha 1,{rest} --source oracle",
    "table --n {n} --m 1 --kind i --table-source oracle",
    "verify --max-n {n} --suite identities",
]


def test_n_above_the_hard_cap_refused_before_any_census(capsys, refuse_census):
    # every command refuses n = 9 up front, exit 2 and no pass started;
    # the refusal names no option, since no option raises the limit
    refuse_census(from_n=HARD_CAP)
    for command in ENUMERATING:
        argv = command.format(n=HARD_CAP + 1, rest=HARD_CAP).split()
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), command
        assert err == f"error: oracle refuses n={HARD_CAP + 1}: the census stops at n={HARD_CAP}\n"
    # n = 8 is not refused up front: each count and table reaches its pass
    for command in ENUMERATING[:-1]:
        argv = command.format(n=HARD_CAP, rest=HARD_CAP - 1).split()
        with pytest.raises(RuntimeError, match=f"census refused at n={HARD_CAP}"):
            cli.main(argv)


@pytest.mark.parametrize("quantity", ["stirling", "c-sep", "c-fix", "p-ncycle", "i-ncycle"])
def test_row_counts_refuse_n_past_their_limit_before_any_row(capsys, monkeypatch, quantity):
    built = []

    def fake_row(n, m):
        built.append((n, m))
        return (0,) * (n + 1)

    monkeypatch.setattr(counting, "_separating_row", fake_row)
    m = [] if quantity == "stirling" else ["--m", "1"]  # stirling refuses --m
    limit = cli.ROW_MAX_N
    code, out, err = run_cli(capsys, "count", quantity, "--n", str(limit + 1), *m, "--k", "2")
    assert (code, out, built) == (2, "", [])
    assert err == f"error: n must be <= {limit} for {quantity}, got {limit + 1}\n"
    # the limit itself is accepted (a real row there takes seconds)
    code, out, err = run_cli(capsys, "count", quantity, "--n", str(limit), *m, "--k", "2")
    assert code == 0, err
    assert built


@pytest.mark.parametrize("argv, name", [
    (["count", "p-lambda", "--m", "1", "--k", "2", "--lambda"], "p-lambda"),
    (["count", "i-lambda", "--m", "2", "--k", "all", "--lambda"], "i-lambda"),
    (["table", "--m", "1", "--kind", "i", "--n"], "table"),
])
def test_tables_refuse_n_past_their_limit_before_any_table(capsys, monkeypatch, argv, name):
    built = []

    def fake_table(n, m, kind):
        built.append((n, m, kind))
        return collections.defaultdict(lambda: [0] * (n // 2 + 1))

    monkeypatch.setattr(counting, "_recurrence_table", fake_table)
    limit = cli.TABLE_MAX_N
    code, out, err = run_cli(capsys, *argv, str(limit + 1))
    assert (code, out, built) == (2, "", [])
    assert err == f"error: n must be <= {limit} for {name}, got {limit + 1}\n"
    # the limit itself is accepted (a real table there takes seconds)
    code, out, err = run_cli(capsys, *argv, str(limit))
    assert code == 0, err
    assert built


def test_multiplicity_lambda_refused_before_its_parts_exist(capsys):
    # n is summed over the (value, multiplicity) terms, so a huge
    # multiplicity gets the refusal of --lambda 37 at flat memory
    limit = cli.TABLE_MAX_N
    code, _, err = run_cli(capsys, "count", "p-lambda", "--lambda", str(limit + 1), "--k", "1")
    assert (code, err) == (2, f"error: n must be <= {limit} for p-lambda, got {limit + 1}\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "count", "p-lambda", "--lambda", "1^100000000", "--k", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: n must be <= {limit} for p-lambda, got 100000000\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ["count", "stirling", "--n", "4", "--k", "2", "--out", "{missing}/x.json"],
    ["verify", "--max-n", "3", "--suite", "closed-forms", "--out", "{missing}/x.txt"],
    ["table", "--n", "4", "--m", "1", "--out", "{missing}/x.json"],
])
def test_unopenable_file_reported(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    code, out, err = run_cli(capsys, *[a.format(missing=missing) for a in argv])
    assert code == 2
    assert err.startswith("error: ") and "No such file or directory" in err
    assert out == ""


def test_parse_error_reports_position(capsys):
    code, _, err = run_cli(capsys, "count", "p-lambda", "--lambda", "2+x",
                           "--m", "0", "--k", "1")
    assert code == 2
    assert "position 2" in err


def test_count_k_must_be_integer_or_all(capsys):
    code, out, err = run_cli(capsys, "count", "p-ncycle", "--n", "4", "--k", "x")
    assert code == 2
    assert "--k must be an integer or 'all', got 'x'" in err
    assert out == ""


def test_precondition_errors_surface(capsys):
    code, _, err = run_cli(capsys, "count", "i-ncycle", "--n", "4", "--m", "4",
                           "--k", "2")
    assert code == 2
    assert "m must satisfy" in err
    # a negative k is refused by every closed form, as by stirling
    for argv in (["c-sep", "--n", "3", "--k", "-1", "--m", "1"],
                 ["c-fix", "--n", "3", "--k", "-2", "--m", "0"],
                 ["stirling", "--n", "3", "--k", "-1"]):
        code, out, err = run_cli(capsys, "count", *argv)
        assert code == 2, argv
        assert "k must be >= 0" in err
        assert out == ""


def test_verify_passes_and_reports(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--suite", "all")
    assert code == 0
    assert "0 mismatches" in out
    assert "ok" in out
    # every record carries formula and oracle values
    assert "formula=" in out and "oracle=" in out


def test_verify_quiet(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "3", "--suite", "closed-forms", "--quiet",
    )
    assert code == 0
    assert len(out.splitlines()) == 1


def test_verify_rejects_max_n_beyond_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-n", "9")
    assert code == 2
    assert err == "error: oracle refuses n=9: the census stops at n=8\n"
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["--n", "0"], "n must be >= 1"),
    (["--n", "3", "--m", "5"], "m must satisfy"),
    (["--n", "3", "--m", "-1", "--kind", "i"], "m must satisfy"),
])
def test_table_rejects_bad_n_and_m(capsys, argv, message):
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_verify_rejects_max_n_below_one(tmp_path, capsys, max_n):
    target = tmp_path / "report.txt"
    code, out, err = run_cli(capsys, "verify", "--max-n", max_n, "--out", str(target))
    assert code == 2
    assert "max_n must be >= 1" in err
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize("quantity", ["p-ncycle", "i-ncycle", "c-sep", "c-fix", "stirling"])
@pytest.mark.parametrize("k", ["all", "1"])
def test_count_rejects_n_below_one(capsys, quantity, k):
    m = [] if quantity == "stirling" else ["--m", "0"]  # stirling refuses --m
    code, out, err = run_cli(capsys, "count", quantity, "--n", "0", *m, "--k", k)
    assert code == 2
    assert "--n must be >= 1" in err
    assert out == ""


def test_verify_out_untouched_when_max_n_exceeds_cap(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("keep\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "verify", "--max-n", "9", "--suite", "identities",
            "--out", str(target),
        )
        gc.collect()
    assert code == 2
    assert "the census stops at n=8" in err
    assert out == ""
    assert target.read_text(encoding="utf-8") == "keep\n"
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "3", "--suite", "closed-forms",
        "--quiet", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert "0 mismatches" in target.read_text(encoding="utf-8")


def test_verify_detects_injected_fault(capsys, monkeypatch):
    real = counting.p_ncycle
    bad_triple = (4, 2, 2)

    def tampered(n, m, k):
        value = real(n, m, k)
        if (n, m, k) == bad_triple:
            return value + 1
        return value

    monkeypatch.setattr(counting, "p_ncycle", tampered)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4",
                           "--suite", "closed-forms", "--quiet")
    assert code == 1
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fail_lines) == 1
    assert "n=4" in fail_lines[0] and "m=2" in fail_lines[0] and "k=2" in fail_lines[0]
    assert "formula=17" in fail_lines[0] and "oracle=16" in fail_lines[0]


def test_unknown_format_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["count", "stirling", "--n", "4", "--k", "2", "--format", "xml"])
    capsys.readouterr()


def test_verify_refuses_format(tmp_path, capsys):
    # verify prints text lines only: --format is refused, not ignored
    target = tmp_path / "report.txt"
    with pytest.raises(SystemExit) as raised:
        cli.main(["verify", "--max-n", "2", "--format", "csv", "--out", str(target)])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err
    assert not target.exists()


# every sepcycles module a cold formula command may load
FORMULA_MODULES = {"sepcycles", "sepcycles.cli", "sepcycles.counting", "sepcycles.partitions"}


@pytest.mark.parametrize("argv, enumerates", [
    (["count", "p-ncycle", "--n", "6", "--m", "2", "--k", "all"], False),
    (["count", "alpha", "--alpha", "1,3"], False),
    (["count", "p-lambda", "--lambda", "3+2+1", "--m", "1", "--k", "2"], False),
    (["prob", "separation", "--n", "7", "--m", "3", "--format", "csv"], False),
    (["table", "--n", "6", "--m", "1", "--kind", "i"], False),
    (["count", "i-ncycle", "--n", "5", "--m", "1", "--k", "2", "--source", "oracle"], True),
    (["table", "--n", "4", "--m", "1", "--table-source", "oracle"], True),
    (["verify", "--max-n", "3", "--suite", "closed-forms", "--quiet"], True),
])
def test_cold_process_loads_only_what_the_command_runs(argv, enumerates):
    # a formula answer needs neither the oracle nor verify (nor perm and
    # plane, which only they import), so a cold process never compiles them
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    script = (
        "import json, sys\n"
        "from sepcycles import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'sepcycles')),"
        " file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-s", "-c", script, *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    if not enumerates:
        assert loaded == FORMULA_MODULES
    else:
        assert {"sepcycles.oracle", *FORMULA_MODULES} <= loaded
        assert ("sepcycles.verify" in loaded) == (argv[0] == "verify")


def test_cli_spells_the_oracle_caps_and_verify_suites(monkeypatch):
    # the parser is built without importing oracle or verify, so it spells
    # their constants out; these must stay equal to the sources
    assert cli.CENSUS_MAX_N == oracle.HARD_CAP
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    helps = {(command, a.dest): a.help for command in commands
             for a in commands[command]._actions}
    assert f"hard maximum {oracle.HARD_CAP}" in helps["count", "source"]
    assert f"hard maximum {oracle.HARD_CAP}" in helps["table", "table_source"]
    assert f"at most {oracle.HARD_CAP}" in helps["verify", "max_n"]
    assert f"at most {cli.ROW_MAX_N}" in helps["count", "n"]
    assert f"at most {cli.TABLE_MAX_N}" in helps["count", "lambda"]
    assert f"at most {cli.TABLE_MAX_N}" in helps["table", "n"]
    assert f"at most {cli.ROW_MAX_N}" in helps["prob", "n"]
    assert f"at most {cli.ROW_MAX_N}" in helps["count", "alpha"]
    assert f"at most {cli.DECIMAL_MAX}" in helps["prob", "decimal"]
    # the census limit is fixed: no command takes an option that moves it
    assert not {dest for _, dest in helps} & {"cap", "config"}
    # the rendered help keeps the limit on one line at the usual width
    monkeypatch.setenv("COLUMNS", "80")
    for command in ("count", "table"):
        assert f"hard maximum {oracle.HARD_CAP}" in commands[command].format_help()
    (suite,) = (a for a in commands["verify"]._actions if a.dest == "suite")
    assert suite.choices == list(verify.SUITES) + ["all"]


# A fixed corpus of argv run through cli.main: the exit code, and one sha256
# of stdout, stderr and the --out file, time_seconds masked.  The values
# were recorded before the command table and the single writer replaced
# the per-quantity branches, so any changed byte of the shell fails here.
GOLDEN = [
    ("count stirling --n 5 --k all", 0,
     "bc062bfcea931d2b4f44d7450963e6248da3969131bcd80d6ade702141a9f6ee"),
    ("count stirling --n 5 --k 2 --source oracle", 2,
     "0a1d786bad37791e209da53aa7a8b6d1677c15e564e3d57ee119a1baab2b565c"),
    ("count c-sep --n 5 --m 2 --k all", 0,
     "7367226f5a7020f105bf57a3f81718b2f5086cda2362c90a71e55c594d8d02d9"),
    ("count c-sep --n 5 --m 2 --k 2 --source oracle", 2,
     "363adc68b1df8759a09327173343b5d4ead38098952e218a900c2aa5ccedb9cd"),
    ("count c-fix --n 5 --m 1 --k 3", 0,
     "98652ceed029a6687429189d44625749fd8f7e2b753e4dcff5b74cb4613df783"),
    ("count c-fix --n 5 --m 1 --k 3 --source oracle", 2,
     "a16c127417d5ec77866abf24e2cf9af5becca1fb219927b15d1eba2023dbd5f6"),
    ("count p-ncycle --n 5 --m 2 --k all", 0,
     "813589ab99cf74e8c4746562913a104753c08212b6624240cda97c6a85999341"),
    ("count p-ncycle --n 5 --m 2 --k all --source oracle", 0,
     "6e7c2f5a48add44eeb8ff7a5ecbe262b3ce66485227e5a5f68ea9285952a8441"),
    ("count i-ncycle --n 5 --m 1 --k 2", 0,
     "4865c4a43f9fadd0667abafe75ee5ff0568713b5aa93efb9045f7e485812bd6b"),
    ("count i-ncycle --n 5 --m 1 --k all --source oracle", 0,
     "bf43e0f7925ad4ed6de137b7e0265a63d1ad2bc6d1120faeae9faa5f211d9f0d"),
    ("count p-lambda --lambda 3+1+1 --m 2 --k all", 0,
     "1b82e3e79f7fa8e6d9a5872cecedda912fc5b98793b3255515d725b1bbbc373d"),
    ("count p-lambda --lambda 3+1+1 --m 2 --k all --source oracle", 0,
     "b0da765bd6a7f96c3ee0c9e0fdda255e6804c117a91a9cefcc34bf98adcb675f"),
    ("count i-lambda --lambda 2+2+1 --m 1 --k 1", 0,
     "51d4f60b789b6539b92ae241a5b48246741e31f63e695716ef6eebb3f55a8a93"),
    ("count i-lambda --lambda 2+2+1 --m 1 --k all --source oracle", 0,
     "8352e6aebee2e9d6338ff1a0c8129c1202bd9a627cdd9adad232f302f4f4a9b7"),
    ("count alpha --alpha 1,3", 0,
     "38934ee3b20d9fa6e4206ce62ee84dcc233506697247813d6b2a097d0b803014"),
    ("count alpha --alpha 2,1,2 --source oracle", 0,
     "3487c115ef0525845684b423e4320093c51ef846257818c4c480e1b4cee467c5"),
    ("count p-lambda --lambda 3+1+1 --m 2 --k all --format csv", 0,
     "56f99b787bba50cbc752c19ceae396d8a824690ccec09c8cf9e892b6612593d0"),
    ("count alpha --alpha 1,3 --format csv", 0,
     "3fd2c883f937aa99c7a351ff06946c5bc37be47b06007e82132d9ba12e84b45c"),
    ("count stirling --n 6 --k all --format csv", 0,
     "86a20e0ced461628f85c2c6c0070d9fbe6dc8f30ee7ed90c53474d34876b0ab4"),
    ("count i-ncycle --n 6 --m 2 --k all --out {out}", 0,
     "f38aa05b14ffbfc588032238c057331f5a495cc5d608adcba0747def3dc5fa82"),
    ("count c-sep --n 4 --m 1 --k all --format csv --out {out}", 0,
     "e5adccf8bff1d33e904fc9add7f9851094876eee57c66eb933459fbb84a07e56"),
    ("prob separation --n 7 --m 3 --decimal 8", 0,
     "03ec75a0657b8e469575c5bd388c344ce3054480b266ba7cd6cd7f17a363bab0"),
    ("prob moments --n 5 --decimal 4 --format csv", 0,
     "32e4e981af8102a46525dd033574cf521937902e8f2403e006d8d6cdc1f9a373"),
    ("prob fpf --n 6 --decimal 0 --out {out}", 0,
     "bdf6e90895c9942cd4abe67459bf6ad833304b83b7a97091c3f8ee756d5be140"),
    ("table --n 5 --m 2 --kind p", 0,
     "913fae832c4dab456a5047b80dd1f864af6a9184db8f4e0f421069394b539617"),
    ("table --n 5 --m 2 --kind i --table-source oracle", 0,
     "24dd6aaad8f3fb0dae054e6a30e9b7384d2577424f7edd29a5231af66a80ec48"),
    ("table --n 4 --m 1 --kind i --format csv --out {out}", 0,
     "cc803198c460e938a2d7e0775671e8c9269a5d98e7deb2ec1af1151be13e1829"),
    ("verify --max-n 4", 0,
     "4c0df59805262b6b2acce85ffd916bbd455e28d96de0f051590f46a18ab2ef39"),
    ("verify --max-n 4 --quiet", 0,
     "6b0831852f29e455617088b9281cec4fca88333d230b4b1ede20aaafb073cac9"),
    ("verify --max-n 4 --suite identities --quiet --out {out}", 0,
     "b77cbf64812a358df0a601a18fb202bb9fd3e8f2126ade485b255d93cbe57416"),
    ("count p-ncycle --n 4 --m 1 --k 9", 2,
     "0930b2a242984a75049814c7a8e8d5eac152ef21ed8d910f03b62fe900b8256b"),
    ("count p-lambda --lambda 2+2 --m 1 --k x", 2,
     "ae87e8b0ab73462f893338fcdc3918cce23bae5e98b91d176254ccd7780ef9f5"),
    ("count c-sep --n 0 --m 1 --k 1", 2,
     "0a577060364b397e8f9eef3ddffaffcd7c08cbceabda0d1fd94a04628769d334"),
    ("table --n 0", 2,
     "7ebd12422fd8389cb4f8d4a95618a15bc72a31175721bb31c63ff334233c154b"),
    # past the census's hard maximum, which no option moves
    ("count p-ncycle --n 9 --m 0 --k 1 --source oracle", 2,
     "c55ef99f082a915c57fcdbede73258f6f2209124010992279d36e8ae6b5a1897"),
    ("verify --max-n 9", 2,
     "c55ef99f082a915c57fcdbede73258f6f2209124010992279d36e8ae6b5a1897"),
    # the two inputs the command table fixed: the missing flag's own name,
    # and a subject flag the quantity does not read
    ("count p-lambda --k 1", 2,
     "911bac30143fb5ccc721cb7cef9cf520aea81eef669f24adb5b7db5352cbd8c1"),
    ("count p-lambda --lambda 3+2 --n 7 --k 1", 2,
     "fb32ea4e4448e59adece85a005884817eb25974a55850b4851aadc6cdba17d98"),
]


def _masked(text, csv_format):
    """``text`` with every time_seconds value replaced by 0."""
    if not csv_format:
        return re.sub(r'("time_seconds": )[-+.e0-9]+', r"\g<1>0", text)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or "time_seconds" not in rows[0]:
        return text
    column = rows[0].index("time_seconds")
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(rows[0])
    for row in rows[1:]:
        writer.writerow([*row[:column], "0", *row[column + 1:]])
    return out.getvalue()


def golden_digest(capsys, tmp_path, command):
    """The exit code and the sha256 of the masked stdout, stderr and
    --out file of one corpus command."""
    target = tmp_path / "out"
    argv = command.format(out=target).split()
    code = cli.main(argv)
    captured = capsys.readouterr()
    written = ""
    if target.exists():
        with open(target, encoding="utf-8", newline="") as handle:
            written = handle.read()
    csv_format = "csv" in argv
    text = "\0".join((_masked(captured.out, csv_format), captured.err,
                      _masked(written, csv_format)))
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_corpus(capsys, tmp_path, command, code, digest):
    assert golden_digest(capsys, tmp_path, command) == (code, digest)
