import csv
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from sepcycles import cli, counting
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
    # a raised cap never turns the recurrence into enumeration
    records = run_json(
        capsys, "count", "p-lambda", "--lambda", "9", "--m", "1", "--k", "all",
        "--cap", "9",
    )
    assert [r["value"] for r in records] == [
        str(counting.p_ncycle(9, 1, k)) for k in range(1, 10)
    ]
    assert {r["source"] for r in records} == {"recurrence"}


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
    # a raised cap never turns the recurrence into enumeration
    data8 = run_json(capsys, "table", "--n", "8", "--m", "2", "--kind", "p", "--cap", "8")
    assert data8["source"] == "recurrence"
    entries8 = {(e["lambda"], e["k"]): e["value"] for e in data8["entries"]}
    assert entries8[("8", 2)] == str(counting.p_ncycle(8, 2, 2))
    oracle_data = run_json(
        capsys, "table", "--n", "4", "--m", "2", "--kind", "p",
        "--table-source", "oracle",
    )
    assert oracle_data["source"] == "oracle"
    assert oracle_data["entries"] == data["entries"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "count", "stirling", "--n", "5", "--k", "3", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"] == "35"


@pytest.mark.parametrize("quantity", ["p-lambda", "p-ncycle"])
def test_cap_above_hard_maximum_rejected(tmp_path, capsys, quantity):
    which = ["--lambda", "4"] if quantity == "p-lambda" else ["--n", "4"]
    code, out, err = run_cli(capsys, "count", quantity, *which, "--m", "0", "--k", "2",
                             "--cap", "12")
    assert code == 2
    assert "cap 12 exceeds the hard maximum 9" in err
    assert out == ""
    # a cap below 1 would refuse every n: every command rejects it up front
    config = tmp_path / "sepcycles.cfg"
    config.write_text("oracle_cap = 0\n")
    commands = [
        ["count", quantity, *which, "--m", "0", "--k", "2"],
        ["table", "--n", "4", "--m", "1", "--kind", "p"],
        ["verify", "--max-n", "3", "--suite", "closed-forms"],
    ]
    for argv in commands:
        for cap_args in (["--cap", "0"], ["--cap", "-3"], ["--config", str(config)]):
            code, out, err = run_cli(capsys, *argv, *cap_args)
            assert code == 2, (argv, cap_args)
            assert "is below 1" in err
            assert out == ""


@pytest.mark.parametrize("argv", [
    ["count", "stirling", "--n", "4", "--k", "2", "--out", "{missing}/x.json"],
    ["verify", "--max-n", "3", "--suite", "closed-forms", "--out", "{missing}/x.txt"],
    ["count", "stirling", "--n", "4", "--k", "2", "--config", "{missing}/x.cfg"],
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


def test_config_file(tmp_path, capsys):
    config = tmp_path / "sepcycles.cfg"
    config.write_text("# defaults\nformat = csv\noracle_cap = 5\n")
    code, out, _ = run_cli(
        capsys, "count", "stirling", "--n", "4", "--k", "2", "--config", str(config),
    )
    assert code == 0
    assert out.splitlines()[0].startswith("command,")
    # flags override the config
    code, out, _ = run_cli(
        capsys, "count", "stirling", "--n", "4", "--k", "2", "--config", str(config),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == "11"
    # the configured cap refuses a deeper verify run
    code, _, err = run_cli(
        capsys, "verify", "--max-n", "6", "--suite", "closed-forms",
        "--config", str(config),
    )
    assert code == 2
    assert "cap" in err
    # a configured cap above the hard maximum is refused by every command
    config.write_text("oracle_cap = 12\n")
    code, _, err = run_cli(
        capsys, "count", "stirling", "--n", "4", "--k", "2", "--config", str(config),
    )
    assert code == 2
    assert "hard maximum" in err


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
    code, _, err = run_cli(capsys, "verify", "--max-n", "8", "--suite", "identities")
    assert code == 2
    assert "cap" in err
    # the refusal names the command-line flag, not only the Python keyword
    code, out, err = run_cli(capsys, "verify", "--max-n", "8")
    assert code == 2
    assert "n=8: cap is 7" in err
    assert "--cap" in err
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
    code, out, err = run_cli(capsys, "count", quantity, "--n", "0", "--m", "0", "--k", k)
    assert code == 2
    assert "--n must be >= 1" in err
    assert out == ""


def test_verify_out_untouched_when_max_n_exceeds_cap(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("keep\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "verify", "--max-n", "8", "--suite", "identities",
            "--out", str(target),
        )
        gc.collect()
    assert code == 2
    assert "cap" in err
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
    # a config-file format stays valid: the config is shared by all commands
    config = tmp_path / "sepcycles.cfg"
    config.write_text("format = csv\n")
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--quiet",
                           "--config", str(config))
    assert code == 0
    assert out.startswith("217 checks, 0 mismatches")
