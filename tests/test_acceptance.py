"""Acceptance suite: the ten criteria, asserted on ``verify``'s records.

Every formula-vs-reference comparison is written once, in
:mod:`sepcycles.verify`.  This file runs each suite once, at the range
the paper's results are accepted on (closed-forms n <= 7, recurrences
and identities n <= 6).  Each criterion asserts that every record of its
checks is ``ok`` and pins how many records each check makes, so a
shrunken range fails as surely as a wrong value.  Checks with no second
reference are unit tests; README "Install and test" names them.  All
comparisons are exact; there are no tolerances anywhere.
"""
from collections import Counter

import pytest

from sepcycles import oracle, verify

# suite -> the max n it is accepted at
RANGES = {"closed-forms": 7, "recurrences": 6, "identities": 6}

# the checks whose formula side is a count, not a probability or a flag
COUNT_CHECKS = (
    "p-ncycle", "i-ncycle", "p-lambda", "i-lambda", "p-initial", "i-initial",
    "alpha-separated",
)


@pytest.fixture(scope="module")
def records():
    """Every record of every suite at its acceptance range, run once."""
    out = []
    for suite, max_n in RANGES.items():
        out.extend(verify.run_suites([suite], max_n))
    return out


def assert_records(records, per_check):
    """The records of the checks in ``per_check`` are all ``ok`` (the
    failing lines are the message), and each check made exactly the
    pinned number of them."""
    chosen = [record for record in records if record.check in per_check]
    failures = [record.line() for record in chosen if not record.ok]
    assert not failures, "\n".join(failures)
    assert Counter(record.check for record in chosen) == per_check


def test_01_long_cycle_reduction_to_unrestricted_count(records):
    # m = 0 against enumeration, n <= 7; the classical count
    # 2 (n-1)! C(n+1, k) / (n(n+1)) at n <= 9 is
    # test_counting.py::test_p_ncycle_values_and_parity
    unrestricted = [record for record in records if record.params.get("m") == 0]
    assert_records(unrestricted, {"p-ncycle": 28, "i-ncycle": 28})


def test_02_ncycle_closed_forms_vs_oracle(records):
    assert_records(records, {"p-ncycle": 168, "i-ncycle": 140})


def test_03_separation_probability(records):
    # the piecewise form is test_counting.py::test_sep_prob_values
    assert_records(records, {"separation-probability": 35})


def test_04_isolation_probability(records):
    # the form 1/(m! binom(n-1, m)) is test_counting.py::test_iso_prob_values
    assert_records(records, {"isolation-probability": 28})


def test_05_general_diagonal_pipeline_vs_oracle(records):
    # both boundary-value sources, m <= 3; and the n-cycle recurrence
    # against its closed form, n <= 12
    assert_records(records, {
        "p-lambda": 1068, "i-lambda": 1068, "ncycle-recurrence-identity": 90,
    })
    closed_form = [r for r in records if r.params.get("base") == "closed_form"]
    assert_records(closed_form, {"p-lambda": 534, "i-lambda": 534})


def test_06_initial_value_closed_forms(records):
    # the spelling protocol is test_counting.py::test_spelling_protocol
    assert_records(records, {"p-initial": 250, "i-initial": 250})


def test_07_identity_suite(records):
    # 100 000 mirror samples at n = 8 (seed 20260809) are a case of
    # test_plane.py::test_mirror_ntae_identity_sampled_n6
    assert_records(records, {
        "mirror-ntae-identity": 5, "cycle-count-bound": 6, "exceedance-total": 112,
        "stratified-splitting-identity": 822,
    })


def test_08_fixed_point_statistics(records):
    assert_records(records, {
        "fixed-point-distribution": 7, "fixed-point-mean": 6,
        "fixed-point-variance": 6, "fixed-point-free": 6,
    })


def test_09_block_separated_counts(records):
    # the factorial-ratio symmetry, n <= 9, is
    # test_counting.py::test_alpha_symmetry_ratio
    assert_records(records, {"alpha-separated": 127})


def test_10_exact_divisibility_everywhere(records):
    # every division goes through exact_div, which raises on a remainder,
    # so a run that made its records divided exactly; each count came
    # out a whole number.  The closed forms at n <= 9 are reached by
    # test_counting.py (test_p_ncycle_values_and_parity,
    # test_iso_prob_equals_count_ratio, test_alpha_symmetry_ratio)
    assert_records(records, {
        "p-ncycle": 168, "i-ncycle": 140, "p-lambda": 1068, "i-lambda": 1068,
        "p-initial": 250, "i-initial": 250, "alpha-separated": 127,
    })
    counts = [record for record in records if record.check in COUNT_CHECKS]
    assert all(record.formula.lstrip("-").isdigit() for record in counts)


def test_every_check_is_pinned(records):
    # a check added to verify needs a criterion above, or its range is
    # not pinned
    assert set(Counter(record.check for record in records)) == {
        "p-ncycle", "i-ncycle", "separation-probability", "isolation-probability",
        "fixed-point-distribution", "fixed-point-mean", "fixed-point-variance",
        "fixed-point-free", "alpha-separated", "p-lambda", "i-lambda",
        "p-initial", "i-initial", "ncycle-recurrence-identity",
        "mirror-ntae-identity", "cycle-count-bound", "exceedance-total",
        "stratified-splitting-identity",
    }


def test_run_suites_refuses_max_n_beyond_cap(refuse_census, monkeypatch):
    # every suite, the census-reading identities one included, is refused
    # before any census pass starts
    refuse_census()
    passes = []
    guarded = oracle._pair_pass

    def recorded(n):
        passes.append(n)
        return guarded(n)

    monkeypatch.setattr(oracle, "_pair_pass", recorded)
    for suite in verify.SUITES:
        with pytest.raises(oracle.OracleCapError, match="n=8: cap is 7"):
            verify.run_suites([suite], 8)
    with pytest.raises(oracle.OracleCapError):
        verify.run_suites(["identities"], 9, cap=8)
    assert passes == []
