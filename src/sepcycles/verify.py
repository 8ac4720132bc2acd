"""Formula-vs-oracle verification suites.

The suites are the single home of every formula-vs-reference check in
the package: each re-derives a family of counts two independent ways
(closed form or recurrence on one side, exhaustive enumeration or a
second closed form on the other) and records every comparison as a
:class:`CheckRecord`.  The CLI ``verify`` subcommand prints the records
and exits non-zero on any mismatch; the acceptance tests run the same
suites and assert on their records.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from . import counting, oracle
from .partitions import IntegerPartition, compositions_of, partitions_of
from .perm import Permutation, enumerate_n_cycles
from .plane import PlanePermutation

# suite name -> the name of the function that runs it, looked up when a
# run starts, so a suite function replaced on the module is the one used
SUITES = {
    "closed-forms": "suite_closed_forms",
    "recurrences": "suite_recurrences",
    "identities": "suite_identities",
}


@dataclass
class CheckRecord:
    suite: str
    check: str
    params: dict
    formula: str
    oracle: str
    ok: bool

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        return (
            f"{status} [{self.suite}] {self.check} {params} "
            f"formula={self.formula} oracle={self.oracle}"
        )


def _record(records: list, suite: str, check: str, params: dict, got, expected):
    records.append(
        CheckRecord(
            suite=suite,
            check=check,
            params=params,
            formula=str(got),
            oracle=str(expected),
            ok=got == expected,
        )
    )


def suite_closed_forms(max_n: int) -> list[CheckRecord]:
    """Products of two n-cycles: every closed form against the oracle."""
    records: list[CheckRecord] = []
    suite = "closed-forms"
    for n in range(1, max_n + 1):
        lam = IntegerPartition((n,))
        total = factorial(n - 1) ** 2
        for m in range(0, n + 1):
            for k in range(1, n + 1):
                _record(
                    records, suite, "p-ncycle", {"n": n, "m": m, "k": k},
                    counting.p_ncycle(n, m, k), oracle.oracle_p(lam, m, k),
                )
                if m < n:
                    _record(
                        records, suite, "i-ncycle", {"n": n, "m": m, "k": k},
                        counting.i_ncycle(n, m, k), oracle.oracle_i(lam, m, k),
                    )
            sep_sum = sum(oracle.oracle_p(lam, m, k) for k in range(1, n + 1))
            _record(
                records, suite, "separation-probability", {"n": n, "m": m},
                counting.sep_prob_ncycle(n, m), Fraction(sep_sum, total),
            )
            if m < n:
                iso_sum = sum(oracle.oracle_i(lam, m, k) for k in range(1, n + 1))
                _record(
                    records, suite, "isolation-probability", {"n": n, "m": m},
                    counting.iso_prob_ncycle(n, m), Fraction(iso_sum, total),
                )
        dist = oracle.oracle_fixed_point_distribution(n)
        counts = counting.fixed_point_pair_counts(n)
        _record(
            records, suite, "fixed-point-distribution", {"n": n},
            {i: c for i, c in enumerate(counts) if c}, dist,
        )
        if n >= 2:
            mean, variance = counting.fixed_point_moments(n)
            o_mean = Fraction(sum(i * c for i, c in dist.items()), total)
            o_second = Fraction(sum(i * i * c for i, c in dist.items()), total)
            _record(records, suite, "fixed-point-mean", {"n": n}, mean, o_mean)
            _record(
                records, suite, "fixed-point-variance", {"n": n},
                variance, o_second - o_mean * o_mean,
            )
            _record(
                records, suite, "fixed-point-free", {"n": n},
                counting.fpf_probability(n), Fraction(dist.get(0, 0), total),
            )
        for alpha in compositions_of(n):
            _record(
                records, suite, "alpha-separated", {"n": n, "alpha": str(alpha)},
                counting.alpha_separated_count(alpha), oracle.oracle_alpha(alpha),
            )
    return records


def suite_recurrences(max_n: int) -> list[CheckRecord]:
    """General-diagonal recurrences and their initial values."""
    records: list[CheckRecord] = []
    suite = "recurrences"
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            for m in range(0, min(n, 3) + 1):
                for k in range(1, n + 1):
                    params = {"lambda": str(lam), "m": m, "k": k}
                    _record(
                        records, suite, "p-lambda", params,
                        counting.p_lambda(lam, m, k), oracle.oracle_p(lam, m, k),
                    )
                    _record(
                        records, suite, "i-lambda", params,
                        counting.i_lambda(lam, m, k), oracle.oracle_i(lam, m, k),
                    )
            _initial_records(records, lam)
    # pure big-integer identity between the n-cycle closed form and its
    # recurrence; no oracle needed, so probe beyond the enumeration cap
    for n in range(1, max(max_n, 12) + 1):
        for m in range(0, n + 1):
            ok = True
            for k in range(1, n + 2):
                lhs = (n + 1 - k) * 2 * factorial(n - 1) * counting.c_sep(n + 1, k, m)
                rhs = (n + m) * (n + 1 - m) * factorial(n - 1) * counting.c_sep(n, k, m)
                j = 1
                while k + 2 * j <= n + 1:
                    w = counting._weight_p(m, k, j)
                    rhs += w * 2 * factorial(n - 1) * counting.c_sep(n + 1, k + 2 * j, m)
                    j += 1
                ok = ok and lhs == rhs
            _record(
                records, suite, "ncycle-recurrence-identity", {"n": n, "m": m}, ok, True,
            )
    return records


def _initial_records(records: list, lam: IntegerPartition) -> None:
    """The p-initial and i-initial records on lam's boundary: every
    vertical type mu with l(lam) + l(mu) = n + 1, every m."""
    n = lam.n
    for mu in partitions_of(n):
        if lam.length + mu.length != n + 1:
            continue
        for m in range(0, n + 1):
            params = {"lambda": str(lam), "mu": str(mu), "m": m}
            _record(
                records, "recurrences", "p-initial", params,
                counting.p_base(lam, mu, m),
                oracle.oracle_p_by_vertical_type(lam, mu, m),
            )
            _record(
                records, "recurrences", "i-initial", params,
                counting.i_base(lam, mu, m),
                oracle.oracle_i_by_vertical_type(lam, mu, m),
            )


def resolve_p_base_reading(max_n: int = 6) -> str:
    """Check :func:`counting.p_base` against the census by its p-initial
    records: every boundary triple (lam, mu, m) with n <= max_n.  Returns
    "minus", the name callers know the checked boundary values by (the
    spelling of the paper's tuple sum that they equal), or raises
    ``RuntimeError`` naming the first triple that fails.  Nothing is
    cached, and no closed form calls this.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    records: list[CheckRecord] = []
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            _initial_records(records, lam)
    for record in records:
        if record.check == "p-initial" and not record.ok:
            raise RuntimeError(f"p_base spelling 'minus' fails: {record.line()}")
    return "minus"


def suite_identities(max_n: int) -> list[CheckRecord]:
    """Structural identities of the two-row calculus, via the oracle."""
    records: list[CheckRecord] = []
    suite = "identities"

    # NTAE mirror identity, exhaustive where feasible.  ntae_count is
    # anti-exceedances less cycles, so the cycle counts cancel in the
    # identity; each count is also held to the NTAE definition, which
    # covers every mirror too, since reflect is an involution.
    for n in range(1, min(max_n, 5) + 1):
        ok = True
        for s in enumerate_n_cycles(n):
            seq = tuple(s.cycles()[0])
            for images in permutations(range(1, n + 1)):
                pp = PlanePermutation(seq, Permutation(images))
                ntae = pp.ntae_count()
                lhs = ntae + pp.reflect().ntae_count()
                rhs = n + 1 - pp.pi.cycle_count() - pp.diagonal().cycle_count()
                if lhs != rhs or ntae != len(pp.classify_elements()[2]):
                    ok = False
        _record(records, suite, "mirror-ntae-identity", {"n": n}, ok, True)

    # cycle-count bound: no pair has l(lam) + k > n + 1
    for n in range(1, max_n + 1):
        bound_ok = all(
            oracle.oracle_p(lam, 0, k) == 0
            for lam in partitions_of(n)
            for k in range(n + 2 - lam.length, n + 1)
        )
        _record(records, suite, "cycle-count-bound", {"n": n}, bound_ok, True)

    # stratified splitting identity and exceedance totals
    for n in range(1, min(max_n, 6) + 1):
        for m in range(0, n + 1):
            for k in range(1, n + 1):
                total_exc = 0
                for lam in partitions_of(n):
                    strat = oracle.oracle_p_stratified(lam, m, k)
                    total_exc += sum(a * cnt for a, cnt in strat.items())
                rhs_direct = (
                    factorial(n - 1)
                    * (counting.binom(n - m, 2) + m * (n - m))
                    * counting.c_sep(n - 1, k, m)
                    if m <= n - 1
                    else 0
                )
                _record(
                    records, suite, "exceedance-total", {"n": n, "m": m, "k": k},
                    total_exc, rhs_direct,
                )
        for lam in partitions_of(n):
            for m in range(0, n + 1):
                for k in range(1, n + 1):
                    strat = oracle.oracle_p_stratified(lam, m, k)
                    lhs = sum((n - k - a) * cnt for a, cnt in strat.items())
                    rhs = 0
                    j = 1
                    while k + 2 * j <= n:
                        w = counting._weight_p(m, k, j)
                        rhs += w * oracle.oracle_p(lam, m, k + 2 * j)
                        j += 1
                    _record(
                        records, suite, "stratified-splitting-identity",
                        {"lambda": str(lam), "m": m, "k": k}, lhs, rhs,
                    )
    return records


def run_suites(suites: list[str], max_n: int) -> list[CheckRecord]:
    """Every record of the named suites for n = 1..max_n.  Bad input is
    refused before any suite starts, max_n above the census's hard
    maximum too."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if max_n > oracle.HARD_CAP:
        raise oracle.OracleCapError(max_n)
    for name in suites:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    records: list[CheckRecord] = []
    for name in suites:
        records.extend(globals()[SUITES[name]](max_n))
    return records
