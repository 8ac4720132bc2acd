"""Formula-vs-oracle verification suites.

Each suite re-derives a family of counts two independent ways (closed
form or recurrence on one side, exhaustive enumeration or a second
closed form on the other) and records every comparison.  The CLI
``verify`` subcommand runs these and exits non-zero on any mismatch.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import counting, oracle
from .partitions import Composition, IntegerPartition, partitions_of

SUITES = ("closed-forms", "recurrences", "identities")


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


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first, *rest)


def suite_closed_forms(max_n: int, cap: int | None = None) -> list[CheckRecord]:
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
                    counting.p_ncycle(n, m, k), oracle.oracle_p(lam, m, k, cap=cap),
                )
                if m < n:
                    _record(
                        records, suite, "i-ncycle", {"n": n, "m": m, "k": k},
                        counting.i_ncycle(n, m, k), oracle.oracle_i(lam, m, k, cap=cap),
                    )
            sep_sum = sum(oracle.oracle_p(lam, m, k, cap=cap) for k in range(1, n + 1))
            _record(
                records, suite, "separation-probability", {"n": n, "m": m},
                counting.sep_prob_ncycle(n, m), Fraction(sep_sum, total),
            )
            if m < n:
                iso_sum = sum(oracle.oracle_i(lam, m, k, cap=cap) for k in range(1, n + 1))
                _record(
                    records, suite, "isolation-probability", {"n": n, "m": m},
                    counting.iso_prob_ncycle(n, m), Fraction(iso_sum, total),
                )
        dist = oracle.oracle_fixed_point_distribution(n, cap=cap)
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
        for parts in _compositions(n):
            alpha = Composition(parts)
            _record(
                records, suite, "alpha-separated", {"n": n, "alpha": str(alpha)},
                counting.alpha_separated_count(alpha), oracle.oracle_alpha(alpha, cap=cap),
            )
    return records


def suite_recurrences(max_n: int, cap: int | None = None) -> list[CheckRecord]:
    """General-diagonal recurrences and their initial values."""
    records: list[CheckRecord] = []
    suite = "recurrences"
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            for m in range(0, min(n, 3) + 1):
                for k in range(1, n + 1):
                    expected_p = oracle.oracle_p(lam, m, k, cap=cap)
                    expected_i = oracle.oracle_i(lam, m, k, cap=cap)
                    for base in ("oracle", "closed_form"):
                        _record(
                            records, suite, "p-lambda",
                            {"lambda": str(lam), "m": m, "k": k, "base": base},
                            counting.p_lambda(lam, m, k, base=base, cap=cap), expected_p,
                        )
                        _record(
                            records, suite, "i-lambda",
                            {"lambda": str(lam), "m": m, "k": k, "base": base},
                            counting.i_lambda(lam, m, k, base=base, cap=cap), expected_i,
                        )
            for mu in partitions_of(n):
                if lam.length + mu.length != n + 1:
                    continue
                for m in range(0, n + 1):
                    _record(
                        records, suite, "p-initial",
                        {"lambda": str(lam), "mu": str(mu), "m": m},
                        counting.p_base(lam, mu, m),
                        oracle.oracle_p_by_vertical_type(lam, mu, m, cap=cap),
                    )
                    _record(
                        records, suite, "i-initial",
                        {"lambda": str(lam), "mu": str(mu), "m": m},
                        counting.i_base(lam, mu, m),
                        oracle.oracle_i_by_vertical_type(lam, mu, m, cap=cap),
                    )
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
                    w = m * counting.binom(k + 2 * j - m, 2 * j) + counting.binom(
                        k + 2 * j - m, 2 * j + 1
                    )
                    rhs += w * 2 * factorial(n - 1) * counting.c_sep(n + 1, k + 2 * j, m)
                    j += 1
                ok = ok and lhs == rhs
            _record(
                records, suite, "ncycle-recurrence-identity", {"n": n, "m": m}, ok, True,
            )
    return records


def suite_identities(max_n: int, cap: int | None = None) -> list[CheckRecord]:
    """Structural identities of the two-row calculus, via the oracle."""
    records: list[CheckRecord] = []
    suite = "identities"
    from itertools import permutations

    from .perm import Permutation, enumerate_n_cycles
    from .plane import PlanePermutation

    # NTAE mirror identity, exhaustive where feasible
    for n in range(1, min(max_n, 5) + 1):
        ok = True
        for s in enumerate_n_cycles(n):
            seq = tuple(s.cycles()[0])
            for images in permutations(range(1, n + 1)):
                pp = PlanePermutation(seq, Permutation(images))
                lhs = pp.ntae_count() + pp.reflect().ntae_count()
                rhs = n + 1 - pp.pi.cycle_count() - pp.diagonal().cycle_count()
                if lhs != rhs:
                    ok = False
        _record(records, suite, "mirror-ntae-identity", {"n": n}, ok, True)

    # cycle-count bound, read off the census keys
    for n in range(1, max_n + 1):
        bound_ok = all(
            len(lam) + len(mu) <= n + 1
            for (lam, mu, _, _) in oracle._census(n).keys()
        )
        _record(records, suite, "cycle-count-bound", {"n": n}, bound_ok, True)

    # stratified splitting identity and exceedance totals
    for n in range(1, min(max_n, 6) + 1):
        for m in range(0, n + 1):
            for k in range(1, n + 1):
                total_exc = 0
                for lam in partitions_of(n):
                    strat = oracle.oracle_p_stratified(lam, m, k, cap=cap)
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
                    strat = oracle.oracle_p_stratified(lam, m, k, cap=cap)
                    lhs = sum((n - k - a) * cnt for a, cnt in strat.items())
                    rhs = 0
                    j = 1
                    while k + 2 * j <= n:
                        w = m * counting.binom(k + 2 * j - m, 2 * j) + counting.binom(
                            k + 2 * j - m, 2 * j + 1
                        )
                        rhs += w * oracle.oracle_p(lam, m, k + 2 * j, cap=cap)
                        j += 1
                    _record(
                        records, suite, "stratified-splitting-identity",
                        {"lambda": str(lam), "m": m, "k": k}, lhs, rhs,
                    )
    return records


def run_suites(
    suites: list[str], max_n: int, cap: int | None = None
) -> list[CheckRecord]:
    runners = {
        "closed-forms": suite_closed_forms,
        "recurrences": suite_recurrences,
        "identities": suite_identities,
    }
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    records: list[CheckRecord] = []
    for name in suites:
        if name not in runners:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
        records.extend(runners[name](max_n, cap=cap))
    return records
