import hashlib
import json
import re
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, prod

import pytest

from sepcycles import cli, counting, oracle
from sepcycles.counting import (
    CountTable,
    _lambda_table,
    _separating_row,
    alpha_separated_count,
    binom,
    build_count_table,
    c_fix,
    c_sep,
    exact_div,
    fixed_point_moments,
    fixed_point_pair_counts,
    fpf_probability,
    i_base,
    i_lambda,
    i_ncycle,
    iso_prob_ncycle,
    p_base,
    p_lambda,
    p_ncycle,
    sep_prob_ncycle,
    stirling_c,
)
from sepcycles.partitions import (
    Composition,
    IntegerPartition,
    compositions_of,
    partitions_of,
)
from sepcycles.perm import Permutation, separates
from sepcycles.verify import resolve_p_base_reading


def P(*parts):
    return IntegerPartition(tuple(parts))


def test_exact_div():
    assert exact_div(12, 3) == 4
    with pytest.raises(ArithmeticError):
        exact_div(13, 3)


def test_binom_conventions():
    assert binom(5, 2) == comb(5, 2)
    assert binom(-1, 0) == 1
    assert binom(3, 0) == 1
    assert binom(2, 5) == 0
    assert binom(4, -1) == 0
    assert binom(-2, 3) == 0


def test_stirling_values():
    assert stirling_c(0, 0) == 1
    assert stirling_c(4, 2) == 11
    for n in range(0, 10):
        assert stirling_c(n, n) == 1
        assert sum(stirling_c(n, k) for k in range(0, n + 1)) == factorial(n)
        if n > 0:
            assert stirling_c(n, 0) == 0
    # brute force over S_4
    counts = [0] * 5
    for images in permutations(range(1, 5)):
        counts[Permutation(images).cycle_count()] += 1
    assert counts == [stirling_c(4, k) for k in range(5)]


def test_c_sep_against_brute_force():
    # all of S_5, split by cycle count and largest separated prefix
    table = {}
    for images in permutations(range(1, 6)):
        p = Permutation(images)
        k = p.cycle_count()
        for m in range(0, 6):
            if separates(p, m):
                table[(k, m)] = table.get((k, m), 0) + 1
    for k in range(1, 6):
        for m in range(0, 6):
            assert c_sep(5, k, m) == table.get((k, m), 0), (k, m)
    assert c_sep(5, 2, 2) == 24
    assert c_sep(5, 4, 2) == 9


def test_c_sep_reductions():
    for n in range(0, 8):
        for k in range(0, n + 1):
            assert c_sep(n, k, 0) == stirling_c(n, k)
    # m separated elements need at least m cycles
    assert c_sep(6, 1, 2) == 0
    # two-cycle top value: (n+m)(n+1-m)/2 pairings
    for n in range(1, 9):
        for m in range(0, n + 1):
            assert 2 * c_sep(n + 1, n, m) == (n + m) * (n + 1 - m)


def test_negative_k_rejected():
    # at every m, as stirling_c does, not only where m = 0 reaches it
    for m in range(0, 4):
        for k in (-1, -2):
            with pytest.raises(ValueError, match="k must be >= 0"):
                c_sep(3, k, m)
            with pytest.raises(ValueError, match="k must be >= 0"):
                c_fix(3, k, m)


def test_c_fix_against_brute_force():
    table = {}
    for images in permutations(range(1, 6)):
        p = Permutation(images)
        k = p.cycle_count()
        fixed_prefix = 0
        for x in range(1, 6):
            if p(x) != x:
                break
            fixed_prefix += 1
        for m in range(0, fixed_prefix + 1):
            table[(k, m)] = table.get((k, m), 0) + 1
    for k in range(1, 6):
        for m in range(0, 6):
            assert c_fix(5, k, m) == table.get((k, m), 0)
    assert c_fix(5, 4, 1) == 6
    assert c_fix(5, 5, 5) == 1
    for k in range(0, 6):
        assert c_fix(5, k, 0) == stirling_c(5, k)


def test_p_ncycle_values_and_parity():
    assert p_ncycle(4, 2, 2) == 16
    assert p_ncycle(3, 0, 1) == 2
    for n in range(1, 10):
        for m in range(0, n + 1):
            assert p_ncycle(n, m, n) == factorial(n - 1)
            for k in range(1, n + 1):
                value = p_ncycle(n, m, k)
                if (n - k) % 2:
                    assert value == 0
                elif value == 0:
                    assert c_sep(n + 1, k, m) == 0
        # m = 0: the classical count 2 (n-1)! C(n+1, k) / (n(n+1)) of
        # n-cycle factorizations, the same for isolation
        for k in range(1, n + 1):
            value = p_ncycle(n, 0, k)
            if (n - k) % 2 == 0:
                assert value * n * (n + 1) == 2 * factorial(n - 1) * stirling_c(n + 1, k)
            assert i_ncycle(n, 0, k) == value
    with pytest.raises(ValueError):
        p_ncycle(4, 5, 2)
    with pytest.raises(ValueError):
        p_ncycle(4, 0, 0)


def test_p_ncycle_total_is_all_factorizations():
    for n in range(1, 10):
        total = sum(p_ncycle(n, 0, k) for k in range(1, n + 1))
        assert total == factorial(n - 1) ** 2


def test_i_ncycle_values():
    assert i_ncycle(4, 1, 2) == 2 * 6 * stirling_c(4, 1) // (3 * 4) == 6
    for n in range(2, 9):
        for k in range(1, n + 1):
            assert i_ncycle(n, 0, k) == p_ncycle(n, 0, k)
    # fixing m elements needs at least m cycles
    assert i_ncycle(6, 3, 2) == 0
    with pytest.raises(ValueError):
        i_ncycle(4, 4, 2)


def test_base_value_preconditions():
    with pytest.raises(ValueError):
        p_base(P(3), P(3), 0)  # lengths 1 + 1 != 4
    with pytest.raises(ValueError):
        i_base(P(2, 1), P(2, 2), 0)  # different n
    with pytest.raises(ValueError):
        p_base(P(2, 1), P(2, 1), -1)


def test_base_values_forced_cases():
    # identity diagonal forces the vertical to equal the horizontal
    for n in range(2, 7):
        ones = P(*([1] * n))
        top = P(n)
        assert p_base(ones, top, 0) == factorial(n - 1)
        assert p_base(ones, top, 1) == factorial(n - 1)
        for m in range(2, n + 1):
            assert p_base(ones, top, m) == 0
        assert i_base(ones, top, 0) == factorial(n - 1)
        for m in range(1, n + 1):
            assert i_base(ones, top, m) == 0
        # n-cycle diagonal with identity vertical
        assert p_base(top, ones, n) == factorial(n - 1)
        assert i_base(top, ones, n) == factorial(n - 1)
    # fixing m points needs m unit parts in the vertical type
    assert i_base(P(2, 1, 1), P(2, 2), 1) == 0
    assert i_base(P(2, 2), P(2, 1, 1), 3) == 0


def test_spelling_protocol(monkeypatch):
    # the protocol as the README states it: at n <= 6 there are 250
    # boundary triples (lam, mu, m); p_base and the paper's tuple sum in
    # its minus spelling match the census on all of them, and the plus
    # spelling misses exactly 120
    triples = [
        (lam, mu, m)
        for n in range(1, 7)
        for lam in partitions_of(n)
        for mu in partitions_of(n)
        if lam.length + mu.length == n + 1
        for m in range(0, n + 1)
    ]
    assert len(triples) == 250
    mismatches = {"p_base": 0, "minus": 0, "plus": 0}
    for lam, mu, m in triples:
        expected = oracle.oracle_p_by_vertical_type(lam, mu, m)
        mismatches["p_base"] += p_base(lam, mu, m) != expected
        for reading in ("minus", "plus"):
            mismatches[reading] += paper_p_base(lam, mu, m, reading) != expected
    assert mismatches == {"p_base": 0, "minus": 0, "plus": 120}
    # both diagonals share the vertical type 2+1+1 and m = 2, hence one
    # tuple sum; each keeps its own prefactor
    mu = P(2, 1, 1)
    assert [p_base(lam, mu, 2) for lam in (P(3, 1), P(2, 2))] == [20, 10]
    assert [paper_p_base(lam, mu, 2, "plus") for lam in (P(3, 1), P(2, 2))] == [12, 6]
    # the check on request: it passes, and fails on one changed value
    assert resolve_p_base_reading(max_n=6) == "minus"
    real = counting.p_base

    def off_by_one(lam, mu, m):
        return real(lam, mu, m) + ((lam, mu, m) == (P(3, 1), P(2, 1, 1), 2))

    monkeypatch.setattr(counting, "p_base", off_by_one)
    with pytest.raises(RuntimeError, match=re.escape("lambda=3+1 mu=2+1+1 m=2 formula=21")):
        resolve_p_base_reading(max_n=6)


def _sub_multisets(pool, size):
    """Distinct sub-multisets of the given size of a Counter."""
    values = sorted(pool)

    def rec(idx, remaining):
        if remaining == 0:
            yield Counter()
            return
        if idx == len(values):
            return
        value = values[idx]
        for take in range(min(pool[value], remaining), -1, -1):
            for rest in rec(idx + 1, remaining - take):
                if take:
                    rest = rest.copy()
                    rest[value] = take
                yield rest

    yield from rec(0, size)


def _arrangements(counter):
    return factorial(sum(counter.values())) // prod(map(factorial, counter.values()))


@lru_cache(maxsize=None)
def reference_p_base_sum(mu_parts, mm, reading):
    """The paper's tuple sum for the boundary value, by its definition:
    one term per root part r, size b and size-b sub-multiset of the
    root's pool.  ``reading`` "minus" is the binomial argument
    l1 - b - 1 for r > 1, which matches the census; "plus", l1 - b + 1,
    is the rejected spelling."""
    d = len(mu_parts)
    oversized = Counter(p - 1 for p in mu_parts if p > 1)
    ell1 = sum(oversized.values())
    total = 0
    for r in sorted(set(mu_parts)):
        delta = 0 if r == 1 else 1
        pool = oversized.copy()
        if r > 1:
            pool[r - 1] -= 1
        pool = +pool
        for b in range(0, min(mm - 1, sum(pool.values())) + 1):
            arg = ell1 - b - delta if reading == "minus" else ell1 - b + delta
            outer = binom(d - mm, arg) * binom(mm - 1, b) * r
            for chosen in _sub_multisets(pool, b):
                weight = prod((value + 1) ** count for value, count in chosen.items())
                total += outer * weight * _arrangements(chosen) * _arrangements(pool - chosen)
    return total


def paper_p_base(lam, mu, m, reading):
    """The boundary value as the paper spells it: the tuple sum times
    (t-1)! (d-1)! (n-mm)! / ((d-mm)! prod mult_lam!), with t = l(lam),
    d = l(mu) and mm = max(m, 1) (separating one element constrains
    nothing); 0 when mm > d."""
    n, t, d, mm = lam.n, lam.length, mu.length, max(m, 1)
    if mm > d:
        return 0
    num = factorial(t - 1) * factorial(d - 1) * factorial(n - mm)
    den = factorial(d - mm) * prod(map(factorial, lam.multiplicities().values()))
    return exact_div(num * reference_p_base_sum(mu.parts, mm, reading), den)


@lru_cache(maxsize=None)
def reference_stirling_row(n):
    """Row n of the Stirling numbers c(n, k), k = 0..n, extended from
    row n - 1 by c(n, k) = c(n - 1, k - 1) + (n - 1) c(n - 1, k)."""
    if n == 0:
        return (1,)
    prev = reference_stirling_row(n - 1)
    return tuple(
        (prev[k - 1] if k else 0) + (n - 1) * (prev[k] if k < n else 0) for k in range(n + 1)
    )


def reference_c_sep(n, k, m):
    """Permutations of [n] with k cycles and 1..m in distinct cycles, as
    a sum over the d other elements that share a cycle with 1..m: choose
    them, thread them into the m cycles (binom(d + m - 1, d) d! ways),
    and let the other n - m - d elements form k - m cycles."""
    total = 0
    for d in range(n - m + 1):
        rest = reference_stirling_row(n - m - d)
        if 0 <= k - m < len(rest):
            total += comb(n - m, d) * binom(d + m - 1, d) * factorial(d) * rest[k - m]
    return total


def test_separating_rows_against_the_convolution():
    # stirling_c and c_sep read one generating-function row per (n, m);
    # hold them to the incremental Stirling rows and the convolution sum
    checks = 0
    for n in range(41):
        row = reference_stirling_row(n)
        assert [stirling_c(n, k) for k in range(n + 2)] == [*row, 0], n
        for m in range(n + 1):
            for k in range(n + 2):
                assert c_sep(n, k, m) == reference_c_sep(n, k, m), (n, k, m)
                checks += 1
    assert checks == 24682


def test_one_query_keeps_one_row(monkeypatch):
    # a count at n = 600 keeps the one row it reads, not every row below it
    for query in (lambda: stirling_c(600, 3), lambda: p_ncycle(600, 1, 2)):
        fresh = lru_cache(maxsize=None)(_separating_row.__wrapped__)
        monkeypatch.setattr(counting, "_separating_row", fresh)
        assert query() > 0
        assert fresh.cache_info().currsize == 1


def _elementary(parts, m):
    """e_m of ``parts``: the sum over m-subsets of the product of parts."""
    poly = [1]  # coefficients of prod (1 + v x)
    for v in parts:
        poly = [a + v * b for a, b in zip(poly + [0], [0] + poly)]
    return poly[m] if m < len(poly) else 0


def test_boundary_values_by_conjugation():
    # Simultaneous conjugation of (s, pi) keeps both cycle types and moves
    # {1..m} to every m-set equally often, so count(m) C(n, m) is count(0)
    # times the m-sets that pi separates (e_m of mu's parts) or fixes
    # (C(b1, m), b1 the unit parts of mu).  On the boundary count(0) is
    # (t-1)! (d-1)! n! / (prod mult_lam! prod mult_mu!), t = l(lam), d = l(mu).
    # p_base is this formula; the paper's tuple sum, a second method, is
    # held to it past the n <= 6 of resolve_p_base_reading.
    triples = 0
    for n in range(1, 13):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if lam.length + mu.length != n + 1:
                    continue
                den = prod(map(factorial, [*lam.multiplicities().values(),
                                           *mu.multiplicities().values()]))
                free = factorial(lam.length - 1) * factorial(mu.length - 1) * factorial(n)
                assert free % den == 0
                base = free // den
                b1 = mu.parts.count(1)
                for m in range(n + 1):
                    case = (str(lam), str(mu), m)
                    assert p_base(lam, mu, m) * comb(n, m) == base * _elementary(mu.parts, m), case
                    assert i_base(lam, mu, m) * comb(n, m) == base * comb(b1, m), case
                    assert paper_p_base(lam, mu, m, "minus") == p_base(lam, mu, m), case
                    triples += 1
    assert triples == 12764
    # the same symmetry holds off the boundary: hold the enumeration to it
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                p0 = oracle.oracle_p_by_vertical_type(lam, mu, 0)
                i0 = oracle.oracle_i_by_vertical_type(lam, mu, 0)
                assert p0 == i0
                b1 = mu.parts.count(1)
                for m in range(n + 1):
                    case = (str(lam), str(mu), m)
                    p = oracle.oracle_p_by_vertical_type(lam, mu, m)
                    i = oracle.oracle_i_by_vertical_type(lam, mu, m)
                    assert p * comb(n, m) == p0 * _elementary(mu.parts, m), case
                    assert i * comb(n, m) == i0 * comb(b1, m), case


def test_lambda_pipeline_matches_ncycle_closed_form():
    for n in range(1, 8):
        lam = P(n)
        for m in range(0, n + 1):
            for k in range(1, n + 1):
                expected = p_ncycle(n, m, k)
                assert p_lambda(lam, m, k) == expected
                if m < n:
                    assert i_lambda(lam, m, k) == i_ncycle(n, m, k)


def test_lambda_pipeline_identity_diagonal():
    # identity diagonal: only k = 1 is populated, by the n-cycle verticals
    for n in range(2, 7):
        ones = P(*([1] * n))
        for m in range(0, 2):
            for k in range(1, n + 1):
                expected = factorial(n - 1) if k == 1 else 0
                assert p_lambda(ones, m, k) == expected
        for k in range(1, n + 1):
            assert p_lambda(ones, 2, k) == 0


def test_lambda_zero_off_support():
    # entries above the cycle-count bound vanish
    lam = P(2, 2)
    assert p_lambda(lam, 0, 4) == 0
    assert i_lambda(lam, 0, 4) == 0
    # odd defect vanishes
    assert p_lambda(P(4), 0, 3) == 0


def test_lambda_m_zero_equals_m_one_and_i_reduction(monkeypatch):
    # built directly, past the shared cache key, the three tables agree
    for n in range(1, 13):
        p0 = _lambda_table(n, 0, "p")
        assert p0 == _lambda_table(n, 1, "p")
        assert p0 == _lambda_table(n, 0, "i")
    # so the eight (kind, m) tables at one n fill six cache entries
    monkeypatch.setattr(
        counting, "_lambda_table", lru_cache(maxsize=None)(_lambda_table.__wrapped__)
    )
    for kind in "pi":
        for m in range(0, 4):
            build_count_table(8, m, kind=kind)
    assert counting._lambda_table.cache_info().currsize == 6


def test_counting_imports_only_partitions(package_imports):
    # counting is what the oracle and verify check, so it imports neither
    assert package_imports(counting) == {"partitions"}


def test_base_accepts_only_closed_form():
    # the closed forms are the one boundary-value source; enumerated counts
    # are the oracle's own queries, and the refusal says where to find them
    message = "base must be closed_form, got 'oracle'; enumerated counts come from sepcycles.oracle"
    for call in (
        lambda: p_lambda(P(2, 1), 0, 2, base="oracle"),
        lambda: i_lambda(P(2, 1), 0, 2, base="oracle"),
        lambda: build_count_table(3, 0, base="oracle"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_default_base_never_enumerates(refuse_census):
    # the boundary values are the closed forms at every n: with the census
    # refused from n = 7 on, the n = 7 tables still answer, equal to the
    # oracle queries read before the refusal
    m = 2
    expected = {
        kind: {
            (lam, k): value
            for lam in partitions_of(7)
            for k in range(1, 8)
            if (value := query(lam, m, k))
        }
        for kind, query in (("p", oracle.oracle_p), ("i", oracle.oracle_i))
    }
    refuse_census()
    for kind, value_of in (("p", p_lambda), ("i", i_lambda)):
        table = build_count_table(7, m, kind=kind)
        assert table.source == "recurrence"
        assert table.entries == expected[kind]
        for lam in partitions_of(7):
            for k in range(1, 8):
                assert value_of(lam, m, k) == expected[kind].get((lam, k), 0), (kind, lam, k)
    with pytest.raises(RuntimeError, match="census refused"):
        oracle.oracle_p(P(7), m, 1)


def test_closed_form_path_never_enumerates(refuse_census, capsys):
    # with every census refused and every boundary cache empty, p_base, a
    # default table and a CLI p-lambda query answer without enumerating
    refuse_census(from_n=1)
    assert p_base(P(3, 1), P(2, 1, 1), 2) == 20
    table = build_count_table(7, 2, kind="p")
    assert [table.get(P(7), k) for k in range(1, 8)] == [p_ncycle(7, 2, k) for k in range(1, 8)]
    assert cli.main(["count", "p-lambda", "--lambda", "3+2+1", "--m", "2", "--k", "all"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert {r["source"] for r in records} == {"recurrence"}


def test_lambda_pipeline_beyond_oracle_range():
    # n = 8 with closed-form base values: no enumeration involved, yet
    # the table must still account for every pair (s, pi) exactly once
    # and reproduce the n-cycle closed form on the full-cycle diagonal
    n = 8
    total = 0
    for lam in partitions_of(n):
        for k in range(1, n + 1):
            value = p_lambda(lam, 0, k)
            assert value >= 0
            total += value
    assert total == factorial(n - 1) * factorial(n)
    for m in range(0, n + 1):
        for k in range(1, n + 1):
            assert p_lambda(P(n), m, k) == p_ncycle(n, m, k)
        if m < n:
            for k in range(1, n + 1):
                assert i_lambda(P(n), m, k) == i_ncycle(n, m, k)


def test_lambda_tables_exact_beyond_oracle_cap():
    # all eight tables at n = 14, far past enumeration, against three
    # independent exact totals: columns, the n-cycle row and, at m = 0,
    # the rows (each diagonal type lam occurs (n-1)! * n!/z_lam times)
    n = 14
    for kind in ("p", "i"):
        for m in range(0, 4):
            table = build_count_table(n, m, kind=kind)
            column = c_sep if kind == "p" else c_fix
            ncycle = p_ncycle if kind == "p" else i_ncycle
            for k in range(1, n + 1):
                assert sum(
                    table.get(lam, k) for lam in partitions_of(n)
                ) == factorial(n - 1) * column(n, k, m), (kind, m, k)
                assert table.get(P(n), k) == ncycle(n, m, k), (kind, m, k)
            if m == 0:
                for lam in partitions_of(n):
                    z = 1
                    for value, count in lam.multiplicities().items():
                        z *= value**count * factorial(count)
                    row = sum(table.get(lam, k) for k in range(1, n + 1))
                    assert row == exact_div(factorial(n - 1) * factorial(n), z), lam


def test_recurrence_tables_pinned_past_the_oracle():
    # every entry of the sixteen tables at n = 8 and 12, where the verify
    # suites no longer reach: a changed split or weight changes the digest
    digest = hashlib.sha256()
    for n in (8, 12):
        for kind in ("p", "i"):
            for m in range(0, 4):
                digest.update(build_count_table(n, m, kind).to_json().encode())
    assert digest.hexdigest() == (
        "7a4a461655df47f5ac12bee901da036b3b331767bf2876dab63d3ff929be01a4"
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_odd_defects_are_zero_and_never_stored(n):
    # the sign of s * pi^-1 forces n + 1 - l(lam) - l(mu) to be even: the
    # census holds no pair of odd defect, and the recurrence stores none:
    # each lam's row holds one entry per even defect with k >= 1
    assert all((n + 1 - len(lam) - len(mu)) % 2 == 0 for lam, mu, _, _ in oracle._census(n))
    for kind in "pi":
        for m in range(0, min(n, 3) + 1):
            table = _lambda_table(n, m, kind)
            assert {lam: len(row) for lam, row in table.items()} == {
                lam.parts: (n + 2 - lam.length) // 2 for lam in partitions_of(n)
            }, (kind, m)


@pytest.mark.parametrize("kind", ["p", "i"])
def test_boundary_exactness_checked_per_pair(monkeypatch, kind):
    # Each boundary value (lam, mu) is its own checked division, although
    # lam's factor is shared by its whole row.  Shift the factor of one mu
    # by +1/q and of a second mu of the same row by -1/q, q a prime that
    # divides no factorial at n = 7: every row sum stays exact, but the
    # first shifted pair must raise, naming lam and mu.  (An integer shift
    # would not do: at n = 7, m = 2 every p prefactor is an integer.)
    q = 1_000_003
    shifted = {P(4, 1, 1, 1): 1, P(3, 2, 1, 1): -1}
    real = counting._mu_factor

    def skewed(mu, m, kind):
        num, den = real(mu, m, kind)
        return (num * q + shifted[mu] * den, den * q) if mu in shifted else (num, den)

    for name in ("_lambda_table", "_boundary_row"):
        fresh = lru_cache(maxsize=None)(getattr(counting, name).__wrapped__)
        monkeypatch.setattr(counting, name, fresh)
    monkeypatch.setattr(counting, "_mu_factor", skewed)
    with pytest.raises(ArithmeticError, match=re.escape("lam=4+1+1+1, mu=4+1+1+1, m=2")):
        build_count_table(7, 2, kind=kind)


@pytest.mark.parametrize("args, kwargs, message", [
    ((0, 0), {}, "n must be >= 1, got 0"),
    ((3, 5), {}, "m must satisfy 0 <= m <= 3, got 5"),
    ((3, -1), {"kind": "i"}, "m must satisfy 0 <= m <= 3, got -1"),
    ((4, 1), {"base": "bogus"}, "base must be closed_form, got 'bogus'"),
])
def test_build_count_table_validates_arguments(args, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_count_table(*args, **kwargs)


def test_count_table_ncycle_parity_support():
    # full-cycle diagonal entries appear only at even n - k
    for n in range(2, 7):
        table = build_count_table(n, 0, kind="p")
        for (lam, k), value in table.entries.items():
            if lam == P(n):
                assert (n - k) % 2 == 0 and value > 0


def test_sep_prob_values():
    assert sep_prob_ncycle(4, 2) == Fraction(11, 18)
    assert sep_prob_ncycle(4, 0) == 1
    assert sep_prob_ncycle(4, 1) == 1
    for n in range(1, 12):
        for m in range(0, n + 1):
            value = sep_prob_ncycle(n, m)
            if m <= 1:
                assert value == 1
            elif (n - m) % 2 == 1:
                assert value == Fraction(1, factorial(m))
            else:
                assert value == Fraction(1, factorial(m)) + Fraction(
                    2, factorial(m - 2) * (n + 1 - m) * (n + m)
                )
    with pytest.raises(ValueError):
        sep_prob_ncycle(3, 4)


def test_sep_prob_equals_count_ratio():
    for n in range(1, 10):
        total = factorial(n - 1) ** 2
        for m in range(0, n + 1):
            s = sum(p_ncycle(n, m, k) for k in range(1, n + 1))
            assert sep_prob_ncycle(n, m) == Fraction(s, total)


def test_iso_prob_values():
    assert iso_prob_ncycle(4, 2) == Fraction(1, 6)
    assert iso_prob_ncycle(5, 2) == Fraction(1, 12)
    for n in range(1, 12):
        for m in range(0, n):
            assert iso_prob_ncycle(n, m) == Fraction(1, factorial(m) * comb(n - 1, m))
    with pytest.raises(ValueError):
        iso_prob_ncycle(4, 4)


def test_iso_prob_equals_count_ratio():
    for n in range(2, 10):
        total = factorial(n - 1) ** 2
        for m in range(0, n):
            s = sum(i_ncycle(n, m, k) for k in range(1, n + 1))
            assert iso_prob_ncycle(n, m) == Fraction(s, total)


def test_fpf_probability_values():
    assert fpf_probability(2) == 0
    assert fpf_probability(3) == Fraction(1, 2)
    for n in range(2, 12):
        counts = fixed_point_pair_counts(n)
        total = factorial(n - 1) ** 2
        assert fpf_probability(n) == Fraction(counts[0], total)
    with pytest.raises(ValueError):
        fpf_probability(1)


def test_fixed_point_distribution_structure():
    for n in range(2, 10):
        counts = fixed_point_pair_counts(n)
        assert len(counts) == n + 1
        assert sum(counts) == factorial(n - 1) ** 2
        assert counts[n] == factorial(n - 1)  # the identity product
        assert counts[n - 1] == 0  # cannot fix exactly n - 1 points


def test_fixed_point_moments():
    mean, variance = fixed_point_moments(3)
    assert (mean, variance) == (Fraction(3, 2), Fraction(9, 4))
    # the mean and variance of the exact distribution
    for n in range(2, 61):
        counts = fixed_point_pair_counts(n)
        total = factorial(n - 1) ** 2
        mean = Fraction(sum(i * c for i, c in enumerate(counts)), total)
        second = Fraction(sum(i * i * c for i, c in enumerate(counts)), total)
        assert fixed_point_moments(n) == (mean, second - mean * mean), n
        assert mean == Fraction(n, n - 1)


def test_fixed_point_moments_need_no_distribution(monkeypatch):
    # read off two fixing counts: no factorial, no distribution, so a
    # large n returns at once (the distribution at n = 3000 takes minutes)
    def refuse(*args):
        raise AssertionError("fixed_point_moments built a distribution or a factorial")

    monkeypatch.setattr(counting, "fixed_point_pair_counts", refuse)
    monkeypatch.setattr(counting, "factorial", refuse)
    started = time.perf_counter()
    mean, _ = fixed_point_moments(3000)
    assert time.perf_counter() - started < 0.5
    assert mean == Fraction(3000, 2999)


def test_alpha_separated_count():
    assert alpha_separated_count(Composition((1, 3))) == 12
    for n in range(1, 10):
        assert alpha_separated_count(Composition((n,))) == factorial(n - 1) ** 2
        assert alpha_separated_count(Composition(tuple([1] * n))) == factorial(n - 1)
    # single fixed point plus one long block
    for n in range(2, 9):
        assert alpha_separated_count(
            Composition((1, n - 1))
        ) == factorial(n - 1) * factorial(n - 1) // (n - 1)


def test_alpha_symmetry_ratio():
    # every composition of n <= 9: the count divides exactly (no
    # ArithmeticError), and compositions of n with equal length have
    # counts in the ratio of their part-factorial products
    for n in range(1, 10):
        by_length = {}
        for alpha in compositions_of(n):
            by_length.setdefault(alpha.length, []).append(
                (alpha_separated_count(alpha), prod(map(factorial, alpha.parts)))
            )
        for (ref_value, ref_prod), *rest in by_length.values():
            for value, fact_prod in rest:
                assert value * ref_prod == ref_value * fact_prod, (n, value)


def test_count_table_round_trip():
    table = build_count_table(4, 2, kind="p")
    assert table.get(P(4), 2) == 16
    assert table.get(P(4), 3) == 0  # absent entries are zero
    data = json.loads(table.to_json())
    back = {
        (IntegerPartition.from_string(e["lambda"]), e["k"]): int(e["value"])
        for e in data["entries"]
    }
    assert back == table.entries
    assert (data["n"], data["m"], data["kind"], data["source"]) == (4, 2, "p", "recurrence")
    # every stored value is positive and serialized as a decimal string
    assert all(isinstance(e["value"], str) for e in data["entries"])


def test_to_json_is_json_dumps_of_to_json_dict():
    # the table serializer writes json.dumps's exact bytes, for every
    # table with n <= 9 and for a table with no entries
    tables = [
        build_count_table(n, m, kind=kind)
        for n in range(1, 10)
        for kind in "pi"
        for m in range(min(n, 3) + 1)
    ]
    tables.append(CountTable(n=3, m=0, kind="p", source="recurrence"))
    assert sum(not t.entries for t in tables) == 1
    for table in tables:
        assert table.to_json() == json.dumps(table.to_json_dict(), indent=2)


def test_count_table_oracle_source(capsys):
    # the enumerated table is the CLI's --table-source oracle
    formula = build_count_table(4, 1, kind="i")
    args = ["table", "--n", "4", "--m", "1", "--kind", "i", "--table-source", "oracle"]
    assert cli.main(args) == 0
    oracle_table = json.loads(capsys.readouterr().out)
    assert oracle_table["entries"] == formula.to_json_dict()["entries"]
    assert oracle_table["source"] == "oracle"
