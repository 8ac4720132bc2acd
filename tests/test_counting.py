import re
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, prod

import pytest

from sepcycles import counting, oracle
from sepcycles.counting import (
    CountTable,
    _lambda_table,
    _p_base_sum,
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
    resolve_p_base_reading,
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
    # boundary triples (lam, mu, m); minus matches the oracle on all of
    # them and plus misses exactly 120.  An empty cache makes it run here.
    monkeypatch.setattr(counting, "_READING_CACHE", {})
    assert resolve_p_base_reading(max_n=6) == "minus"
    triples = [
        (lam, mu, m)
        for n in range(1, 7)
        for lam in partitions_of(n)
        for mu in partitions_of(n)
        if lam.length + mu.length == n + 1
        for m in range(0, n + 1)
    ]
    assert len(triples) == 250
    mismatches = counting._READING_CACHE["mismatches"]
    assert {reading: len(bad) for reading, bad in mismatches.items()} == {
        "minus": 0, "plus": 120,
    }


def test_p_base_sum_cache_keeps_readings_apart():
    # both diagonals share the vertical type 2+1+1 and m = 2, hence one
    # cached tuple sum per reading; each keeps its own prefactor
    mu = P(2, 1, 1)
    expected = {
        (P(3, 1), "minus"): 20, (P(3, 1), "plus"): 12,
        (P(2, 2), "minus"): 10, (P(2, 2), "plus"): 6,
    }
    for order in (("minus", "plus"), ("plus", "minus")):
        _p_base_sum.cache_clear()
        for reading in order:
            for lam in (P(3, 1), P(2, 2)):
                assert p_base(lam, mu, 2, reading=reading) == expected[(lam, reading)]
    assert resolve_p_base_reading() == "minus"


def test_lambda_pipeline_matches_ncycle_closed_form():
    for n in range(1, 8):
        lam = P(n)
        for m in range(0, n + 1):
            for k in range(1, n + 1):
                expected = p_ncycle(n, m, k)
                assert p_lambda(lam, m, k, base="closed_form") == expected
                if m < n:
                    assert i_lambda(lam, m, k, base="closed_form") == i_ncycle(n, m, k)


def test_lambda_pipeline_identity_diagonal():
    # identity diagonal: only k = 1 is populated, by the n-cycle verticals
    for n in range(2, 7):
        ones = P(*([1] * n))
        for m in range(0, 2):
            for k in range(1, n + 1):
                expected = factorial(n - 1) if k == 1 else 0
                assert p_lambda(ones, m, k, base="closed_form") == expected
        for k in range(1, n + 1):
            assert p_lambda(ones, 2, k, base="closed_form") == 0


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
        p0 = _lambda_table(n, 0, "p", "closed_form", None)
        assert p0 == _lambda_table(n, 1, "p", "closed_form", None)
        assert p0 == _lambda_table(n, 0, "i", "closed_form", None)
    # so the eight (kind, m) tables at one n fill six cache entries
    monkeypatch.setattr(
        counting, "_lambda_table", lru_cache(maxsize=None)(_lambda_table.__wrapped__)
    )
    for kind in "pi":
        for m in range(0, 4):
            build_count_table(8, m, kind=kind)
    assert counting._lambda_table.cache_info().currsize == 6


def test_lambda_oracle_base_unavailable_beyond_cap():
    from sepcycles.oracle import OracleCapError

    lam = P(*([1] * 8))
    with pytest.raises(OracleCapError):
        p_lambda(lam, 0, 1, base="oracle")


def test_closed_form_table_cache_ignores_cap():
    from sepcycles.oracle import OracleCapError

    _lambda_table.cache_clear()
    lam = P(5, 3)
    first = p_lambda(lam, 2, 2, base="closed_form", cap=9)
    assert p_lambda(lam, 2, 2, base="closed_form", cap=None) == first
    assert _lambda_table.cache_info().currsize == 1
    # the oracle base keeps its cap: the refusal above it is unchanged
    with pytest.raises(OracleCapError):
        p_lambda(lam, 2, 2, base="oracle")


def test_default_base_never_enumerates(refuse_census):
    # the default boundary values are the closed forms at every n: with the
    # census refused from n = 7 on, the n = 7 tables still answer, equal to
    # the census read before the refusal; only source="oracle" reaches it
    m = 2
    expected = {kind: build_count_table(7, m, kind=kind, source="oracle") for kind in "pi"}
    refuse_census()
    for kind, value_of in (("p", p_lambda), ("i", i_lambda)):
        table = build_count_table(7, m, kind=kind)
        assert table.source == "recurrence"
        assert table.entries == expected[kind].entries
        for lam in partitions_of(7):
            for k in range(1, 8):
                assert value_of(lam, m, k) == expected[kind].get(lam, k), (kind, lam, k)
    with pytest.raises(RuntimeError, match="census refused"):
        build_count_table(7, m, source="oracle")


def test_lambda_pipeline_beyond_oracle_range():
    # n = 8 with closed-form base values: no enumeration involved, yet
    # the table must still account for every pair (s, pi) exactly once
    # and reproduce the n-cycle closed form on the full-cycle diagonal
    n = 8
    total = 0
    for lam in partitions_of(n):
        for k in range(1, n + 1):
            value = p_lambda(lam, 0, k, base="closed_form")
            assert value >= 0
            total += value
    assert total == factorial(n - 1) * factorial(n)
    for m in range(0, n + 1):
        for k in range(1, n + 1):
            assert p_lambda(P(n), m, k, base="closed_form") == p_ncycle(n, m, k)
        if m < n:
            for k in range(1, n + 1):
                assert i_lambda(P(n), m, k, base="closed_form") == i_ncycle(n, m, k)


def test_lambda_tables_exact_beyond_oracle_cap():
    # all eight tables at n = 14, far past enumeration, against three
    # independent exact totals: columns, the n-cycle row and, at m = 0,
    # the rows (each diagonal type lam occurs (n-1)! * n!/z_lam times)
    n = 14
    for kind in ("p", "i"):
        for m in range(0, 4):
            table = build_count_table(n, m, kind=kind, base="closed_form")
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


@pytest.mark.parametrize("n", range(1, 8))
def test_odd_defects_are_zero_and_never_stored(n):
    # the sign of s * pi^-1 forces n + 1 - l(lam) - l(mu) to be even: the
    # census holds no pair of odd defect, and the recurrence stores none
    assert all((n + 1 - len(lam) - len(mu)) % 2 == 0 for lam, mu, _, _ in oracle._census(n))
    for kind in "pi":
        for m in range(0, min(n, 3) + 1):
            table = _lambda_table(n, m, kind, "closed_form", None)
            assert all((n + 1 - len(lam) - k) % 2 == 0 for lam, k in table), (kind, m)


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

    def skewed(mu, m, kind, reading):
        num, den = real(mu, m, kind, reading)
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
    ((4, 1), {"base": "bogus"}, "base must be closed_form or oracle, got 'bogus'"),
])
def test_build_count_table_validates_arguments(args, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_count_table(*args, **kwargs)


def test_count_table_ncycle_parity_support():
    # full-cycle diagonal entries appear only at even n - k
    for n in range(2, 7):
        table = build_count_table(n, 0, kind="p", source="recurrence")
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
    for n in range(2, 10):
        mean, variance = fixed_point_moments(n)
        assert mean == Fraction(n, n - 1)
        assert variance >= 0


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
    table = build_count_table(4, 2, kind="p", source="recurrence")
    assert table.get(P(4), 2) == 16
    assert table.get(P(4), 3) == 0  # absent entries are zero
    text = table.to_json()
    back = CountTable.from_json(text)
    assert back.entries == table.entries
    assert (back.n, back.m, back.kind, back.source) == (4, 2, "p", "recurrence")
    # every stored value is positive and serialized as a decimal string
    data = table.to_json_dict()
    assert all(isinstance(e["value"], str) for e in data["entries"])


def test_count_table_oracle_source():
    formula = build_count_table(4, 1, kind="i", source="recurrence")
    oracle_table = build_count_table(4, 1, kind="i", source="oracle")
    assert formula.entries == oracle_table.entries
    assert oracle_table.source == "oracle"
