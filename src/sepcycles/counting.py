"""Closed forms and recurrences for separation/isolation statistics of
products of permutations.

Conventions used throughout:

* ``p``-quantities count plane permutations (s, pi) with a prescribed
  diagonal cycle type whose vertical pi has k cycles and keeps 1..m in
  distinct cycles; ``i``-quantities require 1..m to be fixed points
  instead.  With the diagonal an n-cycle these are exactly the pairs of
  n-cycles whose product has k cycles and separates (fixes) 1..m.
* General diagonal types go through the defect recurrence, which starts
  from the closed-form boundary values :func:`p_base` / :func:`i_base`
  at every n.  Enumeration runs only when a caller names it
  (``base="oracle"`` or ``source="oracle"``); nothing switches to it by
  the size of n.
* Every division is exact and checked; a remainder raises
  :class:`ArithmeticError` instead of rounding.
* Probabilities and moments are :class:`fractions.Fraction` values,
  always in lowest terms.  No floating point enters the core.
* ``binom(a, 0) = 1`` for every a, and ``binom(a, b) = 0`` whenever
  b < 0, a < b, or a < 0 < b; empty sums truncate silently.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial
from typing import Iterator, Literal

from . import oracle as _oracle
from .partitions import (
    Composition,
    IntegerPartition,
    partitions_of,
    partitions_with_length,
    splits_of,
)

BaseValueSource = Literal["closed_form", "oracle"]


def binom(a: int, b: int) -> int:
    if b < 0:
        return 0
    if b == 0:
        return 1
    if a < 0 or a < b:
        return 0
    return comb(a, b)


def exact_div(num: int, den: int) -> int:
    """Integer division that must be exact; remainders are a bug."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-exact division: {num} / {den} leaves {r}")
    return q


# ---------------------------------------------------------------------------
# Stirling numbers and their separating / fixing refinements

_STIRLING_ROWS: list[tuple[int, ...]] = [(1,)]


def _stirling_row(n: int) -> tuple[int, ...]:
    """Row n of :func:`stirling_c`, extending the rows built so far one
    at a time, so any n is reached without recursion.
    """
    rows = _STIRLING_ROWS
    while len(rows) <= n:
        prev = rows[-1]
        j = len(prev) - 1
        # c(j + 1, k) = c(j, k - 1) + j * c(j, k), with c(j, j + 1) = 0
        rows.append((0, *(a + j * b for a, b in zip(prev, (*prev[1:], 0)))))
    return rows[n]


def stirling_c(n: int, k: int) -> int:
    """Signless Stirling number of the first kind: permutations of [n]
    with k cycles.
    """
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be >= 0, got {n}, {k}")
    if k > n:
        return 0
    return _stirling_row(n)[k]


def c_sep(n: int, k: int, m: int) -> int:
    """Permutations of [n] with k cycles and 1..m in distinct cycles.

    Summed over how many of the other n - m elements share a cycle with
    [m]: choose them, thread them into the m distinguished cycles, and
    let the rest form k - m further cycles.
    """
    _check_km(n, k, m)
    if m == 0:
        return stirling_c(n, k)
    total = 0
    for d in range(0, n - m + 1):
        lower = stirling_c(n - m - d, k - m) if k - m >= 0 else 0
        if lower == 0:
            continue
        total += binom(n - m, d) * binom(d + m - 1, d) * factorial(d) * lower
    return total


def c_fix(n: int, k: int, m: int) -> int:
    """Permutations of [n] with k cycles fixing each of 1..m."""
    _check_km(n, k, m)
    if k < m:
        return 0
    return stirling_c(n - m, k - m)


def _check_km(n: int, k: int, m: int) -> None:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not 0 <= m <= n:
        raise ValueError(f"m must satisfy 0 <= m <= {n}, got {m}")


# ---------------------------------------------------------------------------
# products of two n-cycles: closed forms

def p_ncycle(n: int, m: int, k: int) -> int:
    """Pairs of n-cycles whose product has k cycles with 1..m in
    distinct cycles.  Zero unless n - k is even.
    """
    _check_nmk(n, m, k)
    if (n - k) % 2:
        return 0
    return exact_div(2 * factorial(n - 1) * c_sep(n + 1, k, m), (n + m) * (n + 1 - m))


def i_ncycle(n: int, m: int, k: int) -> int:
    """Pairs of n-cycles whose product has k cycles fixing each of 1..m.
    Requires m < n; zero unless n - k is even.
    """
    if not 0 <= m < n:
        raise ValueError(f"m must satisfy 0 <= m < n, got m={m}, n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if (n - k) % 2:
        return 0
    return exact_div(2 * factorial(n - 1) * c_fix(n + 1, k, m), (n - m) * (n + 1 - m))


def _check_nm(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= m <= n:
        raise ValueError(f"m must satisfy 0 <= m <= {n}, got {m}")


def _check_nmk(n: int, m: int, k: int) -> None:
    _check_nm(n, m)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")


# ---------------------------------------------------------------------------
# general diagonal cycle type: initial values at the tree level
#
# The recurrences below bottom out where the vertical cycle count k
# reaches n + 1 - l(lambda); there the counts split by the exact vertical
# cycle type mu with l(mu) = k, and admit product formulas.

def i_base(lam: IntegerPartition, mu: IntegerPartition, m: int) -> int:
    """Plane permutations with diagonal type lam and vertical of exact
    type mu fixing 1..m, on the boundary l(lam) + l(mu) = n + 1:
    (t-1)! (d-1)! (n-m)! / ((b1-m)! prod mult_lam! prod_{v>1} mult_mu(v)!)
    with t = l(lam), d = l(mu) and b1 the unit parts of mu.

    Zero when mu has fewer than m unit parts.  A tempting variant of
    this formula reads (n+1-m)! over (b1-m+1)!; it overcounts (already
    on [3]: diagonal 2+1, vertical 2+1, m=0 gives 12 instead of 6).
    The version here matches exhaustive enumeration on all of n <= 6.
    """
    _check_base_pair(lam, mu, m)
    return _boundary_term(lam, mu, m, _lam_factor(lam, m, "i"), _mu_factor(mu, m, "i", None))


def p_base(
    lam: IntegerPartition,
    mu: IntegerPartition,
    m: int,
    reading: str | None = None,
) -> int:
    """Plane permutations with diagonal type lam and vertical of exact
    type mu separating 1..m, on the boundary l(lam) + l(mu) = n + 1:
    (t-1)! (d-1)! (n-mm)! S / ((d-mm)! prod mult_lam!) with mm = max(m, 1)
    and S the tuple sum :func:`_p_base_sum`.

    The sum runs over the size r of a distinguished root group of
    vertical parts together with ordered splittings of the remaining
    oversized parts.  The binomial argument admits two candidate
    spellings (l1 - b - 1 vs l1 - b + 1 for r > 1); both are implemented
    and ``reading`` selects one.  With reading=None the spelling is
    resolved once by exhaustive comparison against the oracle (see
    :func:`resolve_p_base_reading`); the minus spelling wins.
    """
    _check_base_pair(lam, mu, m)
    if reading is None:
        reading = resolve_p_base_reading()
    if reading not in ("minus", "plus"):
        raise ValueError(f"reading must be 'minus' or 'plus', got {reading!r}")
    return _boundary_term(lam, mu, m, _lam_factor(lam, m, "p"), _mu_factor(mu, m, "p", reading))


# A boundary value is (lam part) * (mu part), one exact division.  On the
# boundary l(mu) = n + 1 - l(lam) is fixed, so the lam part is shared by
# every mu of one boundary row and the mu part by every lam of that length.

def _lam_factor(lam: IntegerPartition, m: int, kind: str) -> tuple[int, int]:
    """The factor (numerator, denominator) of a boundary value that
    depends on the diagonal type only.  A zero numerator: every value on
    lam's boundary vanishes.
    """
    n, t = lam.n, lam.length
    d = n + 1 - t
    den = 1
    for a in lam.multiplicities().values():
        den *= factorial(a)
    if kind == "i":
        return factorial(t - 1) * factorial(d - 1) * factorial(n - m), den
    # separating one element constrains nothing, exactly like m = 0, and
    # the tuple sum presumes there is a first constrained element
    mm = max(m, 1)
    if mm > d:
        return 0, 1
    return factorial(t - 1) * factorial(d - 1) * factorial(n - mm), den * factorial(d - mm)


def _mu_factor(mu: IntegerPartition, m: int, kind: str, reading: str | None) -> tuple[int, int]:
    """The factor (numerator, denominator) of a boundary value that
    depends on the vertical type only: the tuple sum for ``p``, the
    multiplicity factorials for ``i``.
    """
    if kind == "p":
        return _p_base_sum(mu.parts, max(m, 1), reading), 1
    mult = mu.multiplicities()
    b1 = mult.pop(1, 0)
    if b1 < m:
        return 0, 1
    den = factorial(b1 - m)
    for b in mult.values():
        den *= factorial(b)
    return 1, den


def _boundary_term(
    lam: IntegerPartition, mu: IntegerPartition, m: int,
    lam_factor: tuple[int, int], mu_factor: tuple[int, int],
) -> int:
    """One boundary value from its two factors; the division is checked
    for this (lam, mu), never only for a sum over mu.
    """
    num, den = lam_factor[0] * mu_factor[0], lam_factor[1] * mu_factor[1]
    value, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(
            f"non-exact base value for lam={lam}, mu={mu}, m={m}: {Fraction(num, den)}"
        )
    return value


@lru_cache(maxsize=None)
def _boundary_row(
    n: int, d: int, m: int, kind: str
) -> tuple[tuple[IntegerPartition, tuple[int, int]], ...]:
    """Every vertical type mu of n with d parts and its :func:`_mu_factor`,
    built once per (n, d, m, kind) and shared by every diagonal type of
    length n + 1 - d.  Types whose values all vanish are left out.
    """
    reading = resolve_p_base_reading() if kind == "p" else None
    row = []
    for mu in partitions_with_length(n, d):
        factor = _mu_factor(mu, m, kind, reading)
        if factor[0]:
            row.append((mu, factor))
    return tuple(row)


@lru_cache(maxsize=None)
def _p_base_sum(mu_parts: tuple[int, ...], mm: int, reading: str) -> int:
    """The tuple sum of :func:`p_base`: it depends on the vertical type,
    the effective m and the spelling only, never on the diagonal type, so
    every lam on the boundary with mu shares it.
    """
    d = len(mu_parts)
    oversized = Counter(p - 1 for p in mu_parts if p > 1)
    ell1 = sum(oversized.values())
    total = 0
    for r in sorted(set(mu_parts)):
        delta = 0 if r == 1 else 1
        pool = oversized.copy()
        if r > 1:
            pool[r - 1] -= 1
            if not pool[r - 1]:
                del pool[r - 1]
        pool_size = sum(pool.values())
        for b in range(0, min(mm - 1, pool_size) + 1):
            arg = ell1 - b - delta if reading == "minus" else ell1 - b + delta
            outer = binom(d - mm, arg) * binom(mm - 1, b) * r
            if outer == 0:
                continue
            for chosen in _sub_multisets(pool, b):
                rest = pool - chosen
                orderings = _multiset_arrangements(chosen) * _multiset_arrangements(rest)
                weight = 1
                for value, count in chosen.items():
                    weight *= (value + 1) ** count
                total += outer * weight * orderings
    return total


def _check_base_pair(lam: IntegerPartition, mu: IntegerPartition, m: int) -> int:
    n = lam.n
    if mu.n != n:
        raise ValueError(f"partitions of different n: {lam} vs {mu}")
    if lam.length + mu.length != n + 1:
        raise ValueError(
            f"initial values need l(lam) + l(mu) = n + 1; "
            f"got {lam.length} + {mu.length} != {n + 1}"
        )
    if not 0 <= m <= n:
        raise ValueError(f"m must satisfy 0 <= m <= {n}, got {m}")
    return n


def _sub_multisets(pool: Counter, size: int) -> Iterator[Counter]:
    """Distinct sub-multisets of the given size."""
    values = sorted(pool)

    def rec(idx: int, remaining: int) -> Iterator[Counter]:
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


def _multiset_arrangements(counter: Counter) -> int:
    total = factorial(sum(counter.values()))
    for count in counter.values():
        total = exact_div(total, factorial(count))
    return total


_READING_CACHE: dict = {}


def resolve_p_base_reading(max_n: int = 6) -> str:
    """Decide the binomial spelling in :func:`p_base` by exhaustive
    comparison with the oracle over every boundary pair (lam, mu) and
    every m with n <= max_n.  Exactly one spelling must survive;
    anything else raises.  The outcome is cached for the process.
    """
    cached = _READING_CACHE.get("result")
    if cached is not None and _READING_CACHE["max_n"] >= max_n:
        return cached
    mismatches: dict[str, list] = {"minus": [], "plus": []}
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if lam.length + mu.length != n + 1:
                    continue
                for m in range(0, n + 1):
                    expected = _oracle.oracle_p_by_vertical_type(lam, mu, m)
                    for reading in ("minus", "plus"):
                        got = p_base(lam, mu, m, reading=reading)
                        if got != expected:
                            mismatches[reading].append((str(lam), str(mu), m, got, expected))
    survivors = [r for r, bad in mismatches.items() if not bad]
    if len(survivors) != 1:
        raise RuntimeError(
            f"initial-value spelling not uniquely resolved: survivors={survivors}, "
            f"mismatch counts={ {r: len(v) for r, v in mismatches.items()} }"
        )
    _READING_CACHE.update(
        result=survivors[0], max_n=max_n, mismatches=mismatches
    )
    return survivors[0]


# ---------------------------------------------------------------------------
# general diagonal cycle type: downward recurrences
#
# Only even defects n + 1 - l(lambda) - k are filled, in increasing
# order.  The sign of s * pi^-1 forces the defect to be even, and both
# recurrence inputs sit at a defect smaller by an even amount: raising k
# by 2j, or refining the diagonal type into 2j more parts at fixed k.  So
# an odd-defect entry is a sum of zeros; it stays absent and reads as 0.
# Defect-0 entries come from the initial values; negative defect is
# impossible (a plane permutation always satisfies C(pi) + C(D) <= n + 1).

def _weight_p(m: int, k: int, j: int) -> int:
    return m * binom(k + 2 * j - m, 2 * j) + binom(k + 2 * j - m, 2 * j + 1)


def _weight_i(m: int, k: int, j: int) -> int:
    return binom(k + 2 * j - m, 2 * j + 1)


@lru_cache(maxsize=None)
def _split_graph(
    n: int,
) -> dict[tuple[int, ...], tuple[tuple[tuple[tuple[int, ...], int], ...], ...]]:
    """Refinement inputs of the recurrence for every partition lam of n:
    group j - 1 holds each (mu, kappa) with mu a split of one part of lam
    into 2j + 1 >= 3 pieces, so mu has 2j more parts than lam.  Built once
    per n and shared by every m and kind.
    """
    return {
        lam.parts: tuple(
            tuple((mu.parts, kappa) for mu, kappa in splits_of(lam, k))
            for k in range(3, n - lam.length + 2, 2)
        )
        for lam in partitions_of(n)
    }


@lru_cache(maxsize=None)
def _lambda_table(
    n: int, m: int, kind: str, base: str, cap: int | None
) -> dict[tuple[tuple[int, ...], int], int]:
    weight = _weight_p if kind == "p" else _weight_i
    splits = _split_graph(n)
    pairs = [
        (lam, k)
        for lam in partitions_of(n)
        for k in range(n + 1 - lam.length, 0, -2)
    ]
    pairs.sort(key=lambda pk: n + 1 - pk[0].length - pk[1])
    table: dict[tuple[tuple[int, ...], int], int] = {}
    for lam, k in pairs:
        k0 = n + 1 - lam.length
        defect = k0 - k
        if defect == 0:
            table[(lam.parts, k)] = _base_value(lam, m, kind, base, cap)
            continue
        numerator = 0
        j = 1
        while k + 2 * j <= k0:
            w = weight(m, k, j)
            if w:
                numerator += w * table.get((lam.parts, k + 2 * j), 0)
            j += 1
        # a split into 2j + 1 pieces lowers the defect by 2j; past the
        # defect it would be negative, so only the first defect / 2 groups
        for group in splits[lam.parts][:defect // 2]:
            for mu_parts, kappa in group:
                numerator += kappa * table.get((mu_parts, k), 0)
        table[(lam.parts, k)] = exact_div(numerator, defect)
    return table


def _base_value(
    lam: IntegerPartition, m: int, kind: str, base: str, cap: int | None
) -> int:
    n = lam.n
    k0 = n + 1 - lam.length
    if base == "oracle":
        if kind == "p":
            return _oracle.oracle_p(lam, m, k0, cap=cap)
        return _oracle.oracle_i(lam, m, k0, cap=cap)
    lam_factor = _lam_factor(lam, m, kind)
    if not lam_factor[0]:
        return 0
    return sum(
        _boundary_term(lam, mu, m, lam_factor, mu_factor)
        for mu, mu_factor in _boundary_row(n, k0, m, kind)
    )


def _recurrence_table(
    n: int, m: int, kind: str, base: str, cap: int | None
) -> dict[tuple[tuple[int, ...], int], int]:
    """The cached table of one (n, m, kind, base); n and m are checked by
    the caller.
    """
    if base not in ("closed_form", "oracle"):
        raise ValueError(f"base must be closed_form or oracle, got {base!r}")
    # separating 1 and fixing nothing constrain nothing: p at m = 0 and
    # m = 1 and i at m = 0 are one table, cached under (0, "p")
    if m == 0 or (m == 1 and kind == "p"):
        m, kind = 0, "p"
    # only oracle boundary values depend on the cap, so closed-form tables
    # share one cache entry whatever cap was passed
    return _lambda_table(n, m, kind, base, cap if base == "oracle" else None)


def _lambda_value(
    lam: IntegerPartition, m: int, k: int, kind: str, base: str, cap: int | None
) -> int:
    _check_nmk(lam.n, m, k)
    return _recurrence_table(lam.n, m, kind, base, cap).get((lam.parts, k), 0)


def p_lambda(
    lam: IntegerPartition, m: int, k: int, base: BaseValueSource = "closed_form",
    cap: int | None = None,
) -> int:
    """Plane permutations with diagonal cycle type lam whose vertical has
    k cycles separating 1..m, computed by the downward defect recurrence.

    ``base`` picks the defect-0 source: the boundary closed form
    :func:`p_base` ("closed_form", the default at every n; its binomial
    spelling is self-checked against the oracle on first use) or
    exhaustive enumeration ("oracle", an independent check that refuses
    n above ``cap``).
    """
    return _lambda_value(lam, m, k, "p", base, cap)


def i_lambda(
    lam: IntegerPartition, m: int, k: int, base: BaseValueSource = "closed_form",
    cap: int | None = None,
) -> int:
    """Plane permutations with diagonal cycle type lam whose vertical has
    k cycles fixing 1..m, computed by the downward defect recurrence.

    ``base`` is as in :func:`p_lambda`, with :func:`i_base` as the closed
    form.
    """
    return _lambda_value(lam, m, k, "i", base, cap)


# ---------------------------------------------------------------------------
# probabilities and fixed-point statistics

def sep_prob_ncycle(n: int, m: int) -> Fraction:
    """Probability that the product of two uniform n-cycles has 1..m in
    distinct cycles: 1/m! when n - m is odd, with an extra
    2/((m-2)!(n+1-m)(n+m)) otherwise.  Trivially 1 for m <= 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= m <= n:
        raise ValueError(f"m must satisfy 0 <= m <= {n}, got {m}")
    if m <= 1:
        return Fraction(1)
    result = Fraction(1, factorial(m))
    if (n - m) % 2 == 0:
        result += Fraction(2, factorial(m - 2) * (n + 1 - m) * (n + m))
    return result


def iso_prob_ncycle(n: int, m: int) -> Fraction:
    """Probability that the product of two uniform n-cycles fixes each of
    1..m (m < n): 1/(m! * binom(n-1, m)).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= m < n:
        raise ValueError(f"m must satisfy 0 <= m < n, got m={m}, n={n}")
    return Fraction(1, factorial(m) * comb(n - 1, m))


def fixed_point_pair_counts(n: int) -> tuple[int, ...]:
    """Exact pair counts by number of fixed points of the product.

    Entry i is the number of pairs of n-cycles whose product has exactly
    i fixed points; inclusion-exclusion over the counts of pairs fixing
    a prescribed j-subset pointwise.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total_pairs = factorial(n - 1) ** 2
    fixing = []  # fixing[j]: pairs whose product fixes a given j-set pointwise
    for j in range(n):
        fixing.append(exact_div(total_pairs, factorial(j) * comb(n - 1, j)))
    fixing.append(factorial(n - 1))  # product is forced to the identity
    counts = []
    for i in range(n + 1):
        value = 0
        for j in range(i, n + 1):
            term = binom(j, i) * binom(n, j) * fixing[j]
            value += term if (j - i) % 2 == 0 else -term
        if value < 0:
            raise ArithmeticError(f"negative count at i={i}: {value}")
        counts.append(value)
    if sum(counts) != total_pairs:
        raise ArithmeticError("fixed-point counts do not sum to the pair total")
    return tuple(counts)


def fpf_probability(n: int) -> Fraction:
    """Probability that the product of two uniform n-cycles has no fixed
    point.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    result = Fraction(0)
    for j in range(0, n):
        term = Fraction(n, (n - j) * factorial(j))
        result += term if j % 2 == 0 else -term
    last = Fraction(1, factorial(n - 1))
    result += last if n % 2 == 0 else -last
    return result


def fixed_point_moments(n: int) -> tuple[Fraction, Fraction]:
    """(mean, variance) of the number of fixed points in the product of
    two uniform n-cycles.  The mean is n/(n-1); the variance comes from
    the exact distribution.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    counts = fixed_point_pair_counts(n)
    total = factorial(n - 1) ** 2
    mean = Fraction(sum(i * c for i, c in enumerate(counts)), total)
    expected_mean = Fraction(n, n - 1)
    if mean != expected_mean:
        raise ArithmeticError(f"distribution mean {mean} != {expected_mean}")
    second = Fraction(sum(i * i * c for i, c in enumerate(counts)), total)
    return expected_mean, second - expected_mean * expected_mean


def alpha_separated_count(alpha: Composition) -> int:
    """Pairs of n-cycles whose product keeps every cycle inside a single
    block of the composition: (n-1)! * prod(parts!) / (n + 1 - #parts).
    """
    n = alpha.n
    k = alpha.length
    num = factorial(n - 1)
    for part in alpha.parts:
        num *= factorial(part)
    return exact_div(num, n + 1 - k)


# ---------------------------------------------------------------------------
# tables

@dataclass
class CountTable:
    """Exact values indexed by (diagonal cycle type, vertical cycle
    count).  Absent entries are zero; values are arbitrary-precision and
    serialize as decimal strings.
    """

    n: int
    m: int
    kind: str  # "p" (separation) or "i" (isolation)
    source: str  # "closed_form" | "recurrence" | "oracle"
    entries: dict[tuple[IntegerPartition, int], int] = field(default_factory=dict)

    def get(self, lam: IntegerPartition, k: int) -> int:
        return self.entries.get((lam, k), 0)

    def to_json_dict(self) -> dict:
        items = sorted(
            self.entries.items(), key=lambda kv: (kv[0][0].parts, kv[0][1]),
            reverse=True,
        )
        return {
            "n": self.n,
            "m": self.m,
            "kind": self.kind,
            "source": self.source,
            "entries": [
                {"lambda": str(lam), "k": k, "value": str(value)}
                for (lam, k), value in items
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @staticmethod
    def from_json_dict(data: dict) -> "CountTable":
        entries = {}
        for item in data["entries"]:
            key = (IntegerPartition.from_string(item["lambda"]), int(item["k"]))
            entries[key] = int(item["value"])
        return CountTable(
            n=int(data["n"]), m=int(data["m"]), kind=data["kind"],
            source=data["source"], entries=entries,
        )

    @staticmethod
    def from_json(text: str) -> "CountTable":
        return CountTable.from_json_dict(json.loads(text))


def build_count_table(
    n: int,
    m: int,
    kind: str = "p",
    source: str = "recurrence",
    base: BaseValueSource = "closed_form",
    cap: int | None = None,
) -> CountTable:
    """Materialise the full (lambda, k) table for one (n, m).

    ``source="recurrence"`` reads the recurrence table behind
    :func:`p_lambda` / :func:`i_lambda`, built with the given ``base``
    (closed-form boundary values by default);
    ``source="oracle"`` reads every entry off the enumeration.  ``cap``
    bounds enumeration only.
    """
    if kind not in ("p", "i"):
        raise ValueError(f"kind must be 'p' or 'i', got {kind!r}")
    if source not in ("recurrence", "oracle"):
        raise ValueError(f"source must be 'recurrence' or 'oracle', got {source!r}")
    if source == "oracle":
        value_of = partial(_oracle.oracle_p if kind == "p" else _oracle.oracle_i, cap=cap)
    else:
        # one checked read of the cached table, not one query per entry
        _check_nm(n, m)
        table = _recurrence_table(n, m, kind, base, cap)
        value_of = lambda lam, m, k: table.get((lam.parts, k), 0)
    entries: dict[tuple[IntegerPartition, int], int] = {}
    for lam in partitions_of(n):
        for k in range(1, n + 1):
            value = value_of(lam, m, k)
            if value:
                entries[(lam, k)] = value
    return CountTable(n=n, m=m, kind=kind, source=source, entries=entries)
