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
  at every n.  Nothing here enumerates: this module imports neither
  :mod:`sepcycles.oracle` nor :mod:`sepcycles.verify`, which check it.
* Every division is exact and checked; a remainder raises
  :class:`ArithmeticError` instead of rounding.
* Probabilities and moments are :class:`fractions.Fraction` values,
  always in lowest terms.  No floating point enters the core.
* ``binom(a, 0) = 1`` for every a, and ``binom(a, b) = 0`` whenever
  b < 0, a < b, or a < 0 < b; empty sums truncate silently.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .partitions import (
    Composition,
    IntegerPartition,
    partitions_of,
    partitions_with_length,
)


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

@lru_cache(maxsize=None)
def _separating_row(n: int, m: int) -> tuple[int, ...]:
    """Entries k = 0..n of :func:`c_sep` at (n, m), the coefficients of
    x^m (x + m)(x + m + 1) ... (x + n - 1): 1..m start m cycles, then each
    element j + 1 > m opens a cycle or follows one of the j placed ones."""
    row = (0,) * m + (1,)
    for j in range(m, n):
        # times (x + j): c(j + 1, k) = c(j, k - 1) + j * c(j, k)
        row = (0, *(a + j * b for a, b in zip(row, (*row[1:], 0))))
    return row


def stirling_c(n: int, k: int) -> int:
    """Signless Stirling number of the first kind: permutations of [n]
    with k cycles.
    """
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be >= 0, got {n}, {k}")
    return _separating_row(n, 0)[k] if k <= n else 0


def c_sep(n: int, k: int, m: int) -> int:
    """Permutations of [n] with k cycles and 1..m in distinct cycles: the
    coefficient of x^k in x^m (x + m)(x + m + 1) ... (x + n - 1), one
    cached row per (n, m).  At m = 0 it is :func:`stirling_c`.
    """
    _check_km(n, k, m)
    return _separating_row(n, m)[k] if k <= n else 0


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
    (t-1)! (n-t)! m! (n-m)! binom(b1, m) / (prod mult_lam! prod mult_mu!)
    with t = l(lam) and b1 the unit parts of mu.

    The m-set weight binom(b1, m) counts the m-sets that a vertical of
    type mu fixes; :func:`p_base` says why the formula holds.
    """
    _check_base_pair(lam, mu, m)
    return _boundary_term(lam, mu, m, _lam_factor(lam, m), _mu_factor(mu, m, "i"))


def p_base(lam: IntegerPartition, mu: IntegerPartition, m: int) -> int:
    """Plane permutations with diagonal type lam and vertical of exact
    type mu separating 1..m, on the boundary l(lam) + l(mu) = n + 1:
    (t-1)! (n-t)! m! (n-m)! e_m(mu) / (prod mult_lam! prod mult_mu!)
    with t = l(lam) and e_m(mu) the m-th elementary symmetric polynomial
    of mu's parts.

    At m = 0 this is Goulden and Jackson's genus-0 count: (t-1)! (d-1)!
    n! / (prod mult_lam! prod mult_mu!) pairs of an n-cycle s and a pi
    of type mu with s * pi^-1 of type lam, where d = l(mu) = n + 1 - t.
    Conjugating s and pi by one permutation keeps both types and moves
    1..m onto every m-set equally often, so count(m) binom(n, m) is
    count(0) times the m-sets that a vertical of type mu separates: one
    element from each of m cycles, e_m(mu) ways.
    """
    _check_base_pair(lam, mu, m)
    return _boundary_term(lam, mu, m, _lam_factor(lam, m), _mu_factor(mu, m, "p"))


# A boundary value is (lam part) * (mu part), one exact division.  On the
# boundary l(mu) = n + 1 - l(lam) is fixed, so the lam part is shared by
# every mu of one boundary row and the mu part by every lam of that length.

def _lam_factor(lam: IntegerPartition, m: int) -> tuple[int, int]:
    """The factor (numerator, denominator) of a boundary value that
    depends on the diagonal type only, the same for both kinds.
    """
    n, t = lam.n, lam.length
    num = factorial(t - 1) * factorial(n - t) * factorial(m) * factorial(n - m)
    return num, prod(map(factorial, lam.multiplicities().values()))


def _mu_factor(mu: IntegerPartition, m: int, kind: str) -> tuple[int, int]:
    """The factor (numerator, denominator) of a boundary value that
    depends on the vertical type only: the m-set weight, e_m(mu) for
    ``p`` or binom(b1, m) for ``i``, over the multiplicity factorials.
    """
    mult = mu.multiplicities()
    if kind == "i":
        weight = binom(mult.get(1, 0), m)
    else:
        # coefficients of x^0..x^m in prod (1 + part x)
        coefficients = [1] + [0] * m
        for part in mu.parts:
            for i in range(m, 0, -1):
                coefficients[i] += part * coefficients[i - 1]
        weight = coefficients[m]
    return weight, prod(map(factorial, mult.values()))


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
    row = []
    for mu in partitions_with_length(n, d):
        factor = _mu_factor(mu, m, kind)
        if factor[0]:
            row.append((mu, factor))
    return tuple(row)


def _check_base_pair(lam: IntegerPartition, mu: IntegerPartition, m: int) -> None:
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


# ---------------------------------------------------------------------------
# general diagonal cycle type: downward recurrences
#
# Each diagonal type lambda has one row, indexed by defect / 2, where the
# defect is n + 1 - l(lambda) - k, filled in increasing order.  The sign
# of s * pi^-1 forces the defect to be even, and both recurrence inputs
# sit at a defect smaller by an even amount: raising k by 2j, or refining
# the diagonal type into 2j more parts at fixed k.  So an odd-defect
# entry is a sum of zeros, and a row has no place for it.  Entry 0 comes
# from the initial values; negative defect is impossible (a plane
# permutation always satisfies C(pi) + C(D) <= n + 1).

def _weight_p(m: int, k: int, j: int) -> int:
    return m * binom(k + 2 * j - m, 2 * j) + binom(k + 2 * j - m, 2 * j + 1)


def _weight_i(m: int, k: int, j: int) -> int:
    return binom(k + 2 * j - m, 2 * j + 1)


@lru_cache(maxsize=None)
def _split_graph(
    n: int,
) -> dict[tuple[int, ...], tuple[tuple[tuple[tuple[int, ...], int], ...], ...]]:
    """Refinement inputs of the recurrence for every partition lam of n:
    group j - 1 holds each (mu, kappa), in decreasing order of mu, with mu
    a split of one part of lam into k = 2j + 1 >= 3 pieces, so mu has 2j
    more parts than lam.  Built once per n and shared by every m and kind.

    Splitting the part v of lam into the pieces q gives
    mu = (lam - {v}) + q.  Every piece is smaller than v, so v is the one
    value that mu holds fewer times than lam, and mu fixes both v and q.
    The merge multiplicity kappa counts the ways to choose k parts of mu,
    equal parts distinguished, that merge back to lam: they must be the
    pieces q, so kappa = prod_x binom(mult_mu(x), mult_q(x)).

    >>> _split_graph(4)[(3, 1)]
    ((((1, 1, 1, 1), 4),),)
    """
    graph = {}
    for lam in partitions_of(n):
        groups = []
        for k in range(3, n - lam.length + 2, 2):
            group = []
            for v in set(lam.parts):
                rest = list(lam.parts)
                rest.remove(v)
                for q in partitions_with_length(v, k):
                    mu = tuple(sorted(rest + list(q.parts), reverse=True))
                    kappa = prod(comb(mu.count(x), c) for x, c in q.multiplicities().items())
                    group.append((mu, kappa))
            groups.append(tuple(sorted(group, reverse=True)))
        graph[lam.parts] = tuple(groups)
    return graph


@lru_cache(maxsize=None)
def _lambda_table(n: int, m: int, kind: str) -> dict[tuple[int, ...], list[int]]:
    """One row per diagonal type lam (keyed by its parts): entry h is the
    value at defect 2h, k = n + 1 - l(lam) - 2h >= 1.  The rows grow
    together from the boundary values, one defect at a time; entry h reads
    entries h - j of lam's row (k + 2j) and of its splits into 2j more
    parts (same k)."""
    weight = _weight_p if kind == "p" else _weight_i
    splits = _split_graph(n)
    rows = {lam.parts: [_base_value(lam, m, kind)] for lam in partitions_of(n)}
    for h in range(1, (n + 1) // 2):
        for lam, row in rows.items():
            k = n + 1 - len(lam) - 2 * h
            if k < 1:
                continue
            numerator = sum(weight(m, k, j) * row[h - j] for j in range(1, h + 1))
            # a split into 2j + 1 pieces lowers the defect by 2j; past the
            # defect it would be negative, so only the first h groups
            for j, group in enumerate(splits[lam][:h], 1):
                numerator += sum(kappa * rows[mu][h - j] for mu, kappa in group)
            row.append(exact_div(numerator, 2 * h))
    return rows


def _base_value(lam: IntegerPartition, m: int, kind: str) -> int:
    """The defect-0 entry: the boundary values summed over every vertical
    type mu of length n + 1 - l(lam)."""
    k0 = lam.n + 1 - lam.length
    lam_factor = _lam_factor(lam, m)
    return sum(
        _boundary_term(lam, mu, m, lam_factor, mu_factor)
        for mu, mu_factor in _boundary_row(lam.n, k0, m, kind)
    )


def _recurrence_table(n: int, m: int, kind: str) -> dict[tuple[int, ...], list[int]]:
    """The cached table of one (n, m, kind); n and m are checked by the
    caller.
    """
    # separating 1 and fixing nothing constrain nothing: p at m = 0 and
    # m = 1 and i at m = 0 are one table, cached under (0, "p")
    if m == 0 or (m == 1 and kind == "p"):
        m, kind = 0, "p"
    return _lambda_table(n, m, kind)


def _check_base(base: str) -> None:
    """The closed-form boundary values are the only base; enumerated
    counts come from the oracle itself."""
    if base != "closed_form":
        raise ValueError(
            f"base must be closed_form, got {base!r}; enumerated counts come from "
            f"sepcycles.oracle (CLI: --source oracle or --table-source oracle)"
        )


def _lambda_value(lam: IntegerPartition, m: int, k: int, kind: str) -> int:
    _check_nmk(lam.n, m, k)
    defect = lam.n + 1 - lam.length - k  # odd or negative: no entry, 0
    row = _recurrence_table(lam.n, m, kind)[lam.parts]
    return row[defect // 2] if defect >= 0 and defect % 2 == 0 else 0


def p_lambda(lam: IntegerPartition, m: int, k: int, base: str = "closed_form") -> int:
    """Plane permutations with diagonal cycle type lam whose vertical has
    k cycles separating 1..m, computed by the downward defect recurrence
    from the boundary closed form :func:`p_base`; it never enumerates.

    ``base`` accepts only "closed_form", the one boundary-value source.
    """
    _check_base(base)
    return _lambda_value(lam, m, k, "p")


def i_lambda(lam: IntegerPartition, m: int, k: int, base: str = "closed_form") -> int:
    """Plane permutations with diagonal cycle type lam whose vertical has
    k cycles fixing 1..m, computed by the downward defect recurrence from
    the boundary closed form :func:`i_base`.  ``base`` is as in
    :func:`p_lambda`.
    """
    _check_base(base)
    return _lambda_value(lam, m, k, "i")


# ---------------------------------------------------------------------------
# probabilities and fixed-point statistics

def sep_prob_ncycle(n: int, m: int) -> Fraction:
    """Probability that the product of two uniform n-cycles has 1..m in
    distinct cycles: 1/m! when n - m is odd, with an extra
    2/((m-2)!(n+1-m)(n+m)) otherwise.  Trivially 1 for m <= 1.
    """
    _check_nm(n, m)
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
    i fixed points; inclusion-exclusion over F(n, j), the pairs whose
    product fixes a prescribed j-set pointwise: (n-1)! (n-1-j)! for
    j < n (the first n-cycle is free; the j fixed points prescribe the
    second on j arcs of paths, and (n-1-j)! n-cycles extend them), and
    (n-1)! for j = n, where the product is the identity.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cycles = factorial(n - 1)
    total_pairs = cycles * cycles
    fixing = [cycles * factorial(n - 1 - j) for j in range(n)] + [cycles]
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
    """(mean, variance) of the number X of fixed points in the product of
    two uniform n-cycles, read off the fixing counts F(n, j) of
    :func:`fixed_point_pair_counts` over T = ((n-1)!)^2: E[X] =
    n F(n, 1) / T = n/(n-1), and E[X(X-1)] = n(n-1) F(n, 2) / T =
    n/(n-2), or 2 at n = 2, where F(2, 2) counts the identity product.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    mean = Fraction(n, n - 1)
    falling = Fraction(n, n - 2) if n > 2 else Fraction(2)
    return mean, falling + mean - mean * mean


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
    source: str  # "recurrence" (build_count_table) or "oracle" (enumerated)
    entries: dict[tuple[IntegerPartition, int], int] = field(default_factory=dict)

    def get(self, lam: IntegerPartition, k: int) -> int:
        return self.entries.get((lam, k), 0)

    def to_json_dict(self) -> dict:
        items = sorted(
            self.entries.items(), key=lambda kv: (kv[0][0].parts, kv[0][1]),
            reverse=True,
        )
        # one label per diagonal type, not one per entry
        labels = {lam.parts: lam for lam, _ in self.entries}
        labels = {parts: str(lam) for parts, lam in labels.items()}
        return {
            "n": self.n,
            "m": self.m,
            "kind": self.kind,
            "source": self.source,
            "entries": [
                {"lambda": labels[lam.parts], "k": k, "value": str(value)}
                for (lam, k), value in items
            ],
        }

    def to_json(self) -> str:
        return table_json(self.to_json_dict())


def table_json(record: dict) -> str:
    """``json.dumps(record, indent=2)``, byte for byte, for a table
    record: scalars, and under "entries" a list of {"lambda", "k",
    "value"} records in that key order (see :meth:`CountTable.to_json_dict`).

    An indent turns off json's C encoder, so the entries are written here,
    one f-string each with json's own string encoder, and spliced into
    the dump of the rest; the key "entries" occurs once in that dump.
    """
    if not record["entries"]:
        return json.dumps(record, indent=2)
    string = json.encoder.encode_basestring_ascii
    body = ",\n".join(
        f'    {{\n      "lambda": {string(e["lambda"])},\n      "k": {e["k"]},\n'
        f'      "value": {string(e["value"])}\n    }}'
        for e in record["entries"]
    )
    rest = json.dumps({**record, "entries": []}, indent=2)
    return rest.replace('"entries": []', f'"entries": [\n{body}\n  ]', 1)


def build_count_table(n: int, m: int, kind: str = "p", base: str = "closed_form") -> CountTable:
    """Materialise the full (lambda, k) table for one (n, m): every nonzero
    entry of the recurrence table behind :func:`p_lambda` /
    :func:`i_lambda`, read once.  ``base`` is as in :func:`p_lambda`.
    """
    if kind not in ("p", "i"):
        raise ValueError(f"kind must be 'p' or 'i', got {kind!r}")
    _check_base(base)
    _check_nm(n, m)
    table = _recurrence_table(n, m, kind)
    entries: dict[tuple[IntegerPartition, int], int] = {}
    for lam in partitions_of(n):
        k0 = n + 1 - lam.length
        for h, value in enumerate(table[lam.parts]):
            if value:
                entries[(lam, k0 - 2 * h)] = value
    return CountTable(n=n, m=m, kind=kind, source="recurrence", entries=entries)
