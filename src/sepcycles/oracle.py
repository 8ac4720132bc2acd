"""Exhaustive ground truth at desk scale.

Every closed form and recurrence in :mod:`sepcycles.counting` is checked
against counts obtained here by brute force: enumerate all (n-1)!
n-cycle upper horizontals s and all n! verticals pi, classify each pair
by the cycle type of the diagonal s * pi^-1, the cycle type of pi, and
the largest prefixes of [n] that pi separates / fixes.

One pass per n visits every one of the (n-1)! * n! pairs; there is no
conjugacy-class or other symmetry shortcut, so the census stays an
independent check.  Permutations are ``bytes`` images: for a fixed
vertical, the diagonal with each horizontal is one ``bytes.translate``
of pi^-1 through that horizontal, and a table built once per n maps the
result to a small int standing for its (cycle type, valid-cut mask).
The verticals that are n-cycles give exactly the products of two
n-cycles, so the alpha (block-separation) census is their slice of the
same pass.  Queries read the cached census through an index by diagonal
type.

The enumeration is exact or it refuses: queries above the configured cap
(default 7, hard maximum 9 -- the n = 9 census is a multi-hour run) raise
:class:`OracleCapError`.  There is no sampling fallback.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import permutations as _all_arrangements
from math import factorial
from operator import lt

from .partitions import Composition, IntegerPartition

DEFAULT_CAP = 7
HARD_CAP = 9


class OracleCapError(ValueError):
    """Enumeration refused: n exceeds the active cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(
            f"oracle refuses n={n}: cap is {cap} "
            f"(pass cap=, hard maximum {HARD_CAP})"
        )
        self.n = n
        self.cap = cap


def _check_cap(n: int, cap: int | None) -> None:
    limit = DEFAULT_CAP if cap is None else cap
    if limit > HARD_CAP:
        raise ValueError(f"cap {limit} exceeds the hard maximum {HARD_CAP}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > limit:
        raise OracleCapError(n, limit)


# ---------------------------------------------------------------------------
# internal enumeration (0-based images as bytes)

@lru_cache(maxsize=None)
def _n_cycles0(n: int) -> tuple[tuple[int, ...], ...]:
    """All n-cycles on {0..n-1} as image tuples, tails in lex order."""
    if n == 1:
        return ((0,),)
    out = []
    for tail in _all_arrangements(range(1, n)):
        images = [0] * n
        prev = 0
        for x in tail:
            images[prev] = x
            prev = x
        images[prev] = 0
        out.append(tuple(images))
    return tuple(out)


def _type_and_cut_mask(q: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(non-increasing cycle type, valid-cut bitmask) of q.

    Cut t (1 <= t <= n-1, bit t-1) is valid when no cycle of q has
    members on both sides of the [1..t] | [t+1..n] divide.
    """
    n = len(q)
    seen = [False] * n
    lengths = []
    blocked = 0
    for start in range(n):
        if seen[start]:
            continue
        # every smaller point sits in an earlier cycle, so start is the
        # least member of this one
        hi = start
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            length += 1
            if x > hi:
                hi = x
            x = q[x]
        lengths.append(length)
        # cuts strictly inside [start, hi] are blocked by this cycle
        blocked |= ((1 << hi) - 1) & ~((1 << start) - 1)
    lengths.sort(reverse=True)
    return tuple(lengths), ((1 << (n - 1)) - 1) & ~blocked


@lru_cache(maxsize=None)
def _perm_keys(n: int) -> tuple[dict[bytes, int], tuple[tuple[tuple[int, ...], int], ...]]:
    """Key every permutation of S_n by its (cycle type, valid-cut mask).

    Returns the map from ``bytes`` image to key and the reverse table
    from key to that pair.
    """
    key_of: dict[bytes, int] = {}
    index: dict[tuple[tuple[int, ...], int], int] = {}
    for p in _all_arrangements(range(n)):
        key_of[bytes(p)] = index.setdefault(_type_and_cut_mask(p), len(index))
    return key_of, tuple(index)


def _vertical_stats(p: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
    """(cycle type, largest separated prefix, largest fixed prefix) of p."""
    n = len(p)
    cid = [-1] * n
    lengths = []
    for start in range(n):
        if cid[start] >= 0:
            continue
        label = len(lengths)
        length = 0
        x = start
        while cid[x] < 0:
            cid[x] = label
            length += 1
            x = p[x]
        lengths.append(length)
    lengths.sort(reverse=True)
    smax = 0
    seen_cycles: set[int] = set()
    for x in range(n):
        if cid[x] in seen_cycles:
            break
        seen_cycles.add(cid[x])
        smax += 1
    imax = 0
    for x in range(n):
        if p[x] != x:
            break
        imax += 1
    return tuple(lengths), smax, imax


def _inverse_bytes(p: tuple[int, ...]) -> bytes:
    inv = bytearray(len(p))
    for i, v in enumerate(p):
        inv[v] = i
    return bytes(inv)


def _translate_table(images) -> bytes:
    """A permutation's image padded to the 256 bytes ``translate`` needs."""
    table = bytes(images)
    return table + bytes(256 - len(table))


CensusKey = tuple[tuple[int, ...], tuple[int, ...], int, int]


def _pair_pass(n: int, lo: int, hi: int | None) -> tuple[dict[CensusKey, int], dict[int, int]]:
    """Census and alpha census over all verticals x a slice of the
    n-cycle enumeration.

    Census key: (diagonal cycle type, vertical cycle type, largest
    separated prefix, largest fixed prefix).  Alpha key: the valid-cut
    mask of the diagonal, over the n-cycle verticals only -- as pi runs
    over the n-cycles so does pi^-1, so s * pi^-1 runs over all products
    of two n-cycles.  Summing disjoint slices reproduces both full
    censuses exactly.
    """
    key_of, decode = _perm_keys(n)
    get_key = key_of.__getitem__
    tables = [_translate_table(s) for s in _n_cycles0(n)[lo:hi]]
    by_vertical: defaultdict[tuple[tuple[int, ...], int, int], Counter[int]] = defaultdict(Counter)
    for p in _all_arrangements(range(n)):
        # diagonal s * pi^-1 for every horizontal s: pi^-1 read through s
        by_vertical[_vertical_stats(p)].update(
            map(get_key, map(_inverse_bytes(p).translate, tables))
        )
    ncycle = (n,)
    census: dict[CensusKey, int] = {}
    alpha: dict[int, int] = {}
    for (mu, smax, imax), counts in by_vertical.items():
        for key, cnt in counts.items():
            lam, mask = decode[key]
            ckey = (lam, mu, smax, imax)
            census[ckey] = census.get(ckey, 0) + cnt
            if mu == ncycle:
                alpha[mask] = alpha.get(mask, 0) + cnt
    return census, alpha


def _census_slice(n: int, lo: int, hi: int | None) -> dict[CensusKey, int]:
    """The census over verticals x a slice of the n-cycle enumeration."""
    return _pair_pass(n, lo, hi)[0]


@lru_cache(maxsize=None)
def _pair_census(n: int) -> tuple[dict[CensusKey, int], dict[int, int]]:
    return _pair_pass(n, 0, None)


# _census and _alpha_census keep caches of their own so that each census
# still reports its own cache misses (benchmarks/tracing.py reads them).
@lru_cache(maxsize=None)
def _census(n: int) -> dict[CensusKey, int]:
    return _pair_census(n)[0]


@lru_cache(maxsize=None)
def _alpha_census(n: int) -> dict[int, int]:
    """Counts of pairs of n-cycles by the bitmask of valid cut points of
    their product: the n-cycle-vertical slice of the single pair pass.

    A product is alpha-separated exactly when every internal boundary of
    alpha is a valid cut.
    """
    return _pair_census(n)[1]


@lru_cache(maxsize=None)
def _census_stratified(n: int) -> dict[tuple[tuple[int, ...], int, int, int], int]:
    """Census keyed by (diagonal type, vertical cycle count, largest
    separated prefix, exceedance count of the pair).

    Exceedances depend on the actual sequence order of the horizontal,
    so every pair carries its own statistic; intended for n <= 6.
    """
    key_of, decode = _perm_keys(n)
    get_key = key_of.__getitem__
    verticals = []
    for p in _all_arrangements(range(n)):
        mu, smax, _ = _vertical_stats(p)
        verticals.append((_inverse_bytes(p), bytes(p), len(mu), smax))
    counts: Counter[tuple[int, int, int, int]] = Counter()
    for tail in _all_arrangements(range(1, n)):
        seq = (0, *tail)
        pos = bytearray(n)
        nxt = bytearray(n)  # the horizontal as a permutation
        for idx, x in enumerate(seq):
            pos[x] = idx
            nxt[x] = seq[(idx + 1) % n]
        nxt_t = _translate_table(nxt)
        pos_b = bytes(pos)
        pos_t = _translate_table(pos)
        # diagonal = nxt after pi^-1; exceedances: pos[x] < pos[pi(x)]
        counts.update(
            (get_key(pinv.translate(nxt_t)), k, smax, sum(map(lt, pos_b, p.translate(pos_t))))
            for pinv, p, k, smax in verticals
        )
    census: dict[tuple[tuple[int, ...], int, int, int], int] = {}
    for (key, k, smax, a), cnt in counts.items():
        ckey = (decode[key][0], k, smax, a)
        census[ckey] = census.get(ckey, 0) + cnt
    return census


@lru_cache(maxsize=None)
def _census_index(n: int) -> dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int, int, int], ...]]:
    """The census grouped by diagonal type: lam -> ((mu, smax, imax, count), ...)."""
    index: dict[tuple[int, ...], list] = {}
    for (lam, mu, smax, imax), cnt in _census(n).items():
        index.setdefault(lam, []).append((mu, smax, imax, cnt))
    return {lam: tuple(rows) for lam, rows in index.items()}


def _rows(lam: IntegerPartition) -> tuple[tuple[tuple[int, ...], int, int, int], ...]:
    return _census_index(lam.n).get(lam.parts, ())


# ---------------------------------------------------------------------------
# public queries

def oracle_p(lam: IntegerPartition, m: int, k: int, cap: int | None = None) -> int:
    """Pairs (s, pi), s an n-cycle, with diagonal s*pi^-1 of cycle type
    lam, pi having k cycles and 1..m in distinct cycles of pi.
    """
    n = lam.n
    _check_cap(n, cap)
    _check_m(n, m)
    return sum(cnt for mu, smax, _, cnt in _rows(lam) if len(mu) == k and smax >= m)


def oracle_i(lam: IntegerPartition, m: int, k: int, cap: int | None = None) -> int:
    """As :func:`oracle_p` but with 1..m required to be fixed points."""
    n = lam.n
    _check_cap(n, cap)
    _check_m(n, m)
    return sum(cnt for mu, _, imax, cnt in _rows(lam) if len(mu) == k and imax >= m)


def oracle_p_by_vertical_type(
    lam: IntegerPartition, mu: IntegerPartition, m: int, cap: int | None = None
) -> int:
    """Separation count restricted to verticals of exact cycle type mu."""
    n = lam.n
    _check_cap(n, cap)
    _check_m(n, m)
    v_target = mu.parts
    return sum(cnt for v, smax, _, cnt in _rows(lam) if v == v_target and smax >= m)


def oracle_i_by_vertical_type(
    lam: IntegerPartition, mu: IntegerPartition, m: int, cap: int | None = None
) -> int:
    """Isolation count restricted to verticals of exact cycle type mu."""
    n = lam.n
    _check_cap(n, cap)
    _check_m(n, m)
    v_target = mu.parts
    return sum(cnt for v, _, imax, cnt in _rows(lam) if v == v_target and imax >= m)


def oracle_p_stratified(
    lam: IntegerPartition, m: int, k: int, cap: int | None = None
) -> dict[int, int]:
    """Separation counts split by the exceedance count of the pair.

    The values sum to ``oracle_p(lam, m, k)``.
    """
    n = lam.n
    _check_cap(n, cap)
    _check_m(n, m)
    target = lam.parts
    out: dict[int, int] = {}
    for (d, kk, smax, a), cnt in _census_stratified(n).items():
        if d == target and kk == k and smax >= m:
            out[a] = out.get(a, 0) + cnt
    return out


def oracle_fixed_point_distribution(n: int, cap: int | None = None) -> dict[int, int]:
    """For each i, the number of pairs of n-cycles whose product has
    exactly i fixed points, keys in decreasing order.  Values sum to
    ((n-1)!)^2.
    """
    _check_cap(n, cap)
    out: dict[int, int] = {}
    for mu, _, _, cnt in _census_index(n).get((n,), ()):
        fixed = mu.count(1)
        out[fixed] = out.get(fixed, 0) + cnt
    return dict(sorted(out.items(), reverse=True))


def oracle_alpha(alpha: Composition, cap: int | None = None) -> int:
    """Pairs of n-cycles whose product keeps every cycle inside a single
    block of the composition.
    """
    n = alpha.n
    _check_cap(n, cap)
    required = 0
    for t in alpha.boundaries():
        required |= 1 << (t - 1)
    return sum(
        cnt for mask, cnt in _alpha_census(n).items() if mask & required == required
    )


def pair_count(n: int) -> int:
    """Total number of enumerated pairs: (n-1)! * n!."""
    return factorial(n - 1) * factorial(n)


def _check_m(n: int, m: int) -> None:
    if not 0 <= m <= n:
        raise ValueError(f"m must satisfy 0 <= m <= {n}, got {m}")
