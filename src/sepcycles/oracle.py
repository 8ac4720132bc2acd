"""Exhaustive ground truth at desk scale.

Every closed form and recurrence in :mod:`sepcycles.counting` is checked
against counts obtained here by brute force: enumerate all (n-1)!
n-cycle upper horizontals s and all n! verticals pi, classify each pair
by the cycle type of the diagonal s * pi^-1, the cycle type of pi, and
the largest prefixes of [n] that pi separates / fixes.

One unsliced, cached pass per n visits every one of the (n-1)! * n!
pairs; there is no conjugacy-class or other symmetry shortcut, so the
census stays an independent check.  Permutations are ``bytes`` images,
each walked once: a table built once per n keys it by (cycle type,
valid-cut mask, largest separated prefix, largest fixed prefix).  The
pass walks pi^-1 through S_n by adjacent swaps (Steinhaus-Johnson-Trotter
order) and holds the ranks of its (n-1)! diagonals, one per horizontal;
a swap moves every diagonal to a known rank, so each step reads the next
ranks and the diagonals' keys out of tables built once per pass, and
counts every key.  A vertical is read off the keyed table by its type
and prefixes, a diagonal by its type and mask.
Cycle walks, inverses and the n-cycle enumeration come from the 0-based
kernel in :mod:`sepcycles.perm`; the oracle imports nothing else from
the package but :mod:`sepcycles.partitions`, and never the counting it
checks.
The verticals that are n-cycles give exactly the products of two
n-cycles, so the alpha (block-separation) census is a view of their
slice of the same pass.  Queries read the cached census through an
index by diagonal type.

The enumeration is exact or it refuses: queries above the configured cap
(default 7, hard maximum 9 -- the n = 9 census has 72 times the pairs of
the n = 8 one) raise
:class:`OracleCapError`.  There is no sampling fallback.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import chain, cycle, repeat
from itertools import permutations as _all_arrangements
from math import factorial
from operator import add, itemgetter, lt
from struct import pack

from .partitions import Composition, IntegerPartition
from .perm import (
    cycle_type0,
    cycles0,
    fixed_prefix,
    inverse0,
    n_cycles0,
    separated_prefix,
    valid_cut_mask,
)

DEFAULT_CAP = 7
HARD_CAP = 9


class OracleCapError(ValueError):
    """Enumeration refused: n exceeds the active cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(
            f"oracle refuses n={n}: cap is {cap} "
            f"(raise it with --cap or cap=, hard maximum {HARD_CAP})"
        )
        self.n = n
        self.cap = cap


def active_cap(cap: int | None) -> int:
    """The cap in force: ``cap``, or the default when None.  A cap below
    1 (it would refuse every n) or above the hard maximum raises
    :class:`ValueError`.
    """
    limit = DEFAULT_CAP if cap is None else cap
    if limit < 1:
        raise ValueError(f"cap {limit} is below 1: it would refuse every n")
    if limit > HARD_CAP:
        raise ValueError(f"cap {limit} exceeds the hard maximum {HARD_CAP}")
    return limit


def _check_cap(n: int, cap: int | None) -> None:
    limit = active_cap(cap)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > limit:
        raise OracleCapError(n, limit)


# ---------------------------------------------------------------------------
# internal enumeration (0-based images as bytes)

PermStats = tuple[tuple[int, ...], int, int, int]


@lru_cache(maxsize=None)
def _perm_keys(n: int) -> tuple[dict[bytes, int], tuple[PermStats, ...]]:
    """Key every permutation of S_n by (cycle type, valid-cut mask,
    largest separated prefix, largest fixed prefix), all read off one
    cycle walk.

    Returns the map from ``bytes`` image to key and the reverse table
    from key to those statistics.
    """
    key_of: dict[bytes, int] = {}
    index: dict[PermStats, int] = {}
    for p in _all_arrangements(range(n)):
        cycles = cycles0(p)
        stats = (cycle_type0(cycles), valid_cut_mask(cycles),
                 separated_prefix(cycles), fixed_prefix(cycles))
        key_of[bytes(p)] = index.setdefault(stats, len(index))
    return key_of, tuple(index)


def _translate_table(images) -> bytes:
    """A permutation's image padded to the 256 bytes ``translate`` needs."""
    table = bytes(images)
    return table + bytes(256 - len(table))


def _adjacent_swaps(n: int) -> bytes:
    """Steinhaus-Johnson-Trotter order: the n! - 1 positions i at which
    swapping places i and i+1, step after step, takes the identity
    arrangement of range(n) through every arrangement exactly once.

    The largest point sweeps from the last place to the first and back,
    one arrangement per step; between sweeps the other points take one
    step of the order for n - 1, shifted past the largest point when it
    stands first.
    """
    swaps = b""
    for m in range(2, n + 1):
        leftward, rightward = bytes(range(m - 2, -1, -1)), bytes(range(m - 1))
        order = bytearray(leftward)
        for k, i in enumerate(swaps):
            if k % 2:
                order.append(i)
                order += leftward
            else:
                order.append(i + 1)
                order += rightward
        swaps = bytes(order)
    return swaps


def _index_table(entries, size: int) -> memoryview:
    """Entries in 0..size-1, packed two bytes each (four past 65536) so
    that the table holds no int objects, read back as ints."""
    code = "H" if size <= 1 << 16 else "I"
    entries = tuple(entries)
    return memoryview(pack(f"{len(entries)}{code}", *entries)).cast(code)


def _swap_ranks(n: int, i: int) -> memoryview:
    """Entry r: the rank, in the lexicographic order of ``_perm_keys``,
    of arrangement r with places i and i+1 swapped.

    Rank r has Lehmer digits c_j (the number of later entries smaller
    than entry j) of weight (n-1-j)!.  The swap changes only digits (a, b) = (c_i, c_{i+1}): to
    (b + 1, a) where a <= b (an ascent), to (b, a - 1) otherwise.  The
    change of rank therefore repeats with period (n-i)!, constant on runs
    of (n-2-i)! ranks.
    """
    low = factorial(n - 2 - i)
    high = (n - 1 - i) * low
    steps = []
    for a in range(n - i):
        for b in range(n - 1 - i):
            new_a, new_b = (b + 1, a) if a <= b else (b, a - 1)
            steps.append((new_a - a) * high + (new_b - b) * low)
    size = factorial(n)
    period = chain.from_iterable(repeat(step, low) for step in steps)
    return _index_table(map(add, range(size), cycle(period)), size)


CensusKey = tuple[tuple[int, ...], tuple[int, ...], int, int]


@lru_cache(maxsize=None)
def _pair_pass(n: int) -> tuple[dict[CensusKey, int], dict[int, int]]:
    """Census and alpha census over all verticals x all n-cycle
    horizontals, in one pass.

    Census key: (diagonal cycle type, vertical cycle type, largest
    separated prefix, largest fixed prefix).  Alpha key: the valid-cut
    mask of the diagonal, over the n-cycle verticals only -- as pi runs
    over the n-cycles so does pi^-1, so s * pi^-1 runs over all products
    of two n-cycles.

    The walk runs q = pi^-1 through S_n by adjacent swaps
    (:func:`_adjacent_swaps`) and holds the ranks of the (n-1)! diagonals
    s * q, one per horizontal.  Swapping places i, i+1 of q sends every
    diagonal d to d * (i i+1), so the next ranks and their keys are two
    gathers, through one ``itemgetter`` of the current ranks, from tables
    built once per pass.  Every diagonal key is counted; q and pi share
    their key, which depends on the cycles as point sets only.
    """
    key_of, decode = _perm_keys(n)
    keys = _index_table(key_of.values(), len(decode))  # by rank
    ranks_at = [_swap_ranks(n, i) for i in range(n - 1)]
    keys_at = [_index_table(map(keys.__getitem__, swapped), len(decode)) for swapped in ranks_at]
    vertical_of = [(mu, smax, imax) for mu, _, smax, imax in decode]
    ncycle = (n,)
    # q = identity (rank 0): the diagonals are the horizontals themselves
    rho = tuple(r for r, key in enumerate(keys) if decode[key][0] == ncycle)
    # itemgetter with one index returns the item, not a 1-tuple (n <= 2)
    gather = itemgetter if len(rho) > 1 else (lambda r: lambda table: (table[r],))
    step = gather(*rho)
    by_vertical: defaultdict[tuple[tuple[int, ...], int, int], Counter[int]] = defaultdict(Counter)
    q = 0
    by_vertical[vertical_of[keys[q]]].update(step(keys))
    for i in _adjacent_swaps(n):
        q = ranks_at[i][q]
        by_vertical[vertical_of[keys[q]]].update(step(keys_at[i]))
        step = gather(*step(ranks_at[i]))
    del keys, ranks_at, keys_at, step
    census: dict[CensusKey, int] = {}
    alpha: dict[int, int] = {}
    for (mu, smax, imax), counts in by_vertical.items():
        for key, cnt in counts.items():
            lam, mask, _, _ = decode[key]
            ckey = (lam, mu, smax, imax)
            census[ckey] = census.get(ckey, 0) + cnt
            if mu == ncycle:
                alpha[mask] = alpha.get(mask, 0) + cnt
    return census, alpha


# _census keeps a cache of its own so that it still reports its own cache
# misses (benchmarks/tracing.py counts the enumerated pairs on them).
@lru_cache(maxsize=None)
def _census(n: int) -> dict[CensusKey, int]:
    return _pair_pass(n)[0]


def _alpha_census(n: int) -> dict[int, int]:
    """Counts of pairs of n-cycles by the bitmask of valid cut points of
    their product: the n-cycle-vertical slice of the single pair pass.

    A product is alpha-separated exactly when every internal boundary of
    alpha is a valid cut.
    """
    return _pair_pass(n)[1]


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
    for p, key in key_of.items():
        mu, _, smax, _ = decode[key]
        verticals.append((bytes(inverse0(p)), p, len(mu), smax))
    counts: Counter[tuple[int, int, int, int]] = Counter()
    for nxt in n_cycles0(n):
        pos = inverse0(cycles0(nxt)[0])  # place of each point in the sequence
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
