"""Exhaustive ground truth at desk scale.

Every closed form and recurrence in :mod:`sepcycles.counting` is checked
against counts obtained here by brute force: enumerate all (n-1)!
n-cycle upper horizontals s and all n! verticals pi, classify each pair
by the cycle type of the diagonal s * pi^-1, the cycle type of pi, and
the largest prefixes of [n] that pi separates / fixes.

One unsliced, cached pass per n visits every one of the (n-1)! * n!
pairs; there is no conjugacy-class or other symmetry shortcut, so the
census stays an independent check.  Each permutation of S_n is walked
once, into a table cached per n that holds its statistics by census id;
each cycle type owns whole pages of 256 ids, so an id's high byte names
its type.  The pass walks pi^-1 through S_n by adjacent swaps
(Steinhaus-Johnson-Trotter order) and holds the ids of its (n-1)!
diagonals, one per horizontal; a swap moves every diagonal to a known
id, so each step gathers the next ids from a table built once per pass
and reads their type ids off their pages.  Each pair then adds one byte,
its diagonal's type id, to a buffer for the vertical's class (cycle type
and prefixes).  A full buffer is counted over the type ids of the parity
its class allows (sign(s * pi^-1) = sign(s) sign(pi)) and emptied; any
other byte raises :class:`ArithmeticError`, so every pair is counted and
the memory stays flat.  The verticals that are n-cycles give exactly the
products of two n-cycles, so the alpha (block-separation) census is
counted on their slice of the same pass, one byte per pair for the
diagonal's cut mask.  The exceedance-stratified census takes the same
walk with one byte per pair for (diagonal type, exceedances), keeping
every horizontal's exceedance count up to date as the vertical moves.
Queries read the cached censuses through indexes.  Cycle walks and
inverses come from the 0-based kernel in :mod:`sepcycles.perm`; the
oracle imports nothing else from the package but
:mod:`sepcycles.partitions`, and never the counting it checks.

The enumeration is exact or it refuses: it stops at ``HARD_CAP`` = 8,
where every census code fits one byte and every id 16 bits.  A query
above it raises :class:`OracleCapError`, and a census pass above it
raises :class:`ValueError`, each before building anything.  No sampling.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, count, cycle, repeat
from itertools import permutations as _all_arrangements
from math import factorial
from operator import add, itemgetter, sub
from struct import Struct
from typing import Callable, Hashable, Iterator, Sequence

from .partitions import Composition, IntegerPartition, partitions_of
from .perm import (
    cycle_type0,
    cycles0,
    fixed_prefix,
    inverse0,
    separated_prefix,
    valid_cut_mask,
)

HARD_CAP = 8


class OracleCapError(ValueError):
    """Enumeration refused: n exceeds the census's hard maximum."""

    def __init__(self, n: int):
        super().__init__(f"oracle refuses n={n}: the census stops at n={HARD_CAP}")
        self.n = n


def _check(n: int, m: int = 0, k: int | None = None) -> None:
    """Refuse a query outside the census before any census is built: n
    outside 1..HARD_CAP, m outside 0..n, k (when given) outside 1..n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > HARD_CAP:
        raise OracleCapError(n)
    if not 0 <= m <= n:
        raise ValueError(f"m must satisfy 0 <= m <= {n}, got {m}")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")


# ---------------------------------------------------------------------------
# internal enumeration (0-based arrangements of range(n), by census id)

PermStats = tuple[tuple[int, ...], int, int, int]


def _cycle_types(n: int) -> tuple[tuple[int, ...], ...]:
    """The cycle types of S_n, indexed by type id, (n,) first.  Both census
    passes start here, so n above ``HARD_CAP``, where a code would not fit
    one byte, is refused before any table is built."""
    if n > HARD_CAP:
        raise ValueError(f"census at n={n} exceeds the hard maximum {HARD_CAP}")
    return tuple(lam.parts for lam in partitions_of(n))


@lru_cache(maxsize=None)
def _ranked(n: int) -> tuple[tuple[PermStats, ...], bytes, tuple[int, ...], bytes]:
    """S_n in census ids: each cycle type fills whole pages of 256 ids in
    lexicographic order, padding its last page with its last arrangement
    (no walk reaches the padding).  By id: (cycle type, valid-cut mask,
    largest separated prefix, largest fixed prefix), read off one cycle
    walk, interned.  Then the page -> type id table for ``bytes.translate``
    (255, a code no class counts, past the last page); the horizontals
    (n-cycles), ids 0 to (n-1)! - 1; and the id of each lexicographic rank
    as 16-bit words."""
    type_id = {lam: t for t, lam in enumerate(_cycle_types(n))}
    interned: dict[PermStats, PermStats] = {}
    members: list[list[PermStats]] = [[] for _ in type_id]  # per type id, in order
    types = bytearray()  # by rank
    for p in _all_arrangements(range(n)):
        cycles = cycles0(p)
        stats = (cycle_type0(cycles), valid_cut_mask(cycles),
                 separated_prefix(cycles), fixed_prefix(cycles))
        types.append(type_id[stats[0]])
        members[types[-1]].append(interned.setdefault(stats, stats))
    by_id = tuple(chain.from_iterable(m + m[-1:] * (-len(m) % 256) for m in members))
    page_type = bytes(type_id[lam] for lam, _, _, _ in by_id[::256]).ljust(256, b"\xff")
    next_id = [count(256 * page_type.index(t)) for t in range(len(members))]
    ids = Struct(f"<{len(types)}H").pack(*map(next, map(next_id.__getitem__, types)))
    return by_id, page_type, tuple(range(len(members[0]))), ids  # type id 0 is (n,)


def _ids_by_rank(n: int) -> tuple[int, ...]:
    """The census id of each lexicographic rank, unpacked from :func:`_ranked`."""
    return Struct(f"<{factorial(n)}H").unpack(_ranked(n)[3])


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


def _swap_ranks(n: int, i: int, labels: Sequence[int]) -> tuple[int, ...]:
    """Entry r: the label of the lexicographic rank of arrangement r with
    places i and i+1 swapped, ``labels`` holding one label per rank
    (``tuple(range(n!))`` for the rank itself), so that every table built
    from one ``labels`` shares its int objects.

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
    period = chain.from_iterable(repeat(step, low) for step in steps)
    return tuple(map(labels.__getitem__, map(add, range(len(labels)), cycle(period))))


def _swap_ids(n: int, i: int, id_of: tuple[int, ...], size: int) -> list[int]:
    """:func:`_swap_ranks` relabelled by census id, 0 at unused ids."""
    table = [0] * size
    for j, swapped in zip(id_of, _swap_ranks(n, i, id_of)):
        table[j] = swapped
    return table


def _diagonal_walk(n: int) -> Iterator[tuple[int | None, int, bytes, Callable[[Sequence], tuple]]]:
    """Walk q = pi^-1 through S_n by adjacent swaps (:func:`_adjacent_swaps`).

    Yields, per q: the place i whose swap with i+1 reached it (None for
    the identity, where the walk starts), the census id of q, and the
    diagonals s * q, one per horizontal s in the order of their ids: their
    type ids as bytes, and an ``itemgetter`` of their ids.  Swapping places
    i, i+1 of q sends every diagonal d to d * (i i+1), so the next ids are
    one gather, through the current getter, of a swap table built once per
    walk; their types are their pages, the high bytes of the ids packed as
    16-bit little-endian words.
    """
    by_id, page_type, horizontals, _ = _ranked(n)
    id_of = _ids_by_rank(n)
    ids_at = [_swap_ids(n, i, id_of, len(by_id)) for i in range(n - 1)]
    # itemgetter with one index returns the item, not a 1-tuple (n <= 2)
    gather = itemgetter if len(horizontals) > 1 else (lambda r: lambda table: (table[r],))
    pack = Struct(f"<{len(horizontals)}H").pack
    q, diagonals = id_of[0], gather(*horizontals)
    yield None, q, pack(*horizontals)[1::2].translate(page_type), diagonals
    for i in _adjacent_swaps(n):
        q = ids_at[i][q]
        ids = diagonals(ids_at[i])
        diagonals = gather(*ids)
        yield i, q, pack(*ids)[1::2].translate(page_type), diagonals


def _parity_codes(n: int, lams: Sequence[tuple[int, ...]], levels: int) -> list[list[int]]:
    """By the parity of pi's cycle count k, the codes t + len(lams) * a
    (a < levels) with t a type id that s * pi^-1 can have: sign(s * pi^-1)
    = sign(s) sign(pi), s an n-cycle, so its cycle count is n + 1 - k mod 2."""
    return [[t + len(lams) * a for a in range(levels) for t, lam in enumerate(lams)
             if (len(lam) + k + n) % 2] for k in (0, 1)]


# Census codes are single bytes, one per pair, appended to a buffer per
# vertical class; a buffer is counted value by value and emptied once it
# holds this many, so the memory of a pass stays flat however many pairs
# it counts.
_FLUSH = 8192


def _tally(buf: bytearray, counts: list[int], codes: Sequence[int], key: Hashable) -> None:
    """Add the number of bytes of value v in ``buf`` to ``counts[v]``, for
    every v in ``codes``, and empty ``buf``; a byte of any other value
    changes no count and raises :class:`ArithmeticError` naming ``key``."""
    found = [buf.count(v) for v in codes]
    stray = len(buf) - sum(found)
    if stray:
        raise ArithmeticError(f"census class {key!r}: {stray} bytes outside {codes}")
    for v, cnt in zip(codes, found):
        counts[v] += cnt
    buf.clear()


def _slots(by_id: Sequence, class_of: Callable, size: int, codes: Callable) -> tuple[dict, list]:
    """One (buffer, counts, codes, class) slot per distinct class of the
    interned stats, its buffer holding only ``codes(class)``, and per id
    the slot of its class."""
    slots: dict = {}
    of_stats = {}
    for stats in dict.fromkeys(by_id):
        c = class_of(stats)
        of_stats[stats] = slots.setdefault(c, (bytearray(), [0] * size, codes(c), c))
    return slots, list(map(of_stats.__getitem__, by_id))


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

    The pass follows :func:`_diagonal_walk`.  Per vertical it appends the
    (n-1)! diagonals' type ids to the buffer of the vertical's class
    (cycle type, prefixes), counted over the :func:`_parity_codes` of
    its cycle count; for an n-cycle vertical it gathers their cut masks
    (below 2^(n-1)) from a byte table by id into the alpha buffer too.
    Every pair's code is counted; q and pi share their class, which
    depends on the cycles as point sets only.
    """
    lams = _cycle_types(n)
    by_id, _, horizontals, _ = _ranked(n)
    masks = bytes(map(itemgetter(1), by_id))
    parity = _parity_codes(n, lams, 1)
    slots, slot_of = _slots(by_id, itemgetter(0, 2, 3), len(lams),
                            lambda c: parity[len(c[0]) % 2])
    alpha = (bytearray(), [0] * (1 << (n - 1)), range(1 << (n - 1)), "alpha")
    for _, q, codes, diagonals in _diagonal_walk(n):
        slot = slot_of[q]
        slot[0].extend(codes)
        if len(slot[0]) >= _FLUSH:
            _tally(*slot)
        if q < len(horizontals):  # an n-cycle vertical
            alpha[0].extend(diagonals(masks))
            if len(alpha[0]) >= _FLUSH:
                _tally(*alpha)
    _tally(*alpha)
    census: dict[CensusKey, int] = {}
    for (mu, smax, imax), slot in slots.items():
        _tally(*slot)
        for t, cnt in enumerate(slot[1]):
            if cnt:
                census[(lams[t], mu, smax, imax)] = cnt
    return census, {mask: cnt for mask, cnt in enumerate(alpha[1]) if cnt}


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


StratifiedKey = tuple[tuple[int, ...], int, int, int]


@lru_cache(maxsize=None)
def _census_stratified(n: int) -> dict[StratifiedKey, int]:
    """Census keyed by (diagonal type, vertical cycle count, largest
    separated prefix, exceedance count of the pair).

    Exceedances depend on the actual sequence order of the horizontal,
    so every pair carries its own statistic, kept on the walk of
    :func:`_diagonal_walk`: with pos the places in a horizontal's
    sequence, pi has the exceedances x with pos[x] < pos[pi(x)], and
    swapping places i, i+1 of q = pi^-1 moves pi(q[i]) from i to i+1 and
    pi(q[i+1]) from i+1 to i.  So each step adds to every horizontal's
    count a change read off that horizontal's places of q[i], q[i+1], i
    and i+1, from byte tables built once per pass.  A pair's code is its
    diagonal's type id + width * exceedances (width: the number of cycle
    types), counted in the buffer of the vertical's (cycle count,
    prefix) over the :func:`_parity_codes` of that cycle count.
    """
    lams = _cycle_types(n)
    width = len(lams)
    by_id, _, horizontals, _ = _ranked(n)
    # at most n - 1 exceedances, so every code is below width * n
    parity = _parity_codes(n, lams, n)
    slots, slot_of = _slots(by_id, lambda stats: (len(stats[0]), stats[2]), width * n,
                            lambda c: parity[c[0] % 2])
    places = [inverse0(cycles0(p)[0])  # pos, per horizontal: the ids below (n-1)!
              for p, j in zip(_all_arrangements(range(n)), _ids_by_rank(n))
              if j < len(horizontals)]
    # rise[i][x], one byte per horizontal: width * (1 + the change of
    # [pos[x] < pos[pi(x)]] as pi(x) moves from i to i+1); a step adds
    # rise[i][q[i]] - rise[i][q[i+1]], in which the offsets cancel
    rise = [[bytes(width * (1 + (pos[x] < pos[i + 1]) - (pos[x] < pos[i])) for pos in places)
             for x in range(n)] for i in range(n - 1)]
    q = bytearray(range(n))
    exc = (0,) * len(horizontals)  # width * exceedances; pi = identity has none
    for i, qid, codes, _ in _diagonal_walk(n):
        if i is not None:
            a, b = q[i], q[i + 1]
            q[i], q[i + 1] = b, a
            exc = tuple(map(sub, map(add, exc, rise[i][a]), rise[i][b]))
        slot = slot_of[qid]
        slot[0].extend(map(add, codes, exc))
        if len(slot[0]) >= _FLUSH:
            _tally(*slot)
    census: dict[StratifiedKey, int] = {}
    for (k, smax), slot in slots.items():
        _tally(*slot)
        for code, cnt in enumerate(slot[1]):
            if cnt:
                census[(lams[code % width], k, smax, code // width)] = cnt
    return census


@lru_cache(maxsize=None)
def _stratified_index(n: int) -> dict[tuple[tuple[int, ...], int], tuple[tuple[int, int, int], ...]]:
    """The stratified census grouped by (diagonal type, vertical cycle
    count): (lam, k) -> ((smax, exceedances, count), ...)."""
    index: dict[tuple[tuple[int, ...], int], list] = {}
    for (lam, k, smax, a), cnt in _census_stratified(n).items():
        index.setdefault((lam, k), []).append((smax, a, cnt))
    return {key: tuple(rows) for key, rows in index.items()}


@lru_cache(maxsize=None)
def _census_index(n: int) -> dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int, int, int, int], ...]]:
    """The census grouped by diagonal type: lam -> ((mu, len(mu), smax, imax, count), ...)."""
    index: dict[tuple[int, ...], list] = {}
    for (lam, mu, smax, imax), cnt in _census(n).items():
        index.setdefault(lam, []).append((mu, len(mu), smax, imax, cnt))
    return {lam: tuple(rows) for lam, rows in index.items()}


_TYPE, _CYCLES, _SEPARATED, _FIXED, _COUNT = range(5)  # the columns of a _census_index row


# ---------------------------------------------------------------------------
# public queries

def _pairs(lam: IntegerPartition, m: int, column: int, want, prefix: int) -> int:
    """Pairs with diagonal type lam whose vertical has ``want`` in census
    ``column`` (``_TYPE`` or ``_CYCLES``) and a ``prefix`` of at least m.
    The caller has checked the query."""
    rows = _census_index(lam.n).get(lam.parts, ())
    return sum(row[_COUNT] for row in rows if row[column] == want and row[prefix] >= m)


def oracle_p(lam: IntegerPartition, m: int, k: int) -> int:
    """Pairs (s, pi), s an n-cycle, with diagonal s*pi^-1 of cycle type
    lam, pi having k cycles and 1..m in distinct cycles of pi.
    """
    _check(lam.n, m, k)
    return _pairs(lam, m, _CYCLES, k, _SEPARATED)


def oracle_i(lam: IntegerPartition, m: int, k: int) -> int:
    """As :func:`oracle_p` but with 1..m required to be fixed points."""
    _check(lam.n, m, k)
    return _pairs(lam, m, _CYCLES, k, _FIXED)


def oracle_p_by_vertical_type(lam: IntegerPartition, mu: IntegerPartition, m: int) -> int:
    """Separation count restricted to verticals of exact cycle type mu."""
    _check(lam.n, m)
    return _pairs(lam, m, _TYPE, mu.parts, _SEPARATED)


def oracle_i_by_vertical_type(lam: IntegerPartition, mu: IntegerPartition, m: int) -> int:
    """Isolation count restricted to verticals of exact cycle type mu."""
    _check(lam.n, m)
    return _pairs(lam, m, _TYPE, mu.parts, _FIXED)


def oracle_p_stratified(lam: IntegerPartition, m: int, k: int) -> dict[int, int]:
    """Separation counts split by the exceedance count of the pair.

    The values sum to ``oracle_p(lam, m, k)``.
    """
    n = lam.n
    _check(n, m, k)
    out: dict[int, int] = {}
    for smax, a, cnt in _stratified_index(n).get((lam.parts, k), ()):
        if smax >= m:
            out[a] = out.get(a, 0) + cnt
    return out


def oracle_fixed_point_distribution(n: int) -> dict[int, int]:
    """For each i, the number of pairs of n-cycles whose product has
    exactly i fixed points, keys in decreasing order.  Values sum to
    ((n-1)!)^2.
    """
    _check(n)
    out: dict[int, int] = {}
    for mu, _, _, _, cnt in _census_index(n).get((n,), ()):
        fixed = mu.count(1)
        out[fixed] = out.get(fixed, 0) + cnt
    return dict(sorted(out.items(), reverse=True))


def oracle_alpha(alpha: Composition) -> int:
    """Pairs of n-cycles whose product keeps every cycle inside a single
    block of the composition.
    """
    n = alpha.n
    _check(n)
    required = 0
    for t in alpha.boundaries():
        required |= 1 << (t - 1)
    return sum(
        cnt for mask, cnt in _alpha_census(n).items() if mask & required == required
    )


def pair_count(n: int) -> int:
    """Total number of enumerated pairs: (n-1)! * n!."""
    return factorial(n - 1) * factorial(n)

