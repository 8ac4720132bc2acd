import hashlib
import re
from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial
from operator import itemgetter

import pytest

from sepcycles import oracle as oracle_module
from sepcycles.oracle import (
    HARD_CAP,
    OracleCapError,
    _adjacent_swaps,
    _alpha_census,
    _census,
    _census_stratified,
    _pair_pass,
    _swap_ranks,
    oracle_alpha,
    oracle_fixed_point_distribution,
    oracle_i,
    oracle_i_by_vertical_type,
    oracle_p,
    oracle_p_by_vertical_type,
    oracle_p_stratified,
    pair_count,
)
from sepcycles.partitions import Composition, IntegerPartition, partitions_of


def P(*parts):
    return IntegerPartition(tuple(parts))


def test_hand_enumerated_n3_counts():
    # the four pairs of 3-cycles: products are id, (132), (123), id
    assert oracle_p(P(3), 0, 1) == 2
    assert oracle_p(P(3), 0, 3) == 2
    assert oracle_p(P(3), 0, 2) == 0
    assert oracle_p(P(2, 1), 0, 2) == 6
    assert oracle_p(P(1, 1, 1), 0, 1) == 2
    assert oracle_p(P(1, 1, 1), 1, 1) == 2
    assert oracle_p(P(1, 1, 1), 2, 1) == 0
    assert oracle_i(P(2, 1), 1, 2) == 2


def test_identity_diagonal_forces_vertical():
    # identity diagonal means the vertical equals the horizontal: an
    # n-cycle, so only k = 1 is populated and m >= 2 cannot be separated
    for n in range(2, 7):
        ones = P(*([1] * n))
        for m in range(0, 2):
            assert oracle_p(ones, m, 1) == factorial(n - 1)
        assert oracle_p(ones, 2, 1) == 0
        for k in range(2, n + 1):
            assert oracle_p(ones, 0, k) == 0


def test_n4_reference_counts():
    assert oracle_p(P(4), 2, 2) == 16
    assert oracle_i(P(4), 1, 2) == 6


def test_oracle_totals():
    for n in range(1, 7):
        total = sum(
            oracle_p(lam, 0, k)
            for lam in partitions_of(n)
            for k in range(1, n + 1)
        )
        assert total == pair_count(n) == factorial(n - 1) * factorial(n)


def test_census_determinism():
    first = _pair_pass.__wrapped__(4)
    second = _pair_pass.__wrapped__(4)
    assert first == second


def test_each_permutation_walked_once(monkeypatch):
    # the per-id table (_ranked) is the only walk over S_n: the census reads both
    # the diagonals and the verticals off it, and the stratified census
    # reuses it, walking only each horizontal once more for its sequence
    # order
    walks = []
    real = oracle_module.cycles0

    def counted(images):
        walks.append(images)
        return real(images)

    monkeypatch.setattr(oracle_module, "cycles0", counted)
    for name in ("_ranked", "_pair_pass", "_census", "_census_stratified"):
        fresh = lru_cache(maxsize=None)(getattr(oracle_module, name).__wrapped__)
        monkeypatch.setattr(oracle_module, name, fresh)
    oracle_module._census(6)
    oracle_module._census_stratified(6)
    assert len(walks) == factorial(6) + factorial(5) == 840


@pytest.mark.parametrize("n", range(1, 8))
def test_adjacent_swaps_visit_every_arrangement_once(n):
    swaps = _adjacent_swaps(n)
    assert len(swaps) == factorial(n) - 1
    arrangement = list(range(n))
    seen = {tuple(arrangement)}
    for i in swaps:
        assert 0 <= i < n - 1  # places i and i+1: adjacent, both in range
        arrangement[i], arrangement[i + 1] = arrangement[i + 1], arrangement[i]
        seen.add(tuple(arrangement))
    assert len(seen) == factorial(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_swap_ranks_follow_the_swapped_arrangement(n):
    arrangements = list(permutations(range(n)))  # lexicographic order
    rank = {p: r for r, p in enumerate(arrangements)}
    ranked = oracle_module._ranked(n)
    ids = oracle_module._ids_by_rank(n)
    # the lexicographic tables, labelled by rank, and the walk's tables in
    # census ids, labelled by each rank's id
    ranks = tuple(range(factorial(n)))
    for label, size, table_of in (
        (ranks, factorial(n), lambda i: _swap_ranks(n, i, ranks)),
        (ids, len(ranked[0]), lambda i: oracle_module._swap_ids(n, i, ids, len(ranked[0]))),
    ):
        for i in range(n - 1):
            table = table_of(i)
            assert len(table) == size
            for r, p in enumerate(arrangements):
                swapped = (*p[:i], p[i + 1], p[i], *p[i + 2:])
                assert table[label[r]] == label[rank[swapped]]


def test_census_n7_pinned():
    # n = 7 is past the reference enumeration: digests of the census and
    # alpha census as enumerated pair by pair per horizontal, before the
    # adjacent-swap walk
    def digest(census):
        return hashlib.sha256(repr(sorted(census.items())).encode()).hexdigest()

    assert len(_census(7)) == 555
    assert digest(_census(7)) == "9e9280a77675f60c94ba98ed44a562935da73e6385c36f5f28fcffb73a411c06"
    assert len(_alpha_census(7)) == 54
    assert digest(_alpha_census(7)) == "b3e4701744de4bed5cda4d9adfbbe5dd964d96a27a8ded0868d38c8c22495079"
    assert sum(_census(7).values()) == pair_count(7)


def test_stratified_census_n6_pinned():
    # n = 6 is past the stratified reference test and is what verify reads:
    # digest as enumerated pair by pair per horizontal, before the census
    # moved onto the adjacent-swap walk
    census = _census_stratified(6)
    assert len(census) == 97
    assert hashlib.sha256(repr(sorted(census.items())).encode()).hexdigest() == (
        "b8757f62fe1ef7f4ef539e7f2f00bf462c3bd02f62bd3f8f70aeef4614de616f")
    assert sum(census.values()) == pair_count(6)


def test_census_codes_fit_one_byte_up_to_the_hard_cap():
    for n in range(1, HARD_CAP + 1):
        # pair-pass codes: a diagonal's cycle-type id and its cut mask
        assert len(partitions_of(n)) <= 256
        assert 1 << (n - 1) <= 256
        # stratified codes: type id + width * exceedances, at most n - 1
        assert len(partitions_of(n)) * n <= 256


def test_census_ids_fit_16_bits_in_type_pages_up_to_the_hard_cap():
    for n in range(1, HARD_CAP + 1):
        by_id, page_type, horizontals, _ = oracle_module._ranked(n)
        ids = oracle_module._ids_by_rank(n)
        pages = len(by_id) // 256
        assert len(by_id) == 256 * pages and pages <= 256  # so every id is below 2^16
        assert len(page_type) == 256 and set(page_type[pages:]) <= {255}
        assert len(set(ids)) == factorial(n)
        lams = [lam.parts for lam in partitions_of(n)]
        for p, j in zip(permutations(range(n)), ids):
            assert lams[page_type[j >> 8]] == _ref_cycle_type(p) == by_id[j][0]
        assert horizontals == tuple(j for p, j in zip(permutations(range(n)), ids)
                                    if _ref_cycle_type(p) == (n,))


def test_tally_refuses_a_code_outside_its_parity(monkeypatch):
    buf, counts = bytearray([0, 2, 1, 2]), [0] * 3
    message = r"census class \('a class',\): 1 bytes outside \(0, 2\)"
    with pytest.raises(ArithmeticError, match=message):
        oracle_module._tally(buf, counts, (0, 2), ("a class",))
    assert counts == [0, 0, 0]
    oracle_module._tally(buf, counts, (0, 1, 2), ("a class",))
    assert (buf, counts) == (bytearray(), [1, 1, 2])
    # the pair pass: one page read as a type of the other parity
    by_id, page_type, horizontals, ids = oracle_module._ranked(5)
    lams = [lam.parts for lam in partitions_of(5)]
    wrong = bytearray(page_type)
    wrong[1] = next(t for t, lam in enumerate(lams) if (len(lam) - len(lams[page_type[1]])) % 2)
    monkeypatch.setattr(oracle_module, "_ranked", lambda n: (by_id, bytes(wrong), horizontals, ids))
    with pytest.raises(ArithmeticError, match="census class"):
        _pair_pass.__wrapped__(5)


def test_census_passes_refuse_past_the_hard_cap_before_any_table(monkeypatch):
    def refused(*args):
        raise AssertionError("a table was built for a census past the hard maximum")

    monkeypatch.setattr(oracle_module, "_ranked", refused)
    monkeypatch.setattr(oracle_module, "_swap_ranks", refused)
    message = f"census at n={HARD_CAP + 1} exceeds the hard maximum {HARD_CAP}"
    for census_pass in (_pair_pass, _census_stratified):
        with pytest.raises(ValueError, match=message):
            census_pass.__wrapped__(HARD_CAP + 1)


# Reference enumerations: one tuple per pair, cycle types and cut masks
# walked per product, exceedances counted per pair.  The censuses must
# equal them key for key.  They share nothing with the code under test:
# n-cycles, vertical statistics and cycle walks are their own.

def _ref_n_cycles(n):
    """Every arrangement of range(n) in which the orbit of 0 is all of it."""
    out = []
    for p in permutations(range(n)):
        x, orbit = p[0], 1
        while x != 0:
            x = p[x]
            orbit += 1
        if orbit == n:
            out.append(p)
    return out


def _ref_vertical_stats(p):
    """(cycle type, largest separated prefix, largest fixed prefix), the
    prefixes from orbit sets and fixed points."""
    n = len(p)
    orbits = []
    for x in range(n):
        orbit, y = {x}, p[x]
        while y != x:
            orbit.add(y)
            y = p[y]
        orbits.append(frozenset(orbit))
    smax = 0
    while smax < n and orbits[smax] not in orbits[:smax]:
        smax += 1
    imax = 0
    while imax < n and p[imax] == imax:
        imax += 1
    return _ref_cycle_type(p), smax, imax


def _ref_cycle_type(p):
    n = len(p)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            length += 1
            x = p[x]
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def _ref_valid_cut_mask(q):
    n = len(q)
    full = (1 << (n - 1)) - 1
    blocked = 0
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        lo = hi = start
        x = q[start]
        seen[start] = True
        while x != start:
            seen[x] = True
            lo = min(lo, x)
            hi = max(hi, x)
            x = q[x]
        if hi > lo:
            blocked |= ((1 << hi) - 1) & ~((1 << lo) - 1)
    return full & ~blocked


def _ref_census(n):
    cycles = _ref_n_cycles(n)
    census: dict = {}
    for p in permutations(range(n)):
        mu, smax, imax = _ref_vertical_stats(p)
        pinv = [0] * n
        for i, v in enumerate(p):
            pinv[v] = i
        diag_of = itemgetter(*pinv) if n > 1 else (lambda s: (s[0],))
        for lam, cnt in Counter(map(_ref_cycle_type, map(diag_of, cycles))).items():
            key = (lam, mu, smax, imax)
            census[key] = census.get(key, 0) + cnt
    return census


def _ref_alpha_census(n):
    census: dict = {}
    cycles = _ref_n_cycles(n)
    for c1 in cycles:
        for c2 in cycles:
            mask = _ref_valid_cut_mask(tuple(c1[x] for x in c2))
            census[mask] = census.get(mask, 0) + 1
    return census


def _ref_census_stratified(n):
    census: dict = {}
    verticals = []
    for p in permutations(range(n)):
        mu, smax, _ = _ref_vertical_stats(p)
        pinv = tuple(sorted(range(n), key=p.__getitem__))
        verticals.append((p, pinv, len(mu), smax))
    for tail in permutations(range(1, n)):
        seq = (0, *tail)
        pos = [0] * n
        for idx, x in enumerate(seq):
            pos[x] = idx
        nxt = [0] * n
        for idx, x in enumerate(seq):
            nxt[x] = seq[(idx + 1) % n]
        for p, pinv, k, smax in verticals:
            d = tuple(nxt[pinv[x]] for x in range(n))
            a = sum(1 for x in range(n) if pos[x] < pos[p[x]])
            key = (_ref_cycle_type(d), k, smax, a)
            census[key] = census.get(key, 0) + 1
    return census


@pytest.mark.parametrize("n", range(1, 7))
def test_census_matches_reference_enumeration(n):
    assert _census(n) == _ref_census(n)
    assert _alpha_census(n) == _ref_alpha_census(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_stratified_census_matches_reference_enumeration(n):
    assert _census_stratified(n) == _ref_census_stratified(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_census_buffers_flush_at_any_size(n, monkeypatch):
    # 1 flushes after every step; 719 divides no step length ((n-1)! bytes)
    unpatched = (_census(n), _alpha_census(n), _census_stratified(n))
    references = (_ref_census(n), _ref_alpha_census(n), _ref_census_stratified(n))
    for size in (1, 719):
        monkeypatch.setattr(oracle_module, "_FLUSH", size)
        census, alpha = _pair_pass.__wrapped__(n)
        stratified = _census_stratified.__wrapped__(n)
        assert (census, alpha, stratified) == unpatched == references
        assert sum(census.values()) == sum(stratified.values()) == pair_count(n)
        assert sum(alpha.values()) == factorial(n - 1) ** 2


def test_stratified_marginal_consistency():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for m in range(0, n + 1):
                for k in range(1, n + 1):
                    strat = oracle_p_stratified(lam, m, k)
                    assert sum(strat.values()) == oracle_p(lam, m, k)
                    assert all(v > 0 for v in strat.values())


def test_stratified_hand_cases():
    assert oracle_p_stratified(P(3), 0, 3) == {0: 2}
    assert oracle_p_stratified(P(3), 0, 1) == {1: 2}


def test_by_vertical_type_marginals():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for m in range(0, n + 1):
                for k in range(1, n + 1):
                    from_types_p = sum(
                        oracle_p_by_vertical_type(lam, mu, m)
                        for mu in partitions_of(n)
                        if mu.length == k
                    )
                    assert from_types_p == oracle_p(lam, m, k)
                    from_types_i = sum(
                        oracle_i_by_vertical_type(lam, mu, m)
                        for mu in partitions_of(n)
                        if mu.length == k
                    )
                    assert from_types_i == oracle_i(lam, m, k)


def test_fixed_point_distribution():
    assert oracle_fixed_point_distribution(3) == {0: 2, 3: 2}
    assert oracle_fixed_point_distribution(2) == {2: 1}
    for n in range(2, 7):
        dist = oracle_fixed_point_distribution(n)
        assert sum(dist.values()) == factorial(n - 1) ** 2
        assert dist.get(n - 1, 0) == 0


def test_alpha_hand_cases():
    assert oracle_alpha(Composition((3,))) == 4
    assert oracle_alpha(Composition((1, 1, 1))) == 2
    assert oracle_alpha(Composition((1, 2))) == 2
    assert oracle_alpha(Composition((1, 3))) == 12
    for n in range(1, 6):
        assert oracle_alpha(Composition((n,))) == factorial(n - 1) ** 2
        assert oracle_alpha(Composition(tuple([1] * n))) == factorial(n - 1)


def test_cap_refusal(refuse_census, monkeypatch):
    # every query refuses n above the hard maximum before any census pass;
    # at the hard maximum each one reaches its pass
    refuse_census(from_n=HARD_CAP)

    def stratified(n):
        raise RuntimeError(f"census refused at n={n}")

    monkeypatch.setattr(oracle_module, "_census_stratified", stratified)
    monkeypatch.setattr(oracle_module, "_stratified_index",
                        lru_cache(maxsize=None)(oracle_module._stratified_index.__wrapped__))
    queries = [
        lambda n: oracle_p(P(n), 0, 1),
        lambda n: oracle_i(P(n), 0, 1),
        lambda n: oracle_p_by_vertical_type(P(n), P(*[1] * n), 0),
        lambda n: oracle_i_by_vertical_type(P(n), P(*[1] * n), 0),
        lambda n: oracle_p_stratified(P(n), 0, 1),
        lambda n: oracle_fixed_point_distribution(n),
        lambda n: oracle_alpha(Composition((n,))),
    ]
    for query in queries:
        with pytest.raises(OracleCapError) as info:
            query(HARD_CAP + 1)
        assert str(info.value) == (f"oracle refuses n={HARD_CAP + 1}: "
                                   f"the census stops at n={HARD_CAP}")
        assert info.value.n == HARD_CAP + 1
        assert isinstance(info.value, ValueError)
        with pytest.raises(RuntimeError, match=f"census refused at n={HARD_CAP}"):
            query(HARD_CAP)


def test_domain_errors():
    with pytest.raises(ValueError):
        oracle_p(P(3), 4, 1)
    with pytest.raises(ValueError):
        oracle_i(P(3), -1, 1)
    # a cycle count outside 1..n is refused with the formulas' message,
    # not answered 0
    for query in (oracle_p, oracle_i, oracle_p_stratified):
        for k in (0, 4):
            with pytest.raises(ValueError, match=re.escape(f"k must satisfy 1 <= k <= 3, got {k}")):
                query(P(2, 1), 1, k)


def test_oracle_imports_only_partitions_and_perm(package_imports):
    # the oracle checks counting, so it must never import it (directly or
    # through verify/cli); the permutation kernel it shares lives in perm
    assert package_imports(oracle_module) == {"partitions", "perm"}
