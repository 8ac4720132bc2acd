import ast
from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial
from operator import itemgetter
from pathlib import Path

import pytest

from sepcycles import oracle as oracle_module
from sepcycles.oracle import (
    DEFAULT_CAP,
    HARD_CAP,
    OracleCapError,
    _alpha_census,
    _census,
    _census_stratified,
    _pair_pass,
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
    # the keyed table is the only walk over S_n: the census reads both the
    # diagonals and the verticals off it, and the stratified census reuses
    # it, walking only each horizontal once more for its sequence order
    walks = []
    real = oracle_module.cycles0

    def counted(images):
        walks.append(images)
        return real(images)

    monkeypatch.setattr(oracle_module, "cycles0", counted)
    for name in ("_perm_keys", "_pair_pass", "_census", "_census_stratified"):
        fresh = lru_cache(maxsize=None)(getattr(oracle_module, name).__wrapped__)
        monkeypatch.setattr(oracle_module, name, fresh)
    oracle_module._census(6)
    oracle_module._census_stratified(6)
    assert len(walks) == factorial(6) + factorial(5) == 840


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


def test_cap_refusal():
    big = P(*([1] * (DEFAULT_CAP + 1)))
    with pytest.raises(OracleCapError) as info:
        oracle_p(big, 0, 1)
    assert str(DEFAULT_CAP) in str(info.value)
    assert info.value.cap == DEFAULT_CAP
    with pytest.raises(OracleCapError):
        oracle_fixed_point_distribution(DEFAULT_CAP + 1)
    with pytest.raises(OracleCapError):
        oracle_alpha(Composition((DEFAULT_CAP + 1,)))
    # a raised cap is honoured, but never beyond the hard maximum
    with pytest.raises(ValueError):
        oracle_p(big, 0, 1, cap=HARD_CAP + 1)
    with pytest.raises(OracleCapError):
        oracle_fixed_point_distribution(HARD_CAP + 1, cap=HARD_CAP)


def test_domain_errors():
    with pytest.raises(ValueError):
        oracle_p(P(3), 4, 1)
    with pytest.raises(ValueError):
        oracle_i(P(3), -1, 1)


def test_oracle_imports_only_partitions_and_perm():
    # the oracle checks counting, so it must never import it (directly or
    # through verify/cli); the permutation kernel it shares lives in perm
    tree = ast.parse(Path(oracle_module.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                package.add((node.module or "").split(".")[0])
            elif (node.module or "").startswith("sepcycles"):
                package.add(node.module.partition(".")[2].split(".")[0])
        elif isinstance(node, ast.Import):
            package.update(alias.name.partition(".")[2].split(".")[0]
                           for alias in node.names if alias.name.startswith("sepcycles"))
    assert package == {"partitions", "perm"}
