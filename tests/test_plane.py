import random
from collections import Counter
from itertools import permutations

import pytest

from sepcycles import perm as perm_module
from sepcycles import plane as plane_module
from sepcycles.oracle import _census_stratified
from sepcycles.partitions import IntegerPartition
from sepcycles.perm import Permutation, compose, enumerate_n_cycles, separates
from sepcycles.plane import PlanePermutation


def pp_from_rows(seq, under):
    """Build from the two-row array: under[i] sits below seq[i]."""
    images = [0] * len(seq)
    for x, y in zip(seq, under):
        images[x - 1] = y
    return PlanePermutation(tuple(seq), Permutation(tuple(images)))


WORKED = pp_from_rows((1, 3, 6, 2, 5, 4), (5, 4, 1, 3, 6, 2))


def all_plane_permutations(n):
    for s in enumerate_n_cycles(n):
        seq = tuple(s.cycles()[0])
        for images in permutations(range(1, n + 1)):
            yield PlanePermutation(seq, Permutation(images))


def random_plane_permutation(n, rng):
    tail = list(range(2, n + 1))
    rng.shuffle(tail)
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return PlanePermutation((1, *tail), Permutation(tuple(images)))


def test_constructor_anchors_at_one():
    pp = PlanePermutation((3, 1, 2), Permutation.identity(3))
    assert pp.seq == (1, 2, 3)
    with pytest.raises(ValueError):
        PlanePermutation((1, 1, 2), Permutation.identity(3))
    with pytest.raises(ValueError):
        PlanePermutation((1, 2, 3), Permutation.identity(4))


def test_constructor_requires_permutation_vertical():
    with pytest.raises(TypeError, match="Permutation"):
        PlanePermutation((1, 2, 3), (2, 3, 1))


def assert_matches_public_permutation(p):
    assert type(p.images) is tuple
    assert all(type(x) is int for x in p.images)
    rebuilt = Permutation(p.images)
    assert p == rebuilt and hash(p) == hash(rebuilt)


def assert_matches_public_plane(pp):
    assert type(pp.seq) is tuple
    assert all(type(x) is int for x in pp.seq)
    assert pp.seq[0] == 1
    assert_matches_public_permutation(pp.pi)
    rebuilt = PlanePermutation(pp.seq, Permutation(pp.pi.images))
    assert pp == rebuilt and hash(pp) == hash(rebuilt)
    assert pp.ntae_count() == len(pp.classify_elements()[2])


def test_unchecked_results_match_public_constructors_exhaustive():
    # every object that compose, inverse, s, diagonal, reflect, hat and
    # transpose_blocks build without validation equals its validated
    # rebuild, on every plane permutation of n <= 5
    for n in range(1, 6):
        for s in enumerate_n_cycles(n):
            assert_matches_public_permutation(s)
        for pp in all_plane_permutations(n):
            assert_matches_public_plane(pp)
            for p in (compose(pp.pi, pp.s), pp.pi.inverse(), pp.s, pp.diagonal()):
                assert_matches_public_permutation(p)
            assert_matches_public_plane(pp.reflect())
            assert_matches_public_plane(pp.hat())
            for i in range(1, n):
                for j in range(i, n):
                    for k in range(j + 1, n):
                        assert_matches_public_plane(pp.transpose_blocks((i, j, k)))


def test_diagonal_formula_and_pairing():
    # trivial pairs
    for n in range(1, 6):
        for s in enumerate_n_cycles(n):
            seq = tuple(s.cycles()[0])
            assert PlanePermutation(seq, s).diagonal().is_identity()
            assert PlanePermutation(seq, Permutation.identity(n)).diagonal() == s
    # the diagonal sends the entry under s_{i-1} to s_i, cyclically
    for pp in all_plane_permutations(4):
        d = pp.diagonal()
        n = pp.n
        for i in range(n):
            below_prev = pp.pi(pp.seq[(i - 1) % n])
            assert d(below_prev) == pp.seq[i]


def sampled_plane_permutations():
    yield from (pp for n in range(1, 6) for pp in all_plane_permutations(n))
    for n, seed, samples in ((8, 8, 2000), (16, 16, 500)):
        rng = random.Random(seed)
        for _ in range(samples):
            yield random_plane_permutation(n, rng)


def test_one_pass_diagonal_matches_compose():
    # compose(s, pi^-1) is the reference for the one-pass diagonal
    for pp in sampled_plane_permutations():
        assert pp.diagonal() == compose(pp.s, pp.pi.inverse())


def test_stored_cycle_counts_match_walked_cycles():
    for pp in sampled_plane_permutations():
        pp.ntae_count()
        mirror = pp.reflect()
        for p in (pp.pi, pp.diagonal(), mirror.pi):
            assert p.cycle_count() == len(p.cycles())


def test_mirror_check_walks_pi_and_diagonal_once(monkeypatch):
    walks = []
    real = perm_module.cycles0

    def counted(images):
        walks.append(tuple(images))
        return real(images)

    monkeypatch.setattr(perm_module, "cycles0", counted)
    monkeypatch.setattr(plane_module, "cycles0", counted, raising=False)
    pp = PlanePermutation((1, 3, 6, 2, 5, 4), Permutation((3, 1, 4, 6, 2, 5)))
    pp.ntae_count()
    pp.reflect().ntae_count()
    pp.pi.cycle_count()
    pp.diagonal().cycle_count()
    assert walks == [(0, *pp.pi.images), (0, *pp.diagonal().images)]


def test_ntae_count_matches_classification_sampled_n8():
    # the walked definition, independent of the anti-exceedances minus
    # cycles count, past the exhaustive range
    rng = random.Random(88)
    for _ in range(2000):
        pp = random_plane_permutation(8, rng)
        for q in (pp, pp.reflect()):
            assert q.ntae_count() == len(q.classify_elements()[2])


def test_precedes_rejects_points_outside_ground_set():
    pp = PlanePermutation((1, 3, 2), Permutation.identity(3))
    assert pp.precedes(3, 2) and not pp.precedes(2, 3) and not pp.precedes(1, 1)
    for a, b in ((0, 2), (-1, 2), (4, 1), (2, 4)):
        with pytest.raises(ValueError, match=r"outside the ground set \[3\]"):
            pp.precedes(a, b)


def test_worked_example_classification():
    exc, trivial, ntae = WORKED.classify_elements()
    assert 3 in exc
    assert 5 in ntae
    # 1 is the earliest member of its cycle; its preimage 6 is the
    # designated anti-exceedance, 1 itself exceeds
    assert exc == frozenset({1, 3})
    assert trivial == frozenset({6, 2})
    assert ntae == frozenset({5, 4})
    assert WORKED.ntae_count() == 2
    d = WORKED.diagonal()
    assert d.cycles() == ((1, 2), (3, 5), (4, 6))
    assert d.cycle_type().parts == (2, 2, 2)


def test_identity_vertical_has_no_ntae():
    for n in range(1, 6):
        for s in enumerate_n_cycles(n):
            pp = PlanePermutation(tuple(s.cycles()[0]), Permutation.identity(n))
            exc, trivial, ntae = pp.classify_elements()
            assert not exc
            assert trivial == frozenset(range(1, n + 1))
            assert not ntae


def test_classification_partitions_ground_set():
    for pp in all_plane_permutations(5):
        exc, trivial, ntae = pp.classify_elements()
        assert exc | trivial | ntae == frozenset(range(1, 6))
        assert len(exc) + len(trivial) + len(ntae) == 5
        # one trivial anti-exceedance per vertical cycle
        assert len(trivial) == pp.pi.cycle_count()
        # the earliest member of a non-singleton cycle is an exceedance
        for cycle in pp.pi.cycles():
            if len(cycle) > 1:
                earliest = min(cycle, key=lambda x: pp.seq.index(x))
                assert earliest in exc


@pytest.mark.parametrize("n", range(1, 6))
def test_exceedance_count_matches_stratified_census(n):
    # two independent exceedance counts: classify_elements on plane
    # permutations against the oracle's translate comparison, keyed by
    # (diagonal type, cycle count of pi, largest separated prefix)
    histogram = Counter()
    for pp in all_plane_permutations(n):
        smax = max(m for m in range(n + 1) if separates(pp.pi, m))
        key = (pp.diagonal().cycle_type().parts, pp.pi.cycle_count(), smax,
               pp.exceedance_count())
        histogram[key] += 1
    assert histogram == _census_stratified(n)


def test_cycle_count_bound_exhaustive():
    for n in range(1, 6):
        for pp in all_plane_permutations(n):
            assert pp.pi.cycle_count() + pp.diagonal().cycle_count() <= n + 1


def test_transpose_blocks_example():
    pp = PlanePermutation((1, 2, 3), Permutation.identity(3))
    out = pp.transpose_blocks((1, 1, 2))
    assert out.seq == (1, 3, 2)
    assert out.diagonal() == pp.diagonal()
    assert out.pi.cycle_string() == "(1 2 3)"


def test_transpose_blocks_invariants_exhaustive():
    for n in range(2, 6):
        for pp in all_plane_permutations(n):
            d = pp.diagonal()
            parity = pp.pi.parity()
            cycles = pp.pi.cycle_count()
            for i in range(1, n):
                for j in range(i, n):
                    for k in range(j + 1, n):
                        out = pp.transpose_blocks((i, j, k))
                        assert out.diagonal() == d
                        assert out.pi.parity() == parity
                        assert out.pi.cycle_count() - cycles in (-2, 0, 2)
                        moved = {
                            x for x in range(1, n + 1) if out.pi(x) != pp.pi(x)
                        }
                        assert moved <= {pp.seq[i - 1], pp.seq[j], pp.seq[k]}
                        expected = (
                            pp.seq[:i] + pp.seq[j + 1:k + 1]
                            + pp.seq[i:j + 1] + pp.seq[k + 1:]
                        )
                        assert out.seq == expected


def test_transpose_blocks_rejects_bad_indices():
    pp = PlanePermutation((1, 2, 3, 4), Permutation.identity(4))
    for h in [(0, 1, 2), (1, 3, 3), (2, 1, 3), (1, 1, 4), (3, 3, 2), (1, 2), (1, 1, 2, 3)]:
        with pytest.raises(ValueError):
            pp.transpose_blocks(h)
    for h in [(1, 2.0, 3), (1, "2", 3)]:
        with pytest.raises(TypeError, match="entries must be integers"):
            pp.transpose_blocks(h)


def test_reflect_worked_example():
    assert WORKED.reflect().ntae_count() == 0
    assert WORKED.reflect().seq == (1, 4, 5, 2, 6, 3)


def test_reflect_identity_cases():
    # vertical equal to the horizontal: diagonal is the identity and
    # both mirror images have zero non-trivial anti-exceedances
    for n in range(1, 6):
        for s in enumerate_n_cycles(n):
            pp = PlanePermutation(tuple(s.cycles()[0]), s)
            assert pp.ntae_count() == 0
            assert pp.reflect().ntae_count() == 0


def test_reflect_is_involution():
    for pp in all_plane_permutations(5):
        assert pp.reflect().reflect() == pp


def test_mirror_ntae_identity_sampled_n6():
    # (n, seed, samples): n = 6, and 100 000 pairs at n = 8, past the
    # exhaustive range
    for n, seed, samples in ((6, 42, 2000), (8, 20260809, 100_000)):
        rng = random.Random(seed)
        for _ in range(samples):
            pp = random_plane_permutation(n, rng)
            lhs = pp.ntae_count() + pp.reflect().ntae_count()
            rhs = n + 1 - pp.pi.cycle_count() - pp.diagonal().cycle_count()
            assert lhs == rhs


def test_hat_worked_example():
    pp = PlanePermutation(tuple(range(1, 7)), Permutation((4, 5, 6, 1, 2, 3)))
    out = pp.hat()
    assert out.seq == (1, 7, 2, 8, 3, 9, 4, 10, 5, 11, 6, 12)
    under = tuple(out.pi(x) for x in out.seq)
    assert under == (4, 11, 5, 12, 6, 7, 1, 8, 2, 9, 3, 10)
    # companion-only cycles carry the diagonal's cycle type
    bar_lengths = tuple(
        len(c) for c in out.pi.cycles() if all(x > 6 for x in c)
    )
    assert IntegerPartition(bar_lengths) == pp.diagonal().cycle_type()
    assert pp.diagonal().cycle_type().parts == (3, 3)


def test_hat_small_case():
    pp = PlanePermutation((1, 2), Permutation((2, 1)))
    out = pp.hat()
    d = out.diagonal()
    assert d.cycle_type().parts == (2, 2)
    assert not d.fixed_points()


def test_hat_structure_exhaustive():
    for n in range(1, 5):
        for pp in all_plane_permutations(n):
            out = pp.hat()
            assert out.n == 2 * n
            d = out.diagonal()
            # fixed-point-free involution pairing originals with companions
            assert d.cycle_type().parts == tuple([2] * n)
            for a, b in d.cycles():
                assert (a <= n) != (b <= n)
            # vertical restricted to the originals is the original vertical
            for x in range(1, n + 1):
                assert out.pi(x) == pp.pi(x)
            # vertical restricted to the companions matches the diagonal type
            bar_lengths = tuple(
                len(c) for c in out.pi.cycles() if all(x > n for x in c)
            )
            covered = sum(bar_lengths)
            assert covered == n
            assert IntegerPartition(bar_lengths) == pp.diagonal().cycle_type()


def test_two_row_rendering():
    text = WORKED.two_row_str()
    lines = text.splitlines()
    assert lines[0] == "( 1 3 6 2 5 4 )"
    assert lines[1] == "( 5 4 1 3 6 2 )"
    hat_text = PlanePermutation(
        tuple(range(1, 7)), Permutation((4, 5, 6, 1, 2, 3))
    ).hat().two_row_str(bar_from=6)
    assert "1'" in hat_text and "6'" in hat_text
