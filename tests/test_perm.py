from itertools import permutations
from math import factorial

import pytest

from sepcycles.partitions import PartitionParseError
from sepcycles.perm import (
    Permutation,
    compose,
    cycle_type,
    cycle_type0,
    cycles0,
    enumerate_n_cycles,
    fixed_prefix,
    from_cycles0,
    inverse0,
    isolates,
    n_cycles0,
    parse_permutation,
    separated_prefix,
    separates,
    valid_cut_mask,
)
from sepcycles.plane import PlanePermutation


def from_cycles(*cycles, n=None):
    return Permutation.from_cycles(cycles, n=n)


def test_identity_and_validation():
    e = Permutation.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert e.is_identity()
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation.from_cycles([(0,), (1, 2)], n=2)


@pytest.mark.parametrize("bad", [(1.7, 2.2), (1.0, 2.0), ("1", "2"), (1, None)])
def test_non_integer_entries_rejected(bad):
    # unlike int(), which would truncate (1.7, 2.2) to the identity and parse "1"
    with pytest.raises(TypeError, match="entries must be integers"):
        Permutation(bad)
    with pytest.raises(TypeError, match="entries must be integers"):
        PlanePermutation(bad, Permutation.identity(2))


@pytest.mark.parametrize("bad", [1.5, "2"])
def test_from_cycles_rejects_non_integer_entries(bad):
    # refused up front with the constructor's message, not as an indexing
    # or comparison error from inside the cycle builder
    for n in (None, 3):
        with pytest.raises(TypeError, match="entries must be integers"):
            Permutation.from_cycles([(1, bad, 3)], n=n)
    with pytest.raises(TypeError, match="entries must be integers"):
        Permutation.from_cycle_sequence((3, 1, bad))
    with pytest.raises(TypeError, match="entries must be integers"):
        Permutation.from_cycles([(1, 2), (3, bad)], n=4)
    with pytest.raises(ValueError, match="ground set must have at least one element"):
        Permutation.from_cycles([], n=0)


@pytest.mark.parametrize("n", range(1, 6))
def test_from_cycles_matches_public_constructor_exhaustive(n):
    # from_cycles builds its result unchecked: every cycle form of every
    # permutation of [n] (canonical, without fixed points, reordered and
    # rotated) must give what the public constructor gives
    for images in permutations(range(1, n + 1)):
        expected = Permutation(images)
        cycles = expected.cycles()
        moved = [c for c in cycles if len(c) > 1]
        rotated = [c[1:] + c[:1] for c in reversed(cycles)]
        for form, size in ((cycles, None), (cycles, n), (moved, n), (rotated, None),
                           (rotated, n)):
            got = Permutation.from_cycles(form, n=size)
            assert got == expected and hash(got) == hash(expected)
            assert type(got.images) is tuple
            assert all(type(x) is int for x in got.images)
        assert parse_permutation(expected.cycle_string()) == expected
        if len(cycles) == 1:
            assert Permutation.from_cycle_sequence(rotated[0]) == expected


def _orbit(p, x):
    orbit, y = {x}, p[x]
    while y != x:
        orbit.add(y)
        y = p[y]
    return frozenset(orbit)


@pytest.mark.parametrize("n", range(1, 7))
def test_kernel_against_set_definitions(n):
    for images in permutations(range(n)):
        orbits = [_orbit(images, x) for x in range(n)]
        distinct = set(orbits)
        smax = 0
        while smax < n and orbits[smax] not in orbits[:smax]:
            smax += 1
        imax = 0
        while imax < n and images[imax] == imax:
            imax += 1
        mask = 0
        for t in range(1, n):
            if not any(min(o) < t <= max(o) for o in distinct):
                mask |= 1 << (t - 1)
        for form in (images, bytes(images)):
            cycles = cycles0(form)
            # each cycle follows the images from its least point; cycles
            # ordered by that point; together they cover [0, n) once
            assert [c[0] for c in cycles] == sorted(min(o) for o in distinct)
            for c in cycles:
                assert frozenset(c) == orbits[c[0]] and len(c) == len(orbits[c[0]])
                assert all(form[x] == y for x, y in zip(c, (*c[1:], c[0])))
            assert cycle_type0(cycles) == tuple(sorted((len(o) for o in distinct), reverse=True))
            assert separated_prefix(cycles) == smax
            assert fixed_prefix(cycles) == imax
            assert valid_cut_mask(cycles) == mask
            assert from_cycles0(cycles, n) == images
            inv = inverse0(form)
            assert all(inv[images[x]] == x for x in range(n))
    generated = list(n_cycles0(n))
    assert len(generated) == factorial(n - 1)
    assert set(generated) == {p for p in permutations(range(n)) if len(_orbit(p, 0)) == n}
    tails = [cycles0(s)[0][1:] for s in generated]
    assert tails == sorted(tails)


def test_compose_convention():
    e = Permutation.identity(3)
    c = from_cycles((1, 2, 3))
    assert compose(e, c) == c
    assert compose(c, e) == c
    assert compose(c, from_cycles((1, 3, 2))).is_identity()
    # hand-evaluated square: 1->2->3, 2->3->1, 3->1->2
    assert compose(c, c) == from_cycles((1, 3, 2))
    # apply right factor first
    tau = from_cycles((1, 2), n=3)
    assert compose(c, tau)(1) == c(tau(1)) == 3
    with pytest.raises(ValueError):
        compose(c, Permutation.identity(4))


def test_inverse_property_exhaustive():
    for n in range(1, 6):
        for images in permutations(range(1, n + 1)):
            p = Permutation(images)
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()


def test_cycles_canonical_form():
    p = from_cycles((5, 6, 1), (3, 4, 2))
    assert p.cycles() == ((1, 5, 6), (2, 3, 4))
    assert p.cycle_string() == "(1 5 6)(2 3 4)"
    assert Permutation.identity(3).cycle_string() == "(1)(2)(3)"


def test_cycle_type():
    assert cycle_type(Permutation.identity(4)).parts == (1, 1, 1, 1)
    assert cycle_type(from_cycles((1, 2, 3))).parts == (3,)
    p = from_cycles((1, 5, 6), (3, 4, 2))
    assert p.cycle_type().parts == (3, 3)
    assert p.cycle_count() == 2
    # type sums to n, length matches cycle count, for all of S_5
    for images in permutations(range(1, 6)):
        q = Permutation(images)
        t = q.cycle_type()
        assert t.n == 5
        assert t.length == q.cycle_count()


def test_stored_cycle_count_leaves_value_semantics_alone():
    p = from_cycles((1, 5, 6), (3, 4, 2), n=7)
    fresh = Permutation(p.images)
    assert p.cycle_count() == 3
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    # the inverse takes the stored count over instead of walking
    inv = p.inverse()
    assert inv.cycle_count() == len(inv.cycles()) == 3


def test_parity_matches_transposition_count():
    assert Permutation.identity(5).parity() == 0
    assert from_cycles((1, 2), n=5).parity() == 1
    assert from_cycles((1, 2, 3), n=5).parity() == 0
    p = from_cycles((1, 2), (3, 4), n=5)
    assert p.parity() == 0


def test_separates():
    assert separates(Permutation.identity(4), 4)
    assert not separates(from_cycles((1, 2), n=4), 2)
    assert not separates(from_cycles((1, 3, 2), n=4), 2)
    assert separates(from_cycles((1, 3), (2, 4)), 2)
    for images in permutations(range(1, 5)):
        p = Permutation(images)
        assert separates(p, 0) and separates(p, 1)
    with pytest.raises(ValueError):
        separates(Permutation.identity(3), 4)


def test_isolates():
    for m in range(0, 5):
        assert isolates(Permutation.identity(4), m)
    assert not isolates(from_cycles((1, 2)), 1)
    assert isolates(from_cycles((3, 4), n=4), 2)
    with pytest.raises(ValueError):
        isolates(Permutation.identity(3), 4)


def test_isolates_implies_separates():
    for images in permutations(range(1, 6)):
        p = Permutation(images)
        for m in range(0, 6):
            if isolates(p, m):
                assert separates(p, m)


def test_enumerate_n_cycles_counts_and_types():
    assert [p.images for p in enumerate_n_cycles(1)] == [(1,)]
    assert [p.cycle_string() for p in enumerate_n_cycles(3)] == [
        "(1 2 3)", "(1 3 2)",
    ]
    for n in range(1, 8):
        seen = set()
        for p in enumerate_n_cycles(n):
            assert p.cycle_type().parts == (n,)
            seen.add(p.images)
        assert len(seen) == factorial(n - 1)


def test_enumerate_n_cycles_deterministic_order():
    first = [p.images for p in enumerate_n_cycles(5)]
    second = [p.images for p in enumerate_n_cycles(5)]
    assert first == second
    # tails are in lexicographic order
    tails = [p.cycles()[0][1:] for p in enumerate_n_cycles(5)]
    assert tails == sorted(tails)


def test_text_round_trips():
    p = Permutation((5, 4, 1, 3, 6, 2))
    assert p.one_line_string() == "5,4,1,3,6,2"
    assert parse_permutation(p.one_line_string()) == p
    assert parse_permutation(p.cycle_string()) == p
    assert parse_permutation("(1 3 6)(2 5 4)").cycles() == ((1, 3, 6), (2, 5, 4))
    # any rotation parses to the same permutation
    assert parse_permutation("(6 1 3)(5 4 2)") == parse_permutation("(1 3 6)(2 5 4)")
    assert parse_permutation("(1 3)", n=4) == from_cycles((1, 3), n=4)
    with pytest.raises(ValueError):
        parse_permutation("(1 3")
    with pytest.raises(ValueError):
        parse_permutation("(1 3)")  # 2 missing, n not given
    with pytest.raises(ValueError):
        parse_permutation("")
    # a comma or whitespace separates numbers, with whitespace around a comma
    for text in ("5,4,1,3,6,2", "5 4 1 3 6 2", " 5, 4 ,1,3,6,2 "):
        assert parse_permutation(text) == p, text
    assert parse_permutation(" (1,3, 6) (2 5 4)").cycles() == ((1, 3, 6), (2, 5, 4))


@pytest.mark.parametrize("text, position", [
    ("1, 2,,3", 5),   # an empty entry is an error, not dropped
    ("(1,,2)", 3),
    ("1,2,3,", 6),
    ("1,2,x", 4),
    ("(1 a)(2)", 3),
    ("(1 2 (3)", 5),
    ("(1 2)x", 5),
    ("()", 1),
    (" (1 3", 1),      # the offset is in the text as given
])
def test_parse_permutation_errors_carry_position(text, position):
    with pytest.raises(PartitionParseError) as info:
        parse_permutation(text)
    assert info.value.position == position
    assert info.value.text == text
    assert f"at position {position} in {text!r}" in str(info.value)
