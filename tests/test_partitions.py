import doctest
from itertools import combinations

import pytest

from sepcycles import partitions
from sepcycles.partitions import (
    Composition,
    IntegerPartition,
    PartitionParseError,
    compositions_of,
    merge_multiplicity,
    partitions_of,
    partitions_with_length,
    splits_of,
)


def P(*parts):
    return IntegerPartition(tuple(parts))


def test_partition_normalises_and_validates():
    assert P(1, 3, 2).parts == (3, 2, 1)
    assert P(2, 2, 1, 1).n == 6
    assert P(2, 2, 1, 1).length == 4
    assert P(2, 2, 1, 1).length_gt1 == 2
    assert P(3, 1, 1).multiplicity(1) == 2
    assert P(3, 1, 1).multiplicities() == {3: 1, 1: 2}
    with pytest.raises(ValueError):
        IntegerPartition(())
    with pytest.raises(ValueError):
        P(3, 0)
    # non-integer parts are refused, not truncated
    for parts in ((2.7, 1), ("3",), (2.0,), (None, 1)):
        with pytest.raises(TypeError, match="entries must be integers"):
            IntegerPartition(parts)


def test_partition_text_forms_round_trip():
    lam = P(3, 2, 1, 1)
    assert str(lam) == "3+2+1+1"
    assert lam.multiplicity_string() == "1^2 2^1 3^1"
    assert IntegerPartition.from_string("3+2+1+1") == lam
    assert IntegerPartition.from_string("1^2 2^1 3^1") == lam
    assert IntegerPartition.from_string("4") == P(4)


def test_partition_parse_errors_carry_position():
    with pytest.raises(PartitionParseError) as info:
        IntegerPartition.from_string("3+x+1")
    assert info.value.position == 2
    with pytest.raises(PartitionParseError):
        IntegerPartition.from_string("3++1")
    with pytest.raises(PartitionParseError):
        IntegerPartition.from_string("1^")
    with pytest.raises(PartitionParseError):
        IntegerPartition.from_string("")


def test_partitions_of_counts_and_order():
    assert [str(p) for p in partitions_of(1)] == ["1"]
    assert [str(p) for p in partitions_of(4)] == [
        "4", "3+1", "2+2", "2+1+1", "1+1+1+1",
    ]
    # classical partition numbers
    for n, expected in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (7, 15)]:
        out = partitions_of(n)
        assert len(out) == expected
        assert len(set(out)) == expected
        assert all(p.n == n for p in out)
    # reverse-lexicographic: part tuples strictly decreasing
    parts = [p.parts for p in partitions_of(7)]
    assert parts == sorted(parts, reverse=True)


def test_partitions_with_length():
    assert [p.parts for p in partitions_with_length(5, 2)] == [(4, 1), (3, 2)]


def reference_merge_multiplicity(mu, lam, k):
    """Merge count by enumeration: try every set of k parts of mu."""
    if k < 1 or k > mu.length or mu.n != lam.n:
        return 0
    parts = mu.parts
    count = 0
    for chosen in combinations(range(len(parts)), k):
        merged = [p for i, p in enumerate(parts) if i not in chosen]
        merged.append(sum(parts[i] for i in chosen))
        merged.sort(reverse=True)
        count += tuple(merged) == lam.parts
    return count


def test_merge_multiplicity_matches_enumeration():
    for n in range(1, 10):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                for k in range(0, mu.length + 2):
                    assert merge_multiplicity(mu, lam, k) == reference_merge_multiplicity(
                        mu, lam, k
                    ), (mu, lam, k)


def test_splits_of_matches_enumeration():
    for n in range(1, 10):
        for lam in partitions_of(n):
            for k in range(2, n + 1):
                expected = []
                for mu in partitions_of(n):  # reverse-lexicographic, like splits_of
                    kappa = reference_merge_multiplicity(mu, lam, k)
                    if kappa:
                        expected.append((mu, kappa))
                assert splits_of(lam, k) == tuple(expected), (lam, k)


def test_merge_multiplicity_examples():
    # two unit parts and two 2-parts merging pairwise into 1+2+3
    assert merge_multiplicity(P(1, 1, 2, 2), P(1, 2, 3), 2) == 4
    # merging a single part is choosing it
    for lam in partitions_of(5):
        assert merge_multiplicity(lam, lam, 1) == lam.length
    # three distinguished unit parts, merge two of them
    assert merge_multiplicity(P(1, 1, 1), P(2, 1), 2) == 3
    # non-relation encodes as zero
    assert merge_multiplicity(P(2, 2), P(3, 1), 2) == 0
    assert merge_multiplicity(P(2, 1), P(2, 2), 2) == 0  # different n


def test_merge_multiplicity_ignores_input_order():
    assert merge_multiplicity(
        IntegerPartition((1, 2, 1, 2)), P(1, 2, 3), 2
    ) == merge_multiplicity(P(2, 2, 1, 1), P(1, 2, 3), 2)


def test_splits_of_examples():
    assert [(mu.parts, k) for mu, k in splits_of(P(3), 3)] == [((1, 1, 1), 1)]
    assert splits_of(P(2), 3) == ()
    assert [(mu.parts, k) for mu, k in splits_of(P(4), 3)] == [((2, 1, 1), 1)]
    with pytest.raises(ValueError):
        splits_of(P(4), 1)


def test_splits_merge_consistency():
    # mu appears in splits_of(lam, k) exactly when kappa(mu, lam, k) > 0
    for n in range(1, 9):
        for lam in partitions_of(n):
            for k in range(2, n + 1):
                listed = dict(splits_of(lam, k))
                for mu in partitions_of(n):
                    kappa = merge_multiplicity(mu, lam, k)
                    if kappa > 0:
                        assert listed.get(mu) == kappa, (lam, mu, k)
                    else:
                        assert mu not in listed


def test_every_partition_merges_fully_into_one_part():
    for n in range(1, 9):
        top = IntegerPartition((n,))
        for mu in partitions_of(n):
            if mu.length >= 2:
                assert merge_multiplicity(mu, top, mu.length) == 1


def test_composition_blocks_and_text():
    alpha = Composition((1, 3))
    assert alpha.n == 4
    assert alpha.length == 2
    assert alpha.blocks() == ((1, 1), (2, 4))
    assert alpha.boundaries() == (1,)
    assert str(alpha) == "1,3"
    assert Composition.from_string("1,3") == alpha
    assert Composition.from_string("2, 2, 1").parts == (2, 2, 1)
    with pytest.raises(PartitionParseError):
        Composition.from_string("1,,3")
    with pytest.raises(ValueError):
        Composition((0, 2))
    for parts in ((1.9, 2), ("1", 3), (2.0,)):
        with pytest.raises(TypeError, match="entries must be integers"):
            Composition(parts)
    # every composition of n exactly once: one per subset of the n - 1 cuts
    assert [str(c) for c in compositions_of(3)] == ["1,1,1", "1,2", "2,1", "3"]
    for n in range(1, 10):
        alphas = list(compositions_of(n))
        assert all(alpha.n == n for alpha in alphas)
        assert len(set(alphas)) == len(alphas) == 2 ** (n - 1)


def test_partitions_doctests_pass():
    # the examples in partitions_of and merge_multiplicity run as doctests
    results = doctest.testmod(partitions)
    assert results.failed == 0
    assert results.attempted >= 2
