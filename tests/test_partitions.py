import doctest
from itertools import combinations

import pytest

from sepcycles import counting, partitions
from sepcycles.counting import _split_graph
from sepcycles.partitions import (
    Composition,
    IntegerPartition,
    PartitionParseError,
    compositions_of,
    partition_size,
    partitions_of,
    partitions_with_length,
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
        IntegerPartition.from_string("1^")
    # the position is the offending character's, never a part index
    for parse, text, position in [
        (IntegerPartition.from_string, "3++1", 2),
        (IntegerPartition.from_string, "", 0),
        (IntegerPartition.from_string, "3+", 2),
        (IntegerPartition.from_string, "3+0", 2),
        (IntegerPartition.from_string, "4+2+0+1", 4),
        (IntegerPartition.from_string, "3\u00b2", 1),
        (IntegerPartition.from_string, "0^2", 0),
        (IntegerPartition.from_string, "2^0 1^1", 2),
        (IntegerPartition.from_string, "1^0", 2),
        (Composition.from_string, "1,,2", 2),
    ]:
        with pytest.raises(PartitionParseError) as info:
            parse(text)
        assert info.value.position == position, text
    # whitespace on either side of a separator reads the same
    for text in ("3+1", "3 +1", "3+ 1", " 3 + 1 "):
        assert IntegerPartition.from_string(text) == P(3, 1), text
    for text in ("1,2", "1 ,2", "1, 2"):
        assert Composition.from_string(text).parts == (1, 2), text


def test_partition_size_reads_n_without_the_parts():
    for text in ("3+2+1+1", " 3 + 1 ", "4", "1^2 2^1 3^1", "2^3", "5^1 1^4"):
        assert partition_size(text) == IntegerPartition.from_string(text).n, text
    assert partition_size("1^100000000 7^3") == 100000021
    # malformed text fails as the parser does, at the same offset
    for text in ("3+x+1", "3++1", "", "3+0", "0^2", "2^0 1^1", "1^", "1^2 x"):
        with pytest.raises(PartitionParseError) as parsed:
            IntegerPartition.from_string(text)
        with pytest.raises(PartitionParseError) as sized:
            partition_size(text)
        assert str(sized.value) == str(parsed.value), text


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


def test_split_graph_matches_enumeration():
    # group (k - 3) / 2 of lam lists every mu with a nonzero merge count,
    # in reverse-lexicographic order; past the last group nothing splits
    for n in range(1, 10):
        graph = _split_graph(n)
        for lam in partitions_of(n):
            groups = graph[lam.parts]
            for k in range(3, n + 2, 2):
                expected = []
                for mu in partitions_of(n):
                    kappa = reference_merge_multiplicity(mu, lam, k)
                    if kappa:
                        expected.append((mu.parts, kappa))
                index = (k - 3) // 2
                group = groups[index] if index < len(groups) else ()
                assert group == tuple(expected), (lam, k)


def test_every_partition_merges_fully_into_one_part():
    # each mu of odd length >= 3 splits off the one-part lam exactly once
    for n in range(1, 10):
        groups = _split_graph(n)[(n,)]
        for mu in partitions_of(n):
            if mu.length >= 3 and mu.length % 2:
                assert (mu.parts, 1) in groups[(mu.length - 3) // 2]


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
    # the examples in partitions_of and counting._split_graph run as doctests
    results = [doctest.testmod(module) for module in (partitions, counting)]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 2
