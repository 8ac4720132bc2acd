"""Integer partitions, integer compositions, and the part-splitting relation.

Partitions are stored as non-increasing tuples of positive parts.  The
splitting relation (mu arises from lam by splitting one part into k
positive parts) and the merge count ``merge_multiplicity(mu, lam, k)``
drive the cycle-type recurrences in :mod:`sepcycles.counting`.

The merge count has a closed form.  Once lam and the merged part v are
fixed, the merged pieces are forced: P = mu - (lam - {v}).  So the count
is a sum, over the distinct values v of lam such that lam - {v} is a
sub-multiset of mu, of prod_x binom(mult_mu(x), mult_P(x)); |P| = k and
sum(P) = v follow from l(mu) = l(lam) + k - 1 and |mu| = |lam|.
``splits_of`` is memoised, so each (lam, k) is split once per process.

Text forms: a partition renders as ``3+2+1+1`` or, in multiplicity form,
``1^2 2^1 3^1``; a composition renders as comma-separated parts ``1,3``.
All three are parseable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import index
from typing import Iterable, Iterator


class PartitionParseError(ValueError):
    """Malformed partition/composition text; carries the failing offset."""

    def __init__(self, text: str, position: int, message: str):
        super().__init__(f"{message} at position {position} in {text!r}")
        self.text = text
        self.position = position


def int_tuple(values: Iterable) -> tuple[int, ...]:
    """The entries as a tuple of ints; floats, strings and other
    non-integers raise :class:`TypeError` instead of being truncated.
    """
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        raise TypeError(f"entries must be integers, got {values!r}") from None


@dataclass(frozen=True)
class IntegerPartition:
    """A partition of n: positive parts, normalised to non-increasing order."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = int_tuple(self.parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        parts = tuple(sorted(parts, reverse=True))
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def length_gt1(self) -> int:
        """Number of parts strictly greater than 1."""
        return sum(1 for p in self.parts if p > 1)

    def multiplicity(self, value: int) -> int:
        return sum(1 for p in self.parts if p == value)

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> number of parts with that value."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)

    def multiplicity_string(self) -> str:
        mult = self.multiplicities()
        return " ".join(f"{v}^{mult[v]}" for v in sorted(mult))

    @staticmethod
    def from_string(text: str) -> "IntegerPartition":
        """Parse ``3+2+1+1`` or multiplicity form ``1^2 2^1 3^1``."""
        if "^" in text:
            return _parse_multiplicity_form(text)
        return IntegerPartition(_parse_int_list(text, "+"))


@dataclass(frozen=True)
class Composition:
    """An integer composition of n: ordered positive parts.

    Part i induces the block B_i, the i-th run of consecutive integers in
    [n]; e.g. (1, 3) splits [4] into {1} and {2, 3, 4}.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = int_tuple(self.parts)
        if not parts:
            raise ValueError("a composition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Inclusive 1-based (lo, hi) bounds of each induced block."""
        out = []
        lo = 1
        for p in self.parts:
            out.append((lo, lo + p - 1))
            lo += p
        return tuple(out)

    def boundaries(self) -> tuple[int, ...]:
        """Internal cut points: t is a boundary when [t] is a union of blocks."""
        cuts = []
        acc = 0
        for p in self.parts[:-1]:
            acc += p
            cuts.append(acc)
        return tuple(cuts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @staticmethod
    def from_string(text: str) -> "Composition":
        return Composition(_parse_int_list(text, ","))


def _parse_int_list(text: str, sep: str) -> tuple[int, ...]:
    parts = []
    pos = 0
    expect_number = True
    token_start = 0
    token = ""

    def flush(at: int):
        nonlocal token
        if not token:
            raise PartitionParseError(text, token_start, "expected a number")
        parts.append(int(token))
        token = ""

    for pos, ch in enumerate(text):
        if ch.isdigit():
            if expect_number:
                token_start = pos
                expect_number = False
            token += ch
        elif ch == sep:
            flush(pos)
            expect_number = True
        elif ch.isspace():
            if token:
                flush(pos)
                expect_number = True
            continue
        else:
            raise PartitionParseError(text, pos, f"unexpected character {ch!r}")
    if expect_number and not token:
        raise PartitionParseError(text, len(text), "expected a number")
    if token:
        flush(len(text))
    if any(p < 1 for p in parts):
        bad = next(i for i, p in enumerate(parts) if p < 1)
        raise PartitionParseError(text, bad, "parts must be positive")
    return tuple(parts)


def _parse_multiplicity_form(text: str) -> IntegerPartition:
    parts: list[int] = []
    pos = 0
    length = len(text)
    while pos < length:
        if text[pos].isspace():
            pos += 1
            continue
        start = pos
        while pos < length and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise PartitionParseError(text, pos, "expected a part value")
        value = int(text[start:pos])
        if pos >= length or text[pos] != "^":
            raise PartitionParseError(text, pos, "expected '^'")
        pos += 1
        start = pos
        while pos < length and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise PartitionParseError(text, pos, "expected a multiplicity")
        count = int(text[start:pos])
        if value < 1:
            raise PartitionParseError(text, start, "part values must be positive")
        parts.extend([value] * count)
    if not parts:
        raise PartitionParseError(text, 0, "empty partition")
    return IntegerPartition(tuple(parts))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[IntegerPartition, ...]:
    """All partitions of n in reverse-lexicographic order.

    >>> [str(p) for p in partitions_of(4)]
    ['4', '3+1', '2+2', '2+1+1', '1+1+1+1']
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(IntegerPartition(p) for p in _partition_tuples(n, n))


def _partition_tuples(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if remaining == 0:
        yield ()
        return
    for p in range(min(remaining, max_part), 0, -1):
        for rest in _partition_tuples(remaining - p, p):
            yield (p, *rest)


def compositions_of(n: int) -> Iterator[Composition]:
    """All compositions of n >= 1, ordered by first part, then by the rest."""
    for first in range(1, n):
        for rest in compositions_of(n - first):
            yield Composition((first, *rest.parts))
    yield Composition((n,))


@lru_cache(maxsize=None)
def partitions_with_length(n: int, length: int) -> tuple[IntegerPartition, ...]:
    return tuple(lam for lam in partitions_of(n) if lam.length == length)


def merge_multiplicity(mu: IntegerPartition, lam: IntegerPartition, k: int) -> int:
    """Ways to merge k parts of mu (equal parts distinguished) into one,
    obtaining lam.  Returns 0 when no merge works, which encodes that the
    splitting relation fails.

    Closed form: merging into the part v of lam leaves lam - {v}, so the
    merged pieces are P = mu - (lam - {v}), and choosing them among the
    equal parts of mu gives prod_x binom(mult_mu(x), mult_P(x)) ways.
    The count sums this over the distinct values v of lam for which
    lam - {v} is a sub-multiset of mu.

    >>> merge_multiplicity(IntegerPartition((2, 2, 1, 1)), IntegerPartition((3, 2, 1)), 2)
    4
    """
    if k < 1 or mu.length != lam.length + k - 1 or mu.n != lam.n:
        return 0
    mu_mult = mu.multiplicities()
    lam_mult = lam.multiplicities()
    count = 0
    for v in lam_mult:
        # choose which parts of mu stay unmerged: the parts of lam - {v}
        ways = 1
        for x, mult in lam_mult.items():
            kept = mult - (x == v)
            available = mu_mult.get(x, 0)
            if kept > available:
                ways = 0
                break
            ways *= comb(available, kept)
        count += ways
    return count


@lru_cache(maxsize=None)
def splits_of(lam: IntegerPartition, k: int) -> tuple[tuple[IntegerPartition, int], ...]:
    """All mu obtained from lam by splitting one part into k positive parts,
    each paired with its positive merge multiplicity.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    candidates: set[tuple[int, ...]] = set()
    seen_values: set[int] = set()
    for idx, value in enumerate(lam.parts):
        if value in seen_values or value < k:
            continue
        seen_values.add(value)
        rest = lam.parts[:idx] + lam.parts[idx + 1:]
        for pieces in partitions_with_length(value, k):
            candidates.add(tuple(sorted(rest + pieces.parts, reverse=True)))
    out = []
    for parts in sorted(candidates, reverse=True):
        mu = IntegerPartition(parts)
        kappa = merge_multiplicity(mu, lam, k)
        if kappa > 0:
            out.append((mu, kappa))
    return tuple(out)

