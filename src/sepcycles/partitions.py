"""Integer partitions and integer compositions.

Partitions are stored as non-increasing tuples of positive parts.

Text forms: a partition renders as ``3+2+1+1`` or, in multiplicity form,
``1^2 2^1 3^1``; a composition renders as comma-separated parts ``1,3``.
All three are parseable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Iterable, Iterator


class PartitionParseError(ValueError):
    """Malformed partition, composition or permutation text; carries the
    failing offset."""

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
            parts: list[int] = []
            for value, count in _multiplicity_terms(text):
                parts.extend([value] * count)
            return IntegerPartition(tuple(parts))
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
    """Positive integers joined by ``sep``, as read by :func:`scan_ints`."""
    numbers = scan_ints(text, sep)
    for start, value in numbers:
        if value < 1:
            raise PartitionParseError(text, start, "parts must be positive")
    return tuple(value for _, value in numbers)


def scan_ints(text: str, sep: str, pos: int = 0, end: int | None = None) -> list[tuple[int, int]]:
    """The decimal numbers joined by ``sep`` in ``text[pos:end]``, each with
    its offset.  Whitespace may stand on either side of a separator and
    between two numbers (``"3 1"`` reads as ``"3+1"``); an error carries
    the offset in ``text`` of the offending character.
    """
    numbers = []
    end = len(text) if end is None else end
    while True:
        while pos < end and text[pos].isspace():
            pos += 1
        start = pos
        while pos < end and text[pos].isdecimal():
            pos += 1
        if pos == start:
            if pos < end and text[pos] != sep:
                raise PartitionParseError(text, pos, f"unexpected character {text[pos]!r}")
            raise PartitionParseError(text, pos, "expected a number")
        numbers.append((start, int(text[start:pos])))
        while pos < end and text[pos].isspace():
            pos += 1
        if pos == end:
            return numbers
        if text[pos] == sep:
            pos += 1
        elif not text[pos].isdecimal():
            raise PartitionParseError(text, pos, f"unexpected character {text[pos]!r}")


def partition_size(text: str) -> int:
    """The n of the partition :meth:`IntegerPartition.from_string` reads
    from ``text``, learned from the numbers alone: a multiplicity form is
    summed over its (value, multiplicity) terms, so ``1^100000000`` is
    sized without building its parts.  Malformed text raises the same
    :class:`PartitionParseError` as the parser.
    """
    if "^" in text:
        return sum(value * count for value, count in _multiplicity_terms(text))
    return sum(_parse_int_list(text, "+"))


def _multiplicity_terms(text: str) -> list[tuple[int, int]]:
    """The (value, multiplicity) terms of ``1^2 2^1 3^1``, in text order;
    a text with a "^" has at least one."""
    terms = []
    pos = 0
    length = len(text)
    while pos < length:
        if text[pos].isspace():
            pos += 1
            continue
        value_start = pos
        while pos < length and text[pos].isdecimal():
            pos += 1
        if pos == value_start:
            raise PartitionParseError(text, pos, "expected a part value")
        value = int(text[value_start:pos])
        if pos >= length or text[pos] != "^":
            raise PartitionParseError(text, pos, "expected '^'")
        pos += 1
        start = pos
        while pos < length and text[pos].isdecimal():
            pos += 1
        if pos == start:
            raise PartitionParseError(text, pos, "expected a multiplicity")
        count = int(text[start:pos])
        if value < 1:
            raise PartitionParseError(text, value_start, "part values must be positive")
        if count < 1:
            raise PartitionParseError(text, start, "multiplicities must be positive")
        terms.append((value, count))
    return terms


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
