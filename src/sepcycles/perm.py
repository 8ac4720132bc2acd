"""Exact permutation arithmetic on the ground set [n] = {1, ..., n}.

A permutation is stored as its image tuple: ``images[i-1]`` is the image
of i.  Composition follows the (p*q)(x) = p(q(x)) convention everywhere
in this package.

Text forms: canonical cycle form ``(1 3 6)(2 5 4)`` (each cycle rotated
so its minimum comes first, cycles sorted by minimum, fixed points
included) and one-line form ``5,4,1,3,6,2``.  Both are parseable.

The cycle walk, the cycle builder, the inverse and the n-cycle
enumeration live once, in a 0-based kernel that takes any int sequence
of images (a tuple or ``bytes``) on {0..n-1}; :mod:`sepcycles.plane` and
:mod:`sepcycles.oracle` share it.  The 1-based classes reach it by
prepending a fixed 0: ``(0, *images)`` is a 0-based permutation of
{0..n} whose canonical cycles are ``(0,)`` followed by the 1-based ones.

Validation runs on user input only: the public constructor, ``from_cycles``
and ``parse_permutation`` check their arguments, while results built from
permutations that are already valid (composition, inverse, n-cycle
enumeration) go through the unchecked ``Permutation._trusted``.

Statistics computed once per instance (the cycle count here, the plane
pair's horizontal, positions and diagonal in :mod:`sepcycles.plane`) are
plain entries of the instance ``__dict__``, written on first read by the
:class:`stored` descriptor: no lock and no ``functools.cached_property``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _all_arrangements
from typing import Iterable, Iterator, Sequence

from .partitions import IntegerPartition, PartitionParseError, int_tuple, scan_ints


# ---------------------------------------------------------------------------
# 0-based kernel

def cycles0(images: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Canonical cycles of the permutation of {0..n-1} with these images:
    each cycle starts at its least point, cycles are ordered by that
    point, fixed points included.
    """
    seen = [False] * len(images)
    out = []
    for start, x in enumerate(images):
        if seen[start]:
            continue
        # every smaller point sits in an earlier cycle, so start is the
        # least point of this one; the scan never comes back to it, so
        # only the later points are marked
        cycle = [start]
        while x != start:
            seen[x] = True
            cycle.append(x)
            x = images[x]
        out.append(tuple(cycle))
    return tuple(out)


def cycle_type0(cycles: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The cycle lengths in non-increasing order."""
    return tuple(sorted(map(len, cycles), reverse=True))


def separated_prefix(cycles: Sequence[tuple[int, ...]]) -> int:
    """Largest t such that 0..t-1 lie in pairwise distinct cycles, read
    off canonical cycles: cycle i starts at i for every i < t.
    """
    for i, cycle in enumerate(cycles):
        if cycle[0] != i:
            return i
    return len(cycles)


def fixed_prefix(cycles: Sequence[tuple[int, ...]]) -> int:
    """Largest t such that 0..t-1 are fixed points, read off canonical
    cycles: cycle i is (i,) for every i < t.
    """
    for i, cycle in enumerate(cycles):
        if cycle != (i,):
            return i
    return len(cycles)


def valid_cut_mask(cycles: Sequence[tuple[int, ...]]) -> int:
    """Bitmask of the cuts no cycle crosses, from canonical cycles.

    Cut t (1 <= t <= n-1, bit t-1) divides {0..t-1} from {t..n-1}; each
    cycle blocks the cuts between its least and its largest point.
    """
    n = 0
    blocked = 0
    for cycle in cycles:
        n += len(cycle)
        blocked |= (1 << max(cycle)) - (1 << cycle[0])
    return ((1 << (n - 1)) - 1) & ~blocked


def from_cycles0(cycles: Iterable[Sequence[int]], n: int) -> tuple[int, ...]:
    """Images on {0..n-1} of the permutation with these disjoint cycles;
    points in no cycle are fixed.
    """
    images = list(range(n))
    for cycle in cycles:
        for x, y in zip(cycle, (*cycle[1:], cycle[0])):
            images[x] = y
    return tuple(images)


def inverse0(images: Sequence[int]) -> tuple[int, ...]:
    """Images of the inverse permutation.  On an arrangement of {0..n-1}
    read as i -> seq[i], this is the position table of seq.
    """
    inv = [0] * len(images)
    for i, x in enumerate(images):
        inv[x] = i
    return tuple(inv)


def n_cycles0(n: int) -> Iterator[tuple[int, ...]]:
    """All (n-1)! n-cycles on {0..n-1} as images: the cycle
    (0 t1 ... t{n-1}) with the tail running through arrangements of
    {1..n-1} in lexicographic order.
    """
    for tail in _all_arrangements(range(1, n)):
        yield from_cycles0(((0, *tail),), n)


class stored:
    """A statistic computed on first read and kept in the instance
    ``__dict__``, which answers every later read directly: the
    descriptor defines no ``__set__``, so the dict entry shadows it.

    It takes no lock.  The values are pure functions of frozen fields,
    so two threads racing on a first read at worst compute the same
    value twice.  Equality, hashing and ``repr`` of a dataclass read its
    fields only, so a stored entry leaves them alone.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        images = int_tuple(self.images)
        n = len(images)
        if n < 1:
            raise ValueError("ground set must have at least one element")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on [{n}]: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """The permutation with these images, unchecked: only for a tuple
        of ints that is a bijection on [n] by construction.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"{x} is outside the ground set [{self.n}]")
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = Permutation._trusted(inverse0((0, *self.images))[1:])
        if "_cycle_count" in self.__dict__:
            # the inverse runs through the same cycles backwards
            inv.__dict__["_cycle_count"] = self._cycle_count
        return inv

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles in canonical form: each cycle starts at its
        minimum, cycles are sorted by minimum, fixed points included.
        """
        return cycles0((0, *self.images))[1:]

    @stored
    def _cycle_count(self) -> int:
        return len(cycles0((0, *self.images))) - 1

    def cycle_count(self) -> int:
        """Number of cycles, fixed points included.  Walked once per
        instance and kept on it; it is a function of ``images``, so
        equality, hashing and ``repr`` ignore it.
        """
        return self._cycle_count

    def cycle_type(self) -> IntegerPartition:
        return IntegerPartition(tuple(len(c) for c in self.cycles()))

    def parity(self) -> int:
        """0 for even permutations, 1 for odd."""
        return (self.n - self.cycle_count()) % 2

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, v in enumerate(self.images) if v == i + 1)

    def __str__(self) -> str:
        return self.cycle_string()

    def cycle_string(self) -> str:
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles())

    def one_line_string(self) -> str:
        return ",".join(str(v) for v in self.images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(cycles: Iterable[Sequence[int]], n: int | None = None) -> "Permutation":
        """Build from disjoint cycles.  Elements of [n] absent from every
        cycle are fixed points; with n omitted the cycles must cover
        [max element] completely.
        """
        cycles = [int_tuple(c) for c in cycles]
        elements = [x for c in cycles for x in c]
        if n is None:
            if not elements:
                raise ValueError("cannot infer n from empty cycle list")
            n = max(elements)
            if sorted(elements) != list(range(1, n + 1)):
                raise ValueError("cycles must partition [n]; pass n to allow implicit fixed points")
        if n < 1:
            raise ValueError("ground set must have at least one element")
        if not all(1 <= x <= n for x in elements) or len(set(elements)) != len(elements):
            raise ValueError(f"cycles are not disjoint subsets of [{n}]: {cycles}")
        # disjoint cycles inside [n]: the images are a bijection of ints
        return Permutation._trusted(from_cycles0(cycles, n + 1)[1:])

    @staticmethod
    def from_cycle_sequence(seq: Sequence[int]) -> "Permutation":
        """The n-cycle mapping seq[i] -> seq[i+1] (cyclically)."""
        return Permutation.from_cycles([tuple(seq)])


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p*q)(x) = p(q(x)): apply q first, then p."""
    if p.n != q.n:
        raise ValueError(f"ground sets differ: [{p.n}] vs [{q.n}]")
    pi = p.images
    return Permutation._trusted(tuple([pi[v - 1] for v in q.images]))


def cycle_type(p: Permutation) -> IntegerPartition:
    return p.cycle_type()


def separates(p: Permutation, m: int) -> bool:
    """True when 1..m lie in pairwise distinct cycles of p.

    Vacuously true for m <= 1.
    """
    if not 0 <= m <= p.n:
        raise ValueError(f"m must satisfy 0 <= m <= {p.n}, got {m}")
    # the prepended fixed 0 adds one to the separated prefix
    return separated_prefix(cycles0((0, *p.images))) > m


def isolates(p: Permutation, m: int) -> bool:
    """True when every element of 1..m is a fixed point of p."""
    if not 0 <= m <= p.n:
        raise ValueError(f"m must satisfy 0 <= m <= {p.n}, got {m}")
    return all(p.images[i] == i + 1 for i in range(m))


def enumerate_n_cycles(n: int) -> Iterator[Permutation]:
    """All (n-1)! n-cycles on [n], as the cycle (1 t2 ... tn) with the
    tail running through arrangements of {2..n} in lexicographic order.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for images in n_cycles0(n):
        yield Permutation._trusted(tuple([x + 1 for x in images]))


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse cycle form ``(1 3)(2)`` or one-line form ``3,2,1``; numbers
    are separated by a comma or by whitespace.  Malformed text raises
    :class:`PartitionParseError` (a ``ValueError``) with the offset of the
    offending character in ``text``.
    """
    pos, end = len(text) - len(text.lstrip()), len(text.rstrip())
    if pos == end:
        raise ValueError("empty permutation text")
    if text[pos] != "(":
        images = tuple(value for _, value in scan_ints(text, ",", pos, end))
        if n is not None and len(images) != n:
            raise ValueError(f"expected {n} images, got {len(images)}")
        return Permutation(images)
    cycles = []
    while pos < end:
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise PartitionParseError(text, pos, "expected '('")
        close = text.find(")", pos, end)
        if close < 0:
            raise PartitionParseError(text, pos, "unclosed cycle")
        cycles.append(tuple(value for _, value in scan_ints(text, ",", pos + 1, close)))
        pos = close + 1
    return Permutation.from_cycles(cycles, n=n)
