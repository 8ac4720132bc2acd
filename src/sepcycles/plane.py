"""Plane-permutation calculus.

A plane permutation is a pair (s, pi): s an n-cycle written as a linear
sequence s0..s{n-1} anchored at s0 = 1, pi an arbitrary permutation on
[n].  It is pictured as a two-row array with pi(s_i) written under s_i;
the diagonal is the permutation D = s * pi^-1, equivalently the map
sending the entry under s_{i-1} to s_i (cyclically).

The sequence induces a linear order: x precedes y when x appears before
y in s.  An element x is an exceedance when x strictly precedes pi(x),
an anti-exceedance otherwise (fixed points included).  Each pi-cycle
contributes one trivial anti-exceedance, the pi-preimage of its earliest
member; the remaining anti-exceedances are the non-trivial ones (NTAEs).
So the NTAE count is the anti-exceedance count minus C(pi), the number
of pi-cycles: one pass over the positions and no walk of its own.

The diagonal is built in one pass from the sequence and the vertical,
by its definition above, and so is the doubled pair of ``hat``.  Each
permutation keeps its cycle count after the first walk, and the mirror's
vertical D^-1 takes the count of D over, so a mirror check walks pi once
and D once.  The horizontal, the positions and the diagonal are kept on
the pair the same way: plain entries of the instance ``__dict__``,
written on first read by :class:`sepcycles.perm.stored`, with no lock
and no ``functools.cached_property``.

Validation runs on user input only: the public constructor checks the
sequence and the vertical, while the moves (``reflect``, ``hat``,
``transpose_blocks``) build their results from a pair that is already
valid through the unchecked ``PlanePermutation._trusted``.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import ge

from .partitions import int_tuple
from .perm import Permutation, from_cycles0, inverse0, stored


@dataclass(frozen=True)
class PlanePermutation:
    seq: tuple[int, ...]
    pi: Permutation

    def __post_init__(self):
        seq = int_tuple(self.seq)
        n = len(seq)
        if sorted(seq) != list(range(1, n + 1)):
            raise ValueError(f"sequence must arrange [{n}] exactly once: {seq}")
        if not isinstance(self.pi, Permutation):
            raise TypeError(f"the vertical must be a Permutation, got {type(self.pi).__name__}")
        if self.pi.n != n:
            raise ValueError(f"sequence on [{n}] but vertical on [{self.pi.n}]")
        if seq[0] != 1:
            at = seq.index(1)
            seq = seq[at:] + seq[:at]
        object.__setattr__(self, "seq", seq)

    @classmethod
    def _trusted(cls, seq: tuple[int, ...], pi: Permutation) -> "PlanePermutation":
        """The pair (seq, pi), unchecked: only for a tuple of ints that
        arranges [n] with seq[0] == 1 and a Permutation on the same [n].
        """
        pp = object.__new__(cls)
        object.__setattr__(pp, "seq", seq)
        object.__setattr__(pp, "pi", pi)
        return pp

    @property
    def n(self) -> int:
        return len(self.seq)

    @stored
    def s(self) -> Permutation:
        """The upper horizontal as a permutation: seq[i] -> seq[i+1]."""
        return Permutation._trusted(from_cycles0((self.seq,), self.n + 1)[1:])

    @stored
    def _pos(self) -> tuple[int, ...]:
        """_pos[x] = place of x in the sequence, counted from 1 (entry 0
        belongs to the prepended fixed 0)."""
        return inverse0((0, *self.seq))

    def precedes(self, a: int, b: int) -> bool:
        """Sequence order: a appears strictly before b."""
        n = self.n
        for x in (a, b):
            if not 1 <= x <= n:
                raise ValueError(f"{x} is outside the ground set [{n}]")
        return self._pos[a] < self._pos[b]

    @stored
    def _diagonal(self) -> Permutation:
        # the entry under s_{i-1} goes to s_i, cyclically
        seq, under = self.seq, self.pi.images
        images = [0] * len(seq)
        prev = seq[-1]
        for x in seq:
            images[under[prev - 1] - 1] = x
            prev = x
        return Permutation._trusted(tuple(images))

    def diagonal(self) -> Permutation:
        """D = s * pi^-1, computed once per pair."""
        return self._diagonal

    def classify_elements(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        """Partition [n] into (exceedances, trivial anti-exceedances, NTAEs)."""
        pos = self._pos
        exceedances = frozenset(
            x for x, y in enumerate(self.pi.images, 1) if pos[x] < pos[y]
        )
        trivial = set()
        for cycle in self.pi.cycles():
            at = min(range(len(cycle)), key=lambda i: pos[cycle[i]])
            trivial.add(cycle[at - 1])  # the in-cycle preimage of the earliest member
        anti = frozenset(range(1, self.n + 1)) - exceedances
        return exceedances, frozenset(trivial), anti - trivial

    def exceedance_count(self) -> int:
        return len(self.classify_elements()[0])

    def ntae_count(self) -> int:
        """Anti-exceedances x, pos[x] >= pos[pi(x)], less the one
        trivial anti-exceedance of each pi-cycle.
        """
        pos = self._pos
        anti = sum(map(ge, pos[1:], map(pos.__getitem__, self.pi.images)))
        return anti - self.pi.cycle_count()

    def transpose_blocks(self, h: tuple[int, int, int]) -> "PlanePermutation":
        """Swap the adjacent diagonal blocks spanned by seq[i..j] and
        seq[j+1..k] (subscripts 1-based into the stored sequence, so the
        anchor s0 never moves).  The diagonal is preserved; the vertical
        changes only at the images of s_{i-1}, s_j and s_k.
        """
        indices = int_tuple(h)
        if len(indices) != 3:
            raise ValueError(f"need three indices (i, j, k), got {h}")
        i, j, k = indices
        if not (1 <= i <= j < k <= self.n - 1):
            raise ValueError(f"need 1 <= i <= j < k <= {self.n - 1}, got {h}")
        seq = self.seq
        new_seq = seq[:i] + seq[j + 1:k + 1] + seq[i:j + 1] + seq[k + 1:]
        old = self.pi.images
        images = list(old)
        a, b, c = seq[i - 1], seq[j], seq[k]
        images[a - 1] = old[b - 1]
        images[b - 1] = old[c - 1]
        images[c - 1] = old[a - 1]
        return PlanePermutation._trusted(new_seq, Permutation._trusted(tuple(images)))

    def reflect(self) -> "PlanePermutation":
        """The mirror pair (s^-1, D^-1), re-anchored at 1.

        NTAE counts of a plane permutation and its mirror always add up
        to n + 1 - C(pi) - C(D).
        """
        rev = (self.seq[0],) + self.seq[:0:-1]
        d = self.diagonal()
        d.cycle_count()  # one walk of D; its inverse takes the count over
        return PlanePermutation._trusted(rev, d.inverse())

    def hat(self) -> "PlanePermutation":
        """Double cover on [2n] whose diagonal is a fixed-point-free
        involution. The companion n+x of each x is inserted right after x
        in the sequence; under x the vertical keeps pi(x), and under n+x
        it holds n + pi^-1(s(x)), the unique fill that makes the diagonal
        an involution pairing each element with a companion.

        The vertical restricted to companions (bars dropped) is conjugate
        to the diagonal of the original pair, hence shares its cycle type.
        """
        seq, under = self.seq, self.pi.images
        n = len(seq)
        doubled = [0] * (2 * n)
        doubled[::2] = seq
        doubled[1::2] = [x + n for x in seq]
        # preimages under pi, 1-based (entry 0 belongs to the prepended 0)
        inv = inverse0((0, *under))
        images = list(under) + [0] * n
        prev = seq[-1]
        for x in seq:
            images[n + prev - 1] = n + inv[x]  # s(prev) = x
            prev = x
        return PlanePermutation._trusted(tuple(doubled), Permutation._trusted(tuple(images)))

    def two_row_str(self, bar_from: int | None = None) -> str:
        """Render the two-row array; elements above bar_from print as
        companions, e.g. 8 on a doubled [6] prints as 2'.
        """
        def label(x: int) -> str:
            if bar_from is not None and x > bar_from:
                return f"{x - bar_from}'"
            return str(x)

        top = [label(x) for x in self.seq]
        bottom = [label(self.pi.images[x - 1]) for x in self.seq]
        width = max(len(t) for t in top + bottom)
        top_row = " ".join(t.rjust(width) for t in top)
        bottom_row = " ".join(t.rjust(width) for t in bottom)
        return f"( {top_row} )\n( {bottom_row} )"
