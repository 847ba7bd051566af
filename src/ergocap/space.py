"""Finite state space, bitmask set algebra, and map structure.

Points are labelled ``0 .. m-1`` and a measurable set is an ``int`` bitmask
(bit ``i`` set means point ``i`` belongs to the set); the sigma-algebra is
always the full power set.  A dynamics is a total map given by its value
table.  Every orbit of such a map falls into a terminal cycle, and each
weakly connected component of the functional graph ``w -> T(w)`` holds
exactly one cycle, so a single walk of the graph gives the cycles, each
point's cycle and its distance to it, and the components.  The sets fixed
by preimage are exactly the unions of components.  `Transformation` holds
this structure, worked out lazily and once per instance.

Operations that enumerate all ``2**m`` subsets are exact but exponential;
they are meant for ``m <= 10`` (hard cap ``MAX_POINTS = 16``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Iterator, NamedTuple

from .errors import InternalVerificationError

SubsetMask = int

MAX_POINTS = 16


def full_mask(size: int) -> SubsetMask:
    """Bitmask of the whole space on `size` points."""
    return (1 << size) - 1


def complement(mask: SubsetMask, size: int) -> SubsetMask:
    return mask ^ full_mask(size)


def points(mask: SubsetMask) -> Iterator[int]:
    """Yield the members of a bitmask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _packed(masks) -> memoryview:
    """Masks as a read-only array of 16-bit words (MAX_POINTS = 16).

    A map keeps its tables as long as it lives, also as an lru_cache key;
    packed, the preimage table of a 16-point map takes 128 KiB instead of
    the 2.5 MB of a tuple of ints.
    """
    return memoryview(array("H", masks)).toreadonly()


class _Walk(NamedTuple):
    cycles: tuple[tuple[SubsetMask, tuple[int, ...]], ...]
    cycle_of: tuple[int, ...]
    preperiod: int


def _walk(T: Transformation) -> _Walk:
    """One walk of the functional graph: its cycles, each point's cycle, the preperiod.

    Each point is followed until it meets a point already placed; the
    points of that walk then take that point's cycle, and their distances
    to the cycle are counted back from it.  A walk that meets itself has
    found a new cycle.
    """
    table = T.table
    m = len(table)
    root = [-1] * m  # least point of the cycle each point's orbit falls into
    depth = [0] * m
    on_walk = [False] * m
    for start in range(m):
        path = []
        w = start
        while root[w] < 0 and not on_walk[w]:
            on_walk[w] = True
            path.append(w)
            w = table[w]
        if root[w] < 0:  # the walk closed a new cycle at w
            i = path.index(w)
            least = min(path[i:])
            for v in path[i:]:
                root[v] = least
            del path[i:]
        for v in reversed(path):
            root[v] = root[w]
            depth[v] = depth[w] + 1
            w = v
    cycles = []
    rank = {}
    for least in sorted(set(root)):
        rank[least] = len(cycles)
        pts = [least]
        while table[pts[-1]] != least:
            pts.append(table[pts[-1]])
        cycles.append((sum(1 << v for v in pts), tuple(pts)))
    return _Walk(tuple(cycles), tuple(rank[r] for r in root), max(depth))


@dataclass(frozen=True)
class Transformation:
    """A total map of the space into itself, as a value table.

    ``table[w]`` is the image of point ``w``.  The map need not be
    invertible; invertibility is exactly "the table is a permutation".
    The structure attributes are cached on first use; equality and
    hashing use the table alone.
    """

    table: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        m = len(self.table)
        if not 1 <= m <= MAX_POINTS:
            raise ValueError(f"map must act on 1..{MAX_POINTS} points, got {m}")
        for w, img in enumerate(self.table):
            if not isinstance(img, int) or not 0 <= img < m:
                raise ValueError(f"map value table[{w}] = {img!r} is not a point in 0..{m - 1}")

    @property
    def size(self) -> int:
        return len(self.table)

    def __call__(self, point: int) -> int:
        return self.table[point]

    @cached_property
    def _structure(self) -> _Walk:
        return _walk(self)

    @cached_property
    def cycles(self) -> tuple[tuple[SubsetMask, tuple[int, ...]], ...]:
        """The terminal cycles, as ``(cycle_mask, ordered_points)`` pairs.

        Sorted by least cycle element; each point list starts at its least
        element and follows the map.
        """
        return self._structure.cycles

    @cached_property
    def cycle_of(self) -> tuple[int, ...]:
        """For each point, the index in `cycles` of the cycle its orbit falls into."""
        return self._structure.cycle_of

    @cached_property
    def preperiod(self) -> int:
        """The most steps any orbit takes to enter its cycle."""
        return self._structure.preperiod

    @cached_property
    def period(self) -> int:
        """Least common multiple of the cycle lengths."""
        return lcm(*(len(pts) for _, pts in self.cycles))

    @cached_property
    def components(self) -> Partition:
        """Weakly connected components of the functional graph, ordered by least point.

        Each holds exactly one cycle, so they are the points grouped by
        the cycle their orbits fall into.
        """
        cells = [0] * len(self.cycles)
        for w, c in enumerate(self.cycle_of):
            cells[c] |= 1 << w
        return Partition(tuple(sorted(cells, key=lambda cell: cell & -cell)), self.size)

    @cached_property
    def invariant_sets(self) -> memoryview:
        """All sets A with preimage(T, A) == A, in increasing mask order.

        These are exactly the unions of components; the construction is
        double-checked against the defining fixed-point property.
        """
        out = [0]
        for cell in self.components:
            out += [mask | cell for mask in out]
        out.sort()
        for mask in out:
            if preimage(self, mask) != mask:
                raise InternalVerificationError(
                    "component union is not preimage-fixed; graph bookkeeping is broken"
                )
        return _packed(out)

    @cached_property
    def preimage_table(self) -> memoryview:
        """preimage(T, A) for every bitmask A, indexed by A.

        Built with the low-bit recurrence pre[A] = pre[A minus its lowest
        point] | pre[{lowest point}], one OR per mask.
        """
        single = [0] * self.size
        for w, img in enumerate(self.table):
            single[img] |= 1 << w
        out = [0] * (1 << self.size)
        for mask in range(1, len(out)):
            low = mask & -mask
            out[mask] = out[mask ^ low] | single[low.bit_length() - 1]
        return _packed(out)


@dataclass(frozen=True)
class Partition:
    """An ordered partition of the space into nonempty disjoint cells."""

    cells: tuple[SubsetMask, ...]
    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        union = 0
        for cell in self.cells:
            if cell == 0:
                raise ValueError("partition cell is empty")
            if cell & union:
                raise ValueError("partition cells overlap")
            union |= cell
        if union != full_mask(self.size):
            raise ValueError("partition cells do not cover the space")

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def cell_index(self, point: int) -> int:
        for i, cell in enumerate(self.cells):
            if cell >> point & 1:
                return i
        raise ValueError(f"point {point} not covered")


def charged_partition(T: Transformation, support: SubsetMask) -> Partition:
    """The components that meet `support`, in least-point order, the others folded into the last.

    The cells of both component splits: of a capacity under the zero-one
    condition (with its null support) and of a probability (with its
    support).
    """
    charged = [cell for cell in T.components if cell & support]
    if not charged:
        raise ValueError("an empty support charges no component")
    null = full_mask(T.size) ^ sum(charged)  # the cells are disjoint: their sum is their union
    return Partition(tuple(charged[:-1]) + (charged[-1] | null,), T.size)


def preimage(T: Transformation, mask: SubsetMask) -> SubsetMask:
    """The set of points mapped into `mask` by one step of T."""
    out = 0
    for w, img in enumerate(T.table):
        if mask >> img & 1:
            out |= 1 << w
    return out


def is_invertible(T: Transformation) -> bool:
    return len(set(T.table)) == T.size
