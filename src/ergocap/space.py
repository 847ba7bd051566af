"""Finite state space, bitmask set algebra, and map structure.

Points are labelled ``0 .. m-1`` and a measurable set is an ``int`` bitmask
(bit ``i`` set means point ``i`` belongs to the set); the sigma-algebra is
always the full power set.  A dynamics is a total map given by its value
table.  The sets fixed by preimage are exactly the unions of weakly
connected components of the functional graph ``w -> T(w)``.

Operations that enumerate all ``2**m`` subsets are exact but exponential;
they are meant for ``m <= 10`` (hard cap ``MAX_POINTS = 16``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterator

SubsetMask = int

MAX_POINTS = 16


def full_mask(size: int) -> SubsetMask:
    """Bitmask of the whole space on `size` points."""
    return (1 << size) - 1


def complement(mask: SubsetMask, size: int) -> SubsetMask:
    return mask ^ full_mask(size)


def subsets(size: int) -> range:
    """All 2**size bitmasks, in increasing numeric order."""
    return range(1 << size)


def points(mask: SubsetMask) -> Iterator[int]:
    """Yield the members of a bitmask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(pts) -> SubsetMask:
    out = 0
    for p in pts:
        out |= 1 << p
    return out


@dataclass(frozen=True)
class FiniteSpace:
    """The measurable space {0, .., size-1} with its full power set."""

    size: int

    def __post_init__(self) -> None:
        if not 1 <= self.size <= MAX_POINTS:
            raise ValueError(f"space size must be in 1..{MAX_POINTS}, got {self.size}")

    @property
    def omega(self) -> SubsetMask:
        return full_mask(self.size)

    def subsets(self) -> range:
        return subsets(self.size)


@dataclass(frozen=True)
class Transformation:
    """A total map of the space into itself, as a value table.

    ``table[w]`` is the image of point ``w``.  The map need not be
    invertible; invertibility is exactly "the table is a permutation".
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

    def cell_of(self, point: int) -> SubsetMask:
        for cell in self.cells:
            if cell >> point & 1:
                return cell
        raise ValueError(f"point {point} not covered")

    def cell_index(self, point: int) -> int:
        for i, cell in enumerate(self.cells):
            if cell >> point & 1:
                return i
        raise ValueError(f"point {point} not covered")


def preimage(T: Transformation, mask: SubsetMask) -> SubsetMask:
    """The set of points mapped into `mask` by one step of T."""
    out = 0
    for w, img in enumerate(T.table):
        if mask >> img & 1:
            out |= 1 << w
    return out


def preimage_table(T: Transformation) -> list[SubsetMask]:
    """preimage(T, A) for every bitmask A, indexed by A.

    Built with the low-bit recurrence pre[A] = pre[A minus its lowest
    point] | pre[{lowest point}], one OR per mask.
    """
    single = [0] * T.size
    for w, img in enumerate(T.table):
        single[img] |= 1 << w
    out = [0] * (1 << T.size)
    for mask in range(1, len(out)):
        low = mask & -mask
        out[mask] = out[mask ^ low] | single[low.bit_length() - 1]
    return out


def components(T: Transformation) -> Partition:
    """Weakly connected components of the functional graph, as a partition.

    Cells are ordered by least element.
    """
    m = T.size
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for w, img in enumerate(T.table):
        ra, rb = find(w), find(img)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    cells: dict[int, SubsetMask] = {}
    for w in range(m):
        cells.setdefault(find(w), 0)
        cells[find(w)] |= 1 << w
    ordered = tuple(cells[r] for r in sorted(cells))
    return Partition(ordered, m)


def invariant_sets(T: Transformation) -> list[SubsetMask]:
    """All sets A with preimage(T, A) == A, in increasing mask order.

    These are exactly the unions of weakly connected components; the
    construction is double-checked against the defining fixed-point
    property.
    """
    comp = components(T).cells
    out = []
    for choice in range(1 << len(comp)):
        mask = 0
        for i, cell in enumerate(comp):
            if choice >> i & 1:
                mask |= cell
        out.append(mask)
    out.sort()
    for mask in out:
        if preimage(T, mask) != mask:
            raise RuntimeError("component union is not preimage-fixed; graph bookkeeping is broken")
    return out


def is_invariant_set(T: Transformation, mask: SubsetMask) -> bool:
    return preimage(T, mask) == mask


def cycles(T: Transformation) -> list[tuple[SubsetMask, tuple[int, ...]]]:
    """The terminal cycles of the map.

    Returns ``(cycle_mask, ordered_points)`` pairs sorted by least cycle
    element; each cycle's point list starts at its least element and
    follows the map.
    """
    m = T.size
    # color: 0 unvisited, 1 on current walk, 2 done
    color = [0] * m
    cycle_masks: list[SubsetMask] = []
    for start in range(m):
        if color[start]:
            continue
        path = []
        w = start
        while color[w] == 0:
            color[w] = 1
            path.append(w)
            w = T.table[w]
        if color[w] == 1:
            # closed a new cycle at w
            mask = 0
            v = w
            while True:
                mask |= 1 << v
                v = T.table[v]
                if v == w:
                    break
            cycle_masks.append(mask)
        for v in path:
            color[v] = 2
    result = []
    for mask in sorted(cycle_masks, key=lambda c: c & -c):
        first = (mask & -mask).bit_length() - 1
        pts = [first]
        v = T.table[first]
        while v != first:
            pts.append(v)
            v = T.table[v]
        result.append((mask, tuple(pts)))
    return result


def is_invertible(T: Transformation) -> bool:
    return len(set(T.table)) == T.size


def cycle_mask(T: Transformation) -> SubsetMask:
    """Union of all terminal cycles."""
    out = 0
    for mask, _ in cycles(T):
        out |= mask
    return out


def period_lcm(T: Transformation) -> int:
    """Least common multiple of the cycle lengths."""
    return lcm(*(len(pts) for _, pts in cycles(T)))


def steps_to_cycle(T: Transformation) -> tuple[int, ...]:
    """For each point, how many steps until its orbit first enters a cycle."""
    on_cycle = cycle_mask(T)
    out = []
    for w in range(T.size):
        steps = 0
        v = w
        while not on_cycle >> v & 1:
            v = T.table[v]
            steps += 1
        out.append(steps)
    return tuple(out)


def preperiod_bound(T: Transformation) -> int:
    """A step count after which every orbit is inside its terminal cycle."""
    return max(steps_to_cycle(T))


def compose(T: Transformation, S: Transformation) -> Transformation:
    """The map w -> T(S(w))."""
    if T.size != S.size:
        raise ValueError("maps act on different spaces")
    return Transformation(tuple(T.table[S.table[w]] for w in range(S.size)))


def iterate(T: Transformation, n: int) -> Transformation:
    """The n-th forward iterate of the map (n >= 0)."""
    if n < 0:
        raise ValueError("iterate count must be nonnegative")
    out = Transformation(tuple(range(T.size)))
    step = T
    while n:
        if n & 1:
            out = compose(step, out)
        step = compose(step, step)
        n >>= 1
    return out


def inverse(T: Transformation) -> Transformation:
    if not is_invertible(T):
        raise ValueError("map is not invertible")
    inv = [0] * T.size
    for w, img in enumerate(T.table):
        inv[img] = w
    return Transformation(tuple(inv))
