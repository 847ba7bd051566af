"""Exact vertex enumeration for polytopes cut out of a probability simplex.

Incremental double description (Fukuda & Prodon, 1996): start from the
standard simplex (whose vertices are the unit vectors), then impose one
inequality at a time.  Each cut keeps the satisfying vertices and adds
the intersection of the hyperplane with every edge joining a
strictly-inside vertex to a strictly-outside one.

Every vertex carries its tight set, a bitmask over the sign constraints
x_j >= 0 (bits 0..dim-1) and the rows cut so far (bit dim + r).  A vertex
born strictly inside the edge (v, w) is tight exactly where both ends
are, plus on the new cut, so it inherits `tight[v] & tight[w] | cut`
without evaluating a single row.  Edges are recognized combinatorially:
two vertices span an edge iff no third vertex is tight on every
constraint tight at both.  Each cut first indexes the vertices by
constraint, one bitset of positions per constraint, so that both tests
below are a few big-integer operations instead of a Python loop over
the vertices.  A cardinality test keeps, for each outside vertex, only
the inside vertices that share at least dim - 2 of its tight
constraints, since an edge of a polytope inside the (dim - 1)-dimensional
simplex lies on at least that many independent constraints; for those,
the AND of the bitsets of the common constraints must hold just the two
ends.

Arithmetic is fraction-free, in the spirit of Bareiss (1968).  Each row
a.x <= b is scaled by the lcm of its denominators and homogenized into
an integer vector h = a - b * (1, ..., 1), so that a point x / sum(x) of
the simplex satisfies the row iff h.x <= 0.  A vertex is a gcd-reduced
nonnegative integer vector x standing for the point x / sum(x), and the
point where the edge (v, w) meets the cut is the integer combination
(h.w) v - (h.v) w.  Fractions appear only in the output, which is the
exact vertex set.

Cost grows with the number of live vertices, not with the number of
candidate constraint bases, which keeps the envelope cores of this
library (tens to hundreds of vertices) cheap even at the full
subset-constraint count.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import InternalVerificationError
from .space import points

Vector = tuple[Fraction, ...]
Row = tuple[Sequence[Fraction], Fraction]


def _homogenize(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[int, ...]:
    """The integer h with h.x <= 0 iff coeffs.(x / sum(x)) <= rhs, for x >= 0."""
    scale = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    b = rhs.numerator * (scale // rhs.denominator)
    return tuple(c.numerator * (scale // c.denominator) - b for c in coeffs)


def _dot(h: tuple[int, ...], x: tuple[int, ...]) -> int:
    return sum(map(mul, h, x))


def _in_at_least(r: int, sets: list[int]) -> int:
    """The bitset of positions that lie in at least r of the given bitsets."""
    level = [-1] + [0] * r  # level[j]: positions in at least j of the sets so far
    for s in sets:
        for j in range(r, 0, -1):
            level[j] |= level[j - 1] & s
    return level[r]


def simplex_cut_vertices(dim: int, rows: Sequence[Row]) -> list[Vector]:
    """Vertices of {x >= 0, sum(x) = 1, a.x <= b for every (a, b) in rows}.

    Returns the exact vertex list, deduplicated and sorted
    lexicographically; empty list means an empty polytope.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    verts = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    base = (1 << dim) - 1
    tight = [base ^ (1 << i) for i in range(dim)]
    edge_rank = max(dim - 2, 0)

    homs: list[tuple[int, ...]] = []
    for coeffs, rhs in rows:
        h = _homogenize(coeffs, rhs)
        homs.append(h)
        cid = 1 << (dim + len(homs) - 1)
        vals = [_dot(h, v) for v in verts]
        outside = [k for k, val in enumerate(vals) if val > 0]
        if not outside:
            tight = [t | cid if val == 0 else t for t, val in zip(tight, vals)]
            continue
        inside = [i for i, val in enumerate(vals) if val < 0]
        on = [i for i, val in enumerate(vals) if val == 0]
        if not inside and not on:
            return []

        # col[c] is the set of vertices tight on constraint c, as a bitset of
        # positions; the vertices tight on all of a tight set T are then the
        # AND of col[c] over c in T
        col = [0] * (dim + len(homs))
        for z, t in enumerate(tight):
            bit = 1 << z
            while t:
                low = t & -t
                col[low.bit_length() - 1] |= bit
                t ^= low
        everyone = (1 << len(verts)) - 1
        inside_set = sum(1 << i for i in inside)
        fresh: dict[tuple[int, ...], int] = {}
        for k in outside:
            tk, vk, sk = tight[k], verts[k], vals[k]
            near = _in_at_least(edge_rank, [col[c] for c in points(tk)]) & inside_set
            for i in points(near):
                common = tight[i] & tk
                cover = everyone
                for c in points(common):
                    cover &= col[c]
                if cover != 1 << i | 1 << k:
                    continue
                si = vals[i]
                p = [sk * a - si * b for a, b in zip(verts[i], vk)]
                g = gcd(*p)
                fresh.setdefault(tuple(x // g for x in p), common | cid)

        new_verts = [verts[i] for i in inside]
        new_tight = [tight[i] for i in inside]
        for i in on:
            new_verts.append(verts[i])
            new_tight.append(tight[i] | cid)
        new_verts.extend(fresh)
        new_tight.extend(fresh.values())
        verts, tight = new_verts, new_tight

    out = []
    for v in verts:
        total = sum(v)
        if total <= 0 or any(x < 0 for x in v):
            raise InternalVerificationError("vertex escaped the simplex; cut bookkeeping is broken")
        if any(_dot(h, v) > 0 for h in homs):
            raise InternalVerificationError("vertex violates a processed constraint")
        out.append(tuple(Fraction(x, total) for x in v))
    return sorted(set(out))
