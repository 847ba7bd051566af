"""Upper probabilities as exact envelopes of finitely many probabilities.

An upper probability here is built from a generating family of
probabilities alone, and its full value table over the 2**m subsets is
worked out once, on build, as their pointwise maximum.  So every
`UpperProb` in circulation is coherent by construction rather than by
re-validation: its table is normalized, monotone, and equal to the
subset-wise maximum over its own core.  Subset sums of generators are
worked in integers over a common denominator and are not cached, so an
envelope of hundreds of generators costs integer additions and holds no
memory afterwards.

The core {P : P(A) <= V(A) for all A} is a polytope; `core_vertices`
enumerates its exact vertex set, or that of a face where the core
members concentrate on a given set, and `invariant_core_vertices` does the
same for the sub-polytope of map-invariant core members, worked in
cycle-simplex coordinates (the invariant probabilities of a finite map
are exactly the mixtures of its cycle uniforms).

Both enumerate on the support S = null_support(V) only: |S| coordinates
(or the cycles inside S), and rows for the nonempty proper subsets of S.
This is exact.  A core member P has P({w}) <= V({w}) = 0 off S, so it
lives on S; on S, the bound for A follows from the bound for A & S,
because P(A) = P(A & S) <= V(A & S) <= V(A) by monotonicity; and the
bound for S itself is V(S) = 1, since every generator lives on S too.
So the core is the polytope on S, padded with zeros; likewise an
invariant core member gives no weight to a cycle with a point off S.
For an invariant V this is a real saving, because every point off the
cycles is null.  The lifted vertices are still checked against all 2**m
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import measure, polytope, space
from .errors import InternalVerificationError
from .measure import Prob, _as_fraction, subset_sums
from .space import SubsetMask, Transformation

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FunctionOnSpace:
    """An exact rational-valued function on the points of the space."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(_as_fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not 1 <= len(vals) <= space.MAX_POINTS:
            raise ValueError(f"function length must be 1..{space.MAX_POINTS}")

    @property
    def size(self) -> int:
        return len(self.values)

    def __call__(self, point: int) -> Fraction:
        return self.values[point]


def indicator(mask: SubsetMask, size: int) -> FunctionOnSpace:
    return FunctionOnSpace(tuple(ONE if mask >> w & 1 else ZERO for w in range(size)))


def _scaled_subset_sums(mass: tuple[Fraction, ...], den: int) -> list[int]:
    """den * P(A) for every bitmask A; den must be a common denominator of the masses."""
    nums = [x.numerator * (den // x.denominator) for x in mass]
    out = [0] * (1 << len(nums))
    for mask in range(1, len(out)):
        low = mask & -mask
        out[mask] = out[mask ^ low] + nums[low.bit_length() - 1]
    return out


def _scaled_envelope(gens) -> tuple[int, list[int]]:
    """A common denominator D of the generators, and D * max_i P_i(A) for every A."""
    den = lcm(*(x.denominator for g in gens for x in g.mass))
    return den, list(map(max, zip(*(_scaled_subset_sums(g.mass, den) for g in gens))))


@dataclass(frozen=True)
class UpperProb:
    """An upper probability: the set-wise maximum of its generators.

    The generators are the only input.  table[A], the value at bitmask A,
    is worked out once on build as max_i P_i(A), in integers over a
    common denominator.  So table[empty] = 0, table[omega] = 1,
    monotonicity under inclusion and the envelope identity hold by
    construction (each P_i is monotone, and so is a maximum of monotone
    functions): the generators certify coherence, and nothing is
    re-validated.
    """

    generators: tuple[Prob, ...]
    table: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("an envelope needs at least one generator")
        if any(g.size != gens[0].size for g in gens):
            raise ValueError("generators live on different spaces")
        den, best = _scaled_envelope(gens)
        values = {b: Fraction(b, den) for b in set(best)}
        object.__setattr__(self, "table", tuple(map(values.__getitem__, best)))

    @property
    def size(self) -> int:
        return len(self.table).bit_length() - 1

    def __call__(self, mask: SubsetMask) -> Fraction:
        return self.table[mask]


def envelope(generators) -> UpperProb:
    """The upper probability max_i P_i(.) of a family of probabilities.

    Duplicate generators are dropped (first occurrence kept, order
    preserved).
    """
    gens = {}
    for gen in generators:
        if not isinstance(gen, Prob):
            gen = Prob(tuple(gen))
        gens.setdefault(gen.mass, gen)
    return UpperProb(tuple(gens.values()))


def core_contains(V: UpperProb, P: Prob) -> bool:
    """Whether P(A) <= V(A) for every subset A.

    Worked in integers: with D the common denominator of P's masses and
    n = D * P, P(A) <= V(A) iff n(A) * den(V(A)) <= num(V(A)) * D.
    """
    if P.size != V.size:
        raise ValueError("measure and capacity live on different spaces")
    den = lcm(*(x.denominator for x in P.mass))
    sums = _scaled_subset_sums(P.mass, den)
    return all(s * v.denominator <= v.numerator * den for s, v in zip(sums, V.table))


def _proper_submasks(S: SubsetMask):
    """The nonempty proper subsets of S, in increasing mask order."""
    a = -S & S
    while a != S:
        yield a
        a = (a - S) & S


def _checked(V: UpperProb, masses) -> tuple[Prob, ...]:
    """Probabilities in lexicographic mass order, each checked against every bound of V."""
    out = tuple(sorted((Prob(x) for x in masses), key=lambda p: p.mass))
    for P in out:
        if not core_contains(V, P):
            raise InternalVerificationError("a vertex lifted from the support breaks a bound of V")
    return out


@lru_cache(maxsize=512)
def core_vertices(V: UpperProb, within: SubsetMask | None = None) -> tuple[Prob, ...]:
    """Exact vertex set of the core polytope, in lexicographic mass order.

    Enumerated in the |S| coordinates of the support S = null_support(V)
    and padded with zeros off S (see the module docstring).  With
    `within`, the vertices of the face of core members concentrated on
    it, in the coordinates of within & S: the module docstring's proof
    holds with S replaced by within & S, given V(within & S) = 1.  That
    value is V(within), attained by a generator, so the face is nonempty
    exactly when V(within) = 1; otherwise ValueError.
    """
    S = null_support(V)
    if within is not None:
        S &= within
        if V.table[S] != 1:
            raise ValueError(f"no core member concentrates on mask {within}")
    pts = tuple(space.points(S))
    rows = []
    for mask in _proper_submasks(S):
        rhs = V.table[mask]
        if rhs >= 1:
            continue
        rows.append((tuple(ONE if mask >> w & 1 else ZERO for w in pts), rhs))
    verts = polytope.simplex_cut_vertices(len(pts), rows)
    masses = []
    for v in verts:
        mass = [ZERO] * V.size
        for w, x in zip(pts, v):
            mass[w] = x
        masses.append(mass)
    return _checked(V, masses)


@lru_cache(maxsize=512)
def invariant_core_vertices(V: UpperProb, T: Transformation) -> tuple[Prob, ...]:
    """Vertices of {P in core(V) : P invariant under T}.

    Worked in the simplex of mixture weights over the uniforms of the
    cycles inside the support S = null_support(V), with rows for the
    proper subsets of S only, and mapped back to mass vectors; empty if
    no core member is invariant.
    """
    if T.size != V.size:
        raise ValueError("map and capacity live on different spaces")
    S = null_support(V)
    uniforms = [u for u in measure.ergodic_probabilities(T) if u.support() & ~S == 0]
    if not uniforms:
        return ()
    usums = [subset_sums(u.mass) for u in uniforms]
    rows = []
    for mask in _proper_submasks(S):
        rhs = V.table[mask]
        coeffs = tuple(s[mask] for s in usums)
        if rhs >= max(coeffs):
            continue
        rows.append((coeffs, rhs))
    lam_verts = polytope.simplex_cut_vertices(len(uniforms), rows)
    return _checked(V, [measure.mixture(lam, uniforms) for lam in lam_verts])


def choquet_integral(V: UpperProb, f: FunctionOnSpace) -> Fraction:
    """The decreasing-layer integral of f against V.

    With distinct values v_1 > ... > v_k this is
    sum_j (v_j - v_{j+1}) V({f >= v_j}) + v_k, exact in rationals; the
    signed-layer definition over the two half-lines agrees and is kept in
    the oracle module as the independent route.
    """
    if f.size != V.size:
        raise ValueError("function and capacity live on different spaces")
    return _choquet(V.table, f.values)


def _choquet(table: tuple[Fraction, ...], values: tuple[Fraction, ...]) -> Fraction:
    """`choquet_integral` of the values against the table, whose space they must match."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    mask = 0
    total = ZERO
    for w, below in zip(order, order[1:]):
        mask |= 1 << w
        if values[below] != values[w]:
            total += (values[w] - values[below]) * table[mask]
    return total + values[order[-1]]  # V(omega) = 1


def is_invariant_capacity(V: UpperProb, T: Transformation) -> bool:
    """Whether V(preimage(T, A)) == V(A) for every subset A."""
    if T.size != V.size:
        raise ValueError("map and capacity live on different spaces")
    table = V.table
    return all(table[pre] == value for pre, value in zip(T.preimage_table, table))


def null_support(V: UpperProb) -> SubsetMask:
    """The set of points with positive singleton value.

    A set is V-null exactly when it misses this support, so "holds at
    every point of null_support" is the pointwise reading of
    "holds outside a V-null set".
    """
    out = 0
    for w in range(V.size):
        if V.table[1 << w] > 0:
            out |= 1 << w
    return out
