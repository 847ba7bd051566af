"""Exact orbit averages, the multi-valued LLN, and asymptotic independence.

On a finite space every forward orbit falls into a cycle, so the limit of
the Birkhoff averages is the average of f over that terminal cycle: a
rational number computed structurally, never by float iteration.  Finite
averages appear only as convergence-trace evidence in reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import capacity, measure, space
from .capacity import FunctionOnSpace, UpperProb, choquet_integral
from .fec import FECResult
from .measure import Prob
from .space import Partition, SubsetMask, Transformation

ZERO = Fraction(0)


def birkhoff_limit(T: Transformation, f: FunctionOnSpace) -> FunctionOnSpace:
    """Pointwise limit of (1/N) sum f(T^i w): the terminal-cycle average of f."""
    if f.size != T.size:
        raise ValueError("function and map live on different spaces")
    averages = [sum((f.values[w] for w in pts), ZERO) / len(pts) for _, pts in T.cycles]
    return FunctionOnSpace(tuple(averages[c] for c in T.cycle_of))


def finite_average(
    T: Transformation, f: FunctionOnSpace, w: int, n: int, burn: int = 0
) -> Fraction:
    """(1/n) sum of f over the orbit segment T^burn(w), ..., T^(burn+n-1)(w).

    With burn >= T.preperiod and n a multiple of T.period this equals
    birkhoff_limit exactly; the plain window (burn = 0) only converges, it
    never closes the gap at points off their cycle.
    """
    if n < 1:
        raise ValueError("average needs at least one term")
    x = w
    for _ in range(burn):
        x = T(x)
    total = ZERO
    for _ in range(n):
        total += f.values[x]
        x = T(x)
    return total / n


def verify_multivalue_lln(
    V: UpperProb, T: Transformation, fec: FECResult, f: FunctionOnSpace
) -> bool:
    """Check the limit equals sum_j (int f dQ_j) 1_{A_j} at every support point."""
    if fec.partition.size != T.size or V.size != T.size:
        raise ValueError("capacity, map, and partition sizes disagree")
    return limit_is_cell_mean(T, f, fec.partition, fec.measures, capacity.null_support(V))


def limit_is_cell_mean(
    T: Transformation, f: FunctionOnSpace, cells: Partition, measures, support: SubsetMask
) -> bool:
    """Whether birkhoff_limit(T, f) is int f dQ_j at every support point of cell A_j.

    The law of large numbers of both the capacity and the non-invariant
    construction, with their own cells, measures and support.
    """
    limit = birkhoff_limit(T, f).values
    means = [measure.expectation(Q, f.values) for Q in measures]
    return all(limit[w] == means[cells.cell_index(w)] for w in space.points(support))


# ---------------------------------------------------------------- product rules
#
# A product rule compares, for a pair (B, C), a limit built from the
# hit-limit vector h_C = birkhoff_limit(T, 1_C) with a closed form built
# from the levels Q_j(C).  Both depend on C alone, so a sweep over a
# family of pairs works them out once per C (`hit_limits`), the data of
# a probability once per probability (`measure_side`), and then runs one
# row of pairs (B, C) per B, with C over the family.  A row keeps the
# results of 2^m pairs alive instead of 4^m.  The per-pair functions
# further down are the same pieces on a one-set family.


def _running_unions(
    steps: list[tuple[Fraction, SubsetMask]]
) -> tuple[tuple[Fraction, SubsetMask], ...]:
    """(level, cell) steps turned into (level, union of the cells so far)."""
    out = []
    union = 0
    for level, cell in steps:
        union |= cell
        out.append((level, union))
    return tuple(out)


def _telescope(
    V: UpperProb, B: SubsetMask, steps: tuple[tuple[Fraction, SubsetMask], ...]
) -> Fraction:
    """sum_k level_k (V(U_k cap B) - V(U_{k-1} cap B)) over running unions U_k."""
    total = ZERO
    prev = ZERO
    for level, union in steps:
        cur = V.table[union & B]
        total += level * (cur - prev)
        prev = cur
    return total


def _ranked(levels: tuple[Fraction, ...], cells: Partition) -> list[tuple[Fraction, SubsetMask]]:
    """(level, cell) pairs sorted by decreasing level, ties in index order."""
    return sorted(zip(levels, cells.cells), key=lambda lc: lc[0], reverse=True)


class HitLimit(NamedTuple):
    """What every product-rule pair with second set C shares.

    `hits` is birkhoff_limit(T, 1_C) pointwise and `levels` are the
    Q_j(C) in cell index order.  `ranked` and `indexed` are the
    telescoping steps (Q_j(C), running union of cells), with the cells
    sorted by decreasing level (ties in index order) and in index order.
    """

    C: SubsetMask
    hits: tuple[Fraction, ...]
    levels: tuple[Fraction, ...]
    ranked: tuple[tuple[Fraction, SubsetMask], ...]
    indexed: tuple[tuple[Fraction, SubsetMask], ...]


def hit_limits(
    T: Transformation, cells: Partition, measures: tuple[Prob, ...], family
) -> tuple[HitLimit, ...]:
    """The per-C data of the product rule, for every C in the family."""
    if cells.size != T.size:
        raise ValueError("partition and map live on different spaces")
    if len(measures) != len(cells):
        raise ValueError("one measure per cell required")
    out = []
    for C in family:
        hits = birkhoff_limit(T, capacity.indicator(C, T.size)).values
        levels = tuple(Q(C) for Q in measures)
        ranked = _running_unions(_ranked(levels, cells))
        indexed = _running_unions(list(zip(levels, cells.cells)))
        out.append(HitLimit(C, hits, levels, ranked, indexed))
    return tuple(out)


class IndependenceChoquet(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool
    rhs_unsorted: Fraction
    order_sensitive: bool
    trace: tuple[Fraction, ...]


def choquet_row(
    V: UpperProb, B: SubsetMask, limits: tuple[HitLimit, ...]
) -> list[IndependenceChoquet]:
    """The Choquet product rule on the pairs (B, C), one per C of `limits`.

    lhs integrates 1_B * h_C against V; rhs telescopes V over running
    unions of cells sorted by decreasing Q_j(C), and rhs_unsorted does the
    same in index order, with order_sensitive flagging any gap between
    the two.  The sizes are checked once per row, so each lhs goes to the
    body of `choquet_integral` without a validated `FunctionOnSpace`.
    """
    if any(len(c.hits) != V.size for c in limits):
        raise ValueError("function and capacity live on different spaces")
    out = []
    for c in limits:
        g = tuple(h if B >> w & 1 else ZERO for w, h in enumerate(c.hits))
        lhs = capacity._choquet(V.table, g)
        rhs = _telescope(V, B, c.ranked)
        rhs_unsorted = _telescope(V, B, c.indexed)
        out.append(IndependenceChoquet(lhs, rhs, lhs == rhs, rhs_unsorted, rhs != rhs_unsorted, ()))
    return out


class MeasureSide(NamedTuple):
    """A probability P with the weights P(w) h_C(w), one tuple per C of the limits."""

    P: Prob
    cells: Partition
    weights: tuple[tuple[Fraction, ...], ...]


def measure_side(P: Prob, cells: Partition, limits: tuple[HitLimit, ...]) -> MeasureSide:
    """The per-probability data of the product rule for P."""
    if P.size != cells.size:
        raise ValueError("measure and partition live on different spaces")
    weights = tuple(tuple(p * h for p, h in zip(P.mass, c.hits)) for c in limits)
    return MeasureSide(P, cells, weights)


def core_side(V: UpperProb, P: Prob, cells: Partition, limits: tuple[HitLimit, ...]) -> MeasureSide:
    """`measure_side` for a core member of V; membership is checked here, once."""
    if not capacity.core_contains(V, P):
        raise ValueError("P is not in the core")
    return measure_side(P, cells, limits)


class IndependencePair(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool


def measure_row(
    side: MeasureSide, B: SubsetMask, limits: tuple[HitLimit, ...]
) -> list[IndependencePair]:
    """The product rule for one probability on the pairs (B, C), one per C of `limits`.

    lhs is the closed-form Cesaro limit sum_{w in B} P(w) h_C(w) (see
    `cesaro_hit_limit`); rhs is sum_j Q_j(C) P(A_j cap B), with the
    masses P(A_j cap B) formed once for the row.
    """
    pts = tuple(space.points(B))
    masses = [side.P(cell & B) for cell in side.cells]
    out = []
    for c, weights in zip(limits, side.weights):
        lhs = sum((weights[w] for w in pts), ZERO)
        rhs = sum((q * x for q, x in zip(c.levels, masses)), ZERO)
        out.append(IndependencePair(lhs, rhs, lhs == rhs))
    return out


def asymptotic_independence_choquet(
    V: UpperProb,
    T: Transformation,
    fec: FECResult,
    B: SubsetMask,
    C: SubsetMask,
    trace_to: int = 0,
) -> IndependenceChoquet:
    """Limit of int 1_B (1_C . T^i) dV against its telescoping closed form.

    `choquet_row` on the single pair (B, C).  trace, when requested,
    holds the exact finite-N integrals for N = 1..trace_to.
    """
    m = T.size
    (out,) = choquet_row(V, B, hit_limits(T, fec.partition, fec.measures, (C,)))
    if trace_to <= 0:
        return out
    trace = []
    hits = [ZERO] * m
    masks = C
    for n in range(1, trace_to + 1):
        for w in space.points(masks):
            hits[w] += 1
        masks = space.preimage(T, masks)
        avg = tuple(hits[w] / n if B >> w & 1 else ZERO for w in range(m))
        trace.append(choquet_integral(V, FunctionOnSpace(avg)))
    return out._replace(trace=tuple(trace))


def cesaro_hit_limit(P: Prob, T: Transformation, B: SubsetMask, C: SubsetMask) -> Fraction:
    """Exact Cesaro limit of i -> P(B cap T^{-i} C).

    P(B cap T^{-i}C) = sum_{w in B} P(w) 1_C(T^i w), and the Cesaro mean
    of 1_C(T^i w) over i is birkhoff_limit(T, 1_C)(w), so the limit is
    the closed form sum_{w in B} P(w) birkhoff_limit(T, 1_C)(w).
    """
    if P.size != T.size:
        raise ValueError("measure and map live on different spaces")
    hits = birkhoff_limit(T, capacity.indicator(C, T.size)).values
    return sum((P.mass[w] * hits[w] for w in space.points(B)), ZERO)


def asymptotic_independence_core(
    V: UpperProb,
    T: Transformation,
    fec: FECResult,
    P: Prob,
    B: SubsetMask,
    C: SubsetMask,
) -> IndependencePair:
    """Cesaro limit of P(B cap T^{-i}C) against sum_j Q_j(C) P(A_j cap B).

    `measure_row` on the single pair (B, C); P must lie in the core.
    """
    limits = hit_limits(T, fec.partition, fec.measures, (C,))
    (out,) = measure_row(core_side(V, P, fec.partition, limits), B, limits)
    return out
