"""Component structure for a probability that is not itself invariant.

Given an invertible map and any probability P, the space splits into
the components P charges (null leftovers folded into the last cell).
Conditioning P on a cell gives P_j, whose pushforwards run round a cycle
whose length divides the map's period.  The mean of that cycle is an
ergodic invariant limit Q_j, and its envelope is the supremum of all
window averages of the pushforwards: an invariant upper probability
V_j.  The max of the V_j then has finite ergodic components even though
P had none of the symmetry to start with.  `irreducible_partition` checks
the inputs once and keeps P and T in the partition it returns, so the
checks, the law of large numbers and the product rule take that
partition alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import birkhoff, capacity, fec, measure, space
from .birkhoff import IndependencePair
from .capacity import UpperProb, envelope
from .fec import FECResult
from .measure import Prob
from .space import Partition, SubsetMask, Transformation


@dataclass(frozen=True)
class IrreduciblePartition:
    """Invariant positive-mass cells of P under T with their conditioned data.

    Index j carries the cell, the conditional P_j, the period-averaged
    limit Q_j, and the window-supremum capacity V_j.
    """

    P: Prob
    T: Transformation
    cells: Partition
    conditionals: tuple[Prob, ...]
    limits: tuple[Prob, ...]
    capacities: tuple[UpperProb, ...]

    def __post_init__(self) -> None:
        n = len(self.cells)
        if not (len(self.conditionals) == len(self.limits) == len(self.capacities) == n):
            raise ValueError("per-cell data lengths disagree")

    @property
    def n(self) -> int:
        return len(self.cells)


def invariant_value_set(P: Prob, T: Transformation) -> set[Fraction]:
    """All masses P assigns to preimage-fixed sets.

    Finite by construction here; reporting its cardinality is what makes
    the finiteness assumption checkable rather than assumed.
    """
    if P.size != T.size:
        raise ValueError("measure and map live on different spaces")
    return {P(mask) for mask in T.invariant_sets}


def v_component(P: Prob, T: Transformation) -> UpperProb:
    """Supremum of all window averages of i -> P(T^{-i}A), as an envelope.

    On an invertible map P lies on its own pushforward orbit cycle
    (`measure.orbit_cycle`), whose length l divides the map's period.
    Every window average is a convex combination of the l members, so it
    is at most their max, and the windows of length 1 attain it: the sup
    is the envelope of the cycle, with l generators.
    """
    if not space.is_invertible(T):
        raise ValueError("the map must be invertible")
    return envelope(measure.orbit_cycle(P, T))


def irreducible_partition(P: Prob, T: Transformation) -> IrreduciblePartition:
    """Split into minimal invariant cells of positive mass.

    The minimal invariant sets are the orbit components, so the cells are
    the positive-mass components in least-point order; null components
    are folded into the last cell (`space.charged_partition`).
    """
    if not space.is_invertible(T):
        raise ValueError("the map must be invertible")
    if P.size != T.size:
        raise ValueError("measure and map live on different spaces")
    part = space.charged_partition(T, P.support())
    conditionals = tuple(measure.conditional(P, cell) for cell in part)
    limits = tuple(measure.cesaro_limit(pj, T) for pj in conditionals)
    capacities = tuple(v_component(pj, T) for pj in conditionals)
    return IrreduciblePartition(P, T, part, conditionals, limits, capacities)


def combined_capacity(part: IrreduciblePartition) -> UpperProb:
    """max_j V_j as a single envelope over all the components' generators."""
    gens = []
    for V in part.capacities:
        gens.extend(V.generators)
    return envelope(gens)


@dataclass(frozen=True)
class ConstructionReport:
    """Outcome of the structure checks on an `IrreduciblePartition`.

    `fec_ok` also answers the zero-one condition: `fec_decompose` returns
    `NotFEC` exactly when that condition fails, so the two are one fact.
    """

    q_ergodic: tuple[bool, ...]
    v_invariant: tuple[bool, ...]
    v_fz: tuple[bool, ...]
    combined: UpperProb
    fec_ok: bool

    @property
    def zero_one(self) -> bool:
        return self.fec_ok

    @property
    def all_pass(self) -> bool:
        return (
            all(self.q_ergodic)
            and all(self.v_invariant)
            and all(self.v_fz)
            and self.fec_ok
        )


def verify_construction(part: IrreduciblePartition) -> ConstructionReport:
    """Check the constructed data: ergodic limits, ergodic capacities,
    component structure of the max, and the zero-one property."""
    T = part.T
    q_ergodic = tuple(
        measure.is_invariant(Q, T)
        and measure.is_ergodic(Q, T)
        and Q(cell) == 1
        for Q, cell in zip(part.limits, part.cells)
    )
    v_invariant = tuple(capacity.is_invariant_capacity(V, T) for V in part.capacities)
    v_fz = tuple(
        inv and fec.is_fz_ergodic(V, T)
        for V, inv in zip(part.capacities, v_invariant)
    )
    combined = combined_capacity(part)
    fec_ok = capacity.is_invariant_capacity(combined, T) and isinstance(
        fec.fec_decompose(combined, T), FECResult
    )
    return ConstructionReport(q_ergodic, v_invariant, v_fz, combined, fec_ok)


def noninvariant_lln(part: IrreduciblePartition, f: capacity.FunctionOnSpace) -> bool:
    """Orbit averages hit the matching cell mean at every P-charged point."""
    return birkhoff.limit_is_cell_mean(part.T, f, part.cells, part.limits, part.P.support())


def noninvariant_independence(
    part: IrreduciblePartition, B: SubsetMask, C: SubsetMask
) -> IndependencePair:
    """Cesaro limit of P(B cap T^{-i}C) against sum_j Q_j(C) P(A_j cap B)."""
    limits = birkhoff.hit_limits(part.T, part.cells, part.limits, (C,))
    (out,) = birkhoff.measure_row(birkhoff.measure_side(part.P, part.cells, limits), B, limits)
    return out
