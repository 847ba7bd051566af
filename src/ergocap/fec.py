"""Zero-one structure and ergodic component decompositions of capacities.

An invariant upper probability either assigns some preimage-fixed set a
value strictly between 0 and 1 (then no component structure exists and a
witness set is produced), or it splits the space into finitely many
invariant cells on which its restricted envelopes are ergodic.  This
module builds that split exactly from the zero-one condition, with no
search: the cells are the components the capacity charges, each cell's
capacity is the envelope of one face of the core, and each cell's
measure is the one ergodic member of that capacity's core.  It then
decomposes invariant core members over the per-cell measures, and
extends the decomposition with a singular residual for invertible maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import capacity, measure, space
from .capacity import UpperProb, core_vertices, envelope, invariant_core_vertices
from .errors import InternalVerificationError
from .measure import Prob
from .space import Partition, SubsetMask, Transformation


class EmptyRestrictedCore(Exception):
    """No core member satisfies the requested restriction."""


@dataclass(frozen=True)
class NotFEC:
    """Certificate that no finite ergodic component structure exists.

    `witness` is a preimage-fixed set whose value is strictly between
    0 and 1.
    """

    witness: SubsetMask
    value: Fraction


@dataclass(frozen=True)
class FECResult:
    """An ergodic component split: cells, their capacities, their measures.

    For each cell A_i, `capacities[i]` is the envelope of the core members
    concentrated on A_i, generated by the vertices of that face of the
    core, and `measures[i]` is the unique invariant probability in that
    envelope's core: the uniform measure on the charged cycle of A_i.
    """

    partition: Partition
    capacities: tuple[UpperProb, ...]
    measures: tuple[Prob, ...]

    @property
    def n(self) -> int:
        return len(self.partition)


@dataclass(frozen=True)
class DecompositionResult:
    """Coefficients of P over the component measures, plus any residual.

    `coefficients[i]` weights `measures[i]`.  In full mode
    (`full_decomposition`) there is always one more coefficient, the last:
    the residual's weight, which is 0/1 when there is no residual.  A
    residual is invariant and singular to every component measure.
    `residual_in_core` records whether the residual also satisfies every
    capacity bound; that is not guaranteed (see the four-point witness in
    the tests), so it is reported rather than assumed.  A residual arises
    only when V lacks FEC: under the zero-one condition a cell meeting
    the complement of the ergodic members' support in a non-null set
    would, by Cesaro averaging, carry a second invariant member of its
    component core, so P puts no mass off that support.
    """

    coefficients: tuple[Fraction, ...]
    measures: tuple[Prob, ...]
    residual: Prob | None = None
    residual_in_core: bool | None = None


def _require_invariant(V: UpperProb, T: Transformation) -> None:
    if not capacity.is_invariant_capacity(V, T):
        raise ValueError("capacity is not invariant under the map")


def is_fz_ergodic(V: UpperProb, T: Transformation) -> bool:
    """Whether every preimage-fixed set is null for V or has null complement."""
    _require_invariant(V, T)
    m = V.size
    for mask in T.invariant_sets:
        if V.table[mask] != 0 and V.table[space.complement(mask, m)] != 0:
            return False
    return True


def zero_one_witness(V: UpperProb, T: Transformation) -> SubsetMask | None:
    """First preimage-fixed set (by mask order) with value strictly inside (0, 1)."""
    _require_invariant(V, T)
    for mask in T.invariant_sets:
        if V.table[mask] not in (0, 1):
            return mask
    return None


def zero_one_condition(V: UpperProb, T: Transformation) -> bool:
    """Whether V takes only the values 0 and 1 on preimage-fixed sets."""
    return zero_one_witness(V, T) is None


def component_capacity(V: UpperProb, cell: SubsetMask) -> UpperProb:
    """Envelope of the core members giving `cell` full mass.

    sup{P(A) : P in core(V), P(cell) = 1} is a face of the core polytope
    (the face where p(cell) <= 1 is tight), so the maximizing vertices are
    the face's vertices, which `core_vertices(V, cell)` enumerates in the
    |cell & S| coordinates, and the envelope over them is exact.  The face
    is nonempty exactly when V(cell) = 1.
    """
    if V.table[cell] != 1:
        raise EmptyRestrictedCore(f"no core member concentrates on mask {cell}")
    return envelope(core_vertices(V, cell))


def ergodic_core_measures(V: UpperProb, T: Transformation) -> list[Prob]:
    """The ergodic invariant probabilities lying in the core, by least cycle point."""
    if T.size != V.size:
        raise ValueError("map and capacity live on different spaces")
    return [Q for Q in measure.ergodic_probabilities(T) if capacity.core_contains(V, Q)]


def fec_decompose(V: UpperProb, T: Transformation) -> FECResult | NotFEC:
    """Split the space into invariant cells with ergodic restricted envelopes.

    Returns NotFEC (with witness) when some preimage-fixed set has value
    strictly between 0 and 1.  Otherwise each component that meets
    null_support(V) has value 1 and the other components together have
    value 0, so the cells are the charged components in least-point
    order, with the null ones folded into the last cell.  Each cell's
    capacity V_i is the envelope of its core face (`component_capacity`),
    and its measure Q_i is the one ergodic member of V_i's core.  V_i is
    FZ-ergodic, so an invariant member of its core charges a single cycle
    (the component of a second one would have positive V_i on both
    sides); the average of two such members would charge two, so there
    is at most one, and the Cesaro mean of any core member of the
    invariant V_i is one.  Every cell is checked: V(cell) = 1, V_i
    invariant, FZ-ergodic and null off the cell, and exactly one ergodic
    core member.
    """
    witness = zero_one_witness(V, T)
    if witness is not None:
        return NotFEC(witness, V.table[witness])

    m = V.size
    partition = space.charged_partition(T, capacity.null_support(V))
    caps = []
    qs = []
    for cell in partition:
        if V.table[cell] != 1:
            raise InternalVerificationError(f"cell {cell} has value {V.table[cell]}, not 1")
        Vi = component_capacity(V, cell)
        if not capacity.is_invariant_capacity(Vi, T):
            raise InternalVerificationError("component capacity is not invariant")
        if not is_fz_ergodic(Vi, T):
            raise InternalVerificationError("component capacity is not ergodic")
        if Vi.table[space.complement(cell, m)] != 0:
            raise InternalVerificationError("component capacity charges the cell complement")
        ergodic = ergodic_core_measures(Vi, T)
        if len(ergodic) != 1:
            raise InternalVerificationError(
                f"component capacity has {len(ergodic)} ergodic core members, expected exactly 1"
            )
        caps.append(Vi)
        qs.append(ergodic[0])
    return FECResult(partition, tuple(caps), tuple(qs))


def decompose_invariant(V: UpperProb, T: Transformation, P: Prob) -> DecompositionResult:
    """Write an invariant core member as a mixture of the component measures.

    The weights are the cell masses P(A_i); the reconstruction is verified
    entrywise and exactly.
    """
    if not measure.is_invariant(P, T):
        raise ValueError("P is not invariant under the map")
    if not capacity.core_contains(V, P):
        raise ValueError("P is not in the core")
    fec = fec_decompose(V, T)
    if isinstance(fec, NotFEC):
        raise ValueError(
            f"no component structure: mask {fec.witness} has value {fec.value}"
        )
    coeffs = tuple(P(cell) for cell in fec.partition)
    if measure.mixture(coeffs, fec.measures) != P.mass:
        raise InternalVerificationError("cell-mass mixture of component measures missed P")
    return DecompositionResult(coeffs, fec.measures)


def extreme_points_check(V: UpperProb, T: Transformation) -> bool:
    """Whether the invariant-core vertices are exactly the ergodic core members.

    Both sets must be nonempty and equal.
    """
    _require_invariant(V, T)
    verts = {p.mass for p in invariant_core_vertices(V, T)}
    ergo = {q.mass for q in ergodic_core_measures(V, T)}
    return bool(ergo) and verts == ergo


def invariant_vertices_decompose(V: UpperProb, T: Transformation) -> bool:
    """Whether every invariant-core vertex is a mixture of ergodic core members.

    The candidate weight of each ergodic member is forced (its support
    mass), so existence here is the same as uniqueness.
    """
    _require_invariant(V, T)
    verts = invariant_core_vertices(V, T)
    if not verts:
        raise InternalVerificationError("invariant capacity with no invariant core member")
    ergo = ergodic_core_measures(V, T)
    for v in verts:
        weights = [v(q.support()) for q in ergo]
        if sum(weights) != 1:
            return False
        if measure.mixture(weights, ergo) != v.mass:
            return False
    return True


def full_decomposition(V: UpperProb, T: Transformation, P: Prob) -> DecompositionResult:
    """Mixture over the ergodic core members plus an invariant singular residual.

    Requires an invertible map, an invariant V with a nonempty ergodic
    core, and an invariant core member P.  An invariant P is a mixture of
    the uniforms on the map's cycles, so each ergodic core member q weighs
    P(supp q), and the rest of P, of weight l = 1 - sum P(supp q), lives
    off the union of their supports: conditioned on that complement it
    is the residual.  Reconstruction, residual invariance, and residual
    singularity are verified exactly; whether the residual also lies in
    the core is reported, not assumed.
    When V has FEC there is no residual (see `DecompositionResult`).
    """
    if not space.is_invertible(T):
        raise ValueError("full decomposition requires an invertible map")
    _require_invariant(V, T)
    if not measure.is_invariant(P, T):
        raise ValueError("P is not invariant under the map")
    if not capacity.core_contains(V, P):
        raise ValueError("P is not in the core")
    qs = ergodic_core_measures(V, T)
    if not qs:
        raise ValueError("the core contains no ergodic measure")

    coeffs = []
    union = 0
    for q in qs:
        supp = q.support()
        coeffs.append(P(supp))
        union |= supp
    l = 1 - sum(coeffs)

    if l > 0:
        residual = measure.conditional(P, space.complement(union, T.size))
        recon = measure.mixture(coeffs + [l], qs + [residual])
    else:
        residual = None
        recon = measure.mixture(coeffs, qs)
    if recon != P.mass:
        raise InternalVerificationError("mixture plus residual missed P")

    in_core: bool | None = None
    if residual is not None:
        if not measure.is_invariant(residual, T):
            raise InternalVerificationError("residual is not invariant")
        if any(not measure.singular(residual, q) for q in qs):
            raise InternalVerificationError("residual is not singular to a component measure")
        in_core = capacity.core_contains(V, residual)
    return DecompositionResult(tuple(coeffs) + (l,), tuple(qs), residual, in_core)
