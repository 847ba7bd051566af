"""Zero-one structure and ergodic component decompositions of capacities.

An invariant upper probability either assigns some preimage-fixed set a
value strictly between 0 and 1 (then no component structure exists and a
witness set is produced), or it splits the space into finitely many
invariant cells on which its restricted envelopes are ergodic.  This
module builds that split exactly, decomposes invariant core members over
the per-cell measures, and extends the decomposition with a singular
residual for invertible maps.
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
    concentrated on A_i and `measures[i]` is the unique invariant
    probability in that envelope's core.
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

    `coefficients[i]` weights `measures[i]`; when a residual is present
    the last coefficient weights it, and the residual is invariant and
    singular to every component measure.  `residual_in_core` records
    whether the residual also satisfies every capacity bound; that is not
    guaranteed (see the four-point witness in the tests), so it is
    reported rather than assumed.  A residual arises only when V lacks
    FEC: under the zero-one condition a cell meeting the complement of the
    ergodic members' support in a non-null set would, by Cesaro averaging,
    carry a second invariant member of its component core, so P puts no
    mass off that support.
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
    core vertices and the envelope over them is exact.
    """
    face = [v for v in core_vertices(V) if v(cell) == 1]
    if not face:
        raise EmptyRestrictedCore(f"no core member concentrates on mask {cell}")
    return envelope(face)


def ergodic_core_measures(V: UpperProb, T: Transformation) -> list[Prob]:
    """The ergodic invariant probabilities lying in the core, by least cycle point."""
    if T.size != V.size:
        raise ValueError("map and capacity live on different spaces")
    return [Q for Q in measure.ergodic_probabilities(T) if capacity.core_contains(V, Q)]


def _minimal_full_cell(V: UpperProb, T: Transformation, remaining: SubsetMask) -> SubsetMask:
    """Smallest preimage-fixed subset of `remaining` with value 1.

    Minimal by inclusion; among the minimal ones, least element then
    numeric mask break ties.
    """
    comps = [c for c in T.components if c & remaining == c]
    candidates = []
    for choice in range(1, 1 << len(comps)):
        mask = 0
        for i, c in enumerate(comps):
            if choice >> i & 1:
                mask |= c
        if V.table[mask] == 1:
            candidates.append(mask)
    minimal = [a for a in candidates if not any(b != a and b & a == b for b in candidates)]
    if not minimal:
        raise InternalVerificationError("no full-value cell inside a full-value remainder")
    return min(minimal, key=lambda a: (a & -a, a))


def fec_decompose(V: UpperProb, T: Transformation) -> FECResult | NotFEC:
    """Split the space into invariant cells with ergodic restricted envelopes.

    Returns NotFEC (with witness) when some preimage-fixed set has value
    strictly between 0 and 1.  Otherwise cells are extracted greedily as
    minimal full-value invariant sets; a null invariant remainder at the
    end is folded into the last cell.
    """
    witness = zero_one_witness(V, T)
    if witness is not None:
        return NotFEC(witness, V.table[witness])

    m = V.size
    omega = space.full_mask(m)
    cells: list[SubsetMask] = []
    remaining = omega
    while remaining and V.table[remaining] == 1:
        cell = _minimal_full_cell(V, T, remaining)
        cells.append(cell)
        remaining &= ~cell
    if remaining:
        # zero-one granted V(remaining) = 0 here: fold the null leftover
        cells[-1] |= remaining

    partition = Partition(tuple(cells), m)
    caps = []
    qs = []
    for cell in partition:
        Vi = component_capacity(V, cell)
        if not capacity.is_invariant_capacity(Vi, T):
            raise InternalVerificationError("component capacity is not invariant")
        if not is_fz_ergodic(Vi, T):
            raise InternalVerificationError("component capacity is not ergodic")
        if Vi.table[space.complement(cell, m)] != 0:
            raise InternalVerificationError("component capacity charges the cell complement")
        invariant = invariant_core_vertices(Vi, T)
        if len(invariant) != 1:
            raise InternalVerificationError(
                f"component capacity has {len(invariant)} invariant core members, expected exactly 1"
            )
        caps.append(Vi)
        qs.append(invariant[0])
    return FECResult(partition, tuple(caps), tuple(qs))


def decompose_invariant(
    V: UpperProb, T: Transformation, P: Prob, fec: FECResult | None = None
) -> DecompositionResult:
    """Write an invariant core member as a mixture of the component measures.

    The weights are the cell masses P(A_i); the reconstruction is verified
    entrywise and exactly.
    """
    if not measure.is_invariant(P, T):
        raise ValueError("P is not invariant under the map")
    if not capacity.core_contains(V, P):
        raise ValueError("P is not in the core")
    if fec is None:
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

    Requires an invertible map, a nonempty ergodic core, and an invariant
    core member P.  P is split against the average R of the ergodic core
    members; the part << R lives on their cycles, so each member q weighs
    P(supp q), and the part perpendicular to R becomes the residual.
    Reconstruction, residual invariance, and residual singularity are
    verified exactly;
    whether the residual also lies in the core is reported, not assumed.
    When V has FEC there is no residual (see `DecompositionResult`).
    """
    if not space.is_invertible(T):
        raise ValueError("full decomposition requires an invertible map")
    if not measure.is_invariant(P, T):
        raise ValueError("P is not invariant under the map")
    if not capacity.core_contains(V, P):
        raise ValueError("P is not in the core")
    qs = ergodic_core_measures(V, T)
    n = len(qs)
    if n == 0:
        raise ValueError("the core contains no ergodic measure")
    R = Prob(measure.mixture([Fraction(1, n)] * n, qs))

    _, _, l, Ps = measure.lebesgue_decomposition_invariant(P, R, T)

    # Pa is invariant and lives on the cycles of the qs, so on an
    # invertible map Pa = sum Pa(supp q) q, and k Pa(supp q) = P(supp q).
    coeffs = [P(q.support()) for q in qs]

    residual = Ps if l > 0 else None
    if residual is None:
        recon = measure.mixture(coeffs, qs)
    else:
        recon = measure.mixture(coeffs + [l], qs + [residual])
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
