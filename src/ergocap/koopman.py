"""Composition operator of the map, restricted to almost-sure agreement.

For a deterministic map the composition operator (Uf)(w) = f(T(w)) is the
0-1 matrix with row w picking out column T(w); `koopman_matrix` returns
its rows as a tuple.  Fixed functions up to V-null sets are constant on
the pieces of the support graph, and the number of those pieces recovers
the component count of the capacity.
"""

from __future__ import annotations

from fractions import Fraction

from . import fec, space
from .capacity import FunctionOnSpace, UpperProb, null_support
from .space import Transformation

ZERO = Fraction(0)
ONE = Fraction(1)


def koopman_matrix(T: Transformation) -> tuple[tuple[Fraction, ...], ...]:
    """The row-stochastic 0-1 matrix of f -> f . T in the point basis, as its rows."""
    rows = []
    for w in range(T.size):
        row = [ZERO] * T.size
        row[T(w)] = ONE
        rows.append(tuple(row))
    return tuple(rows)


def invariant_function_basis(V: UpperProb, T: Transformation) -> list[FunctionOnSpace]:
    """Indicator basis of {f : f . T = f outside a V-null set}.

    Values off the support of V are free up to null sets, so the basis
    lives on the support graph: one indicator per connected piece of the
    map restricted to the support, extended by 0.  The support is
    forward-closed for an invariant capacity, so the restriction is a
    genuine map on fewer points.
    """
    fec._require_invariant(V, T)
    supp = null_support(V)
    pts = list(space.points(supp))
    if not pts:
        return []
    index = {w: i for i, w in enumerate(pts)}
    for w in pts:
        if T(w) not in index:
            raise ValueError("support of the capacity is not forward-closed under the map")
    sub = Transformation(tuple(index[T(w)] for w in pts))
    basis = []
    for comp in sub.components:
        mask = 0
        for i in space.points(comp):
            mask |= 1 << pts[i]
        basis.append(FunctionOnSpace(tuple(ONE if mask >> w & 1 else ZERO for w in range(V.size))))
    return basis


def eigenvalue_one_multiplicity(V: UpperProb, T: Transformation) -> int:
    """Dimension of the fixed space of the composition operator mod V-null sets."""
    return len(invariant_function_basis(V, T))
