"""Exact probability measures on a finite space and their map structure.

Everything is a `fractions.Fraction`; no floats enter any computation.
The key structural facts used throughout: the invariant probabilities of
a finite deterministic map are exactly the convex combinations of the
uniform distributions on its terminal cycles, and the ergodic ones are
exactly those uniforms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import InternalVerificationError
from . import space
from .space import SubsetMask, Transformation

ZERO = Fraction(0)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class Prob:
    """A probability mass vector over points 0..m-1."""

    mass: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(_as_fraction(v) for v in self.mass)
        object.__setattr__(self, "mass", vals)
        if not 1 <= len(vals) <= space.MAX_POINTS:
            raise ValueError(f"mass vector length must be 1..{space.MAX_POINTS}")
        if any(v < 0 for v in vals):
            raise ValueError("negative mass")
        if sum(vals) != 1:
            raise ValueError(f"mass sums to {sum(vals)}, not 1")

    @property
    def size(self) -> int:
        return len(self.mass)

    def __call__(self, mask: SubsetMask) -> Fraction:
        """P(A) for a bitmask A."""
        total = ZERO
        for w in space.points(mask):
            total += self.mass[w]
        return total

    def support(self) -> SubsetMask:
        out = 0
        for w, v in enumerate(self.mass):
            if v > 0:
                out |= 1 << w
        return out


@lru_cache(maxsize=4096)
def subset_sums(mass: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """P(A) for every bitmask A, indexed by mask."""
    m = len(mass)
    out = [ZERO] * (1 << m)
    for a in range(1, 1 << m):
        low = a & -a
        out[a] = out[a ^ low] + mass[low.bit_length() - 1]
    return tuple(out)


def mixture(weights, probs) -> tuple[Fraction, ...]:
    """The mass vector sum_i weights[i] * probs[i], skipping zero weights.

    The weights are not required to sum to 1, so a reconstruction check
    can compare the result with a mass vector and report its own error.
    """
    out = [ZERO] * probs[0].size
    for a, P in zip(weights, probs, strict=True):
        if a:
            for w, v in enumerate(P.mass):
                if v:
                    out[w] += a * v
    return tuple(out)


def expectation(P: Prob, values: tuple[Fraction, ...]) -> Fraction:
    if len(values) != P.size:
        raise ValueError("function and measure live on different spaces")
    return sum((p * v for p, v in zip(P.mass, values)), ZERO)


def conditional(P: Prob, mask: SubsetMask) -> Prob:
    """P conditioned on a set of positive mass."""
    total = P(mask)
    if total == 0:
        raise ValueError("cannot condition on a null set")
    return Prob(tuple(P.mass[w] / total if mask >> w & 1 else ZERO for w in range(P.size)))


def pushforward(P: Prob, T: Transformation) -> Prob:
    """The image measure A -> P(preimage(T, A))."""
    if P.size != T.size:
        raise ValueError("measure and map live on different spaces")
    out = [ZERO] * P.size
    for w, v in enumerate(P.mass):
        out[T.table[w]] += v
    return Prob(tuple(out))


def is_invariant(P: Prob, T: Transformation) -> bool:
    return pushforward(P, T) == P


def is_ergodic(P: Prob, T: Transformation) -> bool:
    """Whether an invariant P gives every preimage-fixed set mass 0 or 1."""
    if not is_invariant(P, T):
        raise ValueError("measure is not invariant under the map")
    for mask in T.invariant_sets:
        if P(mask) not in (0, 1):
            return False
    return True


def ergodic_probabilities(T: Transformation) -> list[Prob]:
    """All ergodic invariant probabilities: the uniform measure on each cycle.

    Ordered by least cycle element.
    """
    out = []
    for mask, pts in T.cycles:
        share = Fraction(1, len(pts))
        out.append(Prob(tuple(share if mask >> w & 1 else ZERO for w in range(T.size))))
    return out


def orbit_cycle(P: Prob, T: Transformation) -> list[Prob]:
    """The periodic part of P's pushforward orbit, starting where it first repeats.

    Pushforward permutes this family cyclically, so its mean is invariant
    and an envelope over it is exactly invariant.  Its length divides the
    map's period, and the preperiod of the orbit is at most the map's.
    The orbit is walked on the integer numerators of the masses over
    their common denominator, which pushforward keeps.
    """
    if P.size != T.size:
        raise ValueError("measure and map live on different spaces")
    den = lcm(*(v.denominator for v in P.mass))
    cur = tuple(v.numerator * (den // v.denominator) for v in P.mass)
    orbit = [cur]
    index = {cur: 0}
    while True:
        out = [0] * P.size
        for w, v in enumerate(cur):
            out[T.table[w]] += v
        cur = tuple(out)
        if cur in index:
            return [Prob(tuple(Fraction(v, den) for v in nums)) for nums in orbit[index[cur]:]]
        index[cur] = len(orbit)
        orbit.append(cur)


def cesaro_limit(P: Prob, T: Transformation) -> Prob:
    """Limit of the running averages of the pushforward iterates of P.

    The iterate sequence is eventually periodic, so the limit is the exact
    mean of its cycle (`orbit_cycle`).  The result is invariant and
    matches P on every preimage-fixed set; both facts are re-verified.
    """
    cycle = orbit_cycle(P, T)
    limit = Prob(mixture([Fraction(1, len(cycle))] * len(cycle), cycle))
    if not is_invariant(limit, T):
        raise InternalVerificationError("tail average of pushforwards is not invariant")
    for mask in T.invariant_sets:
        if limit(mask) != P(mask):
            raise InternalVerificationError("tail average moved mass across an invariant set")
    return limit


def invariant_skeleton(P: Prob, T: Transformation) -> Prob:
    """The invariant measure that agrees with P on every preimage-fixed set.

    Each component's mass is spread uniformly over that component's cycle.
    The defining property (agreement with P on all preimage-fixed sets) is
    re-checked by scan; a failure is a library bug, not a data property.
    """
    if P.size != T.size:
        raise ValueError("measure and map live on different spaces")
    weights = [ZERO] * len(T.cycles)
    for c, v in zip(T.cycle_of, P.mass):
        weights[c] += v
    skel = Prob(mixture(weights, ergodic_probabilities(T)))
    for mask in T.invariant_sets:
        if skel(mask) != P(mask):
            raise InternalVerificationError("skeleton disagrees with the source on a fixed set")
    if not is_invariant(skel, T):
        raise InternalVerificationError("skeleton is not invariant")
    return skel


def singular(P: Prob, R: Prob) -> bool:
    """P and R concentrate on disjoint sets."""
    if P.size != R.size:
        raise ValueError("measures live on different spaces")
    return P.support() & R.support() == 0
