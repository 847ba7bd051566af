"""Seeded random instances for property tests and the oracle-verify sweep.

Instances are exact by construction: masses are built from small integer
weight vectors, and capacities come out invariant because the generator
family is closed under pushforward before taking the envelope.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from . import measure
from .capacity import FunctionOnSpace, UpperProb, envelope
from .measure import Prob
from .space import Transformation


def random_transformation(rng: Random, m: int) -> Transformation:
    return Transformation(tuple(rng.randrange(m) for _ in range(m)))


def random_permutation(rng: Random, m: int) -> Transformation:
    table = list(range(m))
    rng.shuffle(table)
    return Transformation(tuple(table))


def _weights(rng: Random, k: int, wmax: int) -> list[int]:
    while True:
        w = [rng.randint(0, wmax) for _ in range(k)]
        if any(w):
            return w


def random_prob(rng: Random, m: int, wmax: int = 6) -> Prob:
    w = _weights(rng, m, wmax)
    s = sum(w)
    return Prob(tuple(Fraction(x, s) for x in w))


def random_invariant_prob(rng: Random, T: Transformation, wmax: int = 6) -> Prob:
    """Random mixture of the cycle-uniform measures: weight w_c / s on cycle c,
    spread evenly over its points."""
    w = _weights(rng, len(T.cycles), wmax)
    s = sum(w)
    mass = [Fraction(0)] * T.size
    for x, (_, pts) in zip(w, T.cycles):
        for p in pts:
            mass[p] = Fraction(x, s * len(pts))
    return Prob(tuple(mass))


def random_upper_prob(
    rng: Random, T: Transformation, max_seeds: int = 4, wmax: int = 6
) -> UpperProb:
    """Invariant upper probability from a few random seed measures.

    Each seed is either already invariant or arbitrary; an arbitrary seed
    contributes the cycle of its pushforward orbit to the generator
    family, which makes the envelope invariant without skewing it toward
    anything in particular.
    """
    gens: list[Prob] = []
    for _ in range(rng.randint(1, max_seeds)):
        if rng.random() < 0.5:
            gens.append(random_invariant_prob(rng, T, wmax))
        else:
            gens.extend(measure.orbit_cycle(random_prob(rng, T.size, wmax), T))
    return envelope(gens)


def random_function(
    rng: Random, m: int, num_max: int = 8, den_max: int = 4
) -> FunctionOnSpace:
    values = tuple(
        Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))
        for _ in range(m)
    )
    return FunctionOnSpace(values)


def random_subset(rng: Random, m: int) -> int:
    return rng.randrange(1 << m)
