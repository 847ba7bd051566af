"""Exact probabilities: invariance, Cesaro limits, skeletons, decompositions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ergocap import measure
from ergocap.errors import InternalVerificationError
from ergocap.measure import (
    Prob,
    cesaro_limit,
    ergodic_probabilities,
    invariant_skeleton,
    is_ergodic,
    is_invariant,
    mixture,
    orbit_cycle,
    pushforward,
    singular,
)
from ergocap.space import Transformation

F = Fraction


def prob(*xs) -> Prob:
    return Prob(tuple(F(x) for x in xs))


@st.composite
def transformations(draw, min_m=1, max_m=6):
    m = draw(st.integers(min_m, max_m))
    return Transformation(tuple(draw(st.integers(0, m - 1)) for _ in range(m)))


@st.composite
def probs_on(draw, m):
    w = draw(
        st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any)
    )
    s = sum(w)
    return Prob(tuple(F(x, s) for x in w))


@st.composite
def prob_map_pairs(draw, min_m=1, max_m=6):
    T = draw(transformations(min_m, max_m))
    P = draw(probs_on(T.size))
    return P, T


def test_prob_validation():
    with pytest.raises(ValueError):
        prob("1/2", "1/4")
    with pytest.raises(ValueError):
        prob("3/2", "-1/2")


def test_pushforward_swap():
    assert pushforward(prob("1/3", "2/3"), Transformation((1, 0))).mass == (F(2, 3), F(1, 3))


def test_pushforward_identity():
    P = prob("1/6", "1/3", "1/2")
    assert pushforward(P, Transformation((0, 1, 2))) == P


def test_pushforward_invariant_block(q1, swap_pairs):
    assert pushforward(q1, swap_pairs) == q1


def test_is_invariant_cycle_uniform(swap_pairs):
    assert is_invariant(prob("1/2", "1/2", 0, 0), swap_pairs)
    assert not is_invariant(prob("1/3", "2/3"), Transformation((1, 0)))
    assert is_invariant(prob("1/3", "2/3"), Transformation((0, 1)))


def test_is_ergodic_examples(swap_pairs):
    assert is_ergodic(prob("1/2", "1/2", 0, 0), swap_pairs)
    assert not is_ergodic(prob("1/4", "1/4", "1/4", "1/4"), swap_pairs)
    assert is_ergodic(prob(0, 0, 0, 1), Transformation((0, 0, 3, 3)))
    with pytest.raises(ValueError):
        is_ergodic(prob("1/3", "2/3"), Transformation((1, 0)))


def test_ergodic_probabilities_two_blocks(swap_pairs, q1, q2):
    assert ergodic_probabilities(swap_pairs) == [q1, q2]


def test_ergodic_probabilities_four_cycle():
    got = ergodic_probabilities(Transformation((1, 2, 3, 0)))
    assert got == [prob("1/4", "1/4", "1/4", "1/4")]


def test_ergodic_probabilities_identity_m2():
    assert ergodic_probabilities(Transformation((0, 1))) == [prob(1, 0), prob(0, 1)]


@given(transformations())
def test_ergodic_probabilities_are_exactly_the_cycle_uniforms(T):
    got = ergodic_probabilities(T)
    assert len(got) == len(T.cycles)
    for Q in got:
        assert is_invariant(Q, T)
        assert is_ergodic(Q, T)
    for a in got:
        for b in got:
            if a != b:
                assert singular(a, b)


def test_orbit_cycle_drops_the_preperiod():
    # the tree map of the golden reports: 3 -> 0 -> 1 <-> 2 and 4 -> 5 -> 5
    T = Transformation((1, 2, 1, 0, 5, 5))
    assert T.preperiod == 2
    assert orbit_cycle(prob(0, 0, 0, 1, 0, 0), T) == [prob(0, 1, 0, 0, 0, 0), prob(0, 0, 1, 0, 0, 0)]
    got = orbit_cycle(prob(0, 0, 0, "1/2", "1/2", 0), T)
    assert got == [prob(0, "1/2", 0, 0, 0, "1/2"), prob(0, 0, "1/2", 0, 0, "1/2")]
    assert orbit_cycle(prob(0, 0, 0, 0, 0, 1), T) == [prob(0, 0, 0, 0, 0, 1)]


def test_orbit_cycle_on_a_permutation_has_its_own_length():
    # cycles 3 + 2: a measure on one cycle repeats after that cycle's length,
    # a measure on both after the lcm, and each cycle starts at P itself
    T = Transformation((1, 2, 0, 4, 3))
    point = prob(1, 0, 0, 0, 0)
    assert orbit_cycle(point, T) == [point, prob(0, 1, 0, 0, 0), prob(0, 0, 1, 0, 0)]
    uniform = prob(*["1/5"] * 5)
    assert orbit_cycle(uniform, T) == [uniform]
    P = prob("1/15", "2/15", "3/15", "4/15", "5/15")
    got = orbit_cycle(P, T)
    assert len(got) == 6
    assert got[0] == P
    assert all(pushforward(a, T) == b for a, b in zip(got, got[1:] + got[:1]))


def test_cesaro_limit_swap():
    assert cesaro_limit(prob("1/3", "2/3"), Transformation((1, 0))) == prob("1/2", "1/2")


def test_cesaro_limit_invariant_fixed_point(q1, swap_pairs):
    assert cesaro_limit(q1, swap_pairs) == q1


def test_mixture_weights_the_mass_vectors():
    a, b = prob("1/2", "1/2", 0), prob(0, "1/3", "2/3")
    assert mixture([F(1, 4), F(3, 4)], [a, b]) == (F(1, 8), F(3, 8), F(1, 2))
    # weights need not sum to 1, and a zero weight drops its measure
    assert mixture([2, 0], [a, b]) == (1, 1, 0)
    with pytest.raises(ValueError):
        mixture([1], [a, b])


def test_cesaro_limit_four_cycle():
    got = cesaro_limit(prob(1, 0, 0, 0), Transformation((1, 2, 3, 0)))
    assert got == prob("1/4", "1/4", "1/4", "1/4")


@given(prob_map_pairs())
def test_cesaro_limit_is_invariant_and_keeps_fixed_set_masses(pair):
    P, T = pair
    Q = cesaro_limit(P, T)
    assert is_invariant(Q, T)
    for mask in T.invariant_sets:
        assert Q(mask) == P(mask)


def test_cesaro_limit_checks_fixed_set_masses(monkeypatch, swap_pairs):
    # an orbit cycle that leaks the mass of {2, 3} into {0, 1} still gives
    # an invariant tail average, which only the fixed-set check catches
    monkeypatch.setattr(measure, "orbit_cycle", lambda P, T: [prob("1/2", "1/2", 0, 0)])
    with pytest.raises(InternalVerificationError, match="moved mass"):
        cesaro_limit(prob("1/4", "1/4", "1/4", "1/4"), swap_pairs)


def test_invariant_skeleton_swap():
    assert invariant_skeleton(prob("1/3", "2/3"), Transformation((1, 0))) == prob("1/2", "1/2")


def test_invariant_skeleton_fixed_on_invariant(q2, swap_pairs):
    assert invariant_skeleton(q2, swap_pairs) == q2


def test_invariant_skeleton_trees():
    got = invariant_skeleton(prob("1/4", "1/4", "1/4", "1/4"), Transformation((0, 0, 3, 3)))
    assert got == prob("1/2", 0, 0, "1/2")


@given(prob_map_pairs())
def test_invariant_skeleton_matches_p_on_fixed_sets_and_is_idempotent(pair):
    P, T = pair
    S = invariant_skeleton(P, T)
    assert is_invariant(S, T)
    for mask in T.invariant_sets:
        assert S(mask) == P(mask)
    assert invariant_skeleton(S, T) == S


@given(prob_map_pairs())
def test_invariant_skeleton_equals_cesaro_limit(pair):
    # forced by uniqueness: both are invariant and share all fixed-set masses
    P, T = pair
    assert invariant_skeleton(P, T) == cesaro_limit(P, T)


def test_abs_continuous_and_singular_examples():
    P = prob("1/2", "1/2", 0, 0)
    U = prob("1/4", "1/4", "1/4", "1/4")
    assert not singular(P, P)
    assert singular(prob(1, 0), prob(0, 1))
    assert not singular(P, U)


@given(prob_map_pairs())
def test_conditional_and_expectation_agree_with_sums(pair):
    P, T = pair
    supp = P.support()
    cond = measure.conditional(P, supp)
    assert cond == P
    values = tuple(F(w + 1) for w in range(T.size))
    expected = sum(P.mass[w] * values[w] for w in range(T.size))
    assert measure.expectation(P, values) == expected
