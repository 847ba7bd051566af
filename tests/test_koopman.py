"""Composition operator fixed space and its dimension count."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ergocap import generate, space
from ergocap.capacity import envelope, null_support
from ergocap.fec import FECResult, fec_decompose
from ergocap.koopman import (
    eigenvalue_one_multiplicity,
    invariant_function_basis,
    koopman_matrix,
)
from ergocap.measure import Prob
from ergocap.space import Transformation

F = Fraction


def test_koopman_matrix_identity():
    K = koopman_matrix(Transformation((0, 1)))
    assert K.rows == ((1, 0), (0, 1))


def test_koopman_matrix_swap():
    K = koopman_matrix(Transformation((1, 0)))
    assert K.rows == ((0, 1), (1, 0))


def test_koopman_matrix_four_cycle():
    K = koopman_matrix(Transformation((1, 2, 3, 0)))
    assert K.rows == (
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
    )


def test_basis_two_blocks(two_blocks, swap_pairs):
    basis = invariant_function_basis(two_blocks, swap_pairs)
    assert [b.values for b in basis] == [(1, 1, 0, 0), (0, 0, 1, 1)]


def test_basis_fz_single():
    four_cycle = Transformation((1, 2, 3, 0))
    V = envelope([Prob((F(1, 4),) * 4)])
    basis = invariant_function_basis(V, four_cycle)
    assert [b.values for b in basis] == [(1, 1, 1, 1)]


def test_basis_vanishes_off_support(swap_pairs, q1):
    basis = invariant_function_basis(envelope([q1]), swap_pairs)
    assert [b.values for b in basis] == [(1, 1, 0, 0)]


def test_basis_rejects_noninvariant_capacity(swap_pairs):
    V = envelope([Prob((F(1, 3), F(2, 3), F(0), F(0)))])
    with pytest.raises(ValueError):
        invariant_function_basis(V, swap_pairs)


def test_multiplicity_examples(two_blocks, tilted, swap_pairs):
    assert eigenvalue_one_multiplicity(two_blocks, swap_pairs) == 2
    four_cycle = Transformation((1, 2, 3, 0))
    assert eigenvalue_one_multiplicity(envelope([Prob((F(1, 4),) * 4)]), four_cycle) == 1
    # the tilted system still has two support pieces but is not a
    # component system, so the count does not mean a component count here
    assert eigenvalue_one_multiplicity(tilted, swap_pairs) == 2


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_basis_functions_are_fixed_on_support(seed):
    rng = Random(seed)
    m = rng.randint(2, 6)
    T = generate.random_transformation(rng, m)
    V = generate.random_upper_prob(rng, T)
    S = null_support(V)
    K = koopman_matrix(T)
    for b in invariant_function_basis(V, T):
        # (K b)(w) = sum_j K[w][j] b(j), which is b(T(w)) for this 0-1 matrix
        for w in space.points(S):
            assert sum(c * x for c, x in zip(K.rows[w], b.values)) == b.values[w]


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_multiplicity_matches_component_count(seed):
    rng = Random(seed)
    m = rng.randint(2, 6)
    T = generate.random_transformation(rng, m)
    V = generate.random_upper_prob(rng, T)
    result = fec_decompose(V, T)
    if isinstance(result, FECResult):
        assert eigenvalue_one_multiplicity(V, T) == result.n
