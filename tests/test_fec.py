"""Component extraction, zero-one structure, and the mixture theorems."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ergocap import capacity, fec, generate, measure, oracle, polytope, space
from ergocap.capacity import envelope, core_contains, invariant_core_vertices
from ergocap.errors import InternalVerificationError
from ergocap.fec import (
    EmptyRestrictedCore,
    FECResult,
    NotFEC,
    component_capacity,
    decompose_invariant,
    ergodic_core_measures,
    extreme_points_check,
    fec_decompose,
    full_decomposition,
    invariant_vertices_decompose,
    is_fz_ergodic,
    zero_one_condition,
    zero_one_witness,
)
from ergocap.measure import Prob
from ergocap.space import Transformation

F = Fraction


def prob(*xs) -> Prob:
    return Prob(tuple(F(x) for x in xs))


def random_system(seed: int, max_m: int = 5):
    rng = Random(seed)
    m = rng.randint(2, max_m)
    T = generate.random_transformation(rng, m)
    if rng.random() < 0.5:
        V = envelope([generate.random_invariant_prob(rng, T) for _ in range(rng.randint(1, 4))])
    else:
        V = generate.random_upper_prob(rng, T)
    return V, T


def test_is_fz_ergodic_examples(two_blocks, swap_pairs, q1):
    four_cycle = Transformation((1, 2, 3, 0))
    assert is_fz_ergodic(envelope([prob("1/4", "1/4", "1/4", "1/4")]), four_cycle)
    assert not is_fz_ergodic(two_blocks, swap_pairs)
    assert is_fz_ergodic(envelope([q1]), swap_pairs)
    with pytest.raises(ValueError):
        is_fz_ergodic(envelope([prob("1/3", "2/3", 0, 0)]), swap_pairs)


def test_zero_one_examples(two_blocks, tilted, swap_pairs, q1):
    assert zero_one_condition(two_blocks, swap_pairs)
    assert not zero_one_condition(tilted, swap_pairs)
    assert zero_one_witness(tilted, swap_pairs) == 0b1100
    assert zero_one_condition(envelope([q1]), swap_pairs)


def test_fz_implies_zero_one_not_conversely(two_blocks, swap_pairs):
    # the two-block system separates the two ergodicity notions
    assert zero_one_condition(two_blocks, swap_pairs)
    assert not is_fz_ergodic(two_blocks, swap_pairs)


def test_component_capacity_block(two_blocks, q1):
    V1 = component_capacity(two_blocks, 0b0011)
    assert V1(0b0001) == F(1, 2)
    assert V1(0b1100) == 0
    for mask in range(16):
        assert V1(mask) == q1(mask)


def test_component_capacity_point_core(swap_pairs, q1):
    V = envelope([q1])
    V1 = component_capacity(V, 0b0011)
    for mask in range(16):
        assert V1(mask) == q1(mask)


def test_component_capacity_infeasible_cell(two_blocks):
    with pytest.raises(EmptyRestrictedCore):
        component_capacity(two_blocks, 0b0001)


def test_fec_decompose_two_blocks(two_blocks, swap_pairs, q1, q2):
    result = fec_decompose(two_blocks, swap_pairs)
    assert isinstance(result, FECResult)
    assert result.partition.cells == (0b0011, 0b1100)
    assert result.measures == (q1, q2)
    assert result.n == 2
    for mask in range(16):
        assert result.capacities[0](mask) == q1(mask)
        assert result.capacities[1](mask) == q2(mask)


def test_fec_decompose_fz_single_cell():
    four_cycle = Transformation((1, 2, 3, 0))
    result = fec_decompose(envelope([prob("1/4", "1/4", "1/4", "1/4")]), four_cycle)
    assert isinstance(result, FECResult)
    assert result.partition.cells == (0b1111,)


def test_fec_decompose_folds_null_remainder(swap_pairs, q1):
    result = fec_decompose(envelope([q1]), swap_pairs)
    assert isinstance(result, FECResult)
    assert result.partition.cells == (0b1111,)
    assert result.measures == (q1,)


def test_fec_decompose_not_fec_witness(tilted, swap_pairs):
    result = fec_decompose(tilted, swap_pairs)
    assert isinstance(result, NotFEC)
    assert result.witness == 0b1100
    assert result.value == F(1, 4)


def test_ergodic_core_measures_examples(two_blocks, swap_pairs, q1, q2):
    assert ergodic_core_measures(two_blocks, swap_pairs) == [q1, q2]
    spread = envelope([prob("1/4", "1/4", "1/4", "1/4")])
    assert ergodic_core_measures(spread, swap_pairs) == []
    assert ergodic_core_measures(envelope([q1]), swap_pairs) == [q1]


def test_decompose_invariant_examples(two_blocks, swap_pairs, q1):
    got = decompose_invariant(two_blocks, swap_pairs, prob("1/4", "1/4", "1/4", "1/4"))
    assert got.coefficients == (F(1, 2), F(1, 2))
    assert got.residual is None
    assert decompose_invariant(two_blocks, swap_pairs, q1).coefficients == (1, 0)
    got = decompose_invariant(two_blocks, swap_pairs, prob("3/8", "3/8", "1/8", "1/8"))
    assert got.coefficients == (F(3, 4), F(1, 4))


def test_decompose_invariant_rejects_bad_p(two_blocks, tilted, swap_pairs):
    with pytest.raises(ValueError):
        decompose_invariant(two_blocks, swap_pairs, prob("1/3", "2/3", 0, 0))
    with pytest.raises(ValueError):
        decompose_invariant(two_blocks, swap_pairs, prob(1, 0, 0, 0))
    with pytest.raises(ValueError):
        decompose_invariant(tilted, swap_pairs, prob("3/8", "3/8", "1/8", "1/8"))


def test_extreme_points_check_examples(two_blocks, swap_pairs, q1):
    assert extreme_points_check(two_blocks, swap_pairs)
    assert not extreme_points_check(envelope([prob("1/4", "1/4", "1/4", "1/4")]), swap_pairs)
    assert extreme_points_check(envelope([q1]), swap_pairs)


def test_invariant_vertices_decompose_tilted(two_blocks, tilted, swap_pairs):
    assert invariant_vertices_decompose(two_blocks, swap_pairs)
    assert not invariant_vertices_decompose(tilted, swap_pairs)


def test_full_decomposition_pure_component(two_blocks, swap_pairs, q1):
    got = full_decomposition(two_blocks, swap_pairs, q1)
    assert got.coefficients == (1, 0, 0)
    assert got.residual is None


def test_full_decomposition_even_mixture(two_blocks, swap_pairs, q1, q2):
    got = full_decomposition(two_blocks, swap_pairs, prob("1/4", "1/4", "1/4", "1/4"))
    assert got.coefficients == (F(1, 2), F(1, 2), 0)
    assert got.measures == (q1, q2)
    assert got.residual is None


def test_full_decomposition_three_blocks_zero_weight():
    # third 2-cycle: its uniform sits in the core, so it is listed as a
    # component measure and simply picks up weight zero from this P
    T = Transformation((1, 0, 3, 2, 5, 4))
    q1 = prob("1/2", "1/2", 0, 0, 0, 0)
    q2 = prob(0, 0, "1/2", "1/2", 0, 0)
    p3 = prob(0, 0, 0, 0, "1/2", "1/2")
    V = envelope([q1, q2, p3])
    assert ergodic_core_measures(V, T) == [q1, q2, p3]
    P = prob("1/4", "1/4", 0, 0, "1/4", "1/4")
    got = full_decomposition(V, T, P)
    assert got.coefficients == (F(1, 2), 0, F(1, 2), 0)
    assert got.measures == (q1, q2, p3)
    assert got.residual is None


def test_full_decomposition_residual_outside_core():
    # identity map, V = max of a point mass and the uniform: the forced
    # residual (0, 1/3, 1/3, 1/3) violates V({1}) = 1/4, so the mixture
    # theorem's in-core clause fails on this four-point system
    T = Transformation((0, 1, 2, 3))
    V = envelope([prob(1, 0, 0, 0), prob("1/4", "1/4", "1/4", "1/4")])
    got = full_decomposition(V, T, prob("1/4", "1/4", "1/4", "1/4"))
    assert got.coefficients == (F(1, 4), F(3, 4))
    assert got.measures == (prob(1, 0, 0, 0),)
    assert got.residual == prob(0, "1/3", "1/3", "1/3")
    assert got.residual_in_core is False


def test_full_decomposition_enumerates_no_core(monkeypatch, two_blocks, swap_pairs):
    # each ergodic member's weight is the mass P puts on its cycle, so no
    # core is enumerated and no component split is run
    def refuse(*args, **kwargs):
        raise AssertionError("full_decomposition left its closed form")

    for name in ("core_vertices", "fec_decompose", "decompose_invariant"):
        monkeypatch.setattr(fec, name, refuse)
    got = full_decomposition(two_blocks, swap_pairs, prob("1/8", "1/8", "3/8", "3/8"))
    assert got.coefficients == (F(1, 4), F(3, 4), 0)
    assert got.residual is None
    uniform = prob("1/4", "1/4", "1/4", "1/4")
    V = envelope([prob(1, 0, 0, 0), uniform])
    got = full_decomposition(V, Transformation((0, 1, 2, 3)), uniform)
    assert got.coefficients == (F(1, 4), F(3, 4))
    assert got.residual == prob(0, "1/3", "1/3", "1/3")
    assert got.residual_in_core is False


def test_full_decomposition_preconditions(two_blocks, swap_pairs, q1):
    with pytest.raises(ValueError):
        full_decomposition(two_blocks, Transformation((0, 0, 3, 3)), q1)
    with pytest.raises(ValueError):
        full_decomposition(two_blocks, swap_pairs, prob(1, 0, 0, 0))
    spread = envelope([prob("1/4", "1/4", "1/4", "1/4")])
    with pytest.raises(ValueError):
        full_decomposition(spread, swap_pairs, prob("1/4", "1/4", "1/4", "1/4"))


def test_full_decomposition_refuses_a_capacity_that_is_not_invariant(swap_pairs):
    # the swap moves the 2/3 of the first generator onto point 1; on an
    # invertible map full_decomposition runs no component split that
    # would refuse V, so it checks invariance itself
    V = envelope([prob("2/3", "1/3", 0, 0), prob(0, 0, "1/2", "1/2")])
    with pytest.raises(ValueError, match="^capacity is not invariant under the map$"):
        full_decomposition(V, swap_pairs, prob("1/4", "1/4", "1/4", "1/4"))


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_four_predicates_agree(seed):
    V, T = random_system(seed)
    zero_one = zero_one_condition(V, T)
    result = fec_decompose(V, T)
    decomposed = isinstance(result, FECResult)
    assert zero_one == decomposed
    assert zero_one == invariant_vertices_decompose(V, T)
    assert zero_one == extreme_points_check(V, T)
    valid, witness = oracle.oracle_fec(V.table, T.table)
    if decomposed:
        assert witness is None
        assert result.partition.cells in valid
    else:
        assert witness == result.witness
        assert not valid


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_extracted_cells_are_minimal_full_value_sets(seed):
    V, T = random_system(seed)
    result = fec_decompose(V, T)
    if isinstance(result, NotFEC):
        return
    m = T.size
    invariant = T.invariant_sets
    for cell in result.partition:
        assert V(cell) == 1
        for b in invariant:
            if b & cell == b and V(b) == 1:
                assert V(cell & ~b) == 0


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_dominated_invariant_measures_stay_in_core(seed):
    # any invariant probability carried by the support of a component
    # system is a mixture of the component measures, hence in the core
    rng = Random(seed)
    V, T = random_system(seed)
    if isinstance(fec_decompose(V, T), NotFEC):
        return
    S = capacity.null_support(V)
    carried = [Q for Q in measure.ergodic_probabilities(T) if Q.support() & ~S == 0]
    if not carried:
        return
    w = [rng.randint(0, 5) for _ in carried]
    if not any(w):
        w[0] = 1
    s = sum(w)
    mass = [F(0)] * T.size
    for weight, Q in zip(w, carried):
        for pt, v in enumerate(Q.mass):
            mass[pt] += F(weight, s) * v
    assert core_contains(V, Prob(tuple(mass)))


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_full_decomposition_reconstructs_random_instances(seed):
    rng = Random(seed)
    m = rng.randint(2, 5)
    T = generate.random_permutation(rng, m)
    V = generate.random_upper_prob(rng, T)
    qs = ergodic_core_measures(V, T)
    if not qs:
        return
    verts = invariant_core_vertices(V, T)
    assert verts
    pick = rng.choice(verts)
    P = measure.cesaro_limit(pick, T)
    got = full_decomposition(V, T, P)
    assert sum(got.coefficients) == 1
    assert all(c >= 0 for c in got.coefficients)
    recon = [F(0)] * m
    weights = list(got.coefficients)
    parts = list(got.measures) + ([got.residual] if got.residual is not None else [])
    for a, Q in zip(weights, parts):
        for w, v in enumerate(Q.mass):
            recon[w] += a * v
    assert tuple(recon) == P.mass
    if got.residual is not None:
        assert measure.is_invariant(got.residual, T)
        for Q in got.measures:
            assert measure.singular(got.residual, Q)


def test_component_capacity_enumerates_the_face_in_the_cell_coordinates(monkeypatch, two_blocks):
    # the face P(cell) = 1 lives on cell & S, so its vertices are found in
    # |cell & S| = 2 coordinates, not in the |S| = 4 of the whole core
    capacity.core_vertices.cache_clear()
    dims = []
    enumerate_ = polytope.simplex_cut_vertices

    def spy(dim, rows):
        dims.append(dim)
        return enumerate_(dim, rows)

    monkeypatch.setattr(polytope, "simplex_cut_vertices", spy)
    V1 = component_capacity(two_blocks, 0b0011)
    assert dims == [2]
    assert V1.generators == (prob("1/2", "1/2", 0, 0),)


def test_fec_decompose_enumerates_no_invariant_core(monkeypatch, two_blocks, swap_pairs, q1, q2):
    # each component measure is the one ergodic member of its capacity's
    # core, read off the cycles, not an invariant-core enumeration
    def refuse(*args, **kwargs):
        raise AssertionError("fec_decompose enumerated an invariant core")

    monkeypatch.setattr(fec, "invariant_core_vertices", refuse)
    monkeypatch.setattr(capacity, "invariant_core_vertices", refuse)
    result = fec_decompose(two_blocks, swap_pairs)
    assert result.measures == (q1, q2)


def test_fec_decompose_folds_null_components_into_the_last_cell():
    # identity on three points, V = max of the point masses at 1 and 2:
    # the null point 0 comes first but rides with the last charged cell
    T = Transformation((0, 1, 2))
    d1, d2 = prob(0, 1, 0), prob(0, 0, 1)
    result = fec_decompose(envelope([d1, d2]), T)
    assert result.partition.cells == (0b010, 0b101)
    assert result.measures == (d1, d2)


def test_fec_decompose_refuses_a_cell_without_full_value(monkeypatch, two_blocks, swap_pairs):
    monkeypatch.setattr(
        space, "charged_partition", lambda T, support: space.Partition((0b0001, 0b1110), 4)
    )
    with pytest.raises(InternalVerificationError, match="not 1"):
        fec_decompose(two_blocks, swap_pairs)


def test_component_capacity_is_not_the_restriction_of_v():
    # a generator straddles the cells: on the 3-cycle cell the face is the
    # uniform alone, so V_1({0}) = 1/3 while V({0}) = 1/2, and
    # V_1(B) = V(B & cell) fails
    T = Transformation((1, 2, 0, 3))
    V = envelope([
        prob("1/2", 0, 0, "1/2"),
        prob(0, "1/2", 0, "1/2"),
        prob(0, 0, "1/2", "1/2"),
        prob("1/3", "1/3", "1/3", 0),
        prob(0, 0, 0, 1),
    ])
    result = fec_decompose(V, T)
    assert isinstance(result, FECResult)
    assert result.partition.cells == (0b0111, 0b1000)
    assert result.measures == (prob("1/3", "1/3", "1/3", 0), prob(0, 0, 0, 1))
    V1, V2 = result.capacities
    assert V(0b0001) == F(1, 2)
    assert V1(0b0001) == F(1, 3)
    assert V1.generators == (prob("1/3", "1/3", "1/3", 0),)
    assert V2.generators == (prob(0, 0, 0, 1),)


def test_component_capacity_is_not_the_envelope_of_the_generators_inside_the_cell():
    # the straddling generators (3/4, 0, 1/4) and (0, 3/4, 1/4) widen the
    # face P({0, 1}) = 1 to the segment P({0}) in [1/4, 3/4], while the one
    # generator inside the cell gives only 1/2
    T = Transformation((1, 0, 2))
    inside = prob("1/2", "1/2", 0)
    V = envelope([inside, prob(0, 0, 1), prob("3/4", 0, "1/4"), prob(0, "3/4", "1/4")])
    result = fec_decompose(V, T)
    assert isinstance(result, FECResult)
    assert result.partition.cells == (0b011, 0b100)
    assert result.measures == (inside, prob(0, 0, 1))
    V1 = result.capacities[0]
    assert envelope([inside])(0b001) == F(1, 2)
    assert V1(0b001) == V1(0b010) == F(3, 4)
    assert V1.generators == (prob("1/4", "3/4", 0), prob("3/4", "1/4", 0))
