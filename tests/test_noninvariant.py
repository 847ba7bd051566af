"""Building component structure out of a non-invariant probability."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ergocap import capacity, generate, measure, oracle
from ergocap.capacity import indicator
from ergocap.fec import FECResult, fec_decompose
from ergocap.noninvariant import (
    IrreduciblePartition,
    combined_capacity,
    invariant_value_set,
    irreducible_partition,
    noninvariant_independence,
    noninvariant_lln,
    v_component,
    verify_construction,
)
from ergocap.measure import Prob
from ergocap.space import Transformation

F = Fraction


def prob(*xs) -> Prob:
    return Prob(tuple(F(x) for x in xs))


def random_invertible(seed: int, max_m: int = 6):
    rng = Random(seed)
    m = rng.randint(1, max_m)
    T = generate.random_permutation(rng, m)
    P = generate.random_prob(rng, m)
    return P, T


def test_system_preconditions():
    with pytest.raises(ValueError, match="the map must be invertible"):
        irreducible_partition(prob(1, 0), Transformation((0, 0)))
    with pytest.raises(ValueError, match="measure and map live on different spaces"):
        irreducible_partition(prob(1, 0, 0), Transformation((1, 0)))


def test_partition_carries_its_measure_and_map(swap_pairs):
    P = prob("1/8", "1/8", "3/8", "3/8")
    part = irreducible_partition(P, swap_pairs)
    assert part.P == P
    assert part.T == swap_pairs


def test_invariant_value_set_examples(swap_pairs):
    four_cycle = Transformation((1, 2, 3, 0))
    assert invariant_value_set(prob(1, 0, 0, 0), four_cycle) == {0, 1}
    got = invariant_value_set(prob("1/8", "1/8", "3/8", "3/8"), swap_pairs)
    assert got == {0, F(1, 4), F(3, 4), 1}
    ident = Transformation((0, 1))
    assert invariant_value_set(prob("1/3", "2/3"), ident) == {0, F(1, 3), F(2, 3), 1}


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_value_set_size_bound(seed):
    P, T = random_invertible(seed)
    k = len(T.components)
    assert len(invariant_value_set(P, T)) <= 2**k


def test_partition_limit_examples():
    # the limits Q_j of irreducible_partition are Cesaro limits
    assert measure.cesaro_limit(prob("1/3", "2/3"), Transformation((1, 0))).mass == (F(1, 2), F(1, 2))
    four_cycle = Transformation((1, 2, 3, 0))
    assert measure.cesaro_limit(prob(1, 0, 0, 0), four_cycle).mass == (F(1, 4),) * 4


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_partition_limit_is_the_period_mean(seed):
    # an invertible map has preperiod 0, so the Cesaro limit is the plain
    # mean of the pushforwards over one period
    P, T = random_invertible(seed)
    total = [F(0)] * T.size
    cur = P
    for _ in range(T.period):
        for w, v in enumerate(cur.mass):
            total[w] += v
        cur = measure.pushforward(cur, T)
    assert measure.cesaro_limit(P, T).mass == tuple(v / T.period for v in total)


def test_v_component_examples(swap_pairs):
    V = v_component(prob("1/3", "2/3"), Transformation((1, 0)))
    assert V(0b01) == F(2, 3)
    assert V(0b10) == F(2, 3)
    assert V(0b11) == 1
    P = prob("1/4", "1/4", "1/4", "1/4")
    V = v_component(P, swap_pairs)
    for mask in range(16):
        assert V(mask) == P(mask)
    four_cycle = Transformation((1, 2, 3, 0))
    assert v_component(prob(1, 0, 0, 0), four_cycle)(0b0011) == 1


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_v_component_dominates_p_and_q(seed):
    P, T = random_invertible(seed, max_m=5)
    V = v_component(P, T)
    Q = measure.cesaro_limit(P, T)
    assert capacity.is_invariant_capacity(V, T)
    for mask in range(1 << T.size):
        assert V(mask) >= P(mask)
        assert V(mask) >= Q(mask)


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_v_component_matches_window_sweep(seed):
    # literal two-sided window averages, swept far enough to hit the sup
    P, T = random_invertible(seed, max_m=4)
    V = v_component(P, T)
    L = T.period
    for mask in range(1 << T.size):
        assert V(mask) == oracle.oracle_window_sup(P.mass, T.table, mask, 4 * L, 8 * L + 1)


def test_v_component_runs_over_the_cell_cycle_only():
    # cycles 3 + 4 + 5: the map's period is 60, but each conditional
    # repeats with its own cell's cycle length l, and V_j is the envelope
    # of those l pushforwards, one generator each
    T = Transformation((1, 2, 0, 4, 5, 6, 3, 8, 9, 10, 11, 7))
    assert T.period == 60
    P = Prob(tuple(F(w, 78) for w in range(1, 13)))
    for cell in T.components:
        ell = bin(cell).count("1")
        Pj = measure.conditional(P, cell)
        V = v_component(Pj, T)
        assert len(V.generators) == len(measure.orbit_cycle(Pj, T)) == ell


def test_v_component_has_one_generator_per_orbit_member():
    # P charges all three cycles unevenly, so its orbit cycle has l = 60
    T = Transformation((1, 2, 0, 4, 5, 6, 3, 8, 9, 10, 11, 7))
    P = Prob(tuple(F(w, 78) for w in range(1, 13)))
    cycle = measure.orbit_cycle(P, T)
    assert len(cycle) == 60
    V = v_component(P, T)
    assert len(V.generators) == len(cycle)
    assert capacity.is_invariant_capacity(V, T)


def test_v_component_matches_window_sweep_on_two_cycles():
    # cycles 2 + 3: a measure charging both cycles repeats after 6 steps,
    # one charging a single cycle after that cycle's length
    T = Transformation((1, 0, 3, 4, 2))
    L = T.period
    for P in (prob("1/15", "2/15", "3/15", "4/15", "5/15"), prob(0, 0, "1/2", "1/4", "1/4")):
        V = v_component(P, T)
        for mask in range(1 << T.size):
            assert V(mask) == oracle.oracle_window_sup(P.mass, T.table, mask, 4 * L, 8 * L + 1)


def test_v_component_window_sweep_frozen():
    P = prob("1/3", "2/3")
    T = Transformation((1, 0))
    assert oracle.oracle_window_sup(P.mass, T.table, 0b01, 8, 17) == F(2, 3)


def test_irreducible_partition_examples(swap_pairs):
    part = irreducible_partition(prob("1/8", "1/8", "3/8", "3/8"), swap_pairs)
    assert part.cells.cells == (0b0011, 0b1100)
    assert part.conditionals[0].mass == (F(1, 2), F(1, 2), 0, 0)
    assert part.limits[1].mass == (0, 0, F(1, 2), F(1, 2))
    assert part.n == 2
    four_cycle = Transformation((1, 2, 3, 0))
    assert irreducible_partition(prob(1, 0, 0, 0), four_cycle).cells.cells == (0b1111,)


def test_irreducible_partition_folds_null_components(swap_pairs):
    part = irreducible_partition(prob("1/2", "1/2", 0, 0), swap_pairs)
    assert part.cells.cells == (0b1111,)
    assert part.limits[0].mass == (F(1, 2), F(1, 2), 0, 0)


def test_partition_data_length_check(swap_pairs):
    part = irreducible_partition(prob("1/8", "1/8", "3/8", "3/8"), swap_pairs)
    with pytest.raises(ValueError):
        IrreduciblePartition(
            part.P, part.T, part.cells, part.conditionals, part.limits[:1], part.capacities
        )


def test_combined_capacity_is_the_max(swap_pairs):
    part = irreducible_partition(prob("1/8", "1/8", "3/8", "3/8"), swap_pairs)
    W = combined_capacity(part)
    for mask in range(16):
        assert W(mask) == max(V(mask) for V in part.capacities)


def test_verify_construction_passes(swap_pairs):
    part = irreducible_partition(prob("1/8", "1/8", "3/8", "3/8"), swap_pairs)
    report = verify_construction(part)
    assert report.all_pass
    assert report.q_ergodic == (True, True)
    assert report.v_invariant == (True, True)
    assert report.v_fz == (True, True)
    assert report.fec_ok and report.zero_one


def test_verify_construction_flags_corrupt_limits(swap_pairs):
    part = irreducible_partition(prob("1/8", "1/8", "3/8", "3/8"), swap_pairs)
    swapped = (part.limits[1], part.limits[0])
    corrupt = IrreduciblePartition(
        part.P, part.T, part.cells, part.conditionals, swapped, part.capacities
    )
    report = verify_construction(corrupt)
    assert report.q_ergodic == (False, False)
    assert not report.all_pass


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_verify_construction_random_instances(seed):
    P, T = random_invertible(seed)
    part = irreducible_partition(P, T)
    report = verify_construction(part)
    assert report.all_pass
    got = fec_decompose(report.combined, T)
    assert isinstance(got, FECResult)
    assert got.n == part.n


def test_lln_examples(swap_pairs):
    part = irreducible_partition(prob("1/8", "1/8", "3/8", "3/8"), swap_pairs)
    f = capacity.FunctionOnSpace((F(1), F(0), F(0), F(0)))
    assert noninvariant_lln(part, f)
    swapped = (part.limits[1], part.limits[0])
    corrupt = IrreduciblePartition(
        part.P, part.T, part.cells, part.conditionals, swapped, part.capacities
    )
    assert not noninvariant_lln(corrupt, f)


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_lln_random_instances(seed):
    P, T = random_invertible(seed)
    rng = Random(seed + 1)
    f = generate.random_function(rng, T.size)
    assert noninvariant_lln(irreducible_partition(P, T), f)


def test_independence_examples(swap_pairs):
    part = irreducible_partition(prob("1/8", "1/8", "3/8", "3/8"), swap_pairs)
    got = noninvariant_independence(part, 0b0110, 0b1111)
    assert got.lhs == got.rhs == part.P(0b0110)
    got = noninvariant_independence(part, 0b0001, 0b0001)
    assert got.lhs == got.rhs == F(1, 16)
    assert got.equal


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_independence_random_instances(seed):
    P, T = random_invertible(seed)
    rng = Random(seed + 1)
    B = rng.randrange(1 << T.size)
    C = rng.randrange(1 << T.size)
    assert noninvariant_independence(irreducible_partition(P, T), B, C).equal


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_independence_rows_match_the_per_pair_function(seed):
    from ergocap.birkhoff import cesaro_hit_limit, hit_limits, measure_row, measure_side

    P, T = random_invertible(seed, max_m=5)
    part = irreducible_partition(P, T)
    family = list(range(1 << T.size))
    limits = hit_limits(T, part.cells, part.limits, family)
    side = measure_side(P, part.cells, limits)
    rng = Random(seed + 2)
    for B in rng.sample(family, min(len(family), 6)):
        for C, swept in zip(family, measure_row(side, B, limits)):
            single = noninvariant_independence(part, B, C)
            assert (swept.lhs, swept.rhs) == (single.lhs, single.rhs)
            assert swept.lhs == cesaro_hit_limit(P, T, B, C)
            assert swept.equal
