"""Orbit averages, the multi-valued LLN, and asymptotic independence."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ergocap import capacity, generate, measure, space
from ergocap.birkhoff import (
    asymptotic_independence_choquet,
    asymptotic_independence_core,
    birkhoff_limit,
    cesaro_hit_limit,
    choquet_row,
    core_side,
    finite_average,
    hit_limits,
    measure_row,
    verify_multivalue_lln,
)
from ergocap.capacity import FunctionOnSpace, envelope, indicator
from ergocap.fec import FECResult, fec_decompose
from ergocap.measure import Prob
from ergocap.space import Transformation

F = Fraction


def fn(*xs) -> FunctionOnSpace:
    return FunctionOnSpace(tuple(F(x) for x in xs))


def test_birkhoff_limit_examples(swap_pairs):
    assert birkhoff_limit(swap_pairs, fn(1, 0, 0, 0)).values == (F(1, 2), F(1, 2), 0, 0)
    assert birkhoff_limit(swap_pairs, fn(7, 7, 7, 7)).values == (7, 7, 7, 7)
    four_cycle = Transformation((1, 2, 3, 0))
    assert birkhoff_limit(four_cycle, fn(4, 0, 0, 0)).values == (1, 1, 1, 1)


def test_birkhoff_limit_routes_through_preperiod():
    # 1 feeds into the fixed point 0, so its terminal average ignores f(1)
    T = Transformation((0, 0))
    assert birkhoff_limit(T, fn(0, 1)).values == (0, 0)


def test_birkhoff_limit_rejects_size_mismatch(swap_pairs):
    with pytest.raises(ValueError):
        birkhoff_limit(swap_pairs, fn(1, 0))


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_limit_is_invariant_everywhere(seed):
    rng = Random(seed)
    m = rng.randint(1, 6)
    T = generate.random_transformation(rng, m)
    f = generate.random_function(rng, m)
    g = birkhoff_limit(T, f)
    assert tuple(g.values[T(w)] for w in range(m)) == g.values


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_limit_preserves_invariant_means(seed):
    rng = Random(seed)
    m = rng.randint(1, 6)
    T = generate.random_transformation(rng, m)
    f = generate.random_function(rng, m)
    g = birkhoff_limit(T, f)
    for Q in measure.ergodic_probabilities(T):
        assert measure.expectation(Q, g.values) == measure.expectation(Q, f.values)


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_finite_average_closes_after_burn_in(seed):
    rng = Random(seed)
    m = rng.randint(1, 6)
    T = generate.random_transformation(rng, m)
    f = generate.random_function(rng, m)
    g = birkhoff_limit(T, f)
    burn = T.preperiod
    n = T.period * rng.randint(1, 3)
    w = rng.randrange(m)
    assert finite_average(T, f, w, n, burn=burn) == g.values[w]


def test_plain_window_misses_at_preperiodic_points():
    T = Transformation((0, 0))
    f = fn(0, 1)
    # every plain window starting at 1 carries the transient value 1/n
    for n in (1, 2, 5, 8):
        assert finite_average(T, f, 1, n) == F(1, n)
    assert birkhoff_limit(T, f).values[1] == 0


def test_finite_average_rejects_empty_window(swap_pairs):
    with pytest.raises(ValueError):
        finite_average(swap_pairs, fn(1, 0, 0, 0), 0, 0)


def test_lln_two_blocks(two_blocks, swap_pairs):
    fec = fec_decompose(two_blocks, swap_pairs)
    assert verify_multivalue_lln(two_blocks, swap_pairs, fec, fn(1, 0, 0, 0))
    assert verify_multivalue_lln(two_blocks, swap_pairs, fec, fn("1/3", 2, "-1/2", 0))


def test_lln_single_cell():
    four_cycle = Transformation((1, 2, 3, 0))
    V = envelope([Prob((F(1, 4),) * 4)])
    fec = fec_decompose(V, four_cycle)
    assert verify_multivalue_lln(V, four_cycle, fec, fn(4, 0, 0, 0))


def test_lln_rejects_wrong_component_means(two_blocks, swap_pairs, q1, q2):
    fec = fec_decompose(two_blocks, swap_pairs)
    corrupt = FECResult(fec.partition, fec.capacities, (q2, q1))
    assert not verify_multivalue_lln(two_blocks, swap_pairs, corrupt, fn(1, 0, 0, 0))


def test_independence_choquet_examples(two_blocks, swap_pairs):
    fec = fec_decompose(two_blocks, swap_pairs)
    got = asymptotic_independence_choquet(two_blocks, swap_pairs, fec, 0b1111, 0b0011)
    assert got.lhs == got.rhs == 1
    assert got.equal
    got = asymptotic_independence_choquet(two_blocks, swap_pairs, fec, 0b0101, 0b1111)
    assert got.lhs == got.rhs == two_blocks(0b0101) == F(1, 2)
    got = asymptotic_independence_choquet(
        two_blocks, swap_pairs, fec, 0b0001, 0b0001, trace_to=4
    )
    assert got.lhs == got.rhs == F(1, 4)
    assert got.trace == (F(1, 2), F(1, 4), F(1, 3), F(1, 4))


def test_independence_choquet_order_sensitivity(two_blocks, swap_pairs):
    # cells indexed against the level order: the unsorted telescope collapses
    fec = fec_decompose(two_blocks, swap_pairs)
    got = asymptotic_independence_choquet(two_blocks, swap_pairs, fec, 0b1111, 0b1100)
    assert got.equal
    assert got.rhs == 1
    assert got.rhs_unsorted == 0
    assert got.order_sensitive


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_independence_choquet_holds_on_random_systems(seed):
    rng = Random(seed)
    m = rng.randint(2, 5)
    T = generate.random_transformation(rng, m)
    V = generate.random_upper_prob(rng, T)
    fec = fec_decompose(V, T)
    if not isinstance(fec, FECResult):
        return
    B = rng.randrange(1 << m)
    C = rng.randrange(1 << m)
    assert asymptotic_independence_choquet(V, T, fec, B, C).equal


def test_independence_core_examples(two_blocks, swap_pairs, q1):
    fec = fec_decompose(two_blocks, swap_pairs)
    uniform = Prob((F(1, 4),) * 4)
    got = asymptotic_independence_core(two_blocks, swap_pairs, fec, uniform, 0b0101, 0b1111)
    assert got.lhs == got.rhs == uniform(0b0101)
    got = asymptotic_independence_core(two_blocks, swap_pairs, fec, uniform, 0b0101, 0b0001)
    assert got.lhs == got.rhs == F(1, 8)
    got = asymptotic_independence_core(two_blocks, swap_pairs, fec, q1, 0b0001, 0b0001)
    assert got.lhs == got.rhs == F(1, 4)
    assert got.equal


def test_independence_core_rejects_outside_core(two_blocks, swap_pairs):
    fec = fec_decompose(two_blocks, swap_pairs)
    with pytest.raises(ValueError):
        asymptotic_independence_core(
            two_blocks, swap_pairs, fec, Prob((F(1), F(0), F(0), F(0))), 0b0001, 0b0001
        )


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_cesaro_hit_limit_bounds_long_averages(seed):
    rng = Random(seed)
    m = rng.randint(1, 6)
    T = generate.random_transformation(rng, m)
    P = generate.random_prob(rng, m)
    B = rng.randrange(1 << m)
    C = rng.randrange(1 << m)
    limit = cesaro_hit_limit(P, T, B, C)
    burn = T.preperiod
    n = burn + 50 * T.period
    mask = C
    total = F(0)
    for _ in range(n):
        total += P(B & mask)
        mask = space.preimage(T, mask)
    assert abs(total / n - limit) <= F(burn, n)


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_sweep_rows_match_the_per_pair_functions(seed):
    # the sweep's hoisted per-C and per-P pieces against one public call per pair
    rng = Random(seed)
    m = rng.randint(2, 5)
    T = generate.random_transformation(rng, m)
    V = generate.random_upper_prob(rng, T)
    fec = fec_decompose(V, T)
    if not isinstance(fec, FECResult):
        return
    family = list(range(1 << m))
    limits = hit_limits(T, fec.partition, fec.measures, family)
    pairs = [(B, C) for B in family for C in family]
    picked = pairs if m <= 3 else rng.sample(pairs, 60)
    verts = capacity.invariant_core_vertices(V, T)
    sides = [core_side(V, P, fec.partition, limits) for P in verts]
    for B, C in picked:
        swept = choquet_row(V, B, limits)[C]
        single = asymptotic_independence_choquet(V, T, fec, B, C)
        assert (swept.lhs, swept.rhs, swept.rhs_unsorted) == (
            single.lhs, single.rhs, single.rhs_unsorted
        )
        g = FunctionOnSpace(tuple(h if B >> w & 1 else 0 for w, h in enumerate(limits[C].hits)))
        assert swept.lhs == capacity.choquet_integral(V, g)
        assert swept.equal
        for P, side in zip(verts, sides):
            swept = measure_row(side, B, limits)[C]
            single = asymptotic_independence_core(V, T, fec, P, B, C)
            assert (swept.lhs, swept.rhs) == (single.lhs, single.rhs)
            assert swept.lhs == cesaro_hit_limit(P, T, B, C)
            assert swept.equal


def test_sweep_rows_run_in_family_order(two_blocks, swap_pairs):
    fec = fec_decompose(two_blocks, swap_pairs)
    family = [0b1111, 0b0011, 0b1100, 0b0001]
    limits = hit_limits(swap_pairs, fec.partition, fec.measures, family)
    assert [c.C for c in limits] == family
    row = choquet_row(two_blocks, 0b1111, limits)
    assert [out.rhs for out in row] == [1, 1, 1, F(1, 2)]
    assert [out.order_sensitive for out in row] == [False, False, True, False]


def test_choquet_row_rejects_size_mismatch(two_blocks):
    T = Transformation((1, 0, 2))
    fec = fec_decompose(envelope([Prob((F(1, 2), F(1, 2), F(0)))]), T)
    limits = hit_limits(T, fec.partition, fec.measures, [0b001])
    with pytest.raises(ValueError):
        choquet_row(two_blocks, 0b0001, limits)


def test_core_side_refuses_a_measure_outside_the_core(two_blocks, swap_pairs):
    fec = fec_decompose(two_blocks, swap_pairs)
    limits = hit_limits(swap_pairs, fec.partition, fec.measures, [0b0001])
    with pytest.raises(ValueError):
        core_side(two_blocks, Prob((F(1), F(0), F(0), F(0))), fec.partition, limits)


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_cesaro_hit_limit_is_a_literal_period_mean(seed):
    # past m steps every orbit is on its cycle, and lcm(1..m) is a multiple
    # of every cycle length, so one such window is the exact Cesaro limit
    rng = Random(seed)
    m = rng.randint(1, 6)
    T = generate.random_transformation(rng, m)
    P = generate.random_prob(rng, m)
    B = rng.randrange(1 << m)
    C = rng.randrange(1 << m)
    burn = m
    period = lcm(*range(1, m + 1))
    total = F(0)
    for w in range(m):
        if not B >> w & 1:
            continue
        x = w
        for _ in range(burn):
            x = T.table[x]
        hits = 0
        for _ in range(period):
            hits += C >> x & 1
            x = T.table[x]
        total += P.mass[w] * F(hits, period)
    assert cesaro_hit_limit(P, T, B, C) == total
