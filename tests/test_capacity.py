"""Envelopes, cores, Choquet integration, and capacity invariance."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from ergocap import capacity, generate, measure, oracle, polytope, space
from ergocap.capacity import (
    FunctionOnSpace,
    UpperProb,
    choquet_integral,
    core_contains,
    core_vertices,
    envelope,
    indicator,
    invariant_core_vertices,
    is_invariant_capacity,
    null_support,
)
from ergocap.errors import InternalVerificationError
from ergocap.measure import Prob
from ergocap.space import Transformation

F = Fraction


def prob(*xs) -> Prob:
    return Prob(tuple(F(x) for x in xs))


def func(*xs) -> FunctionOnSpace:
    return FunctionOnSpace(tuple(F(x) for x in xs))


@st.composite
def probs_on(draw, m):
    w = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any))
    s = sum(w)
    return Prob(tuple(F(x, s) for x in w))


@st.composite
def envelopes(draw, min_m=1, max_m=5):
    m = draw(st.integers(min_m, max_m))
    gens = draw(st.lists(probs_on(m), min_size=1, max_size=4))
    return envelope(gens)


@st.composite
def functions_on(draw, m):
    return FunctionOnSpace(
        tuple(F(draw(st.integers(-8, 8)), draw(st.integers(1, 4))) for _ in range(m))
    )


@st.composite
def envelope_function_pairs(draw, max_m=5):
    V = draw(envelopes(max_m=max_m))
    return V, draw(functions_on(V.size))


def test_envelope_pointwise_max():
    V = envelope([prob("1/2", "1/2"), prob(1, 0)])
    assert V(0b01) == 1
    assert V(0b10) == F(1, 2)


def test_envelope_of_single_probability_is_its_subset_sums():
    P = prob("1/6", "1/3", "1/2")
    V = envelope([P])
    for mask in range(8):
        assert V(mask) == P(mask)


def test_envelope_two_blocks_values(two_blocks):
    assert two_blocks(0b0011) == 1
    assert two_blocks(0b1100) == 1
    assert two_blocks(0b0001) == F(1, 2)


def test_envelope_rejects_empty_and_mixed_sizes():
    with pytest.raises(ValueError, match="^an envelope needs at least one generator$"):
        envelope([])
    with pytest.raises(ValueError, match="^generators live on different spaces$"):
        envelope([prob(1, 0), prob(1, 0, 0)])


@st.composite
def generator_families(draw, max_m=6):
    """Families over up to max_m points with unlike denominators and repeated members."""
    m = draw(st.integers(1, max_m))
    distinct = draw(st.lists(probs_on(m), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    return [distinct[i] for i in picks]


@given(generator_families())
def test_envelope_table_is_the_literal_max_over_generators(gens):
    # summed in Fractions, point by point, with none of the integer helpers
    V = envelope(gens)
    m = gens[0].size
    assert len(V.table) == 1 << m
    for mask in range(1 << m):
        literal = max(sum((P.mass[w] for w in range(m) if mask >> w & 1), F(0)) for P in gens)
        assert V.table[mask] == literal


def test_envelope_drops_repeats_keeping_the_first_occurrence_in_order():
    a, b, c = prob(1, 0, 0), prob(0, "1/2", "1/2"), prob("1/3", "1/3", "1/3")
    a_again, b_again = prob(1, 0, 0), prob(0, "1/2", "1/2")
    V = envelope([b, a, b_again, c, a_again])
    assert V.generators == (b, a, c)
    assert V.generators[0] is b and V.generators[1] is a
    assert envelope([(0, F(1, 2), F(1, 2)), (1, 0, 0), b]).generators == (b, a)


def test_upper_prob_is_built_from_its_generators_alone():
    gens = (prob("1/2", "1/2", 0), prob(0, "1/4", "3/4"), prob("1/3", 0, "2/3"))
    assert UpperProb(gens) == envelope(gens)
    assert UpperProb(list(gens)).generators == gens
    with pytest.raises(TypeError):
        UpperProb(gens, envelope(gens).table)
    with pytest.raises(ValueError, match="^an envelope needs at least one generator$"):
        UpperProb(())


def test_core_contains_generators_and_interior(two_blocks, q1, q2):
    assert core_contains(two_blocks, q1)
    assert core_contains(two_blocks, q2)
    assert core_contains(two_blocks, prob("1/4", "1/4", "1/4", "1/4"))
    assert not core_contains(two_blocks, prob(1, 0, 0, 0))


def test_core_vertices_point_core():
    P = prob("1/6", "1/3", "1/2")
    assert core_vertices(envelope([P])) == (P,)


def test_core_vertices_segment_endpoints_m2():
    V = envelope([prob("1/2", "1/2"), prob(1, 0)])
    assert core_vertices(V) == (prob("1/2", "1/2"), prob(1, 0))


def test_core_vertices_two_blocks_is_a_segment(two_blocks, q1, q2):
    # the pair constraints p({0,2}) <= 1/2 etc. pin the core to the
    # segment joining the two block uniforms, so exactly two vertices
    assert core_vertices(two_blocks) == (q2, q1)


@given(envelopes(max_m=4))
def test_core_vertices_match_basis_enumeration_oracle(V):
    main = [P.mass for P in core_vertices(V)]
    assert main == oracle.oracle_core_vertices(V.table)


@given(envelopes(max_m=4))
def test_core_vertex_maxima_reproduce_the_table(V):
    verts = core_vertices(V)
    for mask in range(1 << V.size):
        assert max(P(mask) for P in verts) == V(mask)


@given(envelopes(max_m=4))
def test_table_sup_matches_lp_oracle(V):
    m = V.size
    for mask in range(1 << m):
        obj = [F(1) if mask >> w & 1 else F(0) for w in range(m)]
        assert oracle.oracle_core_sup(V.table, obj) == V(mask)


def test_invariant_core_vertices_two_blocks(two_blocks, q1, q2, swap_pairs):
    assert invariant_core_vertices(two_blocks, swap_pairs) == (q2, q1)


def test_invariant_core_vertices_single_probability(swap_pairs, q1):
    assert invariant_core_vertices(envelope([q1]), swap_pairs) == (q1,)
    moved = envelope([prob("1/3", "2/3", 0, 0)])
    assert invariant_core_vertices(moved, swap_pairs) == ()


def test_invariant_core_vertices_no_cycle_inside_the_support():
    # 0 -> 1 -> 1: the only cycle {1} is null, the core is {delta_0}
    T = Transformation((1, 1))
    V = envelope([prob(1, 0)])
    assert core_vertices(V) == (prob(1, 0),)
    assert invariant_core_vertices(V, T) == ()


def _full_core(V):
    # the unreduced formulation: all m coordinates, every proper subset row
    m = V.size
    rows = [
        (tuple(F(mask >> w & 1) for w in range(m)), V(mask)) for mask in range(1, (1 << m) - 1)
    ]
    return tuple(Prob(v) for v in polytope.simplex_cut_vertices(m, rows))


def _full_invariant_core(V, T):
    # the unreduced formulation: weights over every cycle, every proper subset row
    uniforms = measure.ergodic_probabilities(T)
    rows = [(tuple(u(mask) for u in uniforms), V(mask)) for mask in range(1, (1 << V.size) - 1)]
    out = []
    for lam in polytope.simplex_cut_vertices(len(uniforms), rows):
        mass = [F(0)] * V.size
        for weight, u in zip(lam, uniforms):
            for w in range(V.size):
                mass[w] += weight * u.mass[w]
        out.append(Prob(tuple(mass)))
    return tuple(sorted(out, key=lambda p: p.mass))


def _transient_systems(seed, m_low, m_high, count):
    # maps with a transient point, under invariant envelopes (null off the
    # cycles) and under arbitrary ones (charging transient points too)
    rng = Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(m_low, m_high)
        T = generate.random_transformation(rng, m)
        if space.is_invertible(T):
            continue
        if len(out) % 2:
            V = envelope([generate.random_prob(rng, m) for _ in range(rng.randint(1, 4))])
        else:
            V = generate.random_upper_prob(rng, T)
        out.append((V, T))
    return out


def test_support_reduction_matches_the_oracle_up_to_four_points():
    for V, T in _transient_systems(7100, 2, 4, 60):
        assert [P.mass for P in core_vertices(V)] == oracle.oracle_core_vertices(V.table)
        assert invariant_core_vertices(V, T) == _full_invariant_core(V, T)


def test_support_reduction_matches_the_full_polytope_at_five_and_six_points():
    reduced = 0
    for V, T in _transient_systems(7200, 5, 6, 16):
        reduced += null_support(V) != space.full_mask(V.size)
        assert core_vertices(V) == _full_core(V)
        assert invariant_core_vertices(V, T) == _full_invariant_core(V, T)
    assert reduced >= 8


def test_core_enumeration_runs_on_the_support(monkeypatch):
    calls = []
    real = polytope.simplex_cut_vertices

    def spy(dim, rows):
        calls.append((dim, len(rows)))
        return real(dim, rows)

    monkeypatch.setattr(polytope, "simplex_cut_vertices", spy)
    reduced = 0
    for V, T in _transient_systems(7300, 3, 6, 20):
        S = null_support(V)
        s = S.bit_count()
        reduced += s < V.size
        calls.clear()
        capacity.core_vertices.__wrapped__(V)
        [(dim, nrows)] = calls
        assert dim == s and nrows <= 2**s - 2
        cycles_in_s = [u for u in measure.ergodic_probabilities(T) if u.support() & ~S == 0]
        calls.clear()
        capacity.invariant_core_vertices.__wrapped__(V, T)
        if cycles_in_s:
            [(dim, nrows)] = calls
            assert dim == len(cycles_in_s) and nrows <= 2**s - 2
        else:
            assert calls == []
    assert reduced >= 10


def test_core_vertices_refuses_a_vertex_outside_the_core(monkeypatch):
    # a faulty enumeration cannot get past the check of the lifted
    # vertices against the bounds of V
    V = envelope([prob("1/2", "1/2", 0)])
    monkeypatch.setattr(polytope, "simplex_cut_vertices", lambda dim, rows: [(F(1), F(0))])
    with pytest.raises(InternalVerificationError):
        capacity.core_vertices.__wrapped__(V)


def test_choquet_integral_of_indicators_is_the_table(two_blocks):
    for mask in range(16):
        assert choquet_integral(two_blocks, indicator(mask, 4)) == two_blocks(mask)


def test_choquet_integral_single_threshold():
    V = envelope([prob("1/2", "1/2"), prob(1, 0)])
    assert choquet_integral(V, func(1, 0)) == 1
    assert choquet_integral(V, func(0, 1)) == F(1, 2)


def test_choquet_integral_two_thresholds(two_blocks):
    assert choquet_integral(two_blocks, func(1, 1, "1/2", "1/2")) == 1


def test_choquet_integral_handles_negative_levels(two_blocks):
    got = choquet_integral(two_blocks, func(-1, -1, -1, -1))
    assert got == -1


@given(envelope_function_pairs())
def test_choquet_matches_breakpoint_oracle(pair):
    V, f = pair
    assert choquet_integral(V, f) == oracle.oracle_choquet(V.table, f.values)


@given(envelope_function_pairs())
def test_choquet_translation_and_homogeneity(pair):
    V, f = pair
    base = choquet_integral(V, f)
    shifted = FunctionOnSpace(tuple(x + 3 for x in f.values))
    assert choquet_integral(V, shifted) == base + 3
    doubled = FunctionOnSpace(tuple(2 * x for x in f.values))
    assert choquet_integral(V, doubled) == 2 * base


def test_is_invariant_capacity_examples(two_blocks, swap_pairs):
    assert is_invariant_capacity(two_blocks, swap_pairs)
    assert not is_invariant_capacity(envelope([prob("1/3", "2/3")]), Transformation((1, 0)))
    assert is_invariant_capacity(envelope([prob("1/3", "2/3")]), Transformation((0, 1)))


def test_null_support_examples(two_blocks):
    assert null_support(two_blocks) == 0b1111
    assert null_support(envelope([prob(1, 0)])) == 0b01
    assert null_support(envelope([prob("1/2", "1/2", 0, 0)])) == 0b0011


@given(envelopes())
def test_subadditivity(V):
    m = V.size
    for a in range(1 << m):
        for b in range(1 << m):
            assert V(a | b) <= V(a) + V(b)


@given(envelopes())
def test_monotone_with_pinned_ends(V):
    m = V.size
    assert V(0) == 0
    assert V(space.full_mask(m)) == 1
    for a in range(1 << m):
        for w in range(m):
            if not a >> w & 1:
                assert V(a) <= V(a | 1 << w)


@given(envelopes())
def test_positive_capacity_means_support_is_hit(V):
    S = null_support(V)
    for mask in range(1 << V.size):
        assert (V(mask) > 0) == bool(mask & S)


@given(envelope_function_pairs(), st.data())
def test_choquet_ignores_null_points(pair, data):
    # values off the support never move the integral: V(A) = V(A cap S)
    V, f = pair
    S = null_support(V)
    noise = data.draw(functions_on(V.size))
    mixed = FunctionOnSpace(
        tuple(
            f.values[w] if S >> w & 1 else noise.values[w]
            for w in range(V.size)
        )
    )
    assert choquet_integral(V, mixed) == choquet_integral(V, f)


@given(st.data())
def test_invariant_envelope_vanishes_off_the_cycles(data):
    # V({w}) = V of the iterated preimages of {w}, which empty out for
    # any point that is not on a cycle
    from random import Random

    from ergocap import generate

    seed = data.draw(st.integers(0, 10**6))
    rng = Random(seed)
    m = rng.randint(2, 6)
    T = generate.random_transformation(rng, m)
    V = generate.random_upper_prob(rng, T)
    assert is_invariant_capacity(V, T)
    cyc = sum(mask for mask, _ in T.cycles)
    for w in range(m):
        if not cyc >> w & 1:
            assert V(1 << w) == 0
