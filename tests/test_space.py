"""Set algebra, functional-graph structure, and the fixed sets of a map."""

import pytest
from hypothesis import given, strategies as st

from ergocap import space
from ergocap.space import (
    Partition,
    Transformation,
    complement,
    components,
    cycles,
    invariant_sets,
    is_invertible,
    mask_of,
    preimage,
    preimage_table,
)


@st.composite
def transformations(draw, min_m=1, max_m=6):
    m = draw(st.integers(min_m, max_m))
    return Transformation(tuple(draw(st.integers(0, m - 1)) for _ in range(m)))


def test_preimage_invariant_block():
    T = Transformation((1, 0, 3, 2))
    assert preimage(T, 0b0011) == 0b0011


def test_preimage_of_full_set_is_full():
    T = Transformation((2, 2, 1, 0))
    assert preimage(T, 0b1111) == 0b1111


def test_preimage_table_scan():
    T = Transformation((1, 2, 0, 0))
    assert preimage(T, 0b0001) == mask_of([2, 3])


@given(transformations(max_m=7))
def test_preimage_table_matches_preimage(T):
    table = preimage_table(T)
    assert len(table) == 1 << T.size
    assert table == [preimage(T, mask) for mask in range(1 << T.size)]


def test_components_two_swaps():
    T = Transformation((1, 0, 3, 2))
    assert components(T).cells == (0b0011, 0b1100)


def test_components_single_cycle():
    T = Transformation((1, 2, 3, 0))
    assert components(T).cells == (0b1111,)


def test_components_trees_on_fixed_points():
    T = Transformation((0, 0, 3, 3))
    assert components(T).cells == (0b0011, 0b1100)


def test_invariant_sets_two_blocks():
    T = Transformation((1, 0, 3, 2))
    assert invariant_sets(T) == [0, 0b0011, 0b1100, 0b1111]


def test_invariant_sets_single_cycle():
    T = Transformation((1, 2, 3, 0))
    assert invariant_sets(T) == [0, 0b1111]


def test_invariant_sets_identity():
    T = Transformation((0, 1))
    assert invariant_sets(T) == [0, 1, 2, 3]


def test_cycles_two_swaps():
    T = Transformation((1, 0, 3, 2))
    assert cycles(T) == [(0b0011, (0, 1)), (0b1100, (2, 3))]


def test_cycles_fixed_points_under_trees():
    T = Transformation((0, 0, 3, 3))
    assert cycles(T) == [(0b0001, (0,)), (0b1000, (3,))]


def test_cycles_single_four_cycle():
    T = Transformation((1, 2, 3, 0))
    ((mask, order),) = cycles(T)
    assert mask == 0b1111
    assert order == (0, 1, 2, 3)


@pytest.mark.parametrize(
    "table,expected",
    [((1, 0, 3, 2), True), ((0, 0, 3, 3), False), ((1, 2, 3, 0), True)],
)
def test_is_invertible(table, expected):
    assert is_invertible(Transformation(table)) is expected


@given(transformations())
def test_invariant_sets_are_preimage_fixed(T):
    for mask in invariant_sets(T):
        assert preimage(T, mask) == mask


@given(transformations())
def test_invariant_sets_form_an_algebra(T):
    inv = set(invariant_sets(T))
    for a in inv:
        assert complement(a, T.size) in inv
        for b in inv:
            assert a | b in inv
            assert a & b in inv


@given(transformations())
def test_invariant_set_count_is_two_to_components(T):
    assert len(invariant_sets(T)) == 2 ** len(components(T))


@given(transformations())
def test_every_point_reaches_a_cycle_within_m_steps(T):
    cyc = space.cycle_mask(T)
    for w in range(T.size):
        x = w
        for _ in range(T.size):
            x = T(x)
        assert cyc >> x & 1


@given(transformations())
def test_cycles_partition_their_union_and_close_up(T):
    seen = 0
    for mask, order in cycles(T):
        assert mask_of(order) == mask
        assert seen & mask == 0
        seen |= mask
        for i, w in enumerate(order):
            assert T(w) == order[(i + 1) % len(order)]
    assert seen == space.cycle_mask(T)


@given(transformations())
def test_preperiod_bound_settles_everything(T):
    k = space.preperiod_bound(T)
    cyc = space.cycle_mask(T)
    for w in range(T.size):
        x = w
        for _ in range(k):
            x = T(x)
        assert cyc >> x & 1


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        Partition((0b0011, 0b0110), 4)
    with pytest.raises(ValueError):
        Partition((0b0011,), 4)
    with pytest.raises(ValueError):
        Partition((0b0011, 0, 0b1100), 4)


def test_partition_cell_lookup():
    part = Partition((0b0011, 0b1100), 4)
    assert part.cell_of(2) == 0b1100
    assert part.cell_index(1) == 0
    with pytest.raises(ValueError):
        part.cell_index(7)


def test_space_size_cap():
    with pytest.raises(ValueError):
        space.FiniteSpace(17)
    with pytest.raises(ValueError):
        space.FiniteSpace(0)


@given(transformations(max_m=5))
def test_iterate_matches_repeated_application(T):
    for n in range(4):
        Tn = space.iterate(T, n)
        for w in range(T.size):
            x = w
            for _ in range(n):
                x = T(x)
            assert Tn(w) == x


@given(transformations(max_m=5))
def test_inverse_only_for_permutations(T):
    if is_invertible(T):
        S = space.inverse(T)
        for w in range(T.size):
            assert S(T(w)) == w
    else:
        with pytest.raises(ValueError):
            space.inverse(T)
