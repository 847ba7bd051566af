"""Set algebra, functional-graph structure, and the fixed sets of a map."""

import math

import pytest
from hypothesis import given, strategies as st

from ergocap import space
from ergocap.errors import InternalVerificationError
from ergocap.space import Partition, Transformation, complement, is_invertible, preimage


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
    assert preimage(T, 0b0001) == 0b1100


@given(transformations(max_m=7))
def test_preimage_table_matches_preimage(T):
    table = T.preimage_table
    assert len(table) == 1 << T.size
    assert list(table) == [preimage(T, mask) for mask in range(1 << T.size)]


def test_components_two_swaps():
    T = Transformation((1, 0, 3, 2))
    assert T.components.cells == (0b0011, 0b1100)


def test_components_single_cycle():
    T = Transformation((1, 2, 3, 0))
    assert T.components.cells == (0b1111,)


def test_components_trees_on_fixed_points():
    T = Transformation((0, 0, 3, 3))
    assert T.components.cells == (0b0011, 0b1100)


def test_invariant_sets_two_blocks():
    T = Transformation((1, 0, 3, 2))
    assert list(T.invariant_sets) == [0, 0b0011, 0b1100, 0b1111]


def test_invariant_sets_single_cycle():
    T = Transformation((1, 2, 3, 0))
    assert list(T.invariant_sets) == [0, 0b1111]


def test_invariant_sets_identity():
    T = Transformation((0, 1))
    assert list(T.invariant_sets) == [0, 1, 2, 3]


def test_cycles_two_swaps():
    T = Transformation((1, 0, 3, 2))
    assert T.cycles == ((0b0011, (0, 1)), (0b1100, (2, 3)))


def test_cycles_fixed_points_under_trees():
    T = Transformation((0, 0, 3, 3))
    assert T.cycles == ((0b0001, (0,)), (0b1000, (3,)))


def test_cycles_single_four_cycle():
    T = Transformation((1, 2, 3, 0))
    ((mask, order),) = T.cycles
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
    for mask in T.invariant_sets:
        assert preimage(T, mask) == mask


@given(transformations())
def test_invariant_sets_form_an_algebra(T):
    inv = set(T.invariant_sets)
    for a in inv:
        assert complement(a, T.size) in inv
        for b in inv:
            assert a | b in inv
            assert a & b in inv


@given(transformations())
def test_invariant_set_count_is_two_to_components(T):
    assert len(T.invariant_sets) == 2 ** len(T.components)


def cycle_union(T):
    out = 0
    for mask, _ in T.cycles:
        out |= mask
    return out


def forward(T, w, n):
    for _ in range(n):
        w = T(w)
    return w


@given(transformations())
def test_every_point_reaches_a_cycle_within_m_steps(T):
    cyc = cycle_union(T)
    for w in range(T.size):
        assert cyc >> forward(T, w, T.size) & 1


@given(transformations())
def test_cycles_partition_their_union_and_close_up(T):
    seen = 0
    for mask, order in T.cycles:
        assert sum(1 << w for w in order) == mask
        assert order[0] == min(order)
        assert seen & mask == 0
        seen |= mask
        for i, w in enumerate(order):
            assert T(w) == order[(i + 1) % len(order)]


@given(transformations())
def test_preperiod_bound_settles_everything(T):
    # T.preperiod steps take every orbit onto the cycle cycle_of names,
    # and one step fewer leaves some orbit off the cycles
    for w in range(T.size):
        assert T.cycles[T.cycle_of[w]][0] >> forward(T, w, T.preperiod) & 1
    if T.preperiod:
        cyc = cycle_union(T)
        assert any(not cyc >> forward(T, w, T.preperiod - 1) & 1 for w in range(T.size))


@given(transformations(max_m=7))
def test_period_is_the_lcm_of_the_cycle_lengths(T):
    assert T.period == math.lcm(*(len(order) for _, order in T.cycles))
    for w in space.points(cycle_union(T)):
        assert forward(T, w, T.period) == w


@given(transformations(max_m=7))
def test_components_are_the_points_grouped_by_cycle(T):
    # one cycle per weak component: every edge w -> T(w) stays inside a cell
    cells = T.components.cells
    assert len(cells) == len(T.cycles)
    assert [c & -c for c in cells] == sorted(c & -c for c in cells)
    for w in range(T.size):
        cell = next(c for c in cells if c >> w & 1)
        assert cell >> T(w) & 1
        assert T.cycles[T.cycle_of[w]][0] & cell


def test_structure_is_cached_and_outside_equality():
    T, S = Transformation((1, 0, 3, 2)), Transformation((1, 0, 3, 2))
    assert T.cycles is T.cycles
    assert T.invariant_sets is T.invariant_sets
    assert T.invariant_sets.readonly and T.preimage_table.readonly
    assert T == S and hash(T) == hash(S)
    assert "cycles" in vars(T) and "cycles" not in vars(S)


def test_invariant_sets_self_check_is_an_internal_error(monkeypatch):
    T = Transformation((1, 0, 3, 2))
    monkeypatch.setattr(space, "preimage", lambda T, mask: mask ^ 1)
    with pytest.raises(InternalVerificationError):
        T.invariant_sets


def test_charged_partition_folds_the_rest_into_the_last_cell():
    # components {0, 1}, {2, 3} and {4}
    T = Transformation((1, 0, 3, 2, 4))
    assert space.charged_partition(T, 0b11111).cells == (0b00011, 0b01100, 0b10000)
    assert space.charged_partition(T, 0b00101).cells == (0b00011, 0b11100)
    assert space.charged_partition(T, 0b01000).cells == (0b11111,)
    # a null component before the charged ones still joins the last cell
    assert space.charged_partition(T, 0b11000).cells == (0b01100, 0b10011)
    with pytest.raises(ValueError):
        space.charged_partition(T, 0)


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        Partition((0b0011, 0b0110), 4)
    with pytest.raises(ValueError):
        Partition((0b0011,), 4)
    with pytest.raises(ValueError):
        Partition((0b0011, 0, 0b1100), 4)


def test_partition_cell_lookup():
    part = Partition((0b0011, 0b1100), 4)
    assert part.cell_index(2) == 1
    assert part.cell_index(1) == 0
    with pytest.raises(ValueError):
        part.cell_index(7)


def test_space_size_cap():
    with pytest.raises(ValueError):
        Transformation(tuple(range(17)))
    with pytest.raises(ValueError):
        Transformation(())
