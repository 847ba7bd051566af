"""The independent checkers: brute-force sets, sorted-sum Choquet,
exact simplex, basis-enumeration vertices, literal orbit averages."""

import ast
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ergocap import capacity, generate, koopman
from ergocap.capacity import envelope
from ergocap.fec import FECResult, fec_decompose
from ergocap.measure import Prob
from ergocap.space import Transformation
from ergocap.oracle import (
    oracle_choquet,
    oracle_core_sup,
    oracle_core_vertices,
    oracle_fec,
    oracle_fixed_space_dimension,
    oracle_invariant_sets,
    oracle_lp_max,
    oracle_tail_average,
    oracle_window_sup,
)

F = Fraction
ONE = F(1)


def prob(*xs) -> Prob:
    return Prob(tuple(F(x) for x in xs))


def test_invariant_sets_examples():
    assert oracle_invariant_sets((1, 0, 3, 2)) == [0, 3, 12, 15]
    assert oracle_invariant_sets((1, 2, 3, 0)) == [0, 15]
    assert oracle_invariant_sets((0, 1)) == [0, 1, 2, 3]


def test_choquet_examples(two_blocks):
    assert oracle_choquet(two_blocks.table, (ONE, ONE, F(1, 2), F(1, 2))) == 1
    for mask in range(16):
        ind = tuple(ONE if mask >> w & 1 else F(0) for w in range(4))
        assert oracle_choquet(two_blocks.table, ind) == two_blocks(mask)


def test_lp_box():
    status, value, x = oracle_lp_max(
        [ONE, ONE], [([ONE, F(0)], ONE), ([F(0), ONE], F(2))], []
    )
    assert status == "optimal"
    assert value == 3
    assert x == (1, 2)


def test_lp_infeasible():
    status, value, x = oracle_lp_max([ONE], [([ONE], F(-1))], [])
    assert status == "infeasible"
    assert value is None and x is None


def test_lp_unbounded():
    status, value, x = oracle_lp_max([ONE], [], [])
    assert status == "unbounded"


def test_lp_equality():
    status, value, x = oracle_lp_max([ONE, F(0)], [], [([ONE, ONE], ONE)])
    assert status == "optimal"
    assert value == 1
    assert x == (1, 0)


# (objective, <= rows, = rows) -> (status, value, x); fractional data of
# every shape the integer tableau scales: unequal row denominators,
# surplus rows, a redundant equality whose artificial row is dropped
# after phase 1, and a fractional objective carried through phase 1
LP_CASES = {
    "fractional_objective": (
        ([F(1, 2), F(1, 3), F(1, 5)],
         [([ONE, F(0), F(0)], F(1, 4)), ([F(0), F(2, 3), F(1, 7)], F(1, 2))],
         [([ONE, ONE, ONE], ONE)]),
        ("optimal", F(3, 8), (F(1, 4), F(3, 4), F(0))),
    ),
    "mixed_denominators": (
        ([ONE, ONE],
         [([F(1, 2), F(1, 3)], F(1, 5)), ([F(3, 4), F(1, 6)], F(2, 7)), ([F(1, 9), F(5, 8)], F(3, 10))],
         []),
        ("optimal", F(66, 119), (F(54, 595), F(276, 595))),
    ),
    "negative_rhs": (
        ([-ONE, F(-2)], [([-ONE, -ONE], F(-1, 2)), ([F(-1, 3), ONE], F(-1, 6)), ([ONE, ONE], F(3))], []),
        ("optimal", F(-1, 2), (F(1, 2), F(0))),
    ),
    "duplicated_equality": (
        ([F(1, 2), F(-1, 3), F(1, 4)], [([ONE, F(0), F(0)], F(2, 5))], [([ONE, ONE, ONE], ONE)] * 2),
        ("optimal", F(7, 20), (F(2, 5), F(0), F(3, 5))),
    ),
    "infeasible": (
        ([F(1, 2), F(1, 3)], [([ONE, ONE], F(1, 3))], [([ONE, ONE], F(1, 2))]),
        ("infeasible", None, None),
    ),
    "unbounded": (
        ([F(1, 2), F(-1, 3)], [([F(2, 3), F(-3, 4)], F(1, 5))], []),
        ("unbounded", None, None),
    ),
}


@pytest.mark.parametrize("name", sorted(LP_CASES))
def test_lp_pinned_fractional_cases(name):
    (objective, ub, eq), expected = LP_CASES[name]
    got = oracle_lp_max(objective, ub, eq)
    assert got == expected
    if got[2] is not None:
        assert all(type(x) is Fraction for x in got[2]) and type(got[1]) is Fraction


def test_window_sup_and_tail_average_mixed_denominators():
    # i -> P(T^{-i}{0, 1}) cycles through 7/12, 7/20, 5/12, 13/20
    p = (F(1, 3), F(1, 4), F(2, 5), F(1, 60))
    cycle = (1, 2, 3, 0)
    assert oracle_window_sup(p, cycle, 0b0011, 3, 5) == F(13, 20)
    assert oracle_window_sup(p, cycle, 0b0011, 0, 1) == F(7, 12)
    assert oracle_window_sup(p, cycle, 0b1111, 3, 5) == 1
    assert oracle_tail_average(p, cycle, 0b0011, 1, 3) == F(17, 36)
    assert oracle_tail_average(p, cycle, 0b0011, 0, 4) == F(1, 2)


def test_oracle_imports_only_the_standard_library():
    # agreement with the main path is evidence only while no code is shared
    path = Path(__file__).resolve().parents[1] / "src" / "ergocap" / "oracle.py"
    allowed = {"__future__", "fractions", "itertools", "math"}
    imports = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0
            assert node.module in allowed
        else:
            assert all(alias.name in allowed for alias in node.names)


def test_core_vertices_examples(two_blocks, q1, q2):
    assert oracle_core_vertices(two_blocks.table) == [q2.mass, q1.mass]
    V = envelope([prob("1/2", "1/2"), prob(1, 0)])
    assert oracle_core_vertices(V.table) == [(F(1, 2), F(1, 2)), (1, 0)]
    single = envelope([prob("1/4", "1/4", "1/4", "1/4")])
    assert oracle_core_vertices(single.table) == [(F(1, 4),) * 4]


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_core_vertices_match_main_path(seed):
    rng = Random(seed)
    m = rng.randint(2, 4)
    V = envelope([generate.random_prob(rng, m) for _ in range(rng.randint(1, 3))])
    got = oracle_core_vertices(V.table)
    assert got == [v.mass for v in capacity.core_vertices(V)]


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_core_sup_recovers_the_table(seed):
    rng = Random(seed)
    m = rng.randint(2, 4)
    V = envelope([generate.random_prob(rng, m) for _ in range(rng.randint(1, 3))])
    for a in range(1, 1 << m):
        obj = [ONE if a >> w & 1 else F(0) for w in range(m)]
        assert oracle_core_sup(V.table, obj) == V(a)


def test_core_sup_infeasible_slice(two_blocks):
    eq = [([ONE, F(0), F(0), F(0)], ONE)]
    assert oracle_core_sup(two_blocks.table, [ONE] * 4, eq) is None


def test_fec_two_blocks(two_blocks):
    valid, witness = oracle_fec(two_blocks.table, (1, 0, 3, 2))
    assert valid == ((0b0011, 0b1100),)
    assert witness is None


def test_fec_single_cell():
    V = envelope([prob("1/4", "1/4", "1/4", "1/4")])
    valid, witness = oracle_fec(V.table, (1, 2, 3, 0))
    assert valid == ((0b1111,),)
    assert witness is None


def test_fec_rejects_tilted(tilted):
    valid, witness = oracle_fec(tilted.table, (1, 0, 3, 2))
    assert valid == ()
    assert witness == 0b1100


def test_fec_null_component_folds_either_way():
    # the massless fixed point 4 may ride with either block, so both
    # partitions pass; the main path folds it into the last cell, which gives the first
    q1 = prob("1/2", "1/2", 0, 0, 0)
    q2 = prob(0, 0, "1/2", "1/2", 0)
    V = envelope([q1, q2])
    valid, witness = oracle_fec(V.table, (1, 0, 3, 2, 4))
    assert valid == ((0b00011, 0b11100), (0b10011, 0b01100))
    assert witness is None


def test_tail_average_examples():
    p = (F(1, 3), F(2, 3))
    assert oracle_tail_average(p, (1, 0), 0b01, 0, 2) == F(1, 2)
    assert oracle_tail_average(p, (1, 0), 0b01, 1, 1) == F(2, 3)
    with pytest.raises(ValueError):
        oracle_tail_average(p, (1, 0), 0b01, 0, 0)


def test_window_sup_examples():
    p = (F(1, 3), F(2, 3))
    assert oracle_window_sup(p, (1, 0), 0b01, 8, 17) == F(2, 3)
    assert oracle_window_sup(p, (1, 0), 0b11, 8, 17) == 1
    with pytest.raises(ValueError):
        oracle_window_sup((ONE, F(0)), (0, 0), 0b01, 2, 3)


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_core_sup_agrees_with_vertex_max(seed):
    rng = Random(seed)
    m = rng.randint(2, 4)
    V = envelope([generate.random_prob(rng, m) for _ in range(rng.randint(1, 3))])
    obj = [F(rng.randint(-4, 4)) for _ in range(m)]
    best = max(
        sum((c * x for c, x in zip(obj, v)), F(0)) for v in oracle_core_vertices(V.table)
    )
    assert oracle_core_sup(V.table, obj) == best


# (map, generators, fixed-space dimension): supports that miss whole
# components of the map, so the dimension is below the component count
PARTIAL_SUPPORT_SYSTEMS = [
    # the uniform measure on one cycle of a two-component map
    ((1, 0, 3, 2), [prob("1/2", "1/2", 0, 0)], 1),
    # cycles {1, 2} and {5} with the tree points 3 -> 0 -> 1 and 4 -> 5; only {1, 2} is charged
    ((1, 2, 1, 0, 5, 5), [prob(0, "1/2", "1/2", 0, 0, 0)], 1),
    # three fixed points, two charged, without FEC
    ((0, 1, 2), [prob(1, 0, 0), prob("1/2", "1/2", 0)], 2),
    # two of three cycles charged, by one generator each
    ((1, 0, 2, 4, 3), [prob(0, 0, 1, 0, 0), prob(0, 0, 0, "1/2", "1/2")], 2),
]


@pytest.mark.parametrize("ttable, gens, dim", PARTIAL_SUPPORT_SYSTEMS)
def test_fixed_space_dimension_counts_only_charged_components(ttable, gens, dim):
    V = envelope(gens)
    T = Transformation(ttable)
    assert len(T.components) > dim
    assert oracle_fixed_space_dimension(V.table, ttable) == dim
    assert koopman.eigenvalue_one_multiplicity(V, T) == dim


def test_fixed_space_dimension_matches_koopman_multiplicity():
    # 240 seeded invariant systems, with and without FEC
    rng = Random(2024)
    fec_count = 0
    for _ in range(240):
        m = rng.randint(2, 7)
        T = generate.random_transformation(rng, m)
        V = generate.random_upper_prob(rng, T)
        fec_count += isinstance(fec_decompose(V, T), FECResult)
        dim = oracle_fixed_space_dimension(V.table, T.table)
        assert dim == koopman.eigenvalue_one_multiplicity(V, T)
    assert 0 < fec_count < 240
