"""The independent checkers: brute-force sets, sorted-sum Choquet,
exact simplex, basis-enumeration vertices, literal orbit averages."""

import ast
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ergocap import birkhoff, capacity, generate, koopman
from ergocap.capacity import envelope
from ergocap.fec import FECResult, fec_decompose
from ergocap.measure import Prob
from ergocap.space import Transformation
from ergocap.oracle import (
    _core_bounds,
    _solve,
    oracle_birkhoff_limit,
    oracle_choquet,
    oracle_core_sup,
    oracle_core_vertices,
    oracle_fec,
    oracle_fixed_space_dimension,
    oracle_invariant_core_vertices,
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
    # unlike denominators: the mass row's right-hand side is their lcm 12
    V = envelope([prob("1/3", "2/3"), prob("3/4", "1/4")])
    assert oracle_core_vertices(V.table) == [(F(1, 3), F(2, 3)), (F(3, 4), F(1, 4))]
    assert oracle_core_vertices((F(0), ONE)) == [(ONE,)]


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


def test_tail_average_refuses_a_negative_burn():
    # range(burn) would take no step, and the mean would start at i = 0
    with pytest.raises(ValueError, match="nonnegative"):
        oracle_tail_average((F(1, 2), F(1, 2), F(0)), (1, 2, 2), 0b100, -3, 2)


def test_birkhoff_limit_examples():
    # 0 -> 1 -> {2, 3} cycle, 4 fixed: the tail points take the cycle's mean
    f = (F(5), F(-1), F(1, 2), F(3, 2), F(2, 3))
    assert oracle_birkhoff_limit((1, 2, 3, 2, 4), f) == (1, 1, 1, 1, F(2, 3))
    # cycles of lengths 2 and 3 share one window of lcm 6
    assert oracle_birkhoff_limit((1, 0, 3, 4, 2), (1, 0, 1, 0, 0)) == (F(1, 2),) * 2 + (F(1, 3),) * 3


def test_birkhoff_limit_matches_main_path():
    # 240 seeded (T, f) pairs with m <= 8, on random maps and permutations
    rng = Random(27)
    for i in range(240):
        m = rng.randint(1, 8)
        T = (generate.random_permutation if i % 3 == 0 else generate.random_transformation)(rng, m)
        f = generate.random_function(rng, m)
        assert oracle_birkhoff_limit(T.table, f.values) == birkhoff.birkhoff_limit(T, f).values


def test_window_sup_examples():
    p = (F(1, 3), F(2, 3))
    assert oracle_window_sup(p, (1, 0), 0b01, 8, 17) == F(2, 3)
    assert oracle_window_sup(p, (1, 0), 0b11, 8, 17) == 1
    with pytest.raises(ValueError):
        oracle_window_sup((ONE, F(0)), (0, 0), 0b01, 2, 3)


def test_window_sup_refuses_an_empty_length_range():
    with pytest.raises(ValueError, match="at least one term"):
        oracle_window_sup((F(1, 3), F(2, 3)), (1, 0), 0b01, 0, 0)


def test_window_sup_refuses_a_negative_shift():
    with pytest.raises(ValueError, match="nonnegative"):
        oracle_window_sup((F(1, 3), F(2, 3)), (1, 0), 0b01, -1, 2)


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


def _reference_solve(matrix, rhs):
    """Gauss-Jordan elimination in Fractions; None when singular."""
    n = len(matrix)
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def _reference_core_vertices(vtable):
    """Tight-constraint enumeration with the Fraction solver above."""
    n = len(vtable)
    m = n.bit_length() - 1
    rows = [([F(a >> w & 1) for w in range(m)], vtable[a]) for a in range(1, n - 1)]
    rows += [([-ONE if x == w else F(0) for x in range(m)], F(0)) for w in range(m)]
    found = set()
    for combo in combinations(rows, m - 1):
        p = _reference_solve([[ONE] * m] + [r for r, _ in combo], [ONE] + [b for _, b in combo])
        if p is None or any(x < 0 for x in p):
            continue
        if all(sum((p[w] for w in range(m) if a >> w & 1), F(0)) <= vtable[a] for a in range(1, n - 1)):
            found.add(p)
    return sorted(found)


def test_core_vertices_match_the_fraction_reference():
    # 300 seeded tables with m <= 4 (most at m = 3, where the reference is
    # cheap); half are envelopes, half envelopes with some bounds loosened
    # by fractions of unrelated denominators
    rng = Random(26)
    unlike = 0
    for m, count in ((1, 20), (2, 80), (3, 194), (4, 6)):
        for i in range(count):
            V = envelope([generate.random_prob(rng, m, rng.choice((3, 6, 11))) for _ in range(rng.randint(1, 3))])
            table = list(V.table)
            if i % 2:
                for a in range(1, (1 << m) - 1):
                    if rng.random() < 0.4:
                        table[a] = min(ONE, table[a] + F(1, rng.randint(2, 13)))
            table = tuple(table)
            unlike += len({x.denominator for x in table}) > 2
            got = oracle_core_vertices(table)
            assert got == _reference_core_vertices(table)
            assert got and all(type(x) is Fraction for v in got for x in v)
    assert unlike > 150


# square integer systems in the scaled coordinates y = D x, as the
# enumeration builds them: (rows of coefficients then right-hand side, D,
# the integers (y, d) with solution y / (d D))
SOLVE_CASES = {
    # 1_{01} + 1_{2} is the mass row: singular
    "singular": ([[1, 1, 1, 12], [1, 1, 0, 5], [0, 0, 1, 7]], 12, None),
    # after the mass row clears column 0, 1_{01} is zero in column 1 and swaps with 1_{1}
    "row_swap": ([[1, 1, 1, 12], [1, 1, 0, 9], [0, 1, 0, 4]], 12, ((5, 4, 3), 1)),
    # the sign row -e_1 gives pivot -1, the divisor of the next step
    "negative_pivot": (
        [[1, 1, 1, 1, 30], [0, -1, 0, 0, 0], [0, 1, 1, 0, 12], [1, 0, 1, 0, 20]],
        30,
        ((8, 0, 12, 10), 1),
    ),
    # pivots 1, -1, 1, 2: the last row's update divides by the previous
    # pivot 1, and its entries are not all even
    "pivot_two": (
        [[1, 1, 1, 1, 1, 60], [1, 1, 0, 0, 0, 7], [1, 0, 1, 0, 0, 8], [1, 0, 0, 1, 0, 9], [1, 1, 0, 1, 0, 10]],
        60,
        ((6, 1, 2, 3, 48), 1),
    ),
    # the last pivot is -2: y is the solution doubled, with the signs flipped
    # to make d positive, and the solution (1/120, 13/120, 9/40, 79/120)
    # has halves in the scaled coordinates
    "negative_last_pivot": (
        [[1, 1, 1, 1, 60], [1, 1, 0, 0, 7], [1, 0, 1, 0, 14], [0, 1, 1, 0, 20]],
        60,
        ((1, 13, 27, 79), 2),
    ),
    "m1": ([[1, 5]], 5, ((5,), 1)),
}


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_solve_pinned_cases(name):
    aug, den, expected = SOLVE_CASES[name]
    got = _solve([row[:] for row in aug], den)
    assert got == expected
    if expected is not None:
        ys, d = got
        assert d > 0 and all(type(y) is int for y in ys)
        matrix = [[F(x) for x in row[:-1]] for row in aug]
        assert tuple(F(y, d * den) for y in ys) == _reference_solve(matrix, [F(row[-1], den) for row in aug])


def test_core_bounds_keep_the_simplex_pivots():
    # the integer bound rows take the same pivots as the Fraction rows, so
    # even the optimal vertex the simplex stops at is the same
    rng = Random(7)
    for _ in range(60):
        m = rng.randint(2, 4)
        V = envelope([generate.random_prob(rng, m) for _ in range(rng.randint(1, 3))])
        obj = [F(rng.randint(-3, 3)) for _ in range(m)]
        eq = [([ONE] * m, ONE)]
        rows = [([F(a >> w & 1) for w in range(m)], V.table[a]) for a in range(1, (1 << m) - 1)]
        assert oracle_lp_max(obj, _core_bounds(V.table), eq) == oracle_lp_max(obj, rows, eq)


def test_invariant_core_vertices_examples(two_blocks, q1, q2, swap_pairs):
    assert oracle_invariant_core_vertices(two_blocks.table, swap_pairs.table) == [q2.mass, q1.mass]
    # only the uniform measure is invariant under the 4-cycle
    assert oracle_invariant_core_vertices(two_blocks.table, (1, 2, 3, 0)) == [(F(1, 4),) * 4]
    # no core member gives the fixed point 0 all its mass
    V = envelope([prob("1/2", "1/2")])
    assert oracle_invariant_core_vertices(V.table, (0, 0)) == []
    assert oracle_invariant_core_vertices((F(0), ONE), (0,)) == [(ONE,)]


def test_invariant_core_vertices_match_main_path():
    # 240 seeded invariant systems with m <= 4, with and without FEC
    rng = Random(4)
    fec_count = 0
    for _ in range(240):
        m = rng.randint(1, 4)
        T = generate.random_transformation(rng, m)
        V = generate.random_upper_prob(rng, T)
        fec_count += isinstance(fec_decompose(V, T), FECResult)
        got = oracle_invariant_core_vertices(V.table, T.table)
        assert got == [P.mass for P in capacity.invariant_core_vertices(V, T)]
    assert 0 < fec_count < 240
