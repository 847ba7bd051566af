"""Unit cases for the fraction-free double description in `polytope`."""

import math
from fractions import Fraction

import pytest

from ergocap import polytope
from ergocap.errors import InternalVerificationError
from ergocap.polytope import simplex_cut_vertices

F = Fraction


def test_no_rows_gives_the_unit_vectors():
    assert simplex_cut_vertices(3, []) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_rational_coefficients():
    # x0/2 + x1/3 <= 2/5 on the segment x = (t, 1 - t) means t <= 2/5
    got = simplex_cut_vertices(2, [((F(1, 2), F(1, 3)), F(2, 5))])
    assert got == [(0, 1), (F(2, 5), F(3, 5))]
    assert all(isinstance(x, Fraction) for v in got for x in v)


def test_rational_coefficients_in_three_dimensions():
    # 3/2 x0 + 1/4 x2 <= 1/2 cuts e0 off; the cut meets e0-e1 at x0 = 1/3
    # and e0-e2 at x0 = 1/5
    got = simplex_cut_vertices(3, [((F(3, 2), F(0), F(1, 4)), F(1, 2))])
    assert got == [(0, 0, 1), (0, 1, 0), (F(1, 5), 0, F(4, 5)), (F(1, 3), F(2, 3), 0)]


def test_cut_through_existing_vertices():
    # x0 - x1 <= 0 passes through e2: e2 stays, only edge e0-e1 is cut
    got = simplex_cut_vertices(3, [((1, -1, 0), 0)])
    assert got == [(0, 0, 1), (0, 1, 0), (F(1, 2), F(1, 2), 0)]


def test_repeated_cut_and_a_cut_through_a_new_vertex():
    # the second copy of x0 <= 1/2 only marks tight sets; x1 <= 1/2 then
    # passes through the vertex (1/2, 1/2, 0) that the first cut created,
    # and e1 is adjacent to e2 but not to (1/2, 0, 1/2)
    half = F(1, 2)
    rows = [((1, 0, 0), half), ((1, 0, 0), half), ((0, 1, 0), half)]
    assert simplex_cut_vertices(3, rows) == [
        (0, 0, 1),
        (0, half, half),
        (half, 0, half),
        (half, half, 0),
    ]


def test_pair_sharing_enough_constraints_is_not_always_an_edge():
    # the quadrilateral x1 = 0, x2 <= 3/8, x3 <= 3/8: its diagonal joins two
    # vertices that share dim - 2 tight constraints, and cutting across it
    # must not create a vertex
    e = F(3, 8)
    rows = [((0, 1, 0, 0), 0), ((0, 0, 1, 0), e), ((0, 0, 0, 1), e)]
    assert simplex_cut_vertices(4, rows) == [
        (F(1, 4), 0, e, e),
        (F(5, 8), 0, 0, e),
        (F(5, 8), 0, e, 0),
        (1, 0, 0, 0),
    ]


def test_empty_result():
    assert simplex_cut_vertices(2, [((1, 1), F(1, 2))]) == []
    # a point survives the first cut and falls to the second
    assert simplex_cut_vertices(2, [((1, 0), 0)]) == [(0, 1)]
    assert simplex_cut_vertices(2, [((1, 0), 0), ((0, 1), 0)]) == []


def test_dimension_one():
    assert simplex_cut_vertices(1, []) == [(1,)]
    assert simplex_cut_vertices(1, [((F(2),), F(2))]) == [(1,)]
    assert simplex_cut_vertices(1, [((F(1),), F(1, 2))]) == []


def test_dimension_zero_is_refused():
    with pytest.raises(ValueError):
        simplex_cut_vertices(0, [])


def test_self_checks_are_internal_errors(monkeypatch):
    # a sign slip in the gcd reduction throws the new vertex out of the simplex
    monkeypatch.setattr(polytope, "gcd", lambda *xs: -math.gcd(*xs))
    with pytest.raises(InternalVerificationError, match="escaped the simplex"):
        simplex_cut_vertices(2, [((1, 0), F(1, 2))])
