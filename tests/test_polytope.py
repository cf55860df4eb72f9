"""Exact lattice polytopes: hulls, membership, lattice points, sums."""

import pytest

from clusterbrick import polytope
from clusterbrick.errors import DimensionMismatch, ResourceLimit
from clusterbrick.polytope import (LatticePolytope, convex_hull_vertices,
                                   equal_up_to_translation, minkowski_sum,
                                   translate)


def test_hull_drops_interior_and_collinear_points():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (1, 0), (0, 1)]
    assert convex_hull_vertices(pts) == ((0, 0), (0, 2), (2, 0))
    # four points where one sits inside the triangle of the others
    assert convex_hull_vertices([(0, 0), (3, 0), (0, 3), (1, 1)]) == (
        (0, 0), (0, 3), (3, 0))


def test_hull_of_degenerate_inputs():
    assert convex_hull_vertices([(5, 7)]) == ((5, 7),)
    assert convex_hull_vertices([(0, 0), (2, 2), (1, 1)]) == ((0, 0), (2, 2))
    assert convex_hull_vertices([(1, 2), (1, 2)]) == ((1, 2),)


def test_membership_is_exact():
    P = LatticePolytope([(0, 0), (2, 0), (0, 2)])
    assert P.contains((1, 1))
    assert P.contains((0, 0))
    assert P.contains((2, 0))
    assert not P.contains((2, 2))
    assert not P.contains((2, 1))
    assert not P.contains((-1, 0))
    assert not P.contains((3, 0))


def test_membership_in_three_dimensions():
    simplex = LatticePolytope([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert simplex.contains((1, 0, 0))
    assert simplex.contains((0, 1, 1))
    assert not simplex.contains((1, 1, 1))
    assert not simplex.contains((0, 0, 3))


def test_lattice_points(monkeypatch):
    P = LatticePolytope([(0, 0), (2, 0), (0, 2)])
    assert P.lattice_points() == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    segment = LatticePolytope([(0, 0, 0), (0, 3, 0)])
    assert segment.lattice_points() == (
        (0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0))
    monkeypatch.setattr(polytope, "BOX_CAP", 1)
    with pytest.raises(ResourceLimit, match="over the cap 1"):
        segment.lattice_points()


def test_vertex_count_of_cross_polygon():
    pts = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    P = LatticePolytope(pts)
    assert set(P.vertices) == set(pts)
    assert P.contains((0, 0))


def test_minkowski_sum_of_segments_is_a_zonotope():
    a = LatticePolytope([(0, 0), (1, 0)])
    b = LatticePolytope([(0, 0), (0, 1)])
    c = LatticePolytope([(0, 0), (1, 1)])
    z = minkowski_sum([a, b, c])
    assert set(z.vertices) == {(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)}


def test_minkowski_pentagon_golden():
    # Newton polygons of y1+1, y1*y2+y1+1 and y2+1 sum to a pentagon
    parts = [LatticePolytope([(0, 0), (1, 0)]),
             LatticePolytope([(0, 0), (1, 0), (1, 1)]),
             LatticePolytope([(0, 0), (0, 1)])]
    total = minkowski_sum(parts)
    assert set(total.vertices) == {(0, 0), (2, 0), (2, 2), (1, 2), (0, 1)}


def test_translate_and_equality_up_to_translation():
    P = LatticePolytope([(0, 0), (2, 0), (0, 2)])
    Q = translate(P, (5, -3))
    assert set(Q.vertices) == {(5, -3), (7, -3), (5, -1)}
    assert equal_up_to_translation(P, Q) == (5, -3)
    assert equal_up_to_translation(Q, P) == (-5, 3)
    R = LatticePolytope([(0, 0), (2, 0), (1, 2)])
    assert equal_up_to_translation(P, R) is None


def test_equal_up_to_translation_checks_shape_not_count():
    # same vertex count, different shape
    a = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    b = LatticePolytope([(0, 0), (2, 0), (0, 1)])
    assert equal_up_to_translation(a, b) is None
    assert equal_up_to_translation(a, a) == (0, 0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LatticePolytope([(0, 0), (1, 1, 1)])
    with pytest.raises(DimensionMismatch):
        minkowski_sum([LatticePolytope([(0, 0)]),
                       LatticePolytope([(0, 0, 0)])])


def test_hull_against_exhaustive_membership():
    # every dropped point must be inside the hull of the kept ones,
    # checked on a grid of random-free deterministic point clouds
    clouds = [
        [(x, y) for x in range(3) for y in range(3)],
        [(0, 0), (4, 1), (1, 4), (3, 3), (2, 2), (1, 1)],
        [(-2, 0), (2, 0), (0, -2), (0, 2), (1, 1), (-1, -1), (0, 0)],
    ]
    for cloud in clouds:
        P = LatticePolytope(cloud)
        for pt in cloud:
            assert P.contains(pt)
        hull = set(P.vertices)
        for pt in cloud:
            if pt not in hull:
                smaller = LatticePolytope([q for q in cloud if q != pt])
                assert smaller.contains(pt)


def test_translated_polytope_answers_membership_and_lattice_points():
    P = LatticePolytope([(0, 0), (2, 0), (0, 2)])
    assert P.contains((1, 1))       # P has built its inequalities
    Q = translate(P, (3, -1))
    assert Q.vertices == ((3, -1), (3, 1), (5, -1))
    assert Q.contains((4, 0)) and Q.contains((3, 0))
    assert not Q.contains((1, 1)) and not Q.contains((5, 1))
    assert Q.lattice_points() == tuple(sorted(
        (x + 3, y - 1) for x, y in P.lattice_points()))
    segment = translate(LatticePolytope([(0, 0, 0), (2, 2, 2)]), (1, 0, -1))
    assert segment.contains((2, 1, 0)) and not segment.contains((2, 1, 1))
    assert segment.lattice_points() == ((1, 0, -1), (2, 1, 0), (3, 2, 1))
