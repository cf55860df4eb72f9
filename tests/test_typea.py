"""Polygon model: snake triangulations, T-paths, interval prefixes."""

import itertools

import pytest

from clusterbrick.roots import cartan_of_type, root_to_weight_coords
from clusterbrick.coxeter import coxeter_words
from clusterbrick.cluster import d_vector, f_polynomial
from clusterbrick.typea import (diagonal_of_root, enumerate_tpaths,
                                f_poly_via_prefixes, f_poly_via_tpaths,
                                monomial_of_tpath, triangulation_of_coxeter)
from oracles import (_dual_strip, all_cluster_variables, ambient_representative,
                     loday_summands)


def test_triangulation_goldens():
    assert triangulation_of_coxeter((1,)).diagonals == ((1, 3),)
    assert triangulation_of_coxeter((1, 3, 2)).diagonals == (
        (1, 5), (2, 5), (2, 4))
    t4 = triangulation_of_coxeter((3, 2, 1, 4))
    assert t4.diagonals == ((1, 6), (1, 5), (1, 4), (2, 4))
    assert t4.strip == ((0, 1, 6), (1, 5, 6), (1, 4, 5), (1, 2, 4),
                        (2, 3, 4))


def test_strip_triangles_share_consecutive_diagonals():
    for rank in (1, 2, 3, 4):
        for c in coxeter_words(cartan_of_type("A", rank)):
            tri = triangulation_of_coxeter(c)
            assert len(tri.strip) == rank + 1
            for label in range(1, rank + 1):
                # triangle after crossing label k contains diagonals k
                # and k+1 (when the latter exists)
                after = set(tri.strip[label])
                assert set(tri.diagonals[label - 1]) <= after
                if label < rank:
                    assert set(tri.diagonals[label]) <= after


def test_diagonal_of_root_crossings():
    t4 = triangulation_of_coxeter((3, 2, 1, 4))
    gamma = diagonal_of_root(t4, 2, 4)
    assert (gamma.source, gamma.target) == (6, 3)
    assert gamma.crossed == (2, 3, 4)
    assert diagonal_of_root(t4, 1, 1).crossed == (1,)
    full = diagonal_of_root(t4, 1, 4)
    assert full.crossed == (1, 2, 3, 4)


def test_tpath_enumeration_golden():
    t4 = triangulation_of_coxeter((3, 2, 1, 4))
    gamma = diagonal_of_root(t4, 2, 4)
    paths = enumerate_tpaths(t4, gamma)
    assert len(paths) == 5
    by_signs = {p.signs: p for p in paths}
    assert set(by_signs) == {(1, 1, 1), (1, 1, -1), (-1, 1, 1),
                             (-1, 1, -1), (-1, -1, -1)}
    top = by_signs[(1, 1, 1)]
    assert monomial_of_tpath(top, 4) == (0, 1, 1, 1)
    assert top.steps[::2] == (('boundary', (5, 6)), ('diag', 3),
                              ('diag', 3), ('boundary', (2, 3)))
    bottom = by_signs[(-1, -1, -1)]
    assert monomial_of_tpath(bottom, 4) == (0, 0, 0, 0)
    assert bottom.steps[::2] == (('diag', 1), ('diag', 2), ('diag', 4),
                                 ('boundary', (3, 4)))
    # even steps walk across the crossed diagonals in order
    for p in paths:
        assert p.steps[1::2] == (('diag', 2), ('diag', 3), ('diag', 4))


def test_fpoly_via_tpaths_goldens():
    tri = triangulation_of_coxeter((1, 3, 2))
    assert f_poly_via_tpaths(tri, 1, 3).terms == {
        (0, 0, 0): 1, (1, 0, 0): 1, (0, 0, 1): 1, (1, 0, 1): 1,
        (1, 1, 1): 1}
    assert f_poly_via_tpaths(tri, 2, 3).terms == {
        (0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 1): 1}
    assert f_poly_via_tpaths(tri, 1, 2).terms == {
        (0, 0, 0): 1, (1, 0, 0): 1, (1, 1, 0): 1}
    for s in (1, 2, 3):
        unit = tuple(1 if t == s - 1 else 0 for t in range(3))
        assert f_poly_via_tpaths(tri, s, s).terms == {(0, 0, 0): 1, unit: 1}


def test_prefix_model_matches_tpaths():
    for rank in (1, 2, 3, 4):
        for c in coxeter_words(cartan_of_type("A", rank)):
            tri = triangulation_of_coxeter(c)
            for i in range(1, rank + 1):
                for j in range(i, rank + 1):
                    assert f_poly_via_prefixes(c, i, j) == f_poly_via_tpaths(
                        tri, i, j)


def test_models_match_cluster_mutation():
    for rank in (2, 3):
        cartan = cartan_of_type("A", rank)
        for c in coxeter_words(cartan):
            by_d = {d_vector(v, rank): f_polynomial(v, rank)
                    for v in all_cluster_variables(cartan, c)}
            for i in range(1, rank + 1):
                for j in range(i, rank + 1):
                    beta = tuple(1 if i <= t <= j else 0
                                 for t in range(1, rank + 1))
                    assert by_d[beta] == f_poly_via_prefixes(c, i, j)


def test_ambient_representative():
    assert ambient_representative((1, 3), 7) == (4, 3, 0)
    assert ambient_representative((3, -1), 7) == (4, 1, 2)
    assert ambient_representative((-1, 4), 7) == (3, 4, 0)
    assert ambient_representative((1, 0, 0), 1) == (1, 0, 0, 0)
    assert ambient_representative((0, 1, 0), 2) == (1, 1, 0, 0)
    # the reflected first fundamental weight of rank two lands on e2
    assert ambient_representative((-1, 1), 1) == (0, 1, 0)
    with pytest.raises(ValueError):
        ambient_representative((1, 0), 2)


def test_strip_read_off_the_ear_cutting_matches_the_triple_search():
    for n in range(1, 7):
        for c in itertools.permutations(range(1, n + 1)):
            tri = triangulation_of_coxeter(c)
            assert tri.strip == _dual_strip(n, tri.diagonals, n + 3), c


def test_loday_summands_golden():
    assert loday_summands((1, 2)) == {
        (1, 1): ((0, 0), (1, 0)),
        (1, 2): ((0, 0), (1, 0), (1, 1)),
        (2, 2): ((0, 0), (0, 1)),
    }


def test_loday_summands_are_fpoly_newton_vertices():
    from clusterbrick.polytope import convex_hull_vertices
    for rank in (2, 3):
        for c in coxeter_words(cartan_of_type("A", rank)):
            table = loday_summands(c)
            for (i, j), vecs in table.items():
                F = f_poly_via_prefixes(c, i, j)
                assert set(vecs) == set(convex_hull_vertices(F.support()))


def test_loday_sum_is_translated_brick_polytope():
    from clusterbrick.polytope import (LatticePolytope, minkowski_sum,
                                       equal_up_to_translation)
    from clusterbrick.subword import (antigreedy_facet, brick_vector,
                                      build_complex, enumerate_facets)
    for rank in (2, 3):
        cartan = cartan_of_type("A", rank)
        for c in coxeter_words(cartan):
            cx = build_complex(cartan, c)
            parts = [LatticePolytope(
                [root_to_weight_coords(cartan, e) for e in vecs])
                for vecs in loday_summands(c).values()]
            total = minkowski_sum(parts)
            bricks = LatticePolytope(
                [brick_vector(cx, f) for f in enumerate_facets(cx)])
            shift = equal_up_to_translation(total, bricks)
            assert shift == brick_vector(cx, antigreedy_facet(cx))
