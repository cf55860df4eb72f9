"""Acceptance suite: seven timed criteria, one printed line each.

Every criterion body recomputes its data from scratch and compares against
values that are spelled out literally, then the wall-clock time is held to
the stated budget. The status lines are written past pytest's capture so
they always show up in the run log.
"""

import sys
import time

import pytest

from clusterbrick.roots import (cartan_of_type, positive_roots,
                                root_to_weight_coords, w_catalan)
from clusterbrick.coxeter import coxeter_words
from clusterbrick.cluster import (c_vector, d_vector, f_polynomial, g_vector,
                                  mutate)
from clusterbrick.subword import (antigreedy_facet, brick_vector,
                                  build_complex, enumerate_facets,
                                  enumerate_facets_with_tables, flip)
from clusterbrick.polytope import (LatticePolytope, equal_up_to_translation,
                                   minkowski_sum)
from clusterbrick.verify import (build_correspondence, check_typea_models,
                                 run_checks)
from oracles import (all_cluster_variables, ambient_representative,
                     brute_force_facets, enumerate_seeds, loday_summands,
                     weight_function)


def run_criterion(number, budget, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        announce(number, "FAIL", elapsed, budget)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= budget
    announce(number, "PASS" if ok else "FAIL", elapsed, budget)
    assert ok, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def announce(number, status, elapsed, budget):
    print(f"acceptance criterion {number}: {status} "
          f"({elapsed:.2f}s, budget {budget:g}s)",
          file=sys.__stdout__, flush=True)


def assert_all_pass(reports):
    for report in reports:
        assert report.passed, (report.name, report.label, report.coxeter,
                               report.counterexample)


CRITERION_3_SET = (
    [("A", r) for r in (1, 2, 3, 4)]
    + [("B", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])


def each_small_type():
    for family, rank in CRITERION_3_SET:
        cartan = cartan_of_type(family, rank)
        for c in coxeter_words(cartan):
            yield cartan, c
    yield cartan_of_type("F", 4), (1, 2, 3, 4)


def test_criterion_1_rank_two_example():
    def body():
        A2 = cartan_of_type("A", 2)
        cx = build_complex(A2, (1, 2))
        facets = enumerate_facets(cx)
        assert set(facets) == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}

        ambient_bricks = {f: ambient_representative(brick_vector(cx, f), 7)
                          for f in facets}
        assert ambient_bricks == {
            (1, 2): (4, 3, 0), (2, 3): (3, 4, 0), (3, 4): (2, 4, 1),
            (4, 5): (2, 3, 2), (1, 5): (4, 1, 2)}

        variables = all_cluster_variables(A2, (1, 2))
        table = {(d_vector(v, 2), g_vector(v, 2)):
                 f_polynomial(v, 2).terms for v in variables}
        one = {(0, 0): 1}
        assert table == {
            ((-1, 0), (1, 0)): one,
            ((0, -1), (0, 1)): one,
            ((1, 0), (-1, 1)): {(0, 0): 1, (1, 0): 1},
            ((1, 1), (-1, 0)): {(0, 0): 1, (1, 0): 1, (1, 1): 1},
            ((0, 1), (0, -1)): {(0, 0): 1, (0, 1): 1}}

        from clusterbrick.cluster import MPoly
        deep = MPoly(4, {(0, -1, 1, 1): 1, (-1, 0, 0, 0): 1,
                         (-1, -1, 1, 0): 1})
        assert deep in variables

        # c-vectors read off the facet that pairs positions 3 and 4
        corr = build_correspondence(A2, (1, 2))
        node = corr.nodes[(3, 4)]
        got = tuple(c_vector(node.seed, node.slot_of(i)) for i in (3, 4))
        assert got == ((0, 1), (-1, -1))

    run_criterion(1, 1.0, body)


AMBIENT_WEIGHT_ROWS = {
    (1, 2, 3): ((1, 0, 0, 0), (1, 1, 1, 0), (1, 1, 0, 0),
                (0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 0, 1)),
    (1, 2, 9): ((1, 0, 0, 0), (1, 1, 1, 0), (1, 0, 1, 0),
                (0, 0, 1, 0), (1, 0, 1, 1), (0, 0, 1, 1)),
    (1, 3, 5): ((1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 0, 0),
                (0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 0, 1)),
    (1, 5, 7): ((1, 0, 0, 0), (1, 1, 0, 1), (1, 0, 0, 1),
                (0, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 1)),
    (1, 7, 9): ((1, 0, 0, 0), (1, 1, 0, 1), (1, 0, 0, 1),
                (0, 0, 0, 1), (1, 0, 1, 1), (0, 0, 1, 1)),
    (2, 3, 4): ((0, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 0),
                (0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 0, 1)),
    (2, 4, 8): ((0, 1, 0, 0), (1, 1, 1, 0), (0, 1, 1, 0),
                (0, 1, 0, 0), (0, 1, 1, 1), (0, 1, 0, 1)),
    (2, 8, 9): ((0, 1, 0, 0), (1, 1, 1, 0), (0, 1, 1, 0),
                (0, 0, 1, 0), (0, 1, 1, 1), (0, 0, 1, 1)),
    (3, 4, 5): ((0, 1, 0, 0), (1, 1, 0, 1), (1, 1, 0, 0),
                (0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 0, 1)),
    (4, 5, 6): ((0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 0, 1),
                (0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 0, 1)),
    (4, 6, 8): ((0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 0, 1),
                (0, 1, 0, 0), (0, 1, 1, 1), (0, 1, 0, 1)),
    (5, 6, 7): ((0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 0, 1),
                (0, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 1)),
    (6, 7, 8): ((0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 0, 1),
                (0, 0, 0, 1), (0, 1, 1, 1), (0, 1, 0, 1)),
    (7, 8, 9): ((0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 0, 1),
                (0, 0, 0, 1), (0, 1, 1, 1), (0, 0, 1, 1)),
}


def test_criterion_2_rank_three_example():
    def body():
        A3 = cartan_of_type("A", 3)
        c = (1, 3, 2)
        variables = all_cluster_variables(A3, c)
        fpolys = {d_vector(v, 3): f_polynomial(v, 3).terms
                  for v in variables if all(
                      x >= 0 for x in d_vector(v, 3))}
        assert fpolys == {
            (1, 0, 0): {(0, 0, 0): 1, (1, 0, 0): 1},
            (0, 1, 0): {(0, 0, 0): 1, (0, 1, 0): 1},
            (0, 0, 1): {(0, 0, 0): 1, (0, 0, 1): 1},
            (1, 1, 0): {(0, 0, 0): 1, (1, 0, 0): 1, (1, 1, 0): 1},
            (0, 1, 1): {(0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 1): 1},
            (1, 1, 1): {(0, 0, 0): 1, (1, 0, 0): 1, (0, 0, 1): 1,
                        (1, 0, 1): 1, (1, 1, 1): 1}}

        cx = build_complex(A3, c)
        got = {}
        for facet in enumerate_facets(cx):
            row = tuple(
                ambient_representative(weight_function(cx, facet, k),
                                       cx.word[k - 1])
                for k in range(4, 10))
            got[facet] = row
        assert got == AMBIENT_WEIGHT_ROWS

    run_criterion(2, 1.0, body)


def test_criterion_3_theorem_checks_everywhere():
    def body():
        for cartan, c in each_small_type():
            assert_all_pass(run_checks(
                cartan, c,
                names=("c-vectors", "g-vectors", "exchange", "lemmas")))

    run_criterion(3, 60.0, body)


def test_criterion_4_newton_and_lattice_everywhere():
    def body():
        for cartan, c in each_small_type():
            assert_all_pass(run_checks(cartan, c,
                                       names=("newton", "lattice")))

    run_criterion(4, 600.0, body)


@pytest.mark.stretch
def test_criterion_4_stretch_larger_ranks():
    for family, rank in [("D", 5), ("B", 5), ("E", 6)]:
        cartan = cartan_of_type(family, rank)
        c = tuple(range(1, rank + 1))
        assert_all_pass(run_checks(cartan, c, names=("newton", "lattice")))


def test_criterion_5_models_and_counts():
    def body():
        for n in (1, 2, 3, 4):
            for c in coxeter_words(cartan_of_type("A", n)):
                report = check_typea_models(n, c)
                assert report.passed, report.counterexample
        for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                             ("B", 3), ("C", 3), ("G", 2)]:
            cartan = cartan_of_type(family, rank)
            for c in coxeter_words(cartan):
                cx = build_complex(cartan, c)
                facets = enumerate_facets(cx)
                assert sorted(facets) == sorted(brute_force_facets(cx))
                assert len(facets) == w_catalan(family, rank)

    run_criterion(5, 300.0, body)


def test_criterion_6_polytope_identities():
    def body():
        cases = ([("A", 2, c) for c in coxeter_words(cartan_of_type("A", 2))]
                 + [("A", 3, c)
                    for c in coxeter_words(cartan_of_type("A", 3))]
                 + [("B", 2, (1, 2)), ("B", 3, (1, 2, 3)), ("G", 2, (1, 2))])
        for family, rank, c in cases:
            cartan = cartan_of_type(family, rank)
            assert_all_pass(run_checks(cartan, c, names=("minkowski",)))

        # the combinatorial summands reproduce the same translation
        for rank in (2, 3):
            cartan = cartan_of_type("A", rank)
            for c in coxeter_words(cartan):
                cx = build_complex(cartan, c)
                parts = [LatticePolytope(
                    [root_to_weight_coords(cartan, e) for e in vecs])
                    for vecs in loday_summands(c).values()]
                bricks = LatticePolytope(
                    [brick_vector(cx, f) for f in enumerate_facets(cx)])
                shift = equal_up_to_translation(minkowski_sum(parts), bricks)
                assert shift == brick_vector(cx, antigreedy_facet(cx))

    run_criterion(6, 60.0, body)


def test_criterion_7_structural_soundness():
    def body():
        # flips undo themselves
        for family, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
            cartan = cartan_of_type(family, rank)
            for c in coxeter_words(cartan):
                cx = build_complex(cartan, c)
                for facet in enumerate_facets(cx):
                    for i in facet:
                        other, j = flip(cx, facet, i)
                        assert flip(cx, other, j) == (facet, i)

        # mutations undo themselves
        for cartan, c in [(cartan_of_type("A", 2), (1, 2)),
                          (cartan_of_type("B", 2), (2, 1)),
                          (cartan_of_type("A", 3), (1, 3, 2))]:
            for seed in enumerate_seeds(cartan, c):
                for i in range(1, cartan.n + 1):
                    assert mutate(mutate(seed, i), i) == seed

        # a full rank four enumeration never hits an inexact division,
        # and every F-polynomial passes its shape validation on build
        A4 = cartan_of_type("A", 4)
        seeds = enumerate_seeds(A4, (1, 2, 3, 4))
        assert len(seeds) == w_catalan("A", 4)
        for v in all_cluster_variables(A4, (1, 2, 3, 4)):
            F = f_polynomial(v, 4)
            assert F.terms[(0, 0, 0, 0)] == 1
            top = F.top_exponent()
            assert all(all(e[t] <= top[t] for t in range(4))
                       for e in F.terms)

        # off-facet positions sweep out exactly the positive roots
        pos4 = sorted(positive_roots(A4))
        cx4 = build_complex(A4, (1, 2, 3, 4))
        for facet, table in enumerate_facets_with_tables(cx4).items():
            outside = sorted(table.roots[k - 1]
                             for k in range(1, cx4.m + 1) if k not in facet)
            assert outside == pos4

    run_criterion(7, 60.0, body)
