"""Cross-checks between the facet walk and the mutation walk."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbrick import cluster, polytope, subword, verify
from clusterbrick.errors import InvariantViolation
from clusterbrick.roots import (CartanMatrix, cartan_of_type, positive_roots,
                                w_catalan)
from clusterbrick.coxeter import coxeter_words
from clusterbrick.cluster import (ExchangeMemo, MPoly, exact_div,
                                  exchange_binomial, initial_seed)
from clusterbrick.subword import (build_complex, enumerate_facets_with_tables,
                                  flip, greedy_facet, root_table)
from clusterbrick.verify import (Report, build_correspondence, check_lemmas,
                                 check_names, check_typea_models, run_checks,
                                 type_label, variables_by_root)
from oracles import cluster_key, enumerate_seeds, weight_orbit

A2 = cartan_of_type("A", 2)
A3 = cartan_of_type("A", 3)
B2 = cartan_of_type("B", 2)
G2 = cartan_of_type("G", 2)
ROOT = Path(__file__).resolve().parents[1]


def test_type_label():
    assert type_label(A2) == "A2"
    assert type_label(cartan_of_type("C", 3)) == "C3"
    assert type_label(cartan_of_type("F", 4)) == "F4"
    perm = CartanMatrix(((2, 0, -1), (0, 2, -1), (-1, -1, 2)))
    assert type_label(perm) == "custom3"


def test_check_names_gates_the_polygon_model():
    assert check_names(A2) == ("c-vectors", "g-vectors", "exchange",
                               "lemmas", "newton", "lattice", "minkowski",
                               "typea")
    assert check_names(B2) == check_names(A2)[:-1]


def test_all_checks_pass_on_small_types():
    for cartan, c in [(A2, (1, 2)), (A2, (2, 1)), (A3, (1, 3, 2)),
                      (B2, (1, 2)), (G2, (2, 1))]:
        for report in run_checks(cartan, c):
            assert report.passed, (report.name, report.counterexample)
            assert report.counterexample is None
            assert report.coxeter == c


def test_report_equality_ignores_elapsed():
    a = Report("newton", "A2", (1, 2), True, None, elapsed=0.5)
    b = Report("newton", "A2", (1, 2), True, None, elapsed=9.9)
    assert a == b
    assert a != Report("newton", "A2", (2, 1), True, None)


def test_run_checks_is_deterministic():
    first = run_checks(A2, (1, 2))
    second = run_checks(A2, (1, 2))
    assert first == second


def test_run_checks_runs_one_job_only():
    assert run_checks(A3, (1, 3, 2), None, 1) == run_checks(A3, (1, 3, 2))
    for jobs in (2, 0, True):
        with pytest.raises(ValueError, match="jobs must be 1"):
            run_checks(A3, (1, 3, 2), None, jobs)


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_checks(A2, (1, 2), names=("no-such-check",))
    with pytest.raises(ValueError):
        run_checks(B2, (1, 2), names=("typea",))


def test_run_checks_subset():
    reports = run_checks(A2, (1, 2), names=("lattice", "c-vectors"))
    # results come back in the order they were asked for
    assert tuple(r.name for r in reports) == ("lattice", "c-vectors")
    assert all(r.passed for r in reports)


def test_correspondence_walk():
    for cartan, c in [(A2, (1, 2)), (B2, (2, 1)), (A3, (2, 1, 3))]:
        corr = build_correspondence(cartan, c)
        family = type_label(cartan)[0]
        assert len(corr.nodes) == w_catalan(family, cartan.n)
        start = corr.nodes[greedy_facet(corr.complex_)]
        assert start.seed == initial_seed(cartan, c)
        # all clusters distinct
        keys = {cluster_key(node.seed) for node in corr.nodes.values()}
        assert len(keys) == len(corr.nodes)
        # position-to-slot maps are bijections onto the seed slots
        for facet, node in corr.nodes.items():
            assert set(node.pos_to_slot) == set(facet)
            assert sorted(node.pos_to_slot.values()) == list(
                range(1, cartan.n + 1))


def test_correspondence_tables_match_direct_construction():
    for cartan in (A3, cartan_of_type("B", 3), G2, cartan_of_type("D", 4)):
        for c in coxeter_words(cartan):
            corr = build_correspondence(cartan, c)
            for facet, node in corr.nodes.items():
                assert node.table == root_table(corr.complex_, facet)


def test_walk_consumers_catch_table_drift(monkeypatch):
    update = subword.update_after_flip

    def corrupted(*args):
        table = update(*args)
        weights = (tuple(x + 1 for x in table.weights[0]),) + table.weights[1:]
        return dataclasses.replace(table, weights=weights)

    monkeypatch.setattr(subword, "update_after_flip", corrupted)
    with pytest.raises(InvariantViolation, match="drifted"):
        enumerate_facets_with_tables(build_complex(A2, (1, 2)))
    build_correspondence.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match="drifted"):
            build_correspondence(A2, (1, 2))
    finally:
        build_correspondence.cache_clear()


def test_correspondence_catches_a_wrong_exchange_binomial(monkeypatch):
    """Edges into known facets are checked by multiplying out the exchange
    relation; a binomial off by one monomial must not pass."""
    binomial = verify.exchange_binomial

    def corrupted(seed, i):
        return binomial(seed, i) + MPoly.monomial(2 * seed.n, (0,) * (2 * seed.n))

    monkeypatch.setattr(verify, "exchange_binomial", corrupted)
    build_correspondence.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match="desynchronized"):
            build_correspondence(A2, (1, 2))
    finally:
        build_correspondence.cache_clear()


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(verify, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(verify, name, counting)
    return counts


def test_each_flip_edge_is_certified_once(monkeypatch):
    """A3 has 14 facets and 21 flip edges, 42 directed sightings in all:
    13 tree edges mutate, the 8 non-tree edges get one product check each,
    and the 21 second sightings (13 reverses of tree edges, 8 far ends of
    non-tree edges) are checked in integers."""
    counts = _count_calls(monkeypatch, (
        "mutate", "_assert_same_cluster", "_assert_involution",
        "exchange_binomial"))
    build_correspondence.cache_clear()
    try:
        corr = build_correspondence(A3, (1, 2, 3))
    finally:
        build_correspondence.cache_clear()
    assert len(corr.nodes) == 14
    assert counts["mutate"] == 13
    assert counts["_assert_same_cluster"] == 8
    assert counts["_assert_involution"] == 13 + 8
    assert sum(counts[name] for name in (
        "mutate", "_assert_same_cluster", "_assert_involution")) == 14 * 3
    # certified partners: some non-tree edges find theirs already in the memo
    assert 0 < counts["exchange_binomial"] < 8


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_each_exchange_pair_is_certified_once(monkeypatch, family, rank):
    """Exact divisions plus product checks in one walk number the distinct
    unordered pairs {x, x'} exchanged along its flip edges: one certificate
    per pair covers the exchange seen from either side.  Before the
    partner map, A3 (1,2,3) made 16 for its 15 pairs."""
    counts = _count_calls(monkeypatch, ("exchange_binomial",))
    divide = cluster.exact_div

    def counting(num, den):
        counts["exact_div"] += 1
        return divide(num, den)

    monkeypatch.setattr(cluster, "exact_div", counting)
    cartan = cartan_of_type(family, rank)
    for c in coxeter_words(cartan):
        counts.update(exact_div=0, exchange_binomial=0)
        build_correspondence.cache_clear()
        try:
            corr = build_correspondence(cartan, c)
        finally:
            build_correspondence.cache_clear()
        pairs = set()
        for node in corr.nodes.values():
            for i in node.facet:
                new_facet, j = subword.flip(corr.complex_, node.facet, i, node.table)
                other = corr.nodes[new_facet]
                pairs.add(frozenset((
                    id(node.seed.variables[node.pos_to_slot[i] - 1]),
                    id(other.seed.variables[other.pos_to_slot[j] - 1]))))
        assert counts["exact_div"] + counts["exchange_binomial"] == len(pairs)


def test_product_check_needs_the_partner_interned_in_the_walk():
    """The known variable passes only as the walk's own object: a correct
    but foreign copy raises on a memo miss (it cannot be recorded) and on a
    hit (it is not the certified partner)."""
    memo = ExchangeMemo()
    seed = memo.attach(initial_seed(A2, (1, 2)))
    node = verify.Node((1, 2), None, seed, {1: 1, 2: 2})
    partner = exact_div(exchange_binomial(seed, 1), seed.variables[0])
    known = verify.Node((2, 3), None, dataclasses.replace(
        seed, variables=(partner, seed.variables[1])), {3: 1, 2: 2})
    with pytest.raises(InvariantViolation, match="not interned"):
        verify._assert_same_cluster(node, 1, known, 3, memo)
    memo.intern(partner)
    verify._assert_same_cluster(node, 1, known, 3, memo)
    assert memo.partners[memo.exchange_key(seed, 1)] is partner
    foreign = exact_div(exchange_binomial(seed, 1), seed.variables[0])
    known = dataclasses.replace(known, seed=dataclasses.replace(
        seed, variables=(foreign, seed.variables[1])))
    with pytest.raises(InvariantViolation, match="desynchronized"):
        verify._assert_same_cluster(node, 1, known, 3, memo)


def test_correspondence_catches_a_mutation_that_keeps_the_frozen_vector(
        monkeypatch):
    """Only the second sighting of an edge compares the two seeds as a
    mutation pair; on A1 it is the only check that sees the single edge."""
    mutate = verify.mutate

    def corrupted(seed, i):
        # the coefficient rows keep the old c-vector at the slot
        out = mutate(seed, i)
        n = seed.n
        matrix = out.matrix[:n] + tuple(
            row[:i - 1] + (old[i - 1],) + row[i:]
            for row, old in zip(out.matrix[n:], seed.matrix[n:]))
        return dataclasses.replace(out, matrix=matrix)

    monkeypatch.setattr(verify, "mutate", corrupted)
    build_correspondence.cache_clear()
    try:
        for cartan, c in [(cartan_of_type("A", 1), (1,)), (A3, (1, 2, 3))]:
            with pytest.raises(InvariantViolation, match="inverse mutation"):
                build_correspondence(cartan, c)
    finally:
        build_correspondence.cache_clear()


def test_correspondence_catches_two_facets_with_one_cluster(monkeypatch):
    """With no comparison of clusters in the walk, a mutation that changes
    nothing, so that a facet and its neighbour share a cluster, must still
    be caught, by the d-vectors of the position map."""
    monkeypatch.setattr(verify, "mutate", lambda seed, i: seed)
    build_correspondence.cache_clear()
    try:
        for cartan, c in [(cartan_of_type("A", 1), (1,)), (A3, (1, 2, 3))]:
            with pytest.raises(InvariantViolation, match="d-vector"):
                build_correspondence(cartan, c)
    finally:
        build_correspondence.cache_clear()


def test_walk_interns_every_variable():
    """Across all nodes there are exactly n + |positive roots| variable
    objects, equal variables are identical, no seed keeps the walk's memo,
    and the clusters are those of the unmemoized mutation-only oracle."""
    for cartan in (A3, cartan_of_type("B", 3), G2, cartan_of_type("D", 4)):
        for c in coxeter_words(cartan):
            corr = build_correspondence(cartan, c)
            objects = {id(v): v for node in corr.nodes.values()
                       for v in node.seed.variables}
            assert len(objects) == cartan.n + len(positive_roots(cartan))
            assert len(set(objects.values())) == len(objects)
            assert all(node.seed.memo is None for node in corr.nodes.values())
            clusters = {frozenset(node.seed.variables)
                        for node in corr.nodes.values()}
            oracle = {frozenset(seed.variables)
                      for seed in enumerate_seeds(cartan, c)}
            assert clusters == oracle
            assert set(corr.variables.values()) == (
                set().union(*oracle) - set(initial_seed(cartan, c).variables))


def test_walk_caches_are_bounded():
    """The walk is the only cache: `variables_by_root` reads its record."""
    maxsize = build_correspondence.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 8
    assert not hasattr(variables_by_root, "cache_info")
    for c in coxeter_words(A3):
        assert variables_by_root(A3, c) is build_correspondence(A3, c).variables


@pytest.mark.parametrize("c, checks", [
    ((1, 2, 3), ("newton", "lattice", "minkowski")),
    ((1, 3, 2), None),
])
def test_each_f_polynomial_is_built_once_per_walk(monkeypatch, c, checks):
    """A3 has 6 positive roots: the checks share one F-polynomial each."""
    counts = _count_calls(monkeypatch, ("f_polynomial",))
    build_correspondence.cache_clear()
    try:
        reports = run_checks(A3, c, checks)
    finally:
        build_correspondence.cache_clear()
    assert all(r.passed for r in reports), reports
    assert counts["f_polynomial"] == len(positive_roots(A3)) == 6


@pytest.mark.parametrize("family, hulls", [("B", 28), ("A", 19)])
def test_each_column_hull_is_built_once_per_walk(monkeypatch, family, hulls):
    """With p positive roots, the default checks hull p Newton polytopes and
    p weight columns once each, although minkowski gates on newton, then
    p - 1 partial Minkowski sums, the sum in weight coordinates and the
    brick polytope: 3p + 1, so 28 on B3 (p = 9) and 19 on A3 (p = 6)."""
    cartan = cartan_of_type(family, 3)
    calls = []
    hull = polytope.convex_hull_vertices

    def counting(points):
        calls.append(points)
        return hull(points)

    monkeypatch.setattr(polytope, "convex_hull_vertices", counting)
    build_correspondence.cache_clear()
    try:
        reports = run_checks(cartan, (1, 2, 3))
    finally:
        build_correspondence.cache_clear()
    assert all(r.passed for r in reports), reports
    assert len(calls) == 3 * len(positive_roots(cartan)) + 1 == hulls


def test_correspondence_catches_a_variable_that_leaves_its_position(
        monkeypatch):
    """A mutation that also multiplies an untouched slot's variable by y1
    keeps that variable's d-vector; the position record must still see that
    it is not the variable recorded at its position."""
    mutate = verify.mutate

    def corrupted(seed, i):
        out = mutate(seed, i)
        k = 2 if i == 1 else 1
        y1 = MPoly.monomial(2 * seed.n, (0,) * seed.n + (1,) + (0,) * (seed.n - 1))
        variables = list(out.variables)
        variables[k - 1] = variables[k - 1] * y1
        return dataclasses.replace(out, variables=tuple(variables))

    monkeypatch.setattr(verify, "mutate", corrupted)
    build_correspondence.cache_clear()
    try:
        for c in [(1, 2), (1, 2, 3)]:
            with pytest.raises(InvariantViolation, match="position"):
                build_correspondence(cartan_of_type("A", len(c)), c)
    finally:
        build_correspondence.cache_clear()


def test_lemmas_makes_no_weight_diff_call(monkeypatch):
    """Monotonicity is certified in its local form, as multiples of the
    flipped root, with no root-lattice solve."""
    calls = []
    diff = verify.weight_diff_to_root_coords

    def counting(cartan, hi, lo):
        calls.append((hi, lo))
        return diff(cartan, hi, lo)

    monkeypatch.setattr(verify, "weight_diff_to_root_coords", counting)
    for cartan in (A3, cartan_of_type("B", 3), G2):
        report = check_lemmas(cartan, tuple(range(1, cartan.n + 1)))
        assert report.passed, report.counterexample
    assert calls == []


# Rank three outside the recognised labels: type A3 relabelled to centre
# node 1, and the reducible A1xA2 and B2xA1, with their facet counts.
RELABELLED = [
    (((2, -1, -1), (-1, 2, 0), (-1, 0, 2)), 14),
    (((2, 0, 0), (0, 2, -1), (0, -1, 2)), 2 * 5),
    (((2, -1, 0), (-2, 2, 0), (0, 0, 2)), 6 * 2),
]


@pytest.mark.parametrize("rows,facets", RELABELLED)
def test_relabelled_and_reducible_rank_three(rows, facets):
    cartan = CartanMatrix(rows)
    assert type_label(cartan) == "custom3"
    for c in coxeter_words(cartan):
        assert len(build_correspondence(cartan, c).nodes) == facets
        reports = run_checks(cartan, c)
        assert [r.name for r in reports] == list(check_names(A3)[:-1])
        assert all(r.passed for r in reports), [
            (r.name, r.counterexample) for r in reports if not r.passed]


def test_variables_by_root_newton_golden():
    from clusterbrick.cluster import f_polynomial
    by_root = variables_by_root(A2, (1, 2))
    assert sorted(by_root) == [(0, 1), (1, 0), (1, 1)]
    F = f_polynomial(by_root[(1, 1)], 2)
    assert F.terms == {(0, 0): 1, (1, 0): 1, (1, 1): 1}


def test_variables_by_root_covers_positive_roots():
    from clusterbrick.roots import positive_roots
    for cartan, c in [(B2, (1, 2)), (A3, (1, 3, 2)), (G2, (1, 2))]:
        by_root = variables_by_root(cartan, c)
        assert set(by_root) == set(positive_roots(cartan))


def test_type_a_orbit_formula_matches_the_search():
    for n in range(1, 8):
        cartan = cartan_of_type("A", n)
        for q in range(1, n + 1):
            omega = tuple(int(t == q - 1) for t in range(n))
            assert verify._weight_orbit(n, q) == weight_orbit(cartan, omega)


def test_typea_model_check():
    for n in (1, 2, 3):
        for c in coxeter_words(cartan_of_type("A", n)):
            report = check_typea_models(n, c)
            assert report.passed, report.counterexample


def test_correspondence_is_cached():
    one = build_correspondence(A2, (1, 2))
    two = build_correspondence(A2, (1, 2))
    assert one is two


def _assert_minkowski_holds_at_rank_four(families):
    for family in families:
        reports = run_checks(cartan_of_type(family, 4), (1, 2, 3, 4),
                             ("minkowski",), 1)
        assert [(r.name, r.passed) for r in reports] == [("minkowski", True)], (
            family, reports[0].counterexample)


def test_minkowski_at_rank_four():
    _assert_minkowski_holds_at_rank_four(("A", "D"))


def test_minkowski_at_rank_four_non_simply_laced():
    """B4, C4 and F4 (c = 1234); F4 took about 50 s on the per-point LP
    hulls and takes about a second on the double description kernel."""
    _assert_minkowski_holds_at_rank_four(("B", "C", "F"))


@pytest.mark.parametrize("family, rank, facets", [("F", 4, 105), ("D", 5, 182)])
def test_brick_polytope_has_one_vertex_per_facet(family, rank, facets):
    cx = build_complex(cartan_of_type(family, rank), tuple(range(1, rank + 1)))
    bricks = [subword.brick_vector(cx, facet, table)
              for facet, table in enumerate_facets_with_tables(cx).items()]
    assert len(bricks) == facets
    assert sorted(polytope.convex_hull_vertices(bricks)) == sorted(bricks)


RANK_FIVE_POLYTOPES = """
import time
from clusterbrick.roots import cartan_of_type
from clusterbrick.verify import run_checks
start = time.perf_counter()
passed = [r.passed for family, rank, checks in (
              ("D", 5, ("minkowski",)), ("B", 5, ("minkowski",)),
              ("E", 7, ("newton", "lattice")))
          for r in run_checks(cartan_of_type(family, rank),
                              tuple(range(1, rank + 1)), checks)]
print(all(passed), len(passed), time.perf_counter() - start)
"""


@pytest.mark.stretch
def test_rank_five_minkowski_and_e7_lattice_fit_in_60_s_stretch():
    """`minkowski` on D5 and B5 and `newton`, `lattice` on E7 (c = 1..n),
    walks included, pass in under 60 s in a fresh process.  Measured on a
    2-core Python 3.11 host: about 7 s (E7 `lattice` alone took 5.7 s on
    the per-point LP hulls)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", RANK_FIVE_POLYTOPES], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    passed, count, elapsed = result.stdout.split()
    assert (passed, count) == ("True", "4")
    assert float(elapsed) < 60


E7_CHECKS = """
import resource, time
from clusterbrick.roots import cartan_of_type
from clusterbrick.verify import build_correspondence, run_checks
cartan, c = cartan_of_type("E", 7), tuple(range(1, 8))
start = time.perf_counter()
corr = build_correspondence(cartan, c)
reports = run_checks(cartan, c, ("c-vectors", "g-vectors", "exchange", "lemmas"))
elapsed = time.perf_counter() - start
print(len(corr.nodes), all(r.passed for r in reports), elapsed,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.stretch
def test_e7_walk_checks_fit_in_8_s_and_100_mb_stretch():
    """The E7 lockstep walk (4,160 facets) and the c-vector, g-vector,
    exchange and lemma checks on it pass in under 8 s at under 100 MB peak
    RSS.  Measured on a 2-core Python 3.11 host: about 3 s at 31 MB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", E7_CHECKS], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    facets, passed, elapsed, peak_kb = result.stdout.split()
    assert (int(facets), passed) == (4160, "True")
    assert float(elapsed) < 8
    assert int(peak_kb) < 100 * 1024


COMPONENTS = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
              ("C", 3), ("G", 2), ("D", 4))


@st.composite
def relabelled_unions(draw):
    """Disjoint union of irreducible components of total rank at most 4,
    its rows and columns permuted: (components, unrelabelled Cartan matrix,
    permutation p with relabelled entry (s, t) the unrelabelled entry
    (p[s], p[t]), relabelled Coxeter word)."""
    components, budget = [], 4
    while budget and (not components or draw(st.booleans())):
        component = draw(st.sampled_from([x for x in COMPONENTS if x[1] <= budget]))
        components.append(component)
        budget -= component[1]
    n = 4 - budget
    rows = [[0] * n for _ in range(n)]
    start = 0
    for family, rank in components:
        block = cartan_of_type(family, rank).rows
        for s in range(rank):
            rows[start + s][start:start + rank] = block[s]
        start += rank
    p = draw(st.permutations(range(n)))
    c = tuple(draw(st.permutations(range(1, n + 1))))
    return components, CartanMatrix(rows), p, c


@settings(max_examples=40, deadline=None)
@given(relabelled_unions())
def test_relabelled_reducible_types(drawn):
    """Reducible types with relabelled nodes: flips are involutions, the
    facets number the product of the components' W-Catalan numbers, the
    checks pass, and relabelling carries the F-polynomials onto those of the
    unrelabelled matrix.  40 examples took about 0.9 s on a 2-core x86 box
    with Python 3.11."""
    components, cartan, p, c = drawn
    n = cartan.n
    relabelled = CartanMatrix(tuple(tuple(cartan.rows[p[s]][p[t]] for t in range(n))
                                    for s in range(n)))
    corr = build_correspondence(relabelled, c)
    complex_ = corr.complex_
    for facet, node in corr.nodes.items():
        for i in facet:
            new_facet, j = flip(complex_, facet, i, node.table)
            assert flip(complex_, new_facet, j, corr.nodes[new_facet].table) == (facet, i)
    assert len(corr.nodes) == math.prod(w_catalan(*x) for x in components)
    names = ("c-vectors", "g-vectors", "exchange", "lemmas", "newton", "lattice")
    for report in run_checks(relabelled, c, names):
        assert report.passed, (report.name, report.counterexample)
    inverse = {p[s]: s for s in range(n)}

    def unrelabel(v):
        return tuple(v[inverse[t]] for t in range(n))

    expected = build_correspondence(cartan, tuple(p[s - 1] + 1 for s in c)).f_polynomials
    assert {unrelabel(beta): {unrelabel(e): k for e, k in F.terms.items()}
            for beta, F in corr.f_polynomials.items()} == \
        {beta: F.terms for beta, F in expected.items()}
