"""Cross-checks between the facet walk and the mutation walk."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbrick import cluster, polytope, subword, verify
from clusterbrick.errors import (ClusterBrickError, InexactDivision,
                                 InvariantViolation)
from clusterbrick.roots import (CartanMatrix, cartan_of_type, positive_roots,
                                w_catalan)
from clusterbrick.coxeter import coxeter_words
from clusterbrick.cluster import (ExchangeMemo, MPoly, exact_div,
                                  exchange_binomial, initial_seed)
from clusterbrick.subword import (build_complex, enumerate_facets_with_tables,
                                  flip, greedy_facet, root_table)
from clusterbrick.verify import (Report, build_correspondence, check_lemmas,
                                 check_names, check_newton_conjecture,
                                 check_typea_models, run_checks, type_label,
                                 variables_by_root)
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


def test_run_checks_rejects_a_bare_str():
    # iterated, "lemmas" would be read as the names "l", "e", "m", ...
    with pytest.raises(TypeError, match="'lemmas'"):
        run_checks(A2, (1, 2), "lemmas")


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
        # the positions of each facet hold the seed slots bijectively, and
        # the recorded partners are the flips of the facet
        for facet, node in corr.nodes.items():
            assert sorted(node.slots) == list(range(1, cartan.n + 1))
            assert [node.slot_of(i) for i in facet] == list(node.slots)
            assert [(node.flipped(k), j) for k, j in enumerate(node.partners)] \
                == [flip(corr.complex_, facet, i, node.table) for i in facet]


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


def _mark_mutations(monkeypatch):
    """Mark the walk's calls of `mutate`: the returned list is non-empty
    while one runs, so a `quotient` call seen with it empty is the first
    sighting of a non-tree edge."""
    mutating = []
    mutate = verify.mutate

    def marked(seed, i):
        mutating.append(True)
        try:
            return mutate(seed, i)
        finally:
            mutating.pop()

    monkeypatch.setattr(verify, "mutate", marked)
    return mutating


def test_correspondence_catches_a_wrong_exchange_binomial(monkeypatch):
    """The first sighting of every edge is certified by `quotient`: a tree
    edge inside `mutate`, by a product check or an exact division, and a
    non-tree edge outside it, against the variable its far facet already
    holds.  A binomial off by one monomial, in every `quotient` call or
    only in those made outside `mutate`, must not pass."""
    binomial, quotient = cluster.exchange_binomial, ExchangeMemo.quotient
    inside = []

    def corrupted(seed, i):
        out = binomial(seed, i)
        if inside and inside[-1]:
            out = out + MPoly.monomial(2 * seed.n, (0,) * (2 * seed.n))
        return out

    for outside_only in (False, True):
        with monkeypatch.context() as patch:
            mutating = _mark_mutations(patch)

            def quotient_corrupted(memo, seed, i, _outside_only=outside_only):
                inside.append(not (_outside_only and mutating))
                try:
                    return quotient(memo, seed, i)
                finally:
                    inside.pop()

            patch.setattr(cluster, "exchange_binomial", corrupted)
            patch.setattr(ExchangeMemo, "quotient", quotient_corrupted)
            for cartan, c in [(A2, (1, 2)), (B2, (1, 2))]:
                build_correspondence.cache_clear()
                try:
                    with pytest.raises(ClusterBrickError) as caught:
                        build_correspondence(cartan, c)
                finally:
                    build_correspondence.cache_clear()
                if outside_only:
                    assert isinstance(caught.value, InvariantViolation)
                    assert "different clusters" in str(caught.value)


@pytest.mark.parametrize("outcome", ["another variable", "inexact division"])
def test_a_non_tree_edge_must_give_the_known_variable(monkeypatch, outcome):
    """On the first sighting of a non-tree edge, a quotient other than the
    variable the far facet holds, or a failed division, means two paths
    give different clusters; the division error is kept as the cause."""
    quotient = ExchangeMemo.quotient
    mutating = _mark_mutations(monkeypatch)

    def wrong(memo, seed, i):
        if mutating:
            return quotient(memo, seed, i)
        if outcome == "inexact division":
            raise InexactDivision("no exact quotient")
        return seed.variables[i - 1]

    monkeypatch.setattr(ExchangeMemo, "quotient", wrong)
    for cartan, c in [(A2, (1, 2)), (A3, (1, 2, 3))]:
        build_correspondence.cache_clear()
        try:
            with pytest.raises(InvariantViolation,
                               match="two paths give different clusters") as caught:
                build_correspondence(cartan, c)
        finally:
            build_correspondence.cache_clear()
        if outcome == "inexact division":
            assert isinstance(caught.value.__cause__, InexactDivision)
        else:
            assert caught.value.__cause__ is None


class _FirstFiledOnly(dict):
    """A stand-in for the memo's d-vector file that answers every lookup
    with the first variable filed, right or wrong."""

    def setdefault(self, key, value):
        self.__dict__.setdefault("first", value)
        return value

    def get(self, key, default=None):
        return self.__dict__.get("first", default)


def test_a_wrong_hint_falls_back_to_exact_division(monkeypatch):
    """When the variable filed under a quotient's d-vector fails the product
    check, `quotient` divides instead: the walk gives the same seeds and
    variables, with more divisions than new variables."""
    expected = build_correspondence(A3, (1, 2, 3))
    init = ExchangeMemo.__init__

    def misled(memo):
        init(memo)
        memo._by_low = _FirstFiledOnly()

    monkeypatch.setattr(ExchangeMemo, "__init__", misled)
    counts = _count_calls(monkeypatch, cluster, ("exact_div",))
    build_correspondence.cache_clear()
    try:
        corr = build_correspondence(A3, (1, 2, 3))
    finally:
        build_correspondence.cache_clear()
    assert corr.variables == expected.variables
    assert [node.seed for node in corr.nodes.values()] == \
        [node.seed for node in expected.nodes.values()]
    assert counts["exact_div"] > len(positive_roots(A3))


def _count_calls(monkeypatch, owner, names, counts=None):
    """Count calls of the named attributes of `owner` into `counts`."""
    counts = {} if counts is None else counts
    counts.update(dict.fromkeys(names, 0))
    for name in names:
        def counting(*args, _name=name, _fn=getattr(owner, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counting)
    return counts


def test_each_flip_edge_is_certified_once(monkeypatch):
    """A3 has 14 facets and 21 flip edges, 42 directed sightings in all:
    the first sighting of each edge is one `quotient` call, 13 of them
    inside the mutations of tree edges and 8 for non-tree edges, and the
    21 second sightings (13 reverses of tree edges, 8 far ends of non-tree
    edges) are one lookup each.  Its 15 exchange pairs build one binomial
    each, and only its 6 new variables are divided out; every other pair
    is certified by a product check."""
    mutating = _mark_mutations(monkeypatch)
    counts = _count_calls(monkeypatch, verify, ("mutate",))
    _count_calls(monkeypatch, ExchangeMemo, ("quotient", "is_partner"), counts)
    _count_calls(monkeypatch, cluster, ("exchange_binomial", "exact_div"), counts)
    outside = []
    quotient = ExchangeMemo.quotient

    def noting(memo, seed, i):
        outside.append(not mutating)
        return quotient(memo, seed, i)

    monkeypatch.setattr(ExchangeMemo, "quotient", noting)
    build_correspondence.cache_clear()
    try:
        corr = build_correspondence(A3, (1, 2, 3))
    finally:
        build_correspondence.cache_clear()
    assert len(corr.nodes) == 14
    assert counts["mutate"] == 13
    assert counts["quotient"] == len(outside) == 13 + 8
    assert sum(outside) == 8
    assert counts["is_partner"] == 13 + 8
    assert sum(counts[name] for name in (
        "quotient", "is_partner")) == 14 * 3
    assert counts["exact_div"] == len(positive_roots(A3)) == 6
    assert counts["exchange_binomial"] == 15


def test_an_e6_walk_divides_once_per_new_variable(monkeypatch):
    """E6 with c = 1,4,6,2,3,5 has 36 positive roots, so 36 cluster
    variables beyond the initial cluster, and 385 exchange pairs."""
    counts = _count_calls(monkeypatch, cluster, ("exchange_binomial", "exact_div"))
    E6 = cartan_of_type("E", 6)
    build_correspondence.cache_clear()
    try:
        corr = build_correspondence(E6, (1, 4, 6, 2, 3, 5))
    finally:
        build_correspondence.cache_clear()
    assert len(corr.nodes) == 833
    assert counts["exact_div"] == len(positive_roots(E6)) == 36
    assert counts["exchange_binomial"] == 385


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_each_exchange_pair_is_certified_once(monkeypatch, family, rank):
    """Exact divisions plus product checks in one walk, each building the
    exchange binomial once, number the distinct unordered pairs {x, x'}
    exchanged along its flip edges: one certificate per pair covers the
    exchange seen from either side.  Before the partner map, A3 (1,2,3)
    made 16 for its 15 pairs."""
    counts = _count_calls(monkeypatch, cluster, ("exchange_binomial",))
    cartan = cartan_of_type(family, rank)
    for c in coxeter_words(cartan):
        counts.update(exchange_binomial=0)
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
                    id(node.seed.variables[node.slot_of(i) - 1]),
                    id(other.seed.variables[other.slot_of(j) - 1]))))
        assert counts["exchange_binomial"] == len(pairs)


def test_product_check_needs_the_partner_interned_in_the_walk():
    """`quotient` files only the walk's own objects: a miss files the
    interned quotient under the exchange key and the old variable under
    the reverse key, a second call returns the identical object, and an
    equal copy made outside the walk is not that object.  A wrong
    candidate from the d-vector file fails the product check and is not
    filed."""
    memo = ExchangeMemo()
    memo._by_low = _FirstFiledOnly()     # every lookup answers x1
    seed = memo.attach(initial_seed(A2, (1, 2)))
    old = seed.variables[0]
    assert not memo.partners
    partner = memo.quotient(seed, 1)
    assert partner is not old and memo.intern(partner) is partner
    key = memo.exchange_key(seed, 1)
    column, c, _ = key
    reverse = (tuple((k, -b) for k, b in column), tuple(-a for a in c),
               memo.index(partner))
    assert memo.partners == {key: partner, reverse: old}
    assert memo.partners[key] is partner and memo.partners[reverse] is old
    assert memo.quotient(seed, 1) is partner
    foreign = exact_div(exchange_binomial(seed, 1), old)
    assert foreign == partner
    assert memo.quotient(seed, 1) is not foreign


def test_a_flip_back_is_one_lookup_of_the_reverse_key():
    """The mutated seed's exchange key at the slot is the reverse key, whose
    partner is the old variable; a seed that keeps the old c-vector has the
    same binomial on A1 but not the key."""
    memo = ExchangeMemo()
    seed = memo.attach(initial_seed(cartan_of_type("A", 1), (1,)))
    mutated = cluster.mutate(seed, 1)
    assert memo.is_partner(mutated, 1, seed.variables[0])
    assert not memo.is_partner(mutated, 1, mutated.variables[0])
    frozen = dataclasses.replace(mutated, matrix=seed.matrix)
    assert exchange_binomial(frozen, 1) == exchange_binomial(mutated, 1)
    assert not memo.is_partner(frozen, 1, seed.variables[0])


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


@pytest.mark.parametrize("family, c, distinct", [
    ("A", (1, 2, 3), None), ("B", (2, 1, 3), None), ("G", (2, 1), None),
    ("D", (1, 2, 3, 4), None), ("E", (1, 4, 6, 2, 3, 5), 713),
], ids=["A3", "B3", "G2", "D4", "E6"])
def test_walk_pools_matrix_rows(family, c, distinct):
    """Within one walk, equal rows of the seeds' matrices are one object;
    E6 has 833 seeds, 9,996 row references and 713 distinct rows."""
    corr = build_correspondence(cartan_of_type(family, len(c)), c)
    rows = [row for node in corr.nodes.values() for row in node.seed.matrix]
    objects = {id(row): row for row in rows}
    assert len(objects) == len(set(objects.values()))
    assert distinct is None or len(objects) == distinct


def test_walk_caches_are_bounded():
    """The walk is the only cache, of one walk: `variables_by_root` reads
    its record."""
    assert build_correspondence.cache_info().maxsize == 1
    assert not hasattr(variables_by_root, "cache_info")
    for c in coxeter_words(A3):
        assert variables_by_root(A3, c) is build_correspondence(A3, c).variables


def test_only_the_last_walk_is_live(monkeypatch):
    """The cache frees the previous word's walk before the next walk makes
    its first mutation, so two walks are never held at once."""
    build_correspondence.cache_clear()
    first = weakref.ref(build_correspondence(A3, (1, 2, 3)))
    assert first() is build_correspondence(A3, (1, 2, 3))
    alive = []
    mutate = verify.mutate

    def watching(seed, i):
        alive.append(first() is not None)
        return mutate(seed, i)

    monkeypatch.setattr(verify, "mutate", watching)
    try:
        build_correspondence(A3, (3, 2, 1))
    finally:
        build_correspondence.cache_clear()
    assert alive and not any(alive)


def test_run_checks_builds_one_walk(monkeypatch):
    """Every check of one word, minkowski's gate on newton included, reads
    one walk."""
    counts = _count_calls(monkeypatch, verify, ("walk_flips",))
    for cartan, c in [(A3, (2, 1, 3)), (B2, (1, 2))]:
        counts["walk_flips"] = 0
        build_correspondence.cache_clear()
        try:
            reports = run_checks(cartan, c)
        finally:
            build_correspondence.cache_clear()
        assert [r.name for r in reports] == list(check_names(cartan))
        assert all(r.passed for r in reports), reports
        assert counts["walk_flips"] == 1


def test_minkowski_is_gated_on_newton_on_one_walk(monkeypatch):
    """With every weight-column hull shifted off its Newton polytope,
    `newton` fails, and `minkowski` fails on its gate with newton's own
    counterexample, from the one walk that both read."""
    hulls = verify.Correspondence.column_hulls.func

    def shifted(corr):
        return {beta: polytope.LatticePolytope(
                    [tuple(x + 1 for x in v) for v in hull.vertices])
                for beta, hull in hulls(corr).items()}

    monkeypatch.setattr(verify.Correspondence, "column_hulls", property(shifted))
    counts = _count_calls(monkeypatch, verify, ("walk_flips",))
    build_correspondence.cache_clear()
    try:
        minkowski = verify.check_minkowski_brick(A3, (1, 2, 3))
        assert counts["walk_flips"] == 1
        newton = check_newton_conjecture(A3, (1, 2, 3))
    finally:
        build_correspondence.cache_clear()
    assert counts["walk_flips"] == 1
    assert not newton.passed and not minkowski.passed
    assert (minkowski.name, minkowski.label, minkowski.coxeter) == \
        ("minkowski", "A3", (1, 2, 3))
    assert set(newton.counterexample) == {
        "root", "position", "newton_vertices", "column_vertices"}
    assert minkowski.counterexample == {"gated_on": "newton",
                                        **newton.counterexample}


def test_public_checks_keep_their_signatures():
    """Each check runs a body of the shared walk through one frame, but
    `inspect` and `help()` still show the public signature and docstring."""
    checks = [verify.check_c_vectors, verify.check_g_vectors,
              verify.check_exchange_matrix, verify.check_lemmas,
              verify.check_newton_conjecture, verify.check_lattice_points,
              verify.check_minkowski_brick]
    for check in checks + [check_typea_models]:
        params = list(inspect.signature(check).parameters)
        expected = ["n", "c"] if check is check_typea_models else ["cartan", "c"]
        assert params == expected, check.__name__
        assert check.__name__.startswith("check_") and check.__doc__


def test_a_list_word_is_read_as_a_tuple():
    """Every entry point that takes a Coxeter word takes a list too, with
    the results of the tuple."""
    word = [1, 2]
    assert build_correspondence(A2, word) is build_correspondence(A2, (1, 2))
    assert variables_by_root(A2, word) == variables_by_root(A2, (1, 2))
    for check in (verify.check_c_vectors, verify.check_g_vectors,
                  verify.check_exchange_matrix, verify.check_lemmas,
                  verify.check_newton_conjecture, verify.check_lattice_points,
                  verify.check_minkowski_brick):
        report = check(A2, word)
        assert report == check(A2, (1, 2)) and report.passed
        assert report.coxeter == (1, 2)
    assert check_typea_models(2, word) == check_typea_models(2, (1, 2))
    assert run_checks(A2, word) == run_checks(A2, (1, 2))
    assert build_complex(A2, word) == build_complex(A2, (1, 2))


def test_the_shared_walk_is_read_only():
    """The walk's maps are shared by every check of the word, so callers
    cannot change them; they raise TypeError on item assignment and
    deletion, the nodes' slots and partners cannot be rebound or cleared,
    and the checks still see the whole walk."""
    corr = build_correspondence(A3, (1, 2, 3))
    by_root = variables_by_root(A3, (1, 2, 3))
    facet = next(iter(corr.nodes))
    beta = (1, 0, 0)
    for mapping, key in [(corr.nodes, facet), (corr.variables, beta),
                         (by_root, beta), (corr.f_polynomials, beta),
                         (corr.newton_polytopes, beta), (corr.column_hulls, beta)]:
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
        assert not hasattr(mapping, "pop")
    # each node's slots and partners are tuples on a frozen record
    for node in corr.nodes.values():
        for name in ("slots", "partners"):
            assert type(getattr(node, name)) is tuple
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, ())
    assert not hasattr(next(iter(corr.nodes.values())), "pos_to_slot")
    assert len(by_root) == len(positive_roots(A3))
    assert check_newton_conjecture(A3, (1, 2, 3)).passed
    assert all(r.passed for r in run_checks(A3, (1, 2, 3), ["lattice"]))
    assert verify.check_c_vectors(A3, (1, 2, 3)).passed


@pytest.mark.parametrize("c, checks", [
    ((1, 2, 3), ("newton", "lattice", "minkowski")),
    ((1, 3, 2), None),
])
def test_each_f_polynomial_is_built_once_per_walk(monkeypatch, c, checks):
    """A3 has 6 positive roots: the checks share one F-polynomial each."""
    counts = _count_calls(monkeypatch, verify, ("f_polynomial",))
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
@given(relabelled_unions(), st.lists(st.integers(0, 3), max_size=40))
def test_memo_mutation_divides_once_per_new_variable(drawn, steps):
    """On the relabelled reducible types, memo mutation along a random
    sequence of slots gives the seeds of plain mutation, and divides
    exactly once per variable beyond the initial cluster."""
    _, cartan, p, c = drawn
    n = cartan.n
    cartan = CartanMatrix(tuple(tuple(cartan.rows[p[s]][p[t]] for t in range(n))
                                for s in range(n)))
    slots = [step % n + 1 for step in steps]
    plain = [initial_seed(cartan, c)]
    for i in slots:
        plain.append(cluster.mutate(plain[-1], i))
    divisions = []
    divide = cluster.exact_div

    def counting(num, den):
        divisions.append(den)
        return divide(num, den)

    memo = ExchangeMemo()
    seed = memo.attach(plain[0])
    cluster.exact_div = counting
    try:
        for i, expected in zip(slots, plain[1:]):
            seed = cluster.mutate(seed, i)
            assert seed == expected
    finally:
        cluster.exact_div = divide
    seen = {v for seed in plain for v in seed.variables}
    assert len(divisions) == len(seen) - n


@settings(max_examples=40, deadline=None)
@given(relabelled_unions())
def test_relabelled_reducible_types(drawn):
    """Reducible types with relabelled nodes: flips are involutions, and so
    are the walk's mutations, redone unmemoized, which bring in the cluster
    of the flipped facet; clusters are distinct, the facets number the
    product of the components' W-Catalan numbers, the checks pass, and
    relabelling carries the F-polynomials onto those of the unrelabelled
    matrix.  40 examples took about 1.1 s on a 2-core x86 box with
    Python 3.11."""
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
            mutated = cluster.mutate(node.seed, node.slot_of(i))
            assert cluster.mutate(mutated, node.slot_of(i)) == node.seed
            assert set(mutated.variables) == set(corr.nodes[new_facet].seed.variables)
    assert len({frozenset(node.seed.variables) for node in corr.nodes.values()}) \
        == len(corr.nodes) == math.prod(w_catalan(*x) for x in components)
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
