"""The local forms of the set-up and of the walk checks against their
matrix and per-facet oracles: regular-vector set-up, one determinant per
walk carried along flips, and the local form of weight monotonicity."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbrick import verify
from clusterbrick.cluster import g_vector
from clusterbrick.coxeter import c_sorting_word, coxeter_words, longest_element
from clusterbrick.roots import cartan_of_type, reflection_tables, root_to_weight_coords
from clusterbrick.subword import (RootTable, antigreedy_facet, build_complex,
                                  enumerate_facets, flip, greedy_facet, is_facet)
from clusterbrick.verify import (build_correspondence, check_c_vectors, check_exchange_matrix,
                                  check_g_vectors, check_lemmas)
from oracles import (antigreedy_by_matrices, c_sorting_word_by_inverse,
                     first_facet_not_unimodular, first_weight_moving_up,
                     is_facet_by_matrices)

TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
         ("B", 4), ("C", 3), ("D", 4), ("G", 2)]
INSTANCES = ([(cartan_of_type(f, r), c) for f, r in TYPES
              for c in coxeter_words(cartan_of_type(f, r))]
             + [(cartan_of_type("F", 4), (1, 2, 3, 4))])
A3 = cartan_of_type("A", 3)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(INSTANCES), st.data())
def test_set_up_on_rho_matches_the_matrix_forms(instance, data):
    cartan, c = instance
    w0 = longest_element(cartan)
    assert c_sorting_word(cartan, c) == c_sorting_word_by_inverse(cartan, c, w0)
    cx = build_complex(cartan, c)
    assert antigreedy_facet(cx) == antigreedy_by_matrices(cx)
    facet = data.draw(st.sampled_from(enumerate_facets(cx)))
    assert is_facet(cx, facet) and is_facet_by_matrices(cx, facet)
    size = data.draw(st.sampled_from((cx.n - 1, cx.n, cx.n, cx.n, cx.n + 1)))
    positions = tuple(data.draw(st.lists(st.integers(0, cx.m + 1), min_size=size,
                                         max_size=size)))
    assert is_facet(cx, positions) == is_facet_by_matrices(cx, positions)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(INSTANCES))
def test_walk_checks_agree_with_their_per_facet_oracles(instance):
    cartan, c = instance
    corr = build_correspondence(cartan, c)
    assert first_facet_not_unimodular(corr) is None
    assert first_weight_moving_up(corr) is None
    assert check_c_vectors(cartan, c).passed
    assert check_lemmas(cartan, c).passed


def _patched(monkeypatch, corr, facet, node):
    """Serve `corr` with the node of `facet` replaced to the checks."""
    patched = dataclasses.replace(corr, nodes={**corr.nodes, facet: node})
    monkeypatch.setattr(verify, "build_correspondence", lambda cartan, c: patched)
    return patched


def test_c_vectors_reports_a_broken_flip_relation(monkeypatch):
    """A facet whose c-vectors and table agree, but whose root at a second
    position is replaced by minus its first negative root beta: the
    configuration is singular, and the flip at beta no longer reflects it
    into the smaller facet's."""
    c = (1, 2, 3)
    corr = build_correspondence(A3, c)
    negative = reflection_tables(A3).negative
    facet, node = next((f, nd) for f, nd in corr.nodes.items()
                       if f != greedy_facet(corr.complex_))
    i = next(i for i in facet if min(node.table.roots[i - 1]) < 0)
    k = next(k for k in facet if k != i)
    up = negative[node.table.roots[i - 1]]
    roots = list(node.table.roots)
    roots[k - 1] = up
    n, slot = A3.n, node.slot_of(k)
    matrix = [list(row) for row in node.seed.matrix]
    for s in range(n):
        matrix[n + s][slot - 1] = up[s]
    seed = dataclasses.replace(node.seed, matrix=tuple(map(tuple, matrix)))
    patched = _patched(monkeypatch, corr, facet, dataclasses.replace(
        node, table=RootTable(tuple(roots), node.table.weights), seed=seed))
    assert first_facet_not_unimodular(patched) == facet
    report = check_c_vectors(A3, c)
    assert not report.passed
    assert report.counterexample == {
        "facet": facet,
        "expected": "root configuration with determinant +-1",
        "actual": [roots[p - 1] for p in facet]}


def test_lemmas_reports_a_weight_moving_up(monkeypatch):
    """A weight column that moves up by the flipped root along the first
    increasing flip out of the greedy facet, at a position outside both
    facets, so that column constancy still holds."""
    c = (1, 2, 3)
    corr = build_correspondence(A3, c)
    cx = corr.complex_
    facet = greedy_facet(cx)
    new_facet, j = flip(cx, facet, 1, corr.nodes[facet].table)
    k = next(k for k in range(1, cx.m + 1) if k not in facet + new_facet)
    beta_w = root_to_weight_coords(A3, corr.nodes[facet].table.roots[0])
    other = corr.nodes[new_facet]
    weights = list(other.table.weights)
    weights[k - 1] = tuple(a + b for a, b in
                           zip(corr.nodes[facet].table.weights[k - 1], beta_w))
    patched = _patched(monkeypatch, corr, new_facet, dataclasses.replace(
        other, table=RootTable(other.table.roots, tuple(weights))))
    assert first_weight_moving_up(patched) is not None
    report = check_lemmas(A3, c)
    assert not report.passed
    assert report.counterexample["lemma"] == "increasing flips shift weights down"
    assert set(report.counterexample) == {"lemma", "facet", "flip", "position",
                                          "difference"}


def _last_node(corr):
    """The node of the last facet in sorted order, which is not the greedy one."""
    facet = max(corr.nodes)
    return facet, corr.nodes[facet]


def test_exchange_reports_a_corrupted_exchange_entry(monkeypatch):
    """One off-diagonal entry of one seed's principal part raised by one:
    the rest of that seed, its table and every other node still agree."""
    c = (1, 2, 3)
    corr = build_correspondence(A3, c)
    assert check_exchange_matrix(A3, c).passed
    facet, node = _last_node(corr)
    s, t = node.slots[0], node.slots[1]
    matrix = [list(row) for row in node.seed.matrix]
    entry = matrix[s - 1][t - 1]
    matrix[s - 1][t - 1] += 1
    seed = dataclasses.replace(node.seed, matrix=tuple(map(tuple, matrix)))
    _patched(monkeypatch, corr, facet, dataclasses.replace(node, seed=seed))
    report = check_exchange_matrix(A3, c)
    assert not report.passed
    assert report.counterexample == {"facet": facet, "position": (facet[0], facet[1]),
                                     "expected": entry, "actual": entry + 1}


def test_g_vectors_reports_a_swapped_variable(monkeypatch):
    """One seed's variable at the slot of its first position replaced by the
    variable at the slot of its second: the g-vector at the first position
    no longer equals its weight."""
    c = (1, 2, 3)
    corr = build_correspondence(A3, c)
    assert check_g_vectors(A3, c).passed
    facet, node = _last_node(corr)
    s, t = node.slots[0], node.slots[1]
    variables = list(node.seed.variables)
    variables[s - 1] = node.seed.variables[t - 1]
    seed = dataclasses.replace(node.seed, variables=tuple(variables))
    _patched(monkeypatch, corr, facet, dataclasses.replace(node, seed=seed))
    report = check_g_vectors(A3, c)
    assert not report.passed
    assert report.counterexample == {
        "facet": facet, "position": facet[0],
        "expected": node.table.weights[facet[0] - 1],
        "actual": g_vector(node.seed.variables[t - 1], A3.n)}
    assert report.counterexample["actual"] == node.table.weights[facet[1] - 1]
