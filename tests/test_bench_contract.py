"""The names and call shapes that perfbench/tracer.py relies on.

The tracer wraps package functions by module and attribute name and calls
`run_checks` positionally, so a rename or signature change in the package
would silently break traced benchmark runs; these tests catch it instead.
The tracer also sizes results through `.terms` (of MPoly and FPolynomial),
counts mutations as calls to `mutate`, hull calls as calls to
`convex_hull_vertices` and box points as calls to `LatticePolytope.contains`.
The tracer file is loaded by path and only read.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from clusterbrick import polytope, verify
from clusterbrick.cluster import f_polynomial
from clusterbrick.roots import cartan_of_type, w_catalan
from clusterbrick.subword import RootTable, build_complex, enumerate_facets_with_tables
from clusterbrick.verify import build_correspondence, run_checks, variables_by_root

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    for _, module, attr in _load_tracer().TARGETS:
        owner = importlib.import_module(f"clusterbrick.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_root_table_is_a_dataclass():
    assert dataclasses.is_dataclass(RootTable)


def test_run_checks_takes_jobs_positionally():
    reports = run_checks(cartan_of_type("A", 2), (1, 2), ("c-vectors",), 1)
    assert [(r.name, r.passed) for r in reports] == [("c-vectors", True)]


def test_polynomial_terms_are_keyed_by_exponent_tuples():
    """The tracer counts `len(v.terms)` per cluster variable, and the
    benchmark's digest reads `FPolynomial.terms` keys as tuples."""
    A3 = cartan_of_type("A", 3)
    for v in variables_by_root(A3, (1, 2, 3)).values():
        assert isinstance(v.terms, dict)
        assert all(isinstance(e, tuple) and len(e) == v.nvars for e in v.terms)
        F = f_polynomial(v, 3)
        assert all(isinstance(e, tuple) and len(e) == 3 for e in F.terms)


def test_correspondence_mutates_once_per_new_facet(monkeypatch):
    A3 = cartan_of_type("A", 3)
    calls = []
    mutate = verify.mutate

    def counting(seed, i):
        calls.append(i)
        return mutate(seed, i)

    monkeypatch.setattr(verify, "mutate", counting)
    build_correspondence.cache_clear()
    try:
        corr = build_correspondence(A3, (1, 2, 3))
    finally:
        build_correspondence.cache_clear()
    assert len(corr.nodes) == w_catalan("A", 3) == 14
    assert len(calls) == 13


def test_lattice_points_tests_each_box_point_through_contains(monkeypatch):
    calls = []
    contains = polytope.LatticePolytope.contains

    def counting(self, point):
        calls.append(tuple(point))
        return contains(self, point)

    monkeypatch.setattr(polytope.LatticePolytope, "contains", counting)
    triangle = polytope.LatticePolytope([(0, 0), (3, 0), (0, 2)])
    found = triangle.lattice_points()
    assert len(calls) == len(set(calls)) == 4 * 3
    assert set(found) < set(calls)
    # a second scan, after `contains` has built the inequalities, still
    # tests every box point through it
    calls.clear()
    assert triangle.lattice_points() == found
    assert len(calls) == len(set(calls)) == 4 * 3


def test_constructing_a_polytope_hulls_through_the_module_global(monkeypatch):
    calls = []
    hull = polytope.convex_hull_vertices

    def counting(points):
        calls.append(points)
        return hull(points)

    monkeypatch.setattr(polytope, "convex_hull_vertices", counting)
    square = polytope.LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    polytope.minkowski_sum([square, square])
    assert len(calls) == 2


def test_every_root_table_field_is_a_row_of_length_m():
    """The tracer's `subword.table_vectors` sums `len()` over every
    dataclass field of each walk table, counting m vectors per row."""
    tracer = _load_tracer()
    cx = build_complex(cartan_of_type("B", 3), (1, 2, 3))
    for table in enumerate_facets_with_tables(cx).values():
        fields = dataclasses.fields(table)
        for f in fields:
            row = getattr(table, f.name)
            assert isinstance(row, tuple) and len(row) == cx.m, f.name
            assert all(isinstance(v, tuple) and len(v) == cx.n for v in row)
        assert tracer._table_vectors(table) == len(fields) * cx.m
