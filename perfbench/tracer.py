"""Span tracing of clusterbrick from outside the package.

`Tracer.install` replaces every module-level binding of a set of public
functions in the loaded `clusterbrick.*` modules with a wrapper that records
one span per call: name, start, end and the index of the enclosing span.
Because the package imports functions by name (`from .roots import
weight_diff_to_root_coords`), every module that holds a binding is patched,
not only the defining one.  Spans are kept in a list and turned into
per-layer metrics after the workload; `uninstall` restores the originals.

A span's layer is the part of its name before the first dot.  Its self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

CHECK_NAMES = ("c-vectors", "g-vectors", "exchange", "lemmas", "newton",
               "lattice", "minkowski", "typea")
LAYERS = ("roots", "coxeter", "subword", "cluster", "polytope", "typea",
          "verify", "cli")

# (span name, module, attribute); a dotted attribute names a class method.
TARGETS = (
    ("roots.weight_diff", "roots", "weight_diff_to_root_coords"),
    ("coxeter.sorting_word", "coxeter", "c_sorting_word"),
    ("coxeter.det", "coxeter", "det_int"),
    ("coxeter.longest_element", "coxeter", "longest_element"),
    ("subword.build_complex", "subword", "build_complex"),
    ("subword.flip", "subword", "flip"),
    ("subword.update_after_flip", "subword", "update_after_flip"),
    ("subword.root_table", "subword", "root_table"),
    ("subword.brick_vector", "subword", "brick_vector"),
    ("cluster.mutate", "cluster", "mutate"),
    ("cluster.f_polynomial", "cluster", "f_polynomial"),
    ("polytope.hull", "polytope", "convex_hull_vertices"),
    ("polytope.contains", "polytope", "LatticePolytope.contains"),
    ("polytope.lattice_points", "polytope", "LatticePolytope.lattice_points"),
    ("polytope.minkowski_sum", "polytope", "minkowski_sum"),
    ("typea.enumerate_tpaths", "typea", "enumerate_tpaths"),
    ("typea.f_poly_via_tpaths", "typea", "f_poly_via_tpaths"),
    ("typea.f_poly_via_prefixes", "typea", "f_poly_via_prefixes"),
    ("verify.build_correspondence", "verify", "build_correspondence"),
    ("verify.run_checks", "verify", "run_checks"),
    ("cli.main", "cli", "main"),
)

# Spans whose results are also counted: span name -> (counter, size).
COUNTED = {
    "cluster.f_polynomial": ("fpoly_terms", lambda F: len(F.terms)),
    "polytope.lattice_points": ("lattice_found", len),
    "polytope.minkowski_sum": ("minkowski_vertices", lambda P: len(P.vertices)),
    "typea.enumerate_tpaths": ("tpaths", len),
}

# Every per-layer metric, in the order BENCHMARK.json lists them.
METRICS = (
    ("roots.weight_diff_calls", "count"), ("roots.weight_diff_s", "s"),
    ("roots.self_s", "s"),
    ("coxeter.sorting_word_s", "s"), ("coxeter.det_calls", "count"),
    ("coxeter.det_s", "s"), ("coxeter.self_s", "s"),
    ("subword.facets", "count"), ("subword.walk_s", "s"),
    ("subword.table_vectors", "count"), ("subword.self_s", "s"),
    ("cluster.mutations", "count"), ("cluster.seeds", "count"),
    ("cluster.new_seed_ratio", "ratio"), ("cluster.laurent_terms", "count"),
    ("cluster.fpoly_terms", "count"), ("cluster.self_s", "s"),
    ("polytope.hull_calls", "count"), ("polytope.hull_points", "count"),
    ("polytope.hull_s", "s"), ("polytope.box_points", "count"),
    ("polytope.lattice_yield", "ratio"), ("polytope.lattice_s", "s"),
    ("polytope.minkowski_s", "s"), ("polytope.minkowski_vertices", "count"),
    ("polytope.self_s", "s"),
    ("typea.tpaths", "count"), ("typea.tpaths_s", "s"),
    ("typea.prefixes_s", "s"), ("typea.self_s", "s"),
    ("verify.correspondence_s", "s"),
    *((f"verify.check.{name}_s", "s") for name in CHECK_NAMES),
    ("verify.checks_run", "count"), ("verify.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.verify_s", "s"), ("trace.overhead_s", "s"),
)


def _table_vectors(table) -> int:
    """Vectors a root table holds: every row except the facet itself."""
    return sum(len(getattr(table, f.name)) for f in dataclasses.fields(table)
               if f.name != "facet")


class Tracer:
    """In-memory span recorder; one per traced child process."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._walks: dict[int, object] = {}     # distinct walk results by id
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def _wrap_counting(self, name: str, fn, count):
        inner = self._wrap(name, fn)

        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            count(result)
            return result
        return traced

    def _wrap_hull(self, name: str, fn):
        inner = self._wrap(name, fn)

        def traced(points):
            points = tuple(points)
            self.counts["hull_points"] += len(set(points))
            return inner(points)
        return traced

    def _wrap_run_checks(self, fn):
        """One call per check, so each check gets its own span; the program
        runs checks in order anyway, so results are unchanged."""
        inner = self._wrap("verify.run_checks", fn)

        def traced(cartan, c, names=None, jobs=1):
            if names is None:
                return inner(cartan, c, names, jobs)
            reports = []
            for check in names:
                with self.span(f"verify.check.{check}"):
                    reports.extend(inner(cartan, c, (check,), jobs))
            return tuple(reports)
        return traced

    def _make(self, name: str, fn):
        if name == "polytope.hull":
            return self._wrap_hull(name, fn)
        if name == "verify.run_checks":
            return self._wrap_run_checks(fn)
        if name == "verify.build_correspondence":
            # Walk results are sized after the workload, outside any span.
            return self._wrap_counting(
                name, fn, lambda corr: self._walks.setdefault(id(corr), corr))
        if name in COUNTED:
            key, size = COUNTED[name]

            def count(result):
                self.counts[key] += size(result)
            return self._wrap_counting(name, fn, count)
        return self._wrap(name, fn)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "clusterbrick" or key.startswith("clusterbrick.")]
        for name, module, attr in TARGETS:
            owner = sys.modules[f"clusterbrick.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._make(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, holder, key: str, wrapper) -> None:
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        spans = self.spans
        duration = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        by_name: dict[str, list[int]] = defaultdict(list)
        for k, (name, _, _, parent) in enumerate(spans):
            by_name[name].append(k)
            if parent >= 0:
                child_time[parent] += duration[k]
        calls = {name: len(ks) for name, ks in by_name.items()}
        self_time: dict[str, float] = defaultdict(float)
        for k, (name, _, _, _) in enumerate(spans):
            self_time[name.split(".")[0]] += duration[k] - child_time[k]

        def outermost(*names: str) -> float:
            """Time inside spans of these names, not counted twice when one
            nests in another."""
            total = 0.0
            for k in (k for name in names for k in by_name.get(name, ())):
                parent = spans[k][3]
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    total += duration[k]
            return total

        box = sum(1 for k in by_name.get("polytope.contains", ())
                  if spans[k][3] >= 0
                  and spans[spans[k][3]][0] == "polytope.lattice_points")
        facets = tables = laurent = 0
        for walk in self._walks.values():
            facets += len(walk.nodes)
            for node in walk.nodes.values():
                tables += _table_vectors(node.table)
                laurent += sum(len(v.terms) for v in node.seed.variables)
        mutations = calls.get("cluster.mutate", 0)
        c = self.counts
        out = {
            "roots.weight_diff_calls": calls.get("roots.weight_diff", 0),
            "roots.weight_diff_s": outermost("roots.weight_diff"),
            "coxeter.sorting_word_s": outermost("coxeter.sorting_word"),
            "coxeter.det_calls": calls.get("coxeter.det", 0),
            "coxeter.det_s": outermost("coxeter.det"),
            "subword.facets": facets,
            "subword.walk_s": outermost("subword.flip",
                                        "subword.update_after_flip",
                                        "subword.root_table"),
            "subword.table_vectors": tables,
            "cluster.mutations": mutations,
            "cluster.seeds": facets,
            "cluster.new_seed_ratio": facets / mutations if mutations else 0.0,
            "cluster.laurent_terms": laurent,
            "cluster.fpoly_terms": c["fpoly_terms"],
            "polytope.hull_calls": calls.get("polytope.hull", 0),
            "polytope.hull_points": c["hull_points"],
            "polytope.hull_s": outermost("polytope.hull"),
            "polytope.box_points": box,
            "polytope.lattice_yield": c["lattice_found"] / box if box else 0.0,
            "polytope.lattice_s": outermost("polytope.lattice_points"),
            "polytope.minkowski_s": outermost("polytope.minkowski_sum"),
            "polytope.minkowski_vertices": c["minkowski_vertices"],
            "typea.tpaths": c["tpaths"],
            "typea.tpaths_s": outermost("typea.f_poly_via_tpaths",
                                        "typea.enumerate_tpaths"),
            "typea.prefixes_s": outermost("typea.f_poly_via_prefixes"),
            "verify.correspondence_s":
                outermost("verify.build_correspondence"),
            "verify.checks_run": sum(calls.get(f"verify.check.{name}", 0)
                                     for name in CHECK_NAMES),
        }
        for name in CHECK_NAMES:
            out[f"verify.check.{name}_s"] = outermost(f"verify.check.{name}")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return out
