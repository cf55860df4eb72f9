"""The double description kernel against two LP oracles.

`fraction_in_convex_hull` is the phase-one simplex the package ran before
its integer kernels, artificial columns included, and `_in_convex_hull` in
`oracles` is the fraction-free integer simplex that replaced it; both are
kept as slow references, never on a hot path.  Hypothesis draws integer
point sets in dimensions 1 to 6, with repeated points, negative coordinates
and sets that lie on a random line or plane, which are lower-dimensional
for the hull and degenerate for the simplex.
"""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbrick.polytope import LatticePolytope, convex_hull_vertices, minkowski_sum
from clusterbrick.roots import cartan_of_type
from clusterbrick.verify import build_correspondence
from oracles import _in_convex_hull


def fraction_in_convex_hull(point, generators) -> bool:
    """Phase-one LP over Fraction with explicit artificial columns."""
    if not generators:
        return False
    dim = len(point)
    rows = dim + 1
    cols = len(generators)
    tab = []
    for r in range(rows):
        if r < dim:
            coeffs = [Fraction(g[r]) for g in generators]
            rhs = Fraction(point[r])
        else:
            coeffs = [Fraction(1)] * cols
            rhs = Fraction(1)
        if rhs < 0:
            coeffs = [-x for x in coeffs]
            rhs = -rhs
        art = [Fraction(1) if i == r else Fraction(0) for i in range(rows)]
        tab.append(coeffs + art + [rhs])
    obj = [Fraction(0)] * (cols + rows) + [Fraction(0)]
    for r in range(rows):
        for j in range(cols):
            obj[j] -= tab[r][j]
        obj[-1] -= tab[r][-1]
    basis = [cols + r for r in range(rows)]
    while True:
        pivot_col = next((j for j in range(cols) if obj[j] < 0), -1)
        if pivot_col < 0:
            break
        pivot_row = -1
        best = None
        for r in range(rows):
            a = tab[r][pivot_col]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[pivot_row]):
                    best = ratio
                    pivot_row = r
        if pivot_row < 0:
            return False
        piv = tab[pivot_row][pivot_col]
        tab[pivot_row] = [x / piv for x in tab[pivot_row]]
        for r in range(rows):
            if r != pivot_row and tab[r][pivot_col] != 0:
                f = tab[r][pivot_col]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[pivot_row])]
        if obj[pivot_col] != 0:
            f = obj[pivot_col]
            obj = [x - f * y for x, y in zip(obj, tab[pivot_row])]
        basis[pivot_row] = pivot_col
    return -obj[-1] == 0


def oracle_hull(points):
    """Sorted extreme points, each tested against all the other points."""
    pts = sorted(set(tuple(p) for p in points))
    return tuple(p for p in pts
                 if not fraction_in_convex_hull(p, [q for q in pts if q != p]))


@st.composite
def point_sets(draw):
    """(dim, points) with 1 <= dim <= 6.  Full-dimensional clouds, or points
    base + t * u (+ s * v) on a random line or plane; some points repeat."""
    dim = draw(st.integers(1, 6))
    coord = st.integers(-6, 6)
    vec = st.lists(coord, min_size=dim, max_size=dim)
    count = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["cloud", "line", "plane"]))
    if shape == "cloud":
        pts = [tuple(draw(vec)) for _ in range(count)]
    else:
        base = draw(vec)
        dirs = [draw(vec) for _ in range(1 if shape == "line" else 2)]
        small = st.integers(-3, 3)
        pts = []
        for _ in range(count):
            coefs = [draw(small) for _ in dirs]
            pts.append(tuple(b + sum(c * u[t] for c, u in zip(coefs, dirs))
                             for t, b in enumerate(base)))
    if draw(st.booleans()):
        pts += draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3))
    return dim, pts


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.data())
def test_kernel_agrees_with_fraction_oracle(case, data):
    dim, pts = case
    distinct = sorted(set(pts))
    extreme = []
    for p in distinct:
        others = [q for q in distinct if q != p]
        inside = fraction_in_convex_hull(p, others)
        assert _in_convex_hull(p, others) == inside, (p, others)
        if not inside:
            extreme.append(p)
    assert convex_hull_vertices(pts) == tuple(extreme)
    # random queries against the raw points, repeats included
    hull = LatticePolytope(pts)
    for _ in range(3):
        q = tuple(data.draw(st.lists(st.integers(-7, 7), min_size=dim,
                                     max_size=dim)))
        inside = fraction_in_convex_hull(q, pts)
        assert _in_convex_hull(q, pts) == inside, (q, pts)
        assert hull.contains(q) == inside, (q, pts)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
             .map(tuple), min_size=1, max_size=3),
    min_size=1, max_size=3)))
def test_minkowski_sum_agrees_with_oracle_hull_of_vertex_sums(summands):
    polys = [LatticePolytope(pts) for pts in summands]
    sums = [tuple(map(sum, zip(*choice)))
            for choice in itertools.product(*(p.vertices for p in polys))]
    assert minkowski_sum(polys).vertices == oracle_hull(sums)


def test_degenerate_pivots_match_the_oracle():
    # collinear and coplanar sets in three dimensions, where the phase-one
    # basis stays degenerate for several pivots and the hull has equations
    line = [(t, 2 * t - 1, -t) for t in range(-2, 4)]
    plane = [(a, b, a + b) for a in range(-1, 2) for b in range(-1, 2)]
    for pts in (line, plane):
        assert convex_hull_vertices(pts) == oracle_hull(pts)
        hull = LatticePolytope(pts)
        for q in [(0, -1, 0), (1, 1, -1), (0, 0, 0), (1, 1, 2), (2, 2, 5)]:
            inside = fraction_in_convex_hull(q, pts)
            assert _in_convex_hull(q, pts) == inside
            assert hull.contains(q) == inside


@pytest.mark.parametrize("family, rank", [("B", 3), ("C", 3), ("D", 4)])
def test_lattice_points_match_a_box_scan_through_the_lp_oracle(family, rank):
    corr = build_correspondence(cartan_of_type(family, rank), tuple(range(1, rank + 1)))
    polys = list(corr.newton_polytopes.values()) + list(corr.column_hulls.values())
    assert len(polys) == 2 * len(corr.variables)
    for P in polys:
        box = itertools.product(*(range(min(col), max(col) + 1)
                                  for col in zip(*P.vertices)))
        assert P.lattice_points() == tuple(
            p for p in box if _in_convex_hull(p, P.vertices)), P


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), Fraction(1), 1.0, True, False])
def test_non_integer_coordinates_are_rejected(bad):
    # on integer pivots (bad, bad) = (0.5, 0.5) would be kept as a vertex
    pts = [(0, 0), (2, 0), (0, 2), (bad, bad)]
    named = re.escape(f"point {(bad, bad)!r} has the non-integer")
    with pytest.raises(TypeError, match=named):
        convex_hull_vertices(pts)
    with pytest.raises(TypeError, match=named):
        LatticePolytope(pts)
    P = LatticePolytope([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(TypeError, match=named):
        P.contains((bad, bad))
