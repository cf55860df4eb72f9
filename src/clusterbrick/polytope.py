"""Exact lattice polytope arithmetic over the rationals.

Polytopes are stored as their vertex sets (integer coordinates).  Membership
and extremality are decided with a phase-one simplex over Fraction, so every
answer is exact.  Nothing here knows about root systems; the polytopes fed in
are Newton polytopes and brick polytopes, but any integer point set works.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import DimensionMismatch, ResourceLimit

Point = tuple[int, ...]


def _in_convex_hull(point, generators) -> bool:
    """Exact test whether `point` is a convex combination of `generators`.

    Solves the phase-one LP: minimize the sum of artificial variables in
      sum_i lam_i g_i = p,  sum_i lam_i = 1,  lam >= 0.
    Feasible with optimum zero iff the point is in the hull.
    """
    if not generators:
        return False
    dim = len(point)
    rows = dim + 1
    cols = len(generators)
    # tableau columns: lam_1..lam_k, artificials a_1..a_rows, rhs
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
    # objective: sum of artificials, expressed in terms of non-basic columns.
    # The basic artificials have reduced cost zero, so only the lam columns
    # and the value cell pick up the row sums.
    obj = [Fraction(0)] * (cols + rows) + [Fraction(0)]
    for r in range(rows):
        for j in range(cols):
            obj[j] -= tab[r][j]
        obj[-1] -= tab[r][-1]
    basis = [cols + r for r in range(rows)]
    while True:
        # Bland's rule, and artificials never re-enter the basis.
        pivot_col = -1
        for j in range(cols):
            if obj[j] < 0:
                pivot_col = j
                break
        if pivot_col < 0:
            break
        pivot_row = -1
        best = None
        for r in range(rows):
            a = tab[r][pivot_col]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[pivot_row]):
                    best = ratio
                    pivot_row = r
        if pivot_row < 0:
            # unbounded phase-one cannot happen: objective is bounded below by 0
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


def convex_hull_vertices(points) -> tuple[Point, ...]:
    """The extreme points of a finite integer point set, sorted.

    A point is kept iff it is outside the hull of the others.  Points proven
    interior are dropped from later hull tests, which keeps the LP sizes
    shrinking as the scan proceeds.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 1:
        return tuple(pts)
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions {sorted(dims)}")
    alive = list(pts)
    idx = 0
    while idx < len(alive):
        candidate = alive[idx]
        others = alive[:idx] + alive[idx + 1:]
        if _in_convex_hull(candidate, others):
            alive.pop(idx)
        else:
            idx += 1
    return tuple(alive)


class LatticePolytope:
    """Convex hull of finitely many integer points, represented by vertices."""

    __slots__ = ("vertices",)

    def __init__(self, points):
        self.vertices: tuple[Point, ...] = convex_hull_vertices(points)

    @property
    def dim_ambient(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticePolytope):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"LatticePolytope({list(self.vertices)})"

    def contains(self, point) -> bool:
        point = tuple(point)
        if not self.vertices:
            return False
        if len(point) != self.dim_ambient:
            raise DimensionMismatch(
                f"point of dim {len(point)} vs polytope of dim {self.dim_ambient}")
        if point in self.vertices:
            return True
        return _in_convex_hull(point, self.vertices)

    def lattice_points(self, cap: int = 200000) -> tuple[Point, ...]:
        """All integer points of the polytope, by scanning the bounding box.

        `cap` bounds the number of box points scanned; the boxes arising from
        Newton polytopes in ranks up to 5 stay far below the default.
        """
        if not self.vertices:
            return ()
        lo = [min(v[t] for v in self.vertices) for t in range(self.dim_ambient)]
        hi = [max(v[t] for v in self.vertices) for t in range(self.dim_ambient)]
        box = 1
        for a, b in zip(lo, hi):
            box *= b - a + 1
        if box > cap:
            raise ResourceLimit(f"bounding box has {box} points, over the cap {cap}")
        out = []
        for p in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            if self.contains(p):
                out.append(p)
        return tuple(out)


def minkowski_sum(polys) -> LatticePolytope:
    """Minkowski sum of a list of polytopes (hull of iterated vertex sums)."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty Minkowski sum")
    acc = polys[0]
    for p in polys[1:]:
        if p.dim_ambient != acc.dim_ambient:
            raise DimensionMismatch("Minkowski summands of different dimensions")
        acc = LatticePolytope([tuple(a + b for a, b in zip(u, v))
                               for u in acc.vertices for v in p.vertices])
    return acc


def translate(poly: LatticePolytope, shift) -> LatticePolytope:
    shift = tuple(shift)
    out = LatticePolytope.__new__(LatticePolytope)
    out.vertices = tuple(sorted(tuple(a + b for a, b in zip(v, shift))
                                for v in poly.vertices))
    return out


def equal_up_to_translation(a: LatticePolytope, b: LatticePolytope):
    """The translation vector t with a + t == b, or None when no such t exists.

    The lex-least vertices must correspond under any translation, so t is
    forced and a single comparison decides.
    """
    if not a.vertices or not b.vertices:
        return None
    if len(a.vertices) != len(b.vertices) or a.dim_ambient != b.dim_ambient:
        return None
    t = tuple(y - x for x, y in zip(a.vertices[0], b.vertices[0]))
    if translate(a, t).vertices == b.vertices:
        return t
    return None
