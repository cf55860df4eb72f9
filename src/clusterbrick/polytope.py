"""Exact lattice polytope arithmetic over the integers.

Polytopes are stored as their vertex sets (integer coordinates).  Membership
and extremality are decided with a fraction-free phase-one simplex over
plain int, so every answer is exact.  Coordinates must be `int` (bools and
every other number type are rejected), since the integer pivots are exact
only on integer input.  Nothing here knows about root systems; the polytopes
fed in are Newton polytopes and brick polytopes, but any integer point set
works.
"""

from __future__ import annotations

from itertools import product

from .errors import DimensionMismatch, ResourceLimit

Point = tuple[int, ...]


def _integer_point(point) -> Point:
    """`point` as a tuple, or TypeError naming it when a coordinate is not
    an int."""
    point = tuple(point)
    for x in point:
        if type(x) is not int:
            raise TypeError(
                f"point {point!r} has the non-integer coordinate {x!r}")
    return point


def _in_convex_hull(point, generators) -> bool:
    """Exact test whether `point` is a convex combination of `generators`.

    Solves the phase-one LP: minimize the sum of artificial variables in
      sum_i lam_i g_i = p,  sum_i lam_i = 1,  lam >= 0.
    Feasible with optimum zero iff the point is in the hull.

    The tableau is fraction free (Bareiss; Avis, lrs): it holds integers
    with one common denominator d > 0, so the true entries are T / d.  A
    pivot on p = T[pr][pc] keeps the pivot row and sets every other row,
    the objective included, to (x * p - f * y) // d, where f is the row's
    entry in the pivot column; Sylvester's identity makes the division
    exact.  Then d becomes p.  Bland's rule picks the same pivots as over
    the rationals.  The artificial columns are never read, so they are not
    stored; the artificial of row r has basis index cols + r.
    """
    if not generators:
        return False
    dim = len(point)
    rows = dim + 1
    cols = len(generators)
    # tableau rows: lam_1..lam_k, rhs; the last row is sum lam = 1
    tab = []
    for r in range(dim):
        row = [g[r] for g in generators]
        row.append(point[r])
        if point[r] < 0:
            row = [-x for x in row]
        tab.append(row)
    tab.append([1] * (cols + 1))
    # objective: sum of artificials, expressed in terms of non-basic columns.
    # The basic artificials have reduced cost zero, so only the lam columns
    # and the value cell pick up the row sums.
    obj = [-sum(col) for col in zip(*tab)]
    basis = [cols + r for r in range(rows)]
    d = 1
    while True:
        # Bland's rule, and artificials never re-enter the basis.
        pc = -1
        for j in range(cols):
            if obj[j] < 0:
                pc = j
                break
        if pc < 0:
            break
        # least ratio rhs / a over a > 0, compared by cross-multiplying;
        # ties go to the least basis index
        pr = -1
        for r in range(rows):
            a = tab[r][pc]
            if a > 0:
                if pr < 0:
                    pr = r
                    continue
                lhs = tab[r][-1] * tab[pr][pc]
                rhs = tab[pr][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[pr]):
                    pr = r
        if pr < 0:
            # unbounded phase-one cannot happen: objective is bounded below by 0
            return False
        prow = tab[pr]
        p = prow[pc]
        for r in range(rows):
            if r != pr:
                row = tab[r]
                f = row[pc]
                if f:
                    tab[r] = [(x * p - f * y) // d for x, y in zip(row, prow)]
                elif p != d:
                    tab[r] = [x * p // d for x in row]
        f = obj[pc]
        obj = [(x * p - f * y) // d for x, y in zip(obj, prow)]
        d = p
        basis[pr] = pc
    return obj[-1] == 0


def convex_hull_vertices(points) -> tuple[Point, ...]:
    """The extreme points of a finite integer point set, sorted.

    A point is kept iff it is outside the hull of the others.  Points proven
    interior are dropped from later hull tests, which keeps the LP sizes
    shrinking as the scan proceeds.  A coordinate that is not an int raises
    TypeError.
    """
    pts = sorted(set(_integer_point(p) for p in points))
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
        """Whether `point` lies in the polytope; a coordinate that is not an
        int raises TypeError."""
        point = _integer_point(point)
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
