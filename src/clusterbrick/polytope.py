"""Exact lattice polytope arithmetic over the integers.

Polytopes are stored as their vertex sets (integer coordinates).  Hulls and
membership are decided by integer inequalities: one double description
pass per hull gives its affine-hull equations and its facets, with
fraction-free integer pivots only, so every answer is exact.  Coordinates
must be `int` (bools and every other number type are rejected), since the
integer pivots are exact only on integer input.  Nothing here knows about
root systems (`roots.det_adjugate` is plain integer linear algebra); the
polytopes fed in are Newton polytopes and brick polytopes, but any integer
point set works.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod
from operator import mul

from .errors import DimensionMismatch, ResourceLimit
from .roots import det_adjugate

Point = tuple[int, ...]
BOX_CAP = 200_000   # most bounding-box points `lattice_points` scans


def _integer_point(point) -> Point:
    """`point` as a tuple, or TypeError naming it when a coordinate is not
    an int."""
    point = tuple(point)
    for x in point:
        if type(x) is not int:
            raise TypeError(
                f"point {point!r} has the non-integer coordinate {x!r}")
    return point


def _dot(a, y) -> int:
    return sum(map(mul, a, y))


def _primitive(v) -> Point:
    g = gcd(*v)
    return tuple(x // g for x in v)


def _double_description(points) -> tuple[tuple, tuple, tuple]:
    """(equations, inequalities, zero sets) of the hull of distinct integer
    points, by the double description method (Motzkin, Raiffa, Thompson
    and Thrall 1953; Fukuda and Prodon, "Double description method
    revisited", 1996).

    Each point p becomes the row (1, p); x lies in the hull iff
    <e, (1, x)> = 0 for every equation e and <y, (1, x)> >= 0 for every
    inequality y.  A greedy maximal independent set B of the rows, of rank
    r with pivot columns J, starts the cone: the columns of sign(det) adj
    of B restricted to J, placed on J, are its r rays, and each is tight on
    B minus its own row; each column c outside J gives the equation
    det e_c - adj (column c of B), placed on J.  The other rows cut the
    cone in turn; a pair of rays on opposite sides is adjacent, and spans a
    new ray, iff it shares at least r - 2 tight rows and no third ray is
    tight on all of them.  Zero sets are bitmasks over the points, and
    every vector is primitive.
    """
    rows = [(1,) + p for p in points]
    width = len(rows[0])
    basis, echelon, pivots = [], [], []
    for idx, v in enumerate(rows):
        for e, c in zip(echelon, pivots):
            f = v[c]
            if f:
                v = [x * e[c] - f * y for x, y in zip(v, e)]
        if any(v):
            basis.append(idx)
            echelon.append(v)
            pivots.append(next(t for t, x in enumerate(v) if x))
    cols, r = sorted(pivots), len(basis)
    det, adj = det_adjugate([[rows[i][j] for j in cols] for i in basis])

    def lift(u, c=None) -> Point:
        """adj u placed on the pivot columns, det at column c."""
        out = [det if t == c else 0 for t in range(width)]
        for j, adj_row in zip(cols, adj):
            out[j] = _dot(adj_row, u)
        return _primitive(out)

    equations = tuple(lift([-rows[i][c] for i in basis], c)
                      for c in range(width) if c not in cols)
    sign = 1 if det > 0 else -1
    rays = [lift([sign * (l == k) for l in range(r)]) for k in range(r)]
    everything = sum(1 << i for i in basis)
    zeros = [everything ^ 1 << i for i in basis]
    for idx, a in enumerate(rows):
        if everything >> idx & 1:
            continue
        bit = 1 << idx
        values = [_dot(a, y) for y in rays]
        negative = [k for k, s in enumerate(values) if s < 0]
        kept = [k for k, s in enumerate(values) if s >= 0]
        new_rays = [rays[k] for k in kept]
        new_zeros = [zeros[k] if values[k] else zeros[k] | bit for k in kept]
        for p in [k for k in kept if values[k]]:
            sp, zp = values[p], zeros[p]
            for q in negative:
                z = zp & zeros[q]
                if z.bit_count() >= r - 2 and _only_pair(z, zeros):
                    sq = values[q]
                    new_rays.append(_primitive(
                        [sp * b - sq * a for a, b in zip(rays[p], rays[q])]))
                    new_zeros.append(z | bit)
        rays, zeros = new_rays, new_zeros
    return equations, tuple(rays), tuple(zeros)


def _only_pair(z: int, zeros) -> bool:
    """Whether at most two zero sets, the pair's own, contain z: the pair
    is adjacent when no third ray is tight on all the rows it shares."""
    seen = 0
    for w in zeros:
        if w & z == z:
            seen += 1
            if seen > 2:
                return False
    return True


def convex_hull_vertices(points) -> tuple[Point, ...]:
    """The extreme points of a finite integer point set, sorted.

    One double description pass gives the facets.  With T_i the set of
    facets tight at point i, a vertex's T is contained in no other point's,
    while a non-vertex lies in a face with two vertices whose tight sets
    strictly contain its own.  So, scanning by decreasing |T_i|, a point is
    kept iff no point kept before it has a tight set containing T_i.  A
    coordinate that is not an int raises TypeError.
    """
    pts = sorted(set(_integer_point(p) for p in points))
    if len(pts) <= 1:
        return tuple(pts)
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions {sorted(dims)}")
    zeros = _double_description(pts)[2]
    tight = [sum(1 << f for f, z in enumerate(zeros) if z >> i & 1)
             for i in range(len(pts))]
    kept = []
    for i in sorted(range(len(pts)), key=lambda i: -tight[i].bit_count()):
        if all(tight[k] & tight[i] != tight[i] for k in kept):
            kept.append(i)
    return tuple(pts[i] for i in sorted(kept))


class LatticePolytope:
    """Convex hull of finitely many integer points, represented by vertices;
    `contains` builds the facet inequalities on its first call."""

    __slots__ = ("vertices", "_facets")

    def __init__(self, points):
        self.vertices: tuple[Point, ...] = convex_hull_vertices(points)
        self._facets = None

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
        if self._facets is None:
            self._facets = _double_description(self.vertices)[:2]
        equations, inequalities = self._facets
        x = (1,) + point
        return (all(_dot(e, x) == 0 for e in equations)
                and all(_dot(y, x) >= 0 for y in inequalities))

    def lattice_points(self) -> tuple[Point, ...]:
        """All integer points of the polytope, by scanning the bounding box.

        BOX_CAP bounds the number of box points scanned; the boxes arising
        from Newton polytopes in ranks up to 5 stay far below it.
        """
        if not self.vertices:
            return ()
        ranges = [range(min(col), max(col) + 1) for col in zip(*self.vertices)]
        box = prod(map(len, ranges))
        if box > BOX_CAP:
            raise ResourceLimit(f"bounding box has {box} points, over the cap {BOX_CAP}")
        return tuple(p for p in product(*ranges) if self.contains(p))


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
    out._facets = None
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
