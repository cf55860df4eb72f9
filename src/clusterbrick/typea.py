"""Polygon model for type A: triangulations, crossing paths, and interval
prefixes.

The rank-n data lives on a convex (n+3)-gon with vertices 0..n+2 in
counterclockwise order; "clockwise from x" means x-1 modulo the size.  A
Coxeter word determines a snake triangulation by ear cutting, and the path
combinatorics below recovers F-polynomials in two independent ways: by
walking sign vectors along a crossing diagonal, and by reading prefixes of
the word restricted to an interval of labels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

from .cluster import FPolynomial
from .coxeter import Word, check_coxeter_word, restricted_prefixes
from .errors import InvariantViolation
from .roots import Vec

Edge = tuple[int, int]
Triangle = tuple[int, int, int]


@dataclass(frozen=True)
class Triangulation:
    """Snake triangulation of the (n+3)-gon with labeled diagonals.

    diagonals[i-1] is the diagonal labeled i.  strip lists the n+1 triangles
    in dual-path order: strip[k-1] and strip[k] share the diagonal labeled k.
    """

    n: int
    diagonals: tuple[Edge, ...]
    strip: tuple[Triangle, ...]

    @property
    def size(self) -> int:
        return self.n + 3

    def is_boundary(self, u: int, v: int) -> bool:
        return (u - v) % self.size in (1, self.size - 1)

    def diagonal_label(self, u: int, v: int) -> int | None:
        e = (min(u, v), max(u, v))
        return self.diagonals.index(e) + 1 if e in self.diagonals else None


def triangulation_of_coxeter(c: Word, start: int = 0) -> Triangulation:
    """Ear-cutting construction of the snake triangulation of a Coxeter word.

    The first ear is cut at `start`.  For i from 2 to n the next ear sits at
    the clockwise neighbor of the previous one when label i occurs before
    label i-1 in c, at the counterclockwise neighbor otherwise.  Diagonal i
    is the edge closing the ear cut at step i, so the triangle cut at step i
    has sides i-1 and i: the cut triangles, then the last three vertices,
    are the strip in dual-path order.
    """
    n = len(c)
    check_coxeter_word(c, n)
    size = n + 3
    position = {s: k for k, s in enumerate(c)}
    remaining = [(start + k) % size for k in range(size)]
    diagonals = []
    strip = []
    ear = start
    for i in range(1, n + 1):
        idx = remaining.index(ear)
        cw = remaining[idx - 1]
        ccw = remaining[(idx + 1) % len(remaining)]
        diagonals.append((min(cw, ccw), max(cw, ccw)))
        strip.append(tuple(sorted((cw, ear, ccw))))
        remaining.pop(idx)
        if i < n:
            ear = cw if position[i + 1] < position[i] else ccw
    strip.append(tuple(sorted(remaining)))
    if n == 1:
        # Both triangles of the square hold the lone diagonal; either order
        # gives the same crossing set, so take the lexicographic one.
        strip.sort()
    return Triangulation(n, tuple(diagonals), tuple(strip))


@dataclass(frozen=True)
class CrossingDiagonal:
    """An oriented diagonal with the labels it crosses, in crossing order."""

    source: int
    target: int
    crossed: tuple[int, ...]


def _crosses(size: int, e1: Edge, e2: Edge) -> bool:
    a, b = e1
    u, v = e2
    if len({a, b, u, v}) < 4:
        return False

    def between(x, lo, hi):
        return (x - lo) % size < (hi - lo) % size and x != lo
    return between(u, a, b) != between(v, a, b)


def diagonal_of_root(tri: Triangulation, i: int, j: int) -> CrossingDiagonal:
    """The diagonal crossing exactly the labels i..j, oriented to cross i
    first."""
    if not 1 <= i <= j <= tri.n:
        raise ValueError(f"need 1 <= i <= j <= {tri.n}, got ({i}, {j})")
    source = next(v for v in tri.strip[i - 1]
                  if v not in tri.diagonals[i - 1])
    target = next(v for v in tri.strip[j]
                  if v not in tri.diagonals[j - 1])
    crossed = tuple(range(i, j + 1))
    gamma = (min(source, target), max(source, target))
    actually = tuple(k for k in range(1, tri.n + 1)
                     if _crosses(tri.size, gamma, tri.diagonals[k - 1]))
    if actually != crossed:
        raise InvariantViolation(
            f"diagonal {gamma} crosses {actually}, expected {crossed}")
    return CrossingDiagonal(source, target, crossed)


Step = tuple[str, object]  # ("diag", label) or ("boundary", (u, v))


@dataclass(frozen=True)
class TPath:
    """One path: crossed labels, a sign per crossing, and all 2d+1 steps."""

    source: int
    target: int
    crossed: tuple[int, ...]
    signs: tuple[int, ...]
    steps: tuple[Step, ...]


def _reference_direction(triangle: Triangle, edge: Edge) -> tuple[int, int]:
    """Direction induced on `edge` by the counterclockwise cycle of
    `triangle` (vertices ascending is counterclockwise here)."""
    a, b, cc = triangle
    cycle = ((a, b), (b, cc), (cc, a))
    for u, v in cycle:
        if (min(u, v), max(u, v)) == edge:
            return (u, v)
    raise InvariantViolation(f"{edge} is not a side of {triangle}")


def enumerate_tpaths(tri: Triangulation, gamma: CrossingDiagonal) -> tuple[TPath, ...]:
    """All paths along gamma, one per admissible sign vector.

    A sign vector is admissible when each connector between consecutive
    diagonal travels lands on a genuine triangle side; a degenerate connector
    (end of one travel equals start of the next) kills the vector.  The
    all-positive vector comes first and the all-negative one last.
    """
    refs = []
    for label in gamma.crossed:
        after = tri.strip[label]
        refs.append(_reference_direction(after, tri.diagonals[label - 1]))
    d = len(gamma.crossed)
    out = []
    for signs in product((1, -1), repeat=d):
        travels = [ref if s == 1 else (ref[1], ref[0])
                   for ref, s in zip(refs, signs)]
        if any(travels[k][1] == travels[k + 1][0] for k in range(d - 1)):
            continue
        steps: list[Step] = []
        cur = gamma.source
        for k, label in enumerate(gamma.crossed):
            start, end = travels[k]
            steps.append(_edge_step(tri, cur, start))
            steps.append(("diag", label))
            cur = end
        steps.append(_edge_step(tri, cur, gamma.target))
        out.append(TPath(gamma.source, gamma.target, gamma.crossed,
                         signs, tuple(steps)))
    return tuple(out)


def _edge_step(tri: Triangulation, u: int, v: int) -> Step:
    if u == v:
        raise InvariantViolation(f"degenerate connector at vertex {u}")
    label = tri.diagonal_label(u, v)
    if label is not None:
        return ("diag", label)
    if not tri.is_boundary(u, v):
        raise InvariantViolation(f"({u}, {v}) is neither a diagonal nor a side")
    return ("boundary", (min(u, v), max(u, v)))


def monomial_of_tpath(path: TPath, n: int) -> Vec:
    """y-exponent vector: 1 at each positively traveled label."""
    out = [0] * n
    for label, s in zip(path.crossed, path.signs):
        if s == 1:
            out[label - 1] = 1
    return tuple(out)


def f_poly_via_tpaths(tri: Triangulation, i: int, j: int) -> FPolynomial:
    """F-polynomial of the root spanning labels i..j, summed over paths."""
    paths = enumerate_tpaths(tri, diagonal_of_root(tri, i, j))
    return FPolynomial(tri.n, Counter(monomial_of_tpath(p, tri.n) for p in paths))


def f_poly_via_prefixes(c: Word, i: int, j: int) -> FPolynomial:
    """Same F-polynomial from the word side: one monomial per prefix of c
    restricted to the labels i..j."""
    labels = range(1, len(c) + 1)
    return FPolynomial(len(c), Counter(tuple(int(s in prefix) for s in labels)
                                       for prefix in restricted_prefixes(c, i, j)))


def flip_tpath(tri: Triangulation, path: TPath, label: int) -> TPath:
    """The path with the sign at `label` toggled; raises when the toggled
    sign vector is inadmissible."""
    if label not in path.crossed:
        raise ValueError(f"label {label} not crossed by this path")
    idx = path.crossed.index(label)
    target_signs = tuple(-s if k == idx else s for k, s in enumerate(path.signs))
    gamma = CrossingDiagonal(path.source, path.target, path.crossed)
    for cand in enumerate_tpaths(tri, gamma):
        if cand.signs == target_signs:
            return cand
    raise InvariantViolation(f"no valid path with signs {target_signs}")


def ambient_representative(v: Vec, coordinate_sum: int) -> tuple[int, ...]:
    """Type-A vector in the permutation representation on n+1 coordinates.

    A fundamental-weight coordinate vector maps to sum_i v_i (e_1+...+e_i),
    which is only defined up to adding multiples of (1,...,1); the copy with
    the requested coordinate sum is returned.  Orbit elements of the i-th
    fundamental weight are the 0/1 vectors with i ones, so passing i here
    recovers those; brick vectors use the sum of the letters of the word.
    """
    n = len(v)
    lifted = [sum(v[i] for i in range(t, n)) for t in range(n)] + [0]
    excess = coordinate_sum - sum(lifted)
    if excess % (n + 1) != 0:
        raise ValueError(
            f"coordinate sum {coordinate_sum} unreachable from {v}")
    shift = excess // (n + 1)
    return tuple(x + shift for x in lifted)


def boundary_letter(tri: Triangulation, u: int, v: int) -> str:
    """Display letter for a boundary side; presentational only."""
    lo = min(u, v)
    if not tri.is_boundary(u, v):
        raise ValueError(f"({u}, {v}) is not a boundary side")
    if (max(u, v) - lo) % tri.size != 1:
        lo = max(u, v)
    return chr(ord("A") + lo)
