"""Finite-type Cartan matrices and exact root/weight coordinate arithmetic.

Vectors are plain tuples of ints.  Roots live in simple-root coordinates,
weights in fundamental-weight coordinates.  Coroots live in simple-coroot
coordinates, which are simple-root coordinates for the transposed Cartan
matrix; that is how `reflect_coroot` and `coroot_of_root` work.  No floats
anywhere.

`reflection_tables` closes the reflections along the roots once per Cartan
matrix, into lookups that hand out one pooled tuple per vector value.

Node numbering is Bourbaki throughout.  Orientation conventions for the
non-symmetric entries: B_n has a[n][n-1] = -2 (last simple root short),
C_n is the transpose of B_n, F4 has a[3][2] = -2 (nodes 1, 2 long), and
G2 is [[2, -1], [-3, 2]].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (
    InvalidCartanMatrix,
    InvalidCartanType,
    NotInRootLattice,
)

Vec = tuple[int, ...]

_RANK_OK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True)
class CartanMatrix:
    """Integer Cartan matrix of finite crystallographic type.

    rows[s][t] pairs the t-th simple root against the s-th simple coroot:
    diagonal 2, off-diagonal <= 0, zero entries symmetric, products of
    opposite off-diagonal entries in {0, 1, 2, 3}.  Construction rejects
    any entry that is not an int (bools included) and validates
    symmetrizability and positive definiteness, so it succeeds exactly for
    finite types.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            rows = tuple(tuple(row) for row in self.rows)
        except TypeError:
            raise InvalidCartanMatrix("matrix must be a sequence of rows") from None
        for row in rows:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InvalidCartanMatrix(f"entry {x!r} is not an integer")
        object.__setattr__(self, "rows", rows)
        _validate_cartan(rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def det_adjugate(self) -> tuple[int, tuple[Vec, ...]]:
        """(det, adjugate) of the matrix, computed once per instance."""
        return det_adjugate(self.rows)

    def entry(self, s: int, t: int) -> int:
        """a_{st} with 1-based node indices."""
        return self.rows[s - 1][t - 1]


def _validate_cartan(rows: tuple[tuple[int, ...], ...]) -> None:
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise InvalidCartanMatrix("matrix must be square and nonempty")
    for s in range(n):
        if rows[s][s] != 2:
            raise InvalidCartanMatrix(f"diagonal entry at {s + 1} is not 2")
        for t in range(n):
            if s == t:
                continue
            a, b = rows[s][t], rows[t][s]
            if a > 0:
                raise InvalidCartanMatrix(f"positive off-diagonal entry at ({s + 1},{t + 1})")
            if (a == 0) != (b == 0):
                raise InvalidCartanMatrix(f"zero pattern not symmetric at ({s + 1},{t + 1})")
            if a * b > 3:
                raise InvalidCartanMatrix(f"entry product {a * b} > 3 at ({s + 1},{t + 1})")
    d = _symmetrizer(rows)
    sym = [[d[s] * rows[s][t] for t in range(n)] for s in range(n)]
    if any(sym[s][t] != sym[t][s] for s in range(n) for t in range(s)):
        raise InvalidCartanMatrix("matrix is not symmetrizable")
    # Sylvester's criterion: every leading principal minor is positive.
    for k in range(1, n + 1):
        sign, last, _ = _eliminate([row[:k] for row in sym[:k]], [()] * k)
        if sign * last <= 0:
            raise InvalidCartanMatrix("symmetrization is not positive definite (not finite type)")


def _symmetrizer(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """Positive ints d with d[s]*a[s][t] == d[t]*a[t][s] along a spanning tree
    of each component.  Each tree starts at the product of all off-diagonal
    magnitudes, which the denominators along any of its paths divide."""
    n = len(rows)
    scale = math.prod(-a for s, row in enumerate(rows) for t, a in enumerate(row)
                      if s != t and a)
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        d[start] = scale
        stack = [start]
        while stack:
            s = stack.pop()
            for t in range(n):
                if rows[s][t] != 0 and s != t and not d[t]:
                    d[t] = d[s] * rows[s][t] // rows[t][s]
                    stack.append(t)
    return d


def det_adjugate(matrix) -> tuple[int, tuple[Vec, ...] | None]:
    """Determinant and adjugate of a square integer matrix: `_eliminate`
    carries I along, so the right block ends as the last pivot times the
    inverse, up to the sign of the row swaps.  None when singular."""
    n = len(matrix)
    sign, last, aug = _eliminate(matrix, [[int(r == c) for c in range(n)] for r in range(n)])
    if not last:
        return 0, None
    return sign * last, tuple(tuple(sign * x for x in row[n:]) for row in aug)


def _eliminate(matrix, right) -> tuple[int, int, list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 1968) of a square integer matrix, each row extended by the
    matching row of `right`.  By Sylvester's identity every intermediate
    entry is, up to sign, a minor of the row-permuted extended matrix, so
    each division by the previous pivot is exact.  Returns the sign of the
    row swaps, the last pivot (the determinant up to that sign, 0 when the
    matrix is singular) and the eliminated rows.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    aug = [list(row) + list(extra) for row, extra in zip(matrix, right)]
    sign = prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k]), None)
        if pivot is None:
            return sign, 0, aug
        if pivot != k:
            aug[k], aug[pivot] = aug[pivot], aug[k]
            sign = -sign
        top = aug[k]
        p = top[k]
        for r in range(n):
            if r != k:
                row = aug[r]
                f = row[k]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return sign, prev, aug


def _family(family: str, rank: int) -> str:
    """Normalized family letter of a finite type; the rank must be an int,
    not a bool."""
    fam = str(family).strip().upper()
    if (fam not in _RANK_OK or not isinstance(rank, int) or isinstance(rank, bool)
            or not _RANK_OK[fam](rank)):
        raise InvalidCartanType(f"no finite type {family}{rank}")
    return fam


def cartan_of_type(family: str, rank: int) -> CartanMatrix:
    """Cartan matrix for an irreducible finite type in Bourbaki numbering."""
    return CartanMatrix(cartan_rows(family, rank))


def cartan_rows(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Rows of cartan_of_type(family, rank), without the validation that
    constructing a CartanMatrix runs; cheap enough to compare against."""
    fam = _family(family, rank)
    n = rank
    rows = [[2 if s == t else 0 for t in range(n)] for s in range(n)]

    def edge(s: int, t: int) -> None:
        rows[s - 1][t - 1] = -1
        rows[t - 1][s - 1] = -1

    if fam in ("A", "B", "C", "F"):
        for i in range(1, n):
            edge(i, i + 1)
        if fam == "B":
            rows[n - 1][n - 2] = -2
        elif fam == "C":
            rows[n - 2][n - 1] = -2
        elif fam == "F":
            rows[2][1] = -2
    elif fam == "D":
        for i in range(1, n - 1):
            edge(i, i + 1)
        edge(n - 2, n)
    elif fam == "E":
        for s, t in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]:
            edge(s, t)
        if n >= 7:
            edge(6, 7)
        if n == 8:
            edge(7, 8)
    else:  # G
        rows = [[2, -1], [-3, 2]]
    return tuple(tuple(row) for row in rows)


@functools.lru_cache(maxsize=None)
def transpose(cartan: CartanMatrix) -> CartanMatrix:
    n = cartan.n
    return CartanMatrix(tuple(tuple(cartan.rows[t][s] for t in range(n)) for s in range(n)))


def _check_index(cartan: CartanMatrix, s: int) -> None:
    if not 1 <= s <= cartan.n:
        raise ValueError(f"simple reflection index {s} out of range 1..{cartan.n}")


def _check_dim(cartan: CartanMatrix, v: Vec) -> None:
    if len(v) != cartan.n:
        raise ValueError(f"vector length {len(v)} does not match rank {cartan.n}")


def reflect_root(cartan: CartanMatrix, s: int, v: Vec) -> Vec:
    """Simple reflection s applied to v in simple-root coordinates."""
    _check_index(cartan, s)
    _check_dim(cartan, v)
    row = cartan.rows[s - 1]
    c = sum(row[t] * v[t] for t in range(cartan.n))
    out = list(v)
    out[s - 1] -= c
    return tuple(out)


def reflect_weight(cartan: CartanMatrix, s: int, v: Vec) -> Vec:
    """Simple reflection s applied to v in fundamental-weight coordinates."""
    _check_index(cartan, s)
    _check_dim(cartan, v)
    coef = v[s - 1]
    if coef == 0:
        return tuple(v)
    return tuple(v[t] - coef * cartan.rows[t][s - 1] for t in range(cartan.n))


def reflect_coroot(cartan: CartanMatrix, s: int, v: Vec) -> Vec:
    """Simple reflection s applied to v in simple-coroot coordinates."""
    return reflect_root(transpose(cartan), s, v)


def mat_vec(rows: tuple[tuple[int, ...], ...], v: Vec) -> Vec:
    return tuple(sum(row[t] * v[t] for t in range(len(v))) for row in rows)


def root_to_weight_coords(cartan: CartanMatrix, v: Vec) -> Vec:
    """Rewrite simple-root coordinates in the fundamental-weight basis."""
    _check_dim(cartan, v)
    return mat_vec(cartan.rows, v)


def weight_diff_to_root_coords(cartan: CartanMatrix, w1: Vec, w2: Vec) -> Vec:
    """Express w1 - w2 (weight coordinates) in simple-root coordinates.

    Raises NotInRootLattice when the difference is not an integer
    combination of simple roots.
    """
    _check_dim(cartan, w1)
    _check_dim(cartan, w2)
    det, adj = cartan.det_adjugate
    diff = [a - b for a, b in zip(w1, w2)]
    out = []
    for row in adj:
        q, r = divmod(sum(x * y for x, y in zip(row, diff)), det)
        if r:
            raise NotInRootLattice(f"difference {tuple(diff)} is not in the root lattice")
        out.append(q)
    return tuple(out)


def pair(cartan: CartanMatrix, root_vec: Vec, coroot_vec: Vec) -> int:
    """Pairing of a root-coordinate vector against a coroot-coordinate vector."""
    _check_dim(cartan, root_vec)
    _check_dim(cartan, coroot_vec)
    n = cartan.n
    return sum(coroot_vec[s] * cartan.rows[s][t] * root_vec[t]
               for s in range(n) for t in range(n) if coroot_vec[s] and root_vec[t])


def height(v: Vec) -> int:
    return sum(v)


@functools.lru_cache(maxsize=None)
def positive_roots(cartan: CartanMatrix) -> tuple[Vec, ...]:
    """All positive roots in simple-root coordinates, sorted by (height, lex).

    Every root lies in the orbit of the simple roots, which
    `coroot_of_root` closes; the positive ones are its nonnegative keys.
    """
    positive = (v for v in coroot_of_root(cartan) if all(x >= 0 for x in v))
    return tuple(sorted(positive, key=lambda v: (height(v), v)))


@functools.lru_cache(maxsize=None)
def coroot_of_root(cartan: CartanMatrix) -> dict[Vec, Vec]:
    """Map each root (simple-root coords) to its coroot (simple-coroot coords).

    Built by closing the paired orbit of (alpha_s, alpha_s-dual) under
    simultaneous reflections, so the pairing never guesses lengths.
    """
    n = cartan.n
    pairs = {}
    frontier = []
    for s in range(n):
        unit = tuple(1 if t == s else 0 for t in range(n))
        pairs[unit] = unit
        frontier.append((unit, unit))
    while frontier:
        beta, beta_co = frontier.pop()
        for s in range(1, n + 1):
            img = reflect_root(cartan, s, beta)
            if img not in pairs:
                img_co = reflect_coroot(cartan, s, beta_co)
                pairs[img] = img_co
                frontier.append((img, img_co))
    return pairs


class _WeightImages(dict):
    """w -> pooled s_beta(w), computed on first lookup; both directions are
    stored (s_beta is an involution), and racing fills store equal values."""

    def __init__(self, pool: dict, beta_co: Vec, beta_w: Vec):
        super().__init__()
        self.pool, self.beta_co, self.beta_w = pool, beta_co, beta_w

    def __missing__(self, w: Vec) -> Vec:
        w = self.pool.setdefault(w, w)
        coef = sum(a * b for a, b in zip(w, self.beta_co))   # <w, beta_co>
        image = tuple(a - coef * b for a, b in zip(w, self.beta_w))
        image = self[w] = self.pool.setdefault(image, image)
        self[image] = w
        return image


class ReflectionTables:
    """The reflections of a root system as lookups (Casselman, "Machine
    calculations in Weyl groups", Invent. Math. 1994).

    `pool` maps each root, and each weight met so far, to one canonical
    tuple, and every table returns pooled tuples.  For roots beta and x:
    `negative[beta]` is -beta, `pairing[beta][x]` is <x, beta_co>, and
    `reflect[beta][x]` is s_beta(x) = x - <x, beta_co> beta.  For a weight
    w, `weight_images[beta][w]` is s_beta(w), filled as met.  As
    s_beta = s_(-beta), beta and -beta share those two entries.
    """

    def __init__(self, cartan: CartanMatrix):
        coroots = coroot_of_root(cartan)
        pool = self.pool = {beta: beta for beta in coroots}
        self.negative, self.pairing, self.reflect, self.weight_images = {}, {}, {}, {}
        for beta, beta_co in coroots.items():
            neg = self.negative[beta] = pool[tuple(-x for x in beta)]
            # <x, beta_co> = x . (A^T beta_co) for a root x
            dual = root_to_weight_coords(transpose(cartan), beta_co)
            pairs = self.pairing[beta] = {x: sum(a * b for a, b in zip(x, dual))
                                          for x in coroots}
            if neg in self.reflect:
                self.reflect[beta] = self.reflect[neg]
                self.weight_images[beta] = self.weight_images[neg]
                continue
            self.reflect[beta] = {x: pool[tuple(a - p * b for a, b in zip(x, beta))]
                                  for x, p in pairs.items()}
            self.weight_images[beta] = _WeightImages(
                pool, beta_co, root_to_weight_coords(cartan, beta))


@functools.lru_cache(maxsize=None)
def reflection_tables(cartan: CartanMatrix) -> ReflectionTables:
    """The `ReflectionTables` of `cartan`, built once."""
    return ReflectionTables(cartan)


_DEGREES_FIXED = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


def degrees(family: str, rank: int) -> tuple[int, ...]:
    """Fundamental degrees of the reflection group of the given type."""
    fam = _family(family, rank)
    if fam == "A":
        return tuple(range(2, rank + 2))
    if fam in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if fam == "D":
        return tuple(sorted(tuple(range(2, 2 * rank - 1, 2)) + (rank,)))
    return _DEGREES_FIXED[(fam, rank)]


def coxeter_number(family: str, rank: int) -> int:
    return max(degrees(family, rank))


def w_catalan(family: str, rank: int) -> int:
    """prod (d_i + h) / d_i over the fundamental degrees, an exact integer."""
    ds = degrees(family, rank)
    h = max(ds)
    quotient, remainder = divmod(math.prod(d + h for d in ds), math.prod(ds))
    if remainder:
        raise InvalidCartanType("degree product is not an integer")  # pragma: no cover
    return quotient
