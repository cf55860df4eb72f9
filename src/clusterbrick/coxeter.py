"""Weyl group elements as exact integer matrices and word combinatorics.

A group element is stored as the n x n integer matrix of its action on
simple-root coordinates.  A word is a tuple of 1-based letter indices; the
element of a word applies the rightmost letter first, so the matrix is the
left-to-right product of the letters' reflection matrices.
"""

from __future__ import annotations

import functools
import itertools

from .errors import InvariantViolation
from .roots import CartanMatrix, Vec, _eliminate, positive_roots, reflect_root

Word = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def apply_matrix(m: Matrix, v: Vec) -> Vec:
    return tuple(sum(row[c] * v[c] for c in range(len(v))) for row in m)


def det_int(m: Matrix) -> int:
    """Determinant of a square integer matrix: the elimination of
    `det_adjugate`, run on m alone."""
    sign, last, _ = _eliminate(m, [()] * len(m))
    return sign * last


@functools.lru_cache(maxsize=None)
def reflection_matrices(cartan: CartanMatrix) -> tuple[Matrix, ...]:
    """Matrices of the simple reflections on simple-root coordinates, index s-1."""
    n = cartan.n
    out = []
    for s in range(1, n + 1):
        cols = [reflect_root(cartan, s, tuple(1 if t == c else 0 for t in range(n)))
                for c in range(n)]
        out.append(tuple(tuple(cols[c][r] for c in range(n)) for r in range(n)))
    return tuple(out)


def element_of_word(cartan: CartanMatrix, word: Word) -> Matrix:
    """Matrix of the product of simple reflections, rightmost applied first."""
    mats = reflection_matrices(cartan)
    acc = identity_matrix(cartan.n)
    for s in word:
        acc = mat_mul(acc, mats[s - 1])
    return acc


def _is_negative(v: Vec) -> bool:
    return all(x <= 0 for x in v) and any(x < 0 for x in v)


def length(cartan: CartanMatrix, g: Matrix) -> int:
    """Number of positive roots sent to negative roots by g."""
    return sum(1 for beta in positive_roots(cartan) if _is_negative(apply_matrix(g, beta)))


@functools.lru_cache(maxsize=None)
def longest_element(cartan: CartanMatrix) -> Matrix:
    """The longest element, found once per Cartan matrix by greedy length
    ascent from the identity."""
    n = cartan.n
    mats = reflection_matrices(cartan)
    g = identity_matrix(n)
    while True:
        for s in range(n):
            col = tuple(g[r][s] for r in range(n))
            if not _is_negative(col):  # g(alpha_s) positive: right-multiplying ascends
                g = mat_mul(g, mats[s])
                break
        else:
            return g


def is_reduced(cartan: CartanMatrix, word: Word) -> bool:
    return length(cartan, element_of_word(cartan, word)) == len(word)


def c_sorting_word(cartan: CartanMatrix, c: Word, target: Matrix) -> Word:
    """Greedy subword of c, c, c, ... spelling a reduced word for target.

    Scanning the letters of c cyclically, a letter is taken exactly when it
    is a left descent of the not-yet-spelled remainder r.  The remainder is
    tracked by its image r(2 rho) in simple-root coordinates, 2 rho being
    the sum of the positive roots: s is a left descent of r exactly when
    r^-1(alpha_s) is negative, that is when <r(2 rho), alpha_s^vee> < 0,
    and r is spelled out when r(2 rho) = 2 rho.  The result is the
    lexicographically first reduced word for target as a subword of the
    infinite repetition of c.
    """
    two_rho = tuple(map(sum, zip(*positive_roots(cartan))))
    v = apply_matrix(target, two_rho)   # r(2 rho) for the remainder r
    word: list[int] = []
    for _ in range(len(positive_roots(cartan)) + 1):    # a pass takes a letter
        for s in c:
            if v == two_rho:
                return tuple(word)
            if sum(a * x for a, x in zip(cartan.rows[s - 1], v)) < 0:
                word.append(s)
                v = reflect_root(cartan, s, v)
    raise InvariantViolation("sorting-word scan exceeded its cap")  # pragma: no cover


def coxeter_words(cartan: CartanMatrix) -> tuple[Word, ...]:
    """One reduced word per Coxeter element, i.e. per acyclic orientation
    of the diagram; deterministic (first permutation in lex order wins)."""
    n = cartan.n
    edges = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)
             if cartan.rows[s - 1][t - 1] != 0]
    seen = set()
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        pos = {s: k for k, s in enumerate(perm)}
        key = frozenset((s, t) if pos[s] < pos[t] else (t, s) for s, t in edges)
        if key not in seen:
            seen.add(key)
            out.append(perm)
    return tuple(out)


# ---------------------------------------------------------------------------
# Word combinatorics for the interval model (type A letter adjacency:
# letters s, t commute exactly when |s - t| >= 2).

def _commutes(s: int, t: int) -> bool:
    return abs(s - t) >= 2


def canonical_commutation_word(word: Word) -> Word:
    """Lexicographically least member of the commutation class of `word`,
    reached by repeatedly sorting adjacent commuting letters ascending."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for p in range(len(w) - 1):
            if w[p] > w[p + 1] and _commutes(w[p], w[p + 1]):
                w[p], w[p + 1] = w[p + 1], w[p]
                changed = True
    return tuple(w)


def _commutation_class(word: Word) -> set[Word]:
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for p in range(len(w) - 1):
            if _commutes(w[p], w[p + 1]):
                w2 = w[:p] + (w[p + 1], w[p]) + w[p + 2:]
                if w2 not in seen:
                    seen.add(w2)
                    stack.append(w2)
    return seen


def restricted_prefixes(c: Word, i: int, j: int) -> tuple[Word, ...]:
    """All prefixes, up to commutation, of c restricted to letters i..j.

    Each prefix is returned as the canonical representative of its
    commutation class; the empty word is always present.  Sorted by
    (length, letters).
    """
    if not 1 <= i <= j:
        raise ValueError(f"need 1 <= i <= j, got ({i}, {j})")
    base = tuple(s for s in c if i <= s <= j)
    prefixes: set[Word] = set()
    for w in _commutation_class(base):
        for cut in range(len(w) + 1):
            prefixes.add(canonical_commutation_word(w[:cut]))
    return tuple(sorted(prefixes, key=lambda w: (len(w), w)))
