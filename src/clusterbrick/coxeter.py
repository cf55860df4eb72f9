"""Words in the Weyl group, the one ascent to its longest element, and word
combinatorics.

A word is a tuple of 1-based letter indices; its element applies the
rightmost letter first.  Group elements are not stored: `ascent_to_w0`
follows the regular weight rho = (1, ..., 1), in fundamental-weight
coordinates, through simple reflections, and the sorting word, the
antigreedy facet and the facet test all read that one ascent.
`longest_element` writes w0 out as a matrix, for callers that want one.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable

from .errors import InvariantViolation
from .roots import CartanMatrix, _eliminate, positive_roots, reflect_root, reflect_weight

Word = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def det_int(m: Matrix) -> int:
    """Determinant of a square integer matrix: the elimination of
    `det_adjugate`, run on m alone."""
    sign, met, _ = _eliminate(m, [()] * len(m))
    return sign * met[-1]


def check_coxeter_word(c: Word, n: int) -> None:
    """Raise TypeError at the first letter of `c` that is not an int (bools
    included), and ValueError unless `c` is a permutation of 1..n."""
    for s in c:
        if not isinstance(s, int) or isinstance(s, bool):
            raise TypeError(f"Coxeter word {c}: letter {s!r} is not an int")
    if sorted(c) != list(range(1, n + 1)):
        raise ValueError(f"Coxeter word {c} is not a permutation of 1..{n}")


def ascent_to_w0(cartan: CartanMatrix, letters: Iterable[int]) -> list[int] | None:
    """Indices into `letters` that the greedy ascent to the longest element
    w0 takes, or None when the letters run out before it gets there.

    The ascent starts at the identity and multiplies its product u on the
    right by each letter q that lengthens it.  u s_q is longer than u
    exactly when coordinate q of u^-1 rho is positive, and u is w0 exactly
    when u^-1 rho = w0 rho = -rho, as rho has trivial stabilizer; the
    ascent stops there and reads no further letter.
    """
    n = cartan.n
    v, goal = (1,) * n, (-1,) * n     # u^-1 rho, and its value at u = w0
    taken = []
    for k, q in enumerate(letters):
        if v[q - 1] > 0:
            v = reflect_weight(cartan, q, v)
            taken.append(k)
            if v == goal:
                return taken
    return None


def c_sorting_word(cartan: CartanMatrix, c: Word) -> Word:
    """The c-sorting word of w0: the letters the ascent to w0 takes from
    c, c, c, ..., the lexicographically first reduced word for w0 in the
    infinite repetition of c.

    Below w0 some letter lengthens u, so each pass over c takes a letter,
    and the scan stops after one pass per positive root at the latest.  A c
    that `check_coxeter_word` rejects raises before the scan.
    """
    n = cartan.n
    check_coxeter_word(c, n)
    scan = itertools.islice(itertools.cycle(c), n * len(positive_roots(cartan)))
    taken = ascent_to_w0(cartan, scan)
    if taken is None:
        raise InvariantViolation("sorting-word scan exceeded its cap")  # pragma: no cover
    return tuple(c[k % n] for k in taken)


@functools.lru_cache(maxsize=None)
def longest_element(cartan: CartanMatrix) -> Matrix:
    """The matrix of w0 on simple-root coordinates.  Column t is w0(alpha_t):
    alpha_t reflected along the sorting word of w0, rightmost letter first."""
    n = cartan.n
    word = c_sorting_word(cartan, tuple(range(1, n + 1)))
    cols = []
    for t in range(n):
        v = tuple(int(r == t) for r in range(n))
        for s in reversed(word):
            v = reflect_root(cartan, s, v)
        cols.append(v)
    return tuple(zip(*cols))


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
