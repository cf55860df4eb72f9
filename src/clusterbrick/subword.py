"""Facets, flips, and root/weight tables of the cluster subword complex.

For a Coxeter word c the ambient word is c followed by the sorting word of
the longest element relative to c.  Facets are the size-n position sets
whose complement spells a reduced word for the longest element; positions
are 1-based.  Each position carries an almost positive root, the first n
the negated simple roots of the letters of c, the rest the positive roots
in the order the sorting word sweeps them.  A facet's root table holds its
root and weight configurations; coroots are read off the roots.

`walk_flips` is the one breadth-first walk of the flip graph.  It carries
the root tables along the flips and spot-checks them against tables built
from scratch; facet enumeration here and the lockstep correspondence in
`verify` both consume it.  Along a flip every moved entry is a lookup in
`roots.reflection_tables`, and every table entry is the canonical tuple of
its value, so equal vectors across a walk's tables are one object.
"""

from __future__ import annotations

import functools
from collections import deque
from contextlib import suppress
from collections.abc import Iterator
from dataclasses import dataclass

from .coxeter import (
    Matrix,
    Word,
    apply_matrix,
    identity_matrix,
    longest_element,
    mat_mul,
    c_sorting_word,
    reflection_matrices,
    weight_reflection_matrices,
)
from .errors import InvariantViolation
from .roots import CartanMatrix, Vec, positive_roots, reflection_tables

Facet = tuple[int, ...]


@dataclass(frozen=True)
class ClusterComplex:
    """The ambient word together with its position-to-root dictionary."""

    cartan: CartanMatrix
    c: Word
    word: Word                      # c followed by the sorting word of the longest element
    pos_root: tuple[Vec, ...]       # almost positive root at each position, simple-root coords
    longest: Matrix

    @property
    def n(self) -> int:
        return self.cartan.n

    @property
    def m(self) -> int:
        return len(self.word)

    @property
    def positive_count(self) -> int:
        return self.m - self.n


@dataclass(frozen=True)
class RootTable:
    """Root (simple-root coordinates) and weight (fundamental-weight
    coordinates) of one facet at each position.

    The coroot at a position is `coroot_of_root(cartan)[root]`, as
    (w alpha)^dual = w(alpha^dual), and the facet is the key a table is
    kept under; neither is stored.
    """

    roots: tuple[Vec, ...]
    weights: tuple[Vec, ...]


def build_complex(cartan: CartanMatrix, c: Word) -> ClusterComplex:
    n = cartan.n
    if sorted(c) != list(range(1, n + 1)):
        raise ValueError(f"Coxeter word {c} is not a permutation of 1..{n}")
    w0 = longest_element(cartan)
    sorting = c_sorting_word(cartan, c, w0)
    word = tuple(c) + sorting
    mats = reflection_matrices(cartan)
    pos_root = [tuple(-1 if t == q - 1 else 0 for t in range(n)) for q in c]
    prefix = identity_matrix(n)
    for q in sorting:
        unit = tuple(1 if t == q - 1 else 0 for t in range(n))
        pos_root.append(apply_matrix(prefix, unit))
        prefix = mat_mul(prefix, mats[q - 1])
    complex_ = ClusterComplex(cartan, tuple(c), word, tuple(pos_root), w0)
    positives = pos_root[n:]
    if sorted(positives) != sorted(positive_roots(cartan)) or len(set(positives)) != len(positives):
        raise InvariantViolation("positions do not sweep the positive roots bijectively")
    for facet, increasing in ((greedy_facet(complex_), True),
                              (antigreedy_facet(complex_), False)):
        if not is_facet(complex_, facet):
            raise InvariantViolation(f"{facet} is not a facet")
        table = root_table(complex_, facet)
        for i in facet:
            _, j = flip(complex_, facet, i, table)
            if (j > i) != increasing:
                raise InvariantViolation(
                    f"flip at {i} of {facet} goes the wrong way")
    return complex_


def greedy_facet(complex_: ClusterComplex) -> Facet:
    """Lexicographically first facet: always the first n positions."""
    return tuple(range(1, complex_.n + 1))


def antigreedy_facet(complex_: ClusterComplex) -> Facet:
    """Lexicographically last facet.

    Sweeping the word left to right and absorbing every letter that
    increases the length builds a reduced word for the longest element out
    of the earliest possible positions; the skipped positions therefore
    form the latest possible complement, which is the last facet.
    """
    n = complex_.n
    mats = reflection_matrices(complex_.cartan)
    u = identity_matrix(n)
    skipped = []
    for k, q in enumerate(complex_.word, start=1):
        unit = tuple(1 if t == q - 1 else 0 for t in range(n))
        if all(x >= 0 for x in apply_matrix(u, unit)):
            u = mat_mul(u, mats[q - 1])
        else:
            skipped.append(k)
    if u != complex_.longest or len(skipped) != n:
        raise InvariantViolation("length sweep did not absorb a longest word")
    return tuple(skipped)


def is_facet(complex_: ClusterComplex, positions: Facet) -> bool:
    """True when the complement of `positions` spells the longest element."""
    if len(positions) != complex_.n or len(set(positions)) != len(positions):
        return False
    if any(not 1 <= k <= complex_.m for k in positions):
        return False
    chosen = set(positions)
    mats = reflection_matrices(complex_.cartan)
    acc = identity_matrix(complex_.n)
    for k, q in enumerate(complex_.word, start=1):
        if k not in chosen:
            acc = mat_mul(acc, mats[q - 1])
    return acc == complex_.longest


def root_table(complex_: ClusterComplex, facet: Facet) -> RootTable:
    """Direct construction of both rows in one left-to-right sweep.

    Each prefix product is carried as its list of columns: the entry at
    position k is column q of the prefix before k, where q is the letter at
    k, and a complement letter rewrites only the columns its reflection
    moves.
    """
    n = complex_.n
    chosen = set(facet)
    updates = _column_updates(complex_.cartan)
    unit_cols = [tuple(1 if t == c else 0 for t in range(n)) for c in range(n)]
    prefixes = (list(unit_cols), list(unit_cols))
    rows = ([], [])
    for k, q in enumerate(complex_.word, start=1):
        for cols, row in zip(prefixes, rows):
            row.append(cols[q - 1])
        if k not in chosen:
            for cols, per_letter in zip(prefixes, updates):
                # every moved column is read from the old columns
                moved = [(c, _combine(cols, terms)) for c, terms in per_letter[q - 1]]
                for c, col in moved:
                    cols[c] = col
    pool = reflection_tables(complex_.cartan).pool
    return RootTable(*(tuple([pool.setdefault(v, v) for v in row]) for row in rows))


def _combine(cols: list, terms) -> Vec:
    """The sum of coef * cols[t] over the (t, coef) of `terms`."""
    (t, coef), *rest = terms
    acc = [coef * x for x in cols[t]]
    for t, coef in rest:
        acc = [a + coef * x for a, x in zip(acc, cols[t])]
    return tuple(acc)


@functools.lru_cache(maxsize=None)
def _column_updates(cartan: CartanMatrix) -> tuple:
    """How right multiplication by each simple reflection rewrites the
    columns of a matrix, for the root and weight representations.

    Entry [rep][s - 1] lists (c, ((t, coef), ...)): new column c is the sum
    of coef times old column t.  A reflection differs from the identity by
    a rank-one matrix, so only a few columns are listed.
    """
    out = []
    for mats in (reflection_matrices(cartan), weight_reflection_matrices(cartan)):
        n = len(mats[0])
        out.append(tuple(
            tuple((c, tuple((t, m[t][c]) for t in range(n) if m[t][c]))
                  for c in range(n)
                  if any(m[t][c] != (t == c) for t in range(n)))
            for m in mats))
    return tuple(out)


def flip(complex_: ClusterComplex, facet: Facet, i: int,
         table: RootTable | None = None) -> tuple[Facet, int]:
    """Exchange position i of `facet` for the unique partner position j.

    j is the complement position whose root is plus or minus the root at i.
    The flip is increasing exactly when i < j, which happens exactly when
    the two roots agree and are positive.
    """
    if i not in facet:
        raise ValueError(f"position {i} is not in facet {facet}")
    if table is None:
        table = root_table(complex_, facet)
    roots = table.roots
    beta = roots[i - 1]
    chosen = set(facet)
    for x in (beta, reflection_tables(complex_.cartan).negative[beta]):
        j = 0
        with suppress(ValueError):      # x is at no further position
            while (j := roots.index(x, j) + 1) in chosen:
                pass
            return tuple(sorted(chosen - {i} | {j})), j
    raise InvariantViolation(f"no flip partner for position {i} in {facet}")


def update_after_flip(complex_: ClusterComplex, i: int, j: int,
                      table: RootTable) -> RootTable:
    """Table of the facet that flipping position i for j yields: entries
    strictly between the exchanged positions (inclusive on the far side)
    are reflected along the root at i, all other entries are copied.  The
    reflections are lookups in `reflection_tables`."""
    tables = reflection_tables(complex_.cartan)
    beta = table.roots[i - 1]
    lo, hi = min(i, j), max(i, j)
    rows = []
    for row, images in ((table.roots, tables.reflect[beta]),
                        (table.weights, tables.weight_images[beta])):
        rows.append(row[:lo] + tuple(map(images.__getitem__, row[lo:hi])) + row[hi:])
    return RootTable(*rows)


def brick_vector(complex_: ClusterComplex, facet: Facet,
                 table: RootTable | None = None) -> Vec:
    """Sum of the weight row over all positions, fundamental-weight coords."""
    if table is None:
        table = root_table(complex_, facet)
    n = complex_.n
    return tuple(sum(w[t] for w in table.weights) for t in range(n))


_SPOT_CHECK_EVERY = 20


def walk_flips(complex_: ClusterComplex) -> Iterator[tuple]:
    """Every flip of the flip graph, breadth first from the greedy facet.

    Yields (facet, i, new_facet, j, new_table) for each position i of each
    facet in discovery order, where flipping i out of `facet` brings j into
    `new_facet`.  `new_table` is the root table of `new_facet` the first
    time the walk reaches it and None on every later edge into it.  The
    first item, (None, 0, greedy, 0, table), introduces the greedy facet.

    Tables are carried along the flips by `update_after_flip`; every 20th
    discovery after the greedy facet, and the antigreedy facet, are rebuilt
    from scratch and compared, raising InvariantViolation on a difference.
    """
    greedy = greedy_facet(complex_)
    anti = antigreedy_facet(complex_)
    tables = {greedy: root_table(complex_, greedy)}
    yield None, 0, greedy, 0, tables[greedy]
    queue = deque([greedy])
    while queue:
        facet = queue.popleft()
        table = tables[facet]
        for i in facet:
            new_facet, j = flip(complex_, facet, i, table)
            if new_facet in tables:
                yield facet, i, new_facet, j, None
                continue
            new_table = update_after_flip(complex_, i, j, table)
            # before the k-th discovery after the greedy facet, k facets are known
            if len(tables) % _SPOT_CHECK_EVERY == 0 or new_facet == anti:
                if new_table != root_table(complex_, new_facet):
                    raise InvariantViolation(f"incremental table drifted at {new_facet}")
            tables[new_facet] = new_table
            queue.append(new_facet)
            yield facet, i, new_facet, j, new_table


def enumerate_facets_with_tables(complex_: ClusterComplex) -> dict[Facet, RootTable]:
    """All facets with their root tables, in breadth-first discovery order."""
    return {f: table for _, _, f, _, table in walk_flips(complex_) if table is not None}


def enumerate_facets(complex_: ClusterComplex) -> tuple[Facet, ...]:
    """All facets in sorted order."""
    return tuple(sorted(enumerate_facets_with_tables(complex_)))
