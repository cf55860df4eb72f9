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
from bisect import insort
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .coxeter import Word, ascent_to_w0, c_sorting_word
from .errors import InvariantViolation
from .roots import CartanMatrix, ReflectionTables, Vec, positive_roots, reflection_tables

Facet = tuple[int, ...]


@dataclass(frozen=True)
class ClusterComplex:
    """The ambient word together with its position-to-root dictionary."""

    cartan: CartanMatrix
    c: Word
    word: Word                      # c followed by the sorting word of the longest element
    pos_root: tuple[Vec, ...]       # almost positive root at each position, simple-root coords

    @functools.cached_property
    def tables(self) -> ReflectionTables:
        """The reflection tables of the Cartan matrix, looked up once."""
        return reflection_tables(self.cartan)

    @functools.cached_property
    def antigreedy(self) -> Facet:
        """Lexicographically last facet, found once: the positions that the
        ascent to the longest element skips along the word, which spells
        it from the earliest positions."""
        taken = ascent_to_w0(self.cartan, self.word)
        if taken is None or self.m - len(taken) != self.n:
            raise InvariantViolation("the ascent did not absorb a longest word")
        taken = set(taken)
        return tuple(k for k in range(1, self.m + 1) if k - 1 not in taken)

    @property
    def n(self) -> int:
        return self.cartan.n

    @property
    def m(self) -> int:
        return len(self.word)


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
    word = tuple(c) + c_sorting_word(cartan, c)     # ValueError on a malformed c
    tables = reflection_tables(cartan)
    # The greedy facet's roots: the simple roots of c, then the positive
    # roots in the order the sorting word sweeps them.
    greedy = _table(cartan, word, range(1, n + 1), tables.pool)
    pos_root = tuple(tables.negative[r] for r in greedy.roots[:n]) + greedy.roots[n:]
    complex_ = ClusterComplex(cartan, tuple(c), word, pos_root)
    positives = pos_root[n:]
    if sorted(positives) != sorted(positive_roots(cartan)) or len(set(positives)) != len(positives):
        raise InvariantViolation("positions do not sweep the positive roots bijectively")
    anti = antigreedy_facet(complex_)
    for facet, table, increasing in ((greedy_facet(complex_), greedy, True),
                                     (anti, root_table(complex_, anti), False)):
        if not is_facet(complex_, facet):
            raise InvariantViolation(f"{facet} is not a facet")
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
    """Lexicographically last facet, kept on the complex."""
    return complex_.antigreedy


def _positions(positions) -> set[int]:
    """The set of `positions`; TypeError at one that is not an int."""
    for k in positions:
        if type(k) is not int:
            raise TypeError(f"position {k!r} of {positions!r} is not an int")
    return set(positions)


def is_facet(complex_: ClusterComplex, positions: Facet) -> bool:
    """True when `positions` are n distinct positions whose complement
    spells the longest element w0: the ascent to w0 takes every letter of
    the complement, so it is a reduced word for w0, one letter per positive
    root.  A position that is not an int raises TypeError."""
    chosen = _positions(positions)
    if not len(chosen) == len(positions) == complex_.n:
        return False
    rest = [q for k, q in enumerate(complex_.word, start=1) if k not in chosen]
    taken = ascent_to_w0(complex_.cartan, rest)
    return taken is not None and len(taken) == len(rest)


def root_table(complex_: ClusterComplex, facet: Facet) -> RootTable:
    """Direct construction of both rows in one left-to-right sweep.

    Raises ValueError unless `facet` is a facet: n distinct positions in
    1..m whose complement roots in the sweep are all positive, so that the
    complement is a reduced word of length N and spells w0.  A position
    that is not an int raises TypeError.
    """
    chosen = _positions(facet)
    if len(chosen) == len(facet) == complex_.n and 1 <= min(chosen) <= max(chosen) <= complex_.m:
        table = _table(complex_.cartan, complex_.word, chosen, complex_.tables.pool)
        zero = (0,) * complex_.n      # a root is positive iff it sorts after zero
        if all(r > zero for k, r in enumerate(table.roots, 1) if k not in chosen):
            return table
    raise ValueError(f"{facet} is not a facet")


def _table(cartan: CartanMatrix, word: Word, chosen, pool: dict) -> RootTable:
    """The root table of the facet `chosen` of `word`, its entries pooled.

    The prefix product u of the complement letters before position k is
    carried as its columns u(alpha_t) and u(omega_t); the entries at k are
    the columns of the letter q at k.  A complement letter q multiplies u by
    s_q on the right, which takes a_qt u(alpha_q) off each u(alpha_t) and
    u(alpha_q) = sum_t a_tq u(omega_t) off u(omega_q).
    """
    n, a = cartan.n, cartan.rows
    alphas = [tuple(1 if t == c else 0 for t in range(n)) for c in range(n)]
    omegas = list(alphas)
    rows = ([], [])
    for k, q in enumerate(word, start=1):
        top = alphas[q - 1]
        rows[0].append(top)
        rows[1].append(omegas[q - 1])
        if k not in chosen:
            alphas = [tuple([x - f * y for x, y in zip(col, top)]) if (f := a[q - 1][t])
                      else col for t, col in enumerate(alphas)]
            acc = omegas[q - 1]
            for t, col in enumerate(omegas):
                if f := a[t][q - 1]:
                    acc = tuple([x - f * y for x, y in zip(acc, col)])
            omegas[q - 1] = acc
    return RootTable(*(tuple([pool.setdefault(v, v) for v in row]) for row in rows))


def flip(complex_: ClusterComplex, facet: Facet, i: int,
         table: RootTable | None = None) -> tuple[Facet, int]:
    """Exchange position i of `facet` for the unique partner position j.

    The complement positions carry the positive roots, each once, and j is
    the one whose root is plus or minus the root at i.  The flip is
    increasing exactly when i < j, which happens exactly when the root at
    i is positive.  A position i that is not an int raises TypeError.
    """
    if type(i) is not int:
        raise TypeError(f"position {i!r} is not an int")
    if i not in facet:
        raise ValueError(f"position {i} is not in facet {facet}")
    if table is None:
        table = root_table(complex_, facet)
    return _partner(complex_, facet, i, table.roots)


def _partner(complex_: ClusterComplex, facet: Facet, i: int,
             roots: tuple[Vec, ...]) -> tuple[Facet, int]:
    """`flip` of the position i of `facet`, whose root row is `roots`."""
    beta = roots[i - 1]
    x = beta if min(beta) >= 0 else complex_.tables.negative[beta]
    j = 0
    try:
        while (j := roots.index(x, j) + 1) in facet:
            pass
    except ValueError:      # x is at no complement position
        raise InvariantViolation(f"no flip partner for position {i} in {facet}") from None
    new_facet = [k for k in facet if k != i]
    insort(new_facet, j)
    return tuple(new_facet), j


def update_after_flip(complex_: ClusterComplex, i: int, j: int,
                      table: RootTable) -> RootTable:
    """Table of the facet that flipping position i for j yields: entries
    strictly between the exchanged positions (inclusive on the far side)
    are reflected along the root at i, all other entries are copied.  The
    reflections are lookups in `reflection_tables`."""
    tables = complex_.tables
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
            new_facet, j = _partner(complex_, facet, i, table.roots)
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
