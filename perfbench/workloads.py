"""Benchmark workloads: which instances run, in which order, and the
literal reference values the correctness gate compares against.

The seed picks, per type, a diagram automorphism applied letterwise to the
Coxeter words.  An automorphism relabels the whole computation without
changing its size, so every seed costs the same, and the gate maps the
outputs back through it, so every seed has the same digest.  One
automorphism serves all words of a type, so distinct words stay distinct
and no instance finds another's walk in the program's caches.  The order of
the instances is fixed: the program's caches keep every earlier instance's
walk alive, so an instance run later pays for a larger heap, and a
seed-dependent order would make seeds differ in cost.  Each workload lists
its slowest instance first, so that instance runs on a fresh heap in every
child, as in a user's single `clusterbrick verify`, and run.py can time it
again in children that run it alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

LEMMA_CHECKS = ("c-vectors", "g-vectors", "exchange", "lemmas")
WALK_CHECKS = ("c-vectors", "g-vectors", "exchange")

# W-Catalan numbers and positive-root counts, written out so the gate does
# not trust the program's own w_catalan or positive_roots.
FACETS = {"A1": 2, "A2": 5, "A3": 14, "A4": 42, "B2": 6, "B3": 20, "C3": 20,
          "G2": 8, "D4": 50, "F4": 105, "D5": 182, "B5": 252, "E6": 833}
POSITIVE_ROOTS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9,
                  "C3": 9, "G2": 6, "D4": 12, "F4": 24, "D5": 20, "B5": 25,
                  "E6": 36}


@dataclass(frozen=True)
class Instance:
    """One (type, Coxeter word) to certify.

    `word` is the default word; `sigma[s - 1]` is the image of letter s
    under the automorphism the seed picked for the type, and the program is
    given the relabeled word.  `via_cli` sends the instance through `cli.main`.
    """

    family: str
    rank: int
    word: tuple[int, ...]
    checks: tuple[str, ...]
    sigma: tuple[int, ...]
    via_cli: bool

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def relabeled(self) -> tuple[int, ...]:
        return tuple(self.sigma[s - 1] for s in self.word)


def automorphisms(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Diagram automorphisms of the Bourbaki-numbered Dynkin diagram that
    preserve the Cartan matrix, as letter images."""
    ident = tuple(range(1, rank + 1))
    if family == "A" and rank > 1:
        return ident, tuple(range(rank, 0, -1))
    if family == "D" and rank == 4:
        out = []
        for a, b, c in permutations((1, 3, 4)):
            image = {1: a, 2: 2, 3: b, 4: c}
            out.append(tuple(image[s] for s in ident))
        return tuple(out)
    if family == "D":
        return ident, ident[:-2] + (rank, rank - 1)
    if family == "E" and rank == 6:
        return ident, (6, 2, 5, 4, 3, 1)
    return (ident,)


def _lemma_types():
    return ([("A", r) for r in (1, 2, 3, 4)]
            + [("B", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])


def coxeter_words(rows) -> list[tuple[int, ...]]:
    """One word per Coxeter element, i.e. per acyclic orientation of the
    diagram of the Cartan matrix `rows`: the first permutation in lex order
    that induces it.

    A frozen copy of the program's `coxeter_words`, so that a change to the
    program's enumeration cannot change the workload's inputs or digest."""
    n = len(rows)
    edges = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)
             if rows[s - 1][t - 1] != 0]
    seen = set()
    out = []
    for perm in permutations(range(1, n + 1)):
        pos = {s: k for k, s in enumerate(perm)}
        key = frozenset((s, t) if pos[s] < pos[t] else (t, s) for s, t in edges)
        if key not in seen:
            seen.add(key)
            out.append(perm)
    return out


def _plan(workload: str, cartan_of_type):
    """(family, rank, word, checks, via_cli) in default order, the slowest
    instance first."""
    if workload == "sweep-rank4":
        out = [("F", 4, (1, 2, 3, 4), LEMMA_CHECKS, False)]
        for family, rank in _lemma_types():
            checks = LEMMA_CHECKS + (("typea",) if family == "A" else ())
            for word in coxeter_words(cartan_of_type(family, rank).rows):
                out.append((family, rank, word, checks, False))
        return out
    if workload == "polytope-rank5":
        return [("B", 5, (1, 2, 3, 4, 5), ("newton", "lattice"), False),
                ("D", 5, (1, 2, 3, 4, 5), ("newton", "lattice"), False),
                ("A", 3, (1, 2, 3), ("minkowski",), False),
                ("B", 3, (1, 2, 3), ("minkowski",), False)]
    if workload == "walk-e6":
        return [("E", 6, (1, 4, 6, 2, 3, 5), WALK_CHECKS, True),
                ("E", 6, (1, 2, 3, 4, 5, 6), WALK_CHECKS, True)]
    if workload == "toy":
        return [("A", 2, (1, 2), WALK_CHECKS + ("typea",), True),
                ("A", 2, (2, 1), LEMMA_CHECKS + ("typea",), False),
                ("B", 2, (1, 2), ("lattice", "minkowski"), False)]
    raise KeyError(workload)


WORKLOADS = ("sweep-rank4", "polytope-rank5", "walk-e6", "toy")


def instances(workload: str, seed: int, cartan_of_type) -> list[Instance]:
    """The workload's instances for this seed.  The program's own
    `cartan_of_type` is passed in: building the matrices is part of set-up."""
    rng = random.Random(f"{workload}/{seed}")
    sigma = {}
    out = []
    for f, r, w, checks, cli in _plan(workload, cartan_of_type):
        if (f, r) not in sigma:
            sigma[f, r] = rng.choice(automorphisms(f, r))
        out.append(Instance(f, r, w, checks, sigma[f, r], cli))
    return out


def canonical(inst: Instance, fpolys, bricks) -> list:
    """Outputs of a relabeled instance mapped back to the default labels:
    F-polynomial exponents and brick vectors (weight coordinates) are read
    through the automorphism, then sorted."""
    sigma = inst.sigma

    def back(v):
        return [v[sigma[s] - 1] for s in range(len(v))]

    polys = sorted(sorted([back(e), c] for e, c in F.terms.items())
                   for F in fpolys)
    return [inst.label, list(inst.word), polys, sorted(back(b) for b in bricks)]
