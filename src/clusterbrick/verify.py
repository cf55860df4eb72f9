"""Cross-checks that run the facet model and the mutation model in lockstep.

`build_correspondence` consumes the one breadth-first flip walk,
`subword.walk_flips`, which supplies each facet's root table, and follows
every flip it yields on the seed side.  One record, position -> cluster
variable, is the only place where cluster identity is certified: by its
d-vector when the position is first seen, by identity of interned objects
after that.  Each undirected flip edge is certified for its exchange
relation by the walk's `ExchangeMemo`, which files every certified partner
under the exchange key and its reverse.  The first sighting of an edge,
tree or not, goes through `ExchangeMemo.quotient`: a lookup, or one
product check, or an exact division; the second sighting is one lookup
of the reverse key.  So one division or product covers an exchange pair
in both directions, and the walk divides once per new cluster variable.
The checks read the resulting `Correspondence`, which also builds each
F-polynomial, Newton polytope and weight-column hull once, on first use.
Facts about adjacent facets are certified on the flip between them, as
lookups in the pooled reflection tables: `c-vectors` takes one
determinant, at the greedy facet, and `lemmas` checks weight monotonicity
in its local form.

Every check is a body of the walk, run through one frame, `_run`, that
returns a Report rather than raising: a failed mathematical statement is
data (with a counterexample payload), not a crash.  Structural problems
that would make the comparison itself meaningless still raise
InvariantViolation.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from types import MappingProxyType

from .cluster import (ExchangeMemo, MPoly, Seed, d_vector, f_polynomial,
                      g_vector, initial_seed, mutate)
from .coxeter import Word, det_int
from .errors import InexactDivision, InvariantViolation, NotInRootLattice
from .polytope import LatticePolytope, equal_up_to_translation, minkowski_sum
from .roots import (CartanMatrix, Vec, bourbaki_family, cartan_of_type,
                    coroot_of_root, root_to_weight_coords, w_catalan,
                    weight_diff_to_root_coords)
from .subword import (ClusterComplex, Facet, RootTable, antigreedy_facet,
                      brick_vector, build_complex, greedy_facet, walk_flips)
from .typea import f_poly_via_prefixes, f_poly_via_tpaths, triangulation_of_coxeter


def type_label(cartan: CartanMatrix) -> str:
    """Family-plus-rank label such as "B3", or "custom3" when unrecognized."""
    return f"{bourbaki_family(cartan) or 'custom'}{cartan.n}"


@dataclass(frozen=True)
class Report:
    """Outcome of one check: deterministic except for the wall-clock field."""

    name: str
    label: str
    coxeter: Word
    passed: bool
    counterexample: dict | None
    elapsed: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class Node:
    """One vertex of the lockstep walk: a facet with its table, the matching
    seed, and two tuples aligned with the facet.  `slots` holds the seed
    slot of each position, and `partners` the position that flipping it
    brings in, as the walk found it: the flip of position facet[k] goes to
    the facet with facet[k] replaced by partners[k]."""

    facet: Facet
    table: RootTable
    seed: Seed
    slots: tuple[int, ...]
    partners: tuple[int, ...]

    def slot_of(self, i: int) -> int:
        """The seed slot of position i of the facet."""
        return self.slots[self.facet.index(i)]

    def flipped(self, k: int) -> Facet:
        """The facet that flipping the position facet[k] goes to."""
        facet = self.facet
        return tuple(sorted(facet[:k] + facet[k + 1:] + (self.partners[k],)))


@dataclass(frozen=True)
class Correspondence:
    """One lockstep walk: the complex, its nodes in sorted facet order, and
    `variables`, positive root -> cluster variable, read from the walk's
    position record.  The F-polynomials, their Newton polytopes and the
    weight-column hulls, keyed by positive root too, are computed once, on
    first use.  Every check of a word shares the walk, so all five maps
    are read-only."""

    complex_: ClusterComplex
    nodes: Mapping
    variables: Mapping

    @cached_property
    def f_polynomials(self) -> Mapping:
        n = self.complex_.n
        return MappingProxyType({beta: f_polynomial(v, n)
                                 for beta, v in self.variables.items()})

    @cached_property
    def newton_polytopes(self) -> Mapping:
        return MappingProxyType({beta: LatticePolytope(F.support())
                                 for beta, F in self.f_polynomials.items()})

    @cached_property
    def column_hulls(self) -> Mapping:
        """Hull of the weights at each position beyond the first n, minus
        the antigreedy one, in root coordinates, keyed by the position's
        root; each distinct weight is converted once."""
        complex_ = self.complex_
        ag = self.nodes[antigreedy_facet(complex_)].table.weights
        out = {}
        for k in range(complex_.n + 1, complex_.m + 1):
            weights = sorted({node.table.weights[k - 1] for node in self.nodes.values()})
            out[complex_.pos_root[k - 1]] = LatticePolytope(
                [weight_diff_to_root_coords(complex_.cartan, w, ag[k - 1])
                 for w in weights])
        return MappingProxyType(out)


def _assert_position_map(complex_: ClusterComplex, facet: Facet, seed: Seed,
                         slots: tuple, by_pos: dict) -> None:
    """Check every position of a new facet, its variable at the slot that
    `slots` gives, against the walk's record.

    A position seen before must hold the identical variable recorded there
    (variables are interned, so identity is equality).  On a first sighting
    the variable must have d-vector `pos_root[i]`, and is recorded.  In
    finite type the d-vector determines the cluster variable, so the record
    holds the one variable of each position, and each variable is
    certified once per walk.
    """
    for i, s in zip(facet, slots):
        var = seed.variables[s - 1]
        recorded = by_pos.get(i)
        if recorded is None:
            dv = d_vector(var, complex_.n)
            if dv != complex_.pos_root[i - 1]:
                raise InvariantViolation(
                    f"facet {facet}: variable at position {i} has "
                    f"d-vector {dv}, expected {complex_.pos_root[i - 1]}")
            by_pos[i] = var
        elif recorded is not var:
            raise InvariantViolation(
                f"facet {facet}: variable at position {i} is not the "
                "one recorded for that position")


def _last_walk_only(build):
    """Cache `build` for the last (Cartan matrix, word) only, the word
    normalised to a tuple first, so a list and a tuple share the entry.

    Every check of one word shares that walk, and a sweep moves on to the
    next word: a miss frees the previous walk before the new one is
    built, so two walks are never held at once.  The miss clears through
    the cache's own `cache_clear`, which stays bound here when the module
    name is rebound to a wrapper."""
    @lru_cache(maxsize=1)
    def cached(cartan: CartanMatrix, c: Word) -> Correspondence:
        cached.cache_clear()
        return build(cartan, c)

    @wraps(build)
    def walk(cartan: CartanMatrix, c) -> Correspondence:
        return cached(cartan, tuple(c))
    walk.cache_clear, walk.cache_info = cached.cache_clear, cached.cache_info
    return walk


@_last_walk_only
def build_correspondence(cartan: CartanMatrix, c: Word) -> Correspondence:
    """Seeds mutated in lockstep with the facet flips of `walk_flips`.

    Flipping position i of a facet corresponds to mutating the seed at the
    slot holding the variable of position i; the slots of the positions are
    carried along, and every new facet is checked against the position
    record by `_assert_position_map`.  The walk raises if a position is
    never reached.  The record at the positions beyond the first n, whose
    almost positive roots are the positive roots, is `variables`.  Each
    node keeps the partner positions of its flips as the walk yields them.

    Each undirected flip edge is certified for its exchange relation, so
    the result does not depend on the path.  The first sighting of every
    edge goes through `ExchangeMemo.quotient`, which divides exactly once
    per new cluster variable and certifies every other exchange pair it
    meets by one product check: a flip into a new facet mutates, and a
    flip into a facet found earlier must give that facet's variable.  The
    second sighting of any edge, which in breadth-first order is a flip
    into a facet already walked (its partner list is not empty), is
    `ExchangeMemo.is_partner`, one lookup of the reverse key that the
    first sighting filed.

    No clusters are compared: the record gives position i one variable, of
    d-vector pos_root[i], and `build_complex` asserts that `pos_root` is
    injective, so the cluster determines the facet.  The walk's
    `ExchangeMemo`, with its pooled variables and matrix rows, is dropped
    with it: the returned seeds carry no memo.  Only the last walk is
    cached (`_last_walk_only`).
    """
    complex_ = build_complex(cartan, c)
    n, m = complex_.n, complex_.m
    memo = ExchangeMemo()
    # facet -> [table, seed, slots, partners found so far], in discovery order
    walk: dict[Facet, list] = {}
    by_pos: dict[int, MPoly] = {}
    for facet, i, new_facet, j, new_table in walk_flips(complex_):
        if facet is None:
            new_seed, new_slots = memo.attach(initial_seed(cartan, c)), tuple(c)
        else:
            _, seed, slots, partners = walk[facet]
            partners.append(j)
            at = facet.index(i)
            slot = slots[at]
            if new_table is None:
                _, known, known_slots, walked = walk[new_facet]
                v = known.variables[known_slots[new_facet.index(j)] - 1]
                if walked:
                    if not memo.is_partner(seed, slot, v):
                        raise InvariantViolation(
                            f"walk desynchronized at facet {new_facet}: the flip "
                            f"back from {facet} is not the inverse mutation")
                    continue
                try:
                    if memo.quotient(seed, slot) is v:
                        continue
                    cause = None
                except InexactDivision as err:
                    cause = err
                raise InvariantViolation(
                    f"walk desynchronized at facet {new_facet}: two paths "
                    "give different clusters") from cause
            rest = slots[:at] + slots[at + 1:]
            at = new_facet.index(j)
            new_seed, new_slots = mutate(seed, slot), rest[:at] + (slot,) + rest[at:]
        _assert_position_map(complex_, new_facet, new_seed, new_slots, by_pos)
        walk[new_facet] = [new_table, new_seed, new_slots, []]
    if (family := bourbaki_family(cartan)) and len(walk) != w_catalan(family, n):
        raise InvariantViolation(
            f"{len(walk)} facets, expected {w_catalan(family, n)}")
    if len(by_pos) != m:
        raise InvariantViolation(f"{len(by_pos)} positions reached, expected {m}")
    nodes = {}
    for facet in sorted(walk):     # each entry freed as its node is built
        table, seed, slots, partners = walk.pop(facet)
        nodes[facet] = Node(facet, table, Seed(seed.matrix, seed.variables),
                            slots, tuple(partners))
    variables = {complex_.pos_root[i - 1]: by_pos[i] for i in range(n + 1, m + 1)}
    return Correspondence(complex_, MappingProxyType(nodes),
                          MappingProxyType(variables))


def variables_by_root(cartan: CartanMatrix, c: Word) -> Mapping:
    """Read-only map from each positive root to its cluster variable: the
    `variables` of the walk's position record, so every facet agrees by
    construction."""
    return build_correspondence(cartan, c).variables


_BODIES: dict[str, Callable] = {}   # check name -> body, in check_names order


def _run(name: str, cartan: CartanMatrix, c: Word) -> Report:
    """Run a check's body on the walk, looked up through the module global
    `build_correspondence`, and report, timed with the lookup included."""
    started = time.monotonic()
    word = tuple(c)
    counterexample = _BODIES[name](build_correspondence(cartan, word))
    return Report(name, type_label(cartan), word, counterexample is None,
                  counterexample, time.monotonic() - started)


def _check(name: str):
    """Register the decorated body, which returns a counterexample payload
    or None, as the check `name`; return its check of (cartan, c), named
    and documented as the body but with no `__wrapped__` for `inspect`."""
    def register(body):
        _BODIES[name] = body

        def check(cartan: CartanMatrix, c: Word) -> Report:
            return _run(name, cartan, c)
        check.__name__, check.__qualname__, check.__doc__ = (
            body.__name__, body.__qualname__, body.__doc__)
        return check
    return register


@_check("c-vectors")
def check_c_vectors(corr: Correspondence) -> dict | None:
    """c-vectors equal the root configuration; they are sign-coherent and
    form a lattice basis (determinant of absolute value one) at every facet:
    by one determinant at the greedy facet, carried to every other facet
    along one flip by `_determinant_carries`."""
    n = corr.complex_.n
    greedy = greedy_facet(corr.complex_)
    for node in corr.nodes.values():
        rows = []
        c_vectors = list(zip(*node.seed.matrix[n:]))      # by slot
        for i, s in zip(node.facet, node.slots):
            expected = node.table.roots[i - 1]
            actual = c_vectors[s - 1]
            rows.append(expected)
            if actual != expected:
                return {"facet": node.facet, "position": i,
                        "expected": expected, "actual": actual}
            if not (all(x >= 0 for x in actual) or all(x <= 0 for x in actual)):
                return {"facet": node.facet, "position": i,
                        "expected": "sign-coherent vector", "actual": actual}
        if not (abs(det_int(tuple(rows))) == 1 if node.facet == greedy
                else _determinant_carries(corr, node)):
            return {"facet": node.facet,
                    "expected": "root configuration with determinant +-1",
                    "actual": rows}
    return None


def _determinant_carries(corr: Correspondence, node: Node) -> bool:
    """True when the flip of the facet F at its first negative root beta,
    at i (only the greedy facet has none), goes down to F' = F - i + j,
    j < i, whose roots are +-beta at j and, at the other positions of F,
    the root of F or its reflection along beta.  Those are unimodular row
    operations on the configuration of F, so |det| carries from the smaller
    F' to F, and by induction from the greedy facet.  The flip is read off
    the node's `partners`; pooled roots are compared by identity; any miss
    is False."""
    roots, tables = node.table.roots, corr.complex_.tables
    at = next((at for at, i in enumerate(node.facet) if min(roots[i - 1]) < 0), None)
    if at is None:
        return False
    i, j = node.facet[at], node.partners[at]
    beta = roots[i - 1]
    other = corr.nodes.get(node.flipped(at))
    if beta not in tables.negative or other is None or j > i:
        return False
    new, images = other.table.roots, tables.reflect[beta]
    return ((new[j - 1] is beta or new[j - 1] is tables.negative[beta])
            and all(new[k - 1] is roots[k - 1] or new[k - 1] is images.get(roots[k - 1])
                    for k in node.facet if k != i))


@_check("g-vectors")
def check_g_vectors(corr: Correspondence) -> dict | None:
    """g-vectors equal the weight configuration, and the weight and coroot
    configurations pair to the identity matrix (the transpose-inverse
    relation between the g- and c-matrices)."""
    n = corr.complex_.n
    coroot = coroot_of_root(corr.complex_.cartan)
    g_of: dict[int, Vec] = {}       # id of an interned variable -> g-vector
    # id of a weight -> id of a root -> <weight, root_co>; the walk's weights
    # and roots are pooled, and all of them stay alive during the check
    dots: dict[int, dict[int, int]] = {}
    for node in corr.nodes.values():
        weights, roots = node.table.weights, node.table.roots
        for i, s in zip(node.facet, node.slots):
            var = node.seed.variables[s - 1]
            actual = g_of.get(id(var)) or g_of.setdefault(id(var), g_vector(var, n))
            if actual != weights[i - 1]:
                return {"facet": node.facet, "position": i,
                        "expected": weights[i - 1], "actual": actual}
        for i in node.facet:
            w = weights[i - 1]
            pairings = dots.get(id(w))
            if pairings is None:
                pairings = dots[id(w)] = {}
            for j in node.facet:
                root = roots[j - 1]
                dot = pairings.get(id(root))
                if dot is None:
                    dot = pairings[id(root)] = sum(x * y for x, y in zip(w, coroot[root]))
                if dot != (i == j):
                    return {"facet": node.facet, "position": (i, j),
                            "expected": int(i == j), "actual": dot}
    return None


@_check("exchange")
def check_exchange_matrix(corr: Correspondence) -> dict | None:
    """The principal part of every exchange matrix is recovered from the
    root and coroot configurations: entry (i,j) is the pairing of the root
    at j against the coroot at i, negated when i < j.  The pairings are
    read from the reflection tables."""
    pairing = corr.complex_.tables.pairing
    for node in corr.nodes.values():
        matrix, roots = node.seed.matrix, node.table.roots
        for i, s in zip(node.facet, node.slots):
            against_i, row = pairing[roots[i - 1]], matrix[s - 1]
            for j, t in zip(node.facet, node.slots):
                if i == j:
                    expected = 0
                else:
                    value = against_i[roots[j - 1]]
                    expected = -value if i < j else value
                if row[t - 1] != expected:
                    return {"facet": node.facet, "position": (i, j),
                            "expected": expected, "actual": row[t - 1]}
    return None


@_check("lemmas")
def check_lemmas(corr: Correspondence) -> dict | None:
    """Weight rigidity and monotonicity along the flip graph.

    Each column takes a single value on the facets containing it (so the
    shared positions of adjacent facets carry the identical pooled weight);
    along every increasing flip, out of each position whose root beta is
    positive, every column moves down by a nonnegative multiple of beta, in
    the local form of `_first_upward`; and the greedy-minus-antigreedy
    weight difference of a column beyond the first n is exactly its
    positive root.
    """
    complex_ = corr.complex_
    cartan, n, m = complex_.cartan, complex_.n, complex_.m
    common: dict[int, Vec] = {}
    for node in corr.nodes.values():
        for i in node.facet:
            w = node.table.weights[i - 1]
            if i in common:
                if common[i] is not w:
                    return {"lemma": "column constant on facets containing it",
                            "facet": node.facet, "position": i,
                            "expected": common[i], "actual": w}
            else:
                common[i] = w
    coroots, images = coroot_of_root(cartan), complex_.tables.weight_images
    lam_negative: dict = {beta: {} for beta in coroots}
    for node in corr.nodes.values():
        old = node.table.weights
        for at, (i, j) in enumerate(zip(node.facet, node.partners)):
            beta = node.table.roots[i - 1]
            if min(beta) < 0:
                continue        # decreasing: the reverse of an increasing flip
            new = corr.nodes[node.flipped(at)].table.weights
            k = _first_upward(old, new, i, j, images[beta], coroots[beta],
                              lam_negative[beta])
            if k:
                return {"lemma": "increasing flips shift weights down",
                        "facet": node.facet, "flip": (i, j), "position": k,
                        "difference": tuple(a - b for a, b in zip(old[k - 1], new[k - 1]))}
    g_table = corr.nodes[greedy_facet(complex_)].table
    ag_table = corr.nodes[antigreedy_facet(complex_)].table
    for k in range(n + 1, m + 1):
        expected = root_to_weight_coords(cartan, complex_.pos_root[k - 1])
        actual = tuple(a - b for a, b in zip(g_table.weights[k - 1],
                                             ag_table.weights[k - 1]))
        if actual != expected:
            return {"lemma": "greedy minus antigreedy equals the column root",
                    "position": k, "expected": expected, "actual": actual}
    return None


def _first_upward(old: tuple, new: tuple, i: int, j: int, images: dict,
                  beta_co: Vec, lam_negative: dict) -> int:
    """The first position where the weight row `new` is not `old` moved
    down along the increasing flip i -> j of the positive root with coroot
    `beta_co`, or 0: outside i < k <= j the rows agree, and inside new[k]
    is the pooled s_beta(old[k]) = old[k] - lam beta, `images[old[k]]`,
    with lam = <old[k], beta^vee> >= 0.  `lam_negative` memoizes, per
    weight, whether lam < 0."""
    if j < i:
        return i
    if old[:i] != new[:i] or old[j:] != new[j:]:
        return next(k for k in range(1, len(old) + 1)
                    if not i < k <= j and old[k - 1] != new[k - 1])
    for k in range(i + 1, j + 1):
        w, moved = old[k - 1], new[k - 1]
        if moved is w:
            continue
        up = lam_negative.get(w)
        if up is None:
            up = lam_negative[w] = sum(a * b for a, b in zip(w, beta_co)) < 0
        if up or moved is not images[w]:
            return k
    return 0


@_check("newton")
def check_newton_conjecture(corr: Correspondence) -> dict | None:
    """Newton polytope of each F-polynomial equals the hull of its weight
    column shifted to start at the antigreedy facet, in root coordinates."""
    complex_ = corr.complex_
    for k in range(complex_.n + 1, complex_.m + 1):
        beta = complex_.pos_root[k - 1]
        newton = corr.newton_polytopes[beta]
        column = corr.column_hulls[beta]
        if newton != column:
            return {"root": beta, "position": k,
                    "newton_vertices": newton.vertices,
                    "column_vertices": column.vertices}
    return None


@_check("lattice")
def check_lattice_points(corr: Correspondence) -> dict | None:
    """The monomials of each F-polynomial are exactly the lattice points of
    its Newton polytope."""
    complex_ = corr.complex_
    for k in range(complex_.n + 1, complex_.m + 1):
        beta = complex_.pos_root[k - 1]
        support = set(corr.f_polynomials[beta].support())
        points = set(corr.newton_polytopes[beta].lattice_points())
        if support != points:
            return {"root": beta, "position": k,
                    "monomials_missing": sorted(points - support),
                    "monomials_extra": sorted(support - points)}
    return None


@_check("minkowski")
def check_minkowski_brick(corr: Correspondence) -> dict | None:
    """The Minkowski sum of all Newton polytopes equals the brick polytope
    translated by the negated antigreedy brick vector.

    Gated on the Newton check, since the statement presumes it: its body
    runs first on the same walk.
    """
    gate = _BODIES["newton"](corr)
    if gate is not None:
        return {"gated_on": "newton", **gate}
    complex_ = corr.complex_
    total = minkowski_sum([corr.newton_polytopes[beta]
                           for beta in sorted(corr.newton_polytopes)])
    in_weight = LatticePolytope(
        [root_to_weight_coords(complex_.cartan, v) for v in total.vertices])
    bricks = LatticePolytope([brick_vector(complex_, node.facet, node.table)
                              for node in corr.nodes.values()])
    shift = equal_up_to_translation(in_weight, bricks)
    ag = brick_vector(complex_, antigreedy_facet(complex_),
                      corr.nodes[antigreedy_facet(complex_)].table)
    if shift != ag:
        return {"expected_shift": ag, "actual_shift": shift,
                "minkowski_vertices": in_weight.vertices,
                "brick_vertices": bricks.vertices}
    return None


def _weight_orbit(n: int, q: int) -> set:
    """The Weyl group orbit of the fundamental weight omega_q in type A_n:
    the 0/1 vectors x with q ones on n + 1 coordinates, read in weight
    coordinates as x_t - x_{t+1}."""
    return {tuple(x[t] - x[t + 1] for t in range(n))
            for x in itertools.product((0, 1), repeat=n + 1) if sum(x) == q}


def _dominates(cartan: CartanMatrix, hi: Vec, lo: Vec) -> bool:
    try:
        diff = weight_diff_to_root_coords(cartan, hi, lo)
    except NotInRootLattice:
        return False
    return all(x >= 0 for x in diff)


@_check("typea")
def _check_typea(corr: Correspondence) -> dict | None:
    """All three F-polynomial models agree in type A, and every weight
    column realizes the full orbit interval between its greedy and
    antigreedy values."""
    complex_ = corr.complex_
    cartan, n, word = complex_.cartan, complex_.n, complex_.c
    tri = triangulation_of_coxeter(word)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            beta = tuple(1 if i <= t + 1 <= j else 0 for t in range(n))
            from_mutation = corr.f_polynomials[beta]
            from_tpaths = f_poly_via_tpaths(tri, i, j)
            from_prefixes = f_poly_via_prefixes(word, i, j)
            if not (from_mutation == from_tpaths == from_prefixes):
                return {"root": beta, "interval": (i, j),
                        "mutation": from_mutation.terms,
                        "tpaths": from_tpaths.terms,
                        "prefixes": from_prefixes.terms}
    g_table = corr.nodes[greedy_facet(complex_)].table
    ag_table = corr.nodes[antigreedy_facet(complex_)].table
    for k in range(1, complex_.m + 1):
        realized = {node.table.weights[k - 1] for node in corr.nodes.values()}
        expected = {w for w in _weight_orbit(n, complex_.word[k - 1])
                    if _dominates(cartan, g_table.weights[k - 1], w)
                    and _dominates(cartan, w, ag_table.weights[k - 1])}
        if realized != expected:
            return {"position": k,
                    "realized": sorted(realized),
                    "interval": sorted(expected)}
    return None


def check_typea_models(n: int, c: Word) -> Report:
    """The `typea` check on type A_n: all three F-polynomial models agree,
    and every weight column realizes the full orbit interval between its
    greedy and antigreedy values."""
    return _check_typea(cartan_of_type("A", n), c)


def check_names(cartan: CartanMatrix) -> tuple[str, ...]:
    """The checks that apply to `cartan`: all of them, typea in type A only."""
    type_a = bourbaki_family(cartan) == "A"
    return tuple(name for name in _BODIES if type_a or name != "typea")


def run_checks(cartan: CartanMatrix, c: Word, names=None, jobs: int = 1
               ) -> tuple[Report, ...]:
    """Run the named checks (all applicable ones by default) serially, in
    the order asked for, and return their reports.  An empty selection, an
    unknown name, or a `jobs` other than the int 1 raises ValueError; a
    bare str for `names` raises TypeError."""
    if isinstance(names, str):
        raise TypeError(f"names must be a collection of check names, not the str {names!r}")
    if type(jobs) is not int or jobs != 1:
        raise ValueError(f"checks run serially; jobs must be 1, got {jobs!r}")
    available = check_names(cartan)
    selected = list(names) if names is not None else list(available)
    choices = f"choose from {', '.join(available)}"
    if not selected:
        raise ValueError(f"no check selected; {choices}")
    for name in selected:
        if name not in available:
            raise ValueError(f"unknown check {name!r}; {choices}")
    return tuple(_run(name, cartan, c) for name in selected)
