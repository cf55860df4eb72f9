"""Cross-checks that run the facet model and the mutation model in lockstep.

`build_correspondence` consumes the one breadth-first flip walk,
`subword.walk_flips`, which supplies each facet's root table, and follows
every flip it yields on the seed side.  One record, position -> cluster
variable, is the only place where cluster identity is certified: by its
d-vector when the position is first seen, by identity of interned objects
after that.  Each undirected flip edge is certified once for its exchange
relation: a tree edge by its mutation, a non-tree edge by one product
check, and the second sighting of either in integers.  An `ExchangeMemo`
for the walk keeps one certified partner per exchange key and its reverse,
so one division or product covers an exchange pair in both directions.
The checks read the resulting `Correspondence`, which
also builds each F-polynomial, Newton polytope and weight-column hull once,
on first use.  Facts about adjacent facets are certified on the flip
between them, as lookups in the pooled reflection tables: `c-vectors`
takes one determinant, at the greedy facet, and `lemmas` checks weight
monotonicity in its local form.

Every check returns a Report rather than raising: a failed mathematical
statement is data (with a counterexample payload), not a crash.  Structural
problems that would make the comparison itself meaningless still raise
InvariantViolation.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

from .cluster import (ExchangeMemo, MPoly, Seed, c_vector, d_vector,
                      exchange_binomial, f_polynomial, g_vector, initial_seed,
                      mutate, principal_part)
from .coxeter import Word, det_int
from .errors import InvalidCartanType, InvariantViolation, NotInRootLattice
from .polytope import LatticePolytope, equal_up_to_translation, minkowski_sum
from .roots import (CartanMatrix, Vec, cartan_of_type, cartan_rows,
                    coroot_of_root, reflection_tables,
                    root_to_weight_coords, w_catalan, weight_diff_to_root_coords)
from .subword import (ClusterComplex, Facet, RootTable, antigreedy_facet,
                      brick_vector, build_complex, flip, greedy_facet,
                      walk_flips)
from .typea import f_poly_via_prefixes, f_poly_via_tpaths, triangulation_of_coxeter

_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


def type_label(cartan: CartanMatrix) -> str:
    """Family-plus-rank label such as "B3", or "custom3" when unrecognized."""
    for family in _FAMILIES:
        try:
            if cartan_rows(family, cartan.n) == cartan.rows:
                return f"{family}{cartan.n}"
        except InvalidCartanType:  # the family has no type of this rank
            continue
    return f"custom{cartan.n}"


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
    seed, and the map from facet positions to seed slots."""

    facet: Facet
    table: RootTable
    seed: Seed
    pos_to_slot: dict


@dataclass(frozen=True)
class Correspondence:
    """One lockstep walk: the complex, its nodes in sorted facet order, and
    `variables`, positive root -> cluster variable, read from the walk's
    position record.  The F-polynomials, their Newton polytopes and the
    weight-column hulls, keyed by positive root too, are computed once, on
    first use."""

    complex_: ClusterComplex
    nodes: dict
    variables: dict

    @cached_property
    def f_polynomials(self) -> dict:
        n = self.complex_.n
        return {beta: f_polynomial(v, n) for beta, v in self.variables.items()}

    @cached_property
    def newton_polytopes(self) -> dict:
        return {beta: LatticePolytope(F.support())
                for beta, F in self.f_polynomials.items()}

    @cached_property
    def column_hulls(self) -> dict:
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
        return out


def _assert_position_map(complex_: ClusterComplex, node: Node,
                         by_pos: dict) -> None:
    """Check every position of a new node against the walk's record.

    A position seen before must hold the identical variable recorded there
    (variables are interned, so identity is equality).  On a first sighting
    the variable must have d-vector `pos_root[i]`, and is recorded.  In
    finite type the d-vector determines the cluster variable, so the record
    holds the one variable of each position, and each variable is
    certified once per walk.
    """
    for i in node.facet:
        var = node.seed.variables[node.pos_to_slot[i] - 1]
        recorded = by_pos.get(i)
        if recorded is None:
            dv = d_vector(var, complex_.n)
            if dv != complex_.pos_root[i - 1]:
                raise InvariantViolation(
                    f"facet {node.facet}: variable at position {i} has "
                    f"d-vector {dv}, expected {complex_.pos_root[i - 1]}")
            by_pos[i] = var
        elif recorded is not var:
            raise InvariantViolation(
                f"facet {node.facet}: variable at position {i} is not the "
                "one recorded for that position")


def _assert_same_cluster(node: Node, slot: int, known: Node, j: int,
                         memo: ExchangeMemo) -> None:
    """First sighting of a flip from `node` into the facet of `known`, found
    earlier, whose position j holds the new variable.

    Mutating `node` at `slot` replaces x_slot by the variable v with
    v * x_slot equal to the exchange binomial, so the known variable at j
    must be that v.  Every other position is shared by the two facets, and
    both nodes were checked against the same position record, so they
    carry the identical variable there.  A partner the memo certified for
    this exchange data must be the known variable itself (the Laurent ring
    is a domain, and variables are interned); with none, the product is
    multiplied out once and the partner recorded.
    """
    v = known.seed.variables[known.pos_to_slot[j] - 1]
    key = memo.exchange_key(node.seed, slot)
    partner = memo.partners.get(key)
    if partner is None:
        old = node.seed.variables[slot - 1]
        if v * old == exchange_binomial(node.seed, slot):
            memo.record(key, old, v)
            return
    elif partner is v:
        return
    raise InvariantViolation(
        f"walk desynchronized at facet {known.facet}: two paths give "
        "different clusters")


def _assert_involution(node: Node, i: int, known: Node, j: int) -> None:
    """Second sighting of a flip edge: `node` flips position i into the
    facet of `known`, whose flip at j back into `node`'s facet is certified.

    At the exchanged slots s and t the extended exchange column at t must
    be the negation of that at s (exchange rows read through the position
    maps, position j standing for i; the coefficient rows, which hold the
    c-vector, directly).  Every other position holds the identical variable
    in both seeds, since both nodes were checked against the same position
    record.  Then the positive and negative parts of the two exchange
    binomials trade places, so the two binomials are equal.
    """
    s, t = node.pos_to_slot[i], known.pos_to_slot[j]
    seed, other = node.seed, known.seed
    n = seed.n
    ok = all(
        other.matrix[known.pos_to_slot[j if k == i else k] - 1][t - 1]
        == -seed.matrix[node.pos_to_slot[k] - 1][s - 1] for k in node.facet)
    ok = ok and all(other.matrix[r][t - 1] == -seed.matrix[r][s - 1]
                    for r in range(n, 2 * n))
    if not ok:
        raise InvariantViolation(
            f"walk desynchronized at facet {known.facet}: the flip back from "
            f"{node.facet} is not the inverse mutation")


# Enough walks for every check of one Coxeter word, not for a whole sweep.
@lru_cache(maxsize=4)
def build_correspondence(cartan: CartanMatrix, c: Word) -> Correspondence:
    """Seeds mutated in lockstep with the facet flips of `walk_flips`.

    Flipping position i of a facet corresponds to mutating the seed at the
    slot holding the variable of position i; the map position -> slot is
    carried along, and every new node is checked against the position
    record by `_assert_position_map`.  The walk raises if a position is
    never reached.  The record at the positions beyond the first n, whose
    almost positive roots are the positive roots, is `variables`.

    Each undirected flip edge is certified once for its exchange relation,
    so the result does not depend on the path.  A flip into a new facet
    mutates.  The first sighting of a flip into a facet found earlier is a
    memo lookup or one product check (`_assert_same_cluster`); the second
    sighting of any edge, which in breadth-first order is a flip into a
    facet discovered before the current one, is an integer check
    (`_assert_involution`).

    No clusters are compared: the record gives position i one variable, of
    d-vector pos_root[i], and `build_complex` asserts that `pos_root` is
    injective, so the cluster determines the facet.  The walk's
    `ExchangeMemo` is dropped with it: the returned seeds carry no memo.
    """
    complex_ = build_complex(cartan, c)
    n, m = complex_.n, complex_.m
    memo = ExchangeMemo()
    nodes: dict[Facet, Node] = {}
    order: dict[Facet, int] = {}
    by_pos: dict[int, MPoly] = {}
    for facet, i, new_facet, j, new_table in walk_flips(complex_):
        if facet is None:
            new_node = Node(new_facet, new_table,
                            memo.attach(initial_seed(cartan, c)),
                            {k: c[k - 1] for k in range(1, n + 1)})
        else:
            node = nodes[facet]
            slot = node.pos_to_slot[i]
            if new_table is None:
                known = nodes[new_facet]
                if order[new_facet] < order[facet]:
                    _assert_involution(node, i, known, j)
                else:
                    _assert_same_cluster(node, slot, known, j, memo)
                continue
            new_map = {k: s for k, s in node.pos_to_slot.items() if k != i}
            new_map[j] = slot
            new_node = Node(new_facet, new_table, mutate(node.seed, slot), new_map)
        _assert_position_map(complex_, new_node, by_pos)
        order[new_facet] = len(order)
        nodes[new_facet] = new_node
    label = type_label(cartan)
    if not label.startswith("custom") and len(nodes) != w_catalan(label[0], n):
        raise InvariantViolation(
            f"{len(nodes)} facets, expected {w_catalan(label[0], n)}")
    if len(by_pos) != m:
        raise InvariantViolation(f"{len(by_pos)} positions reached, expected {m}")
    return Correspondence(
        complex_,
        {facet: replace(nodes[facet], seed=replace(nodes[facet].seed, memo=None))
         for facet in sorted(nodes)},
        {complex_.pos_root[i - 1]: by_pos[i] for i in range(n + 1, m + 1)})


def variables_by_root(cartan: CartanMatrix, c: Word) -> dict:
    """Map each positive root to its cluster variable: the `variables` of
    the walk's position record, so every facet agrees by construction."""
    return build_correspondence(cartan, c).variables


def _report(name: str, cartan: CartanMatrix, c: Word, started: float,
            counterexample: dict | None) -> Report:
    return Report(name, type_label(cartan), tuple(c), counterexample is None,
                  counterexample, time.monotonic() - started)


def check_c_vectors(cartan: CartanMatrix, c: Word) -> Report:
    """c-vectors equal the root configuration; they are sign-coherent and
    form a lattice basis (determinant of absolute value one) at every facet:
    by one determinant at the greedy facet, carried to every other facet
    along one flip by `_determinant_carries`."""
    started = time.monotonic()
    corr = build_correspondence(cartan, c)
    greedy = greedy_facet(corr.complex_)
    for node in corr.nodes.values():
        rows = []
        for i in node.facet:
            expected = node.table.roots[i - 1]
            actual = c_vector(node.seed, node.pos_to_slot[i])
            rows.append(expected)
            if actual != expected:
                return _report("c-vectors", cartan, c, started, {
                    "facet": node.facet, "position": i,
                    "expected": expected, "actual": actual})
            if not (all(x >= 0 for x in actual) or all(x <= 0 for x in actual)):
                return _report("c-vectors", cartan, c, started, {
                    "facet": node.facet, "position": i,
                    "expected": "sign-coherent vector", "actual": actual})
        if not (abs(det_int(tuple(rows))) == 1 if node.facet == greedy
                else _determinant_carries(corr, node)):
            return _report("c-vectors", cartan, c, started, {
                "facet": node.facet,
                "expected": "root configuration with determinant +-1",
                "actual": rows})
    return _report("c-vectors", cartan, c, started, None)


def _determinant_carries(corr: Correspondence, node: Node) -> bool:
    """True when the flip of the facet F at its first negative root beta,
    at i (only the greedy facet has none), goes down to F' = F - i + j,
    j < i, whose roots are +-beta at j and, at the other positions of F,
    the root of F or its reflection along beta.  Those are unimodular row
    operations on the configuration of F, so |det| carries from the smaller
    F' to F, and by induction from the greedy facet.  Pooled roots are
    compared by identity; any miss is False."""
    complex_, roots = corr.complex_, node.table.roots
    tables = complex_.tables
    i = next((i for i in node.facet if min(roots[i - 1]) < 0), 0)
    beta = roots[i - 1] if i else None
    if beta not in tables.negative:
        return False
    try:
        new_facet, j = flip(complex_, node.facet, i, node.table)
    except InvariantViolation:
        return False
    other = corr.nodes.get(new_facet)
    if other is None or j > i:
        return False
    new, images = other.table.roots, tables.reflect[beta]
    return ((new[j - 1] is beta or new[j - 1] is tables.negative[beta])
            and all(new[k - 1] is roots[k - 1] or new[k - 1] is images.get(roots[k - 1])
                    for k in node.facet if k != i))


def check_g_vectors(cartan: CartanMatrix, c: Word) -> Report:
    """g-vectors equal the weight configuration, and the weight and coroot
    configurations pair to the identity matrix (the transpose-inverse
    relation between the g- and c-matrices)."""
    started = time.monotonic()
    corr = build_correspondence(cartan, c)
    n = corr.complex_.n
    coroot = coroot_of_root(cartan)
    g_of: dict[int, Vec] = {}       # id of an interned variable -> g-vector
    dots: dict[tuple, int] = {}     # (weight, root) -> <weight, root_co>
    for node in corr.nodes.values():
        weights, roots = node.table.weights, node.table.roots
        for i in node.facet:
            var = node.seed.variables[node.pos_to_slot[i] - 1]
            actual = g_of.get(id(var)) or g_of.setdefault(id(var), g_vector(var, n))
            if actual != weights[i - 1]:
                return _report("g-vectors", cartan, c, started, {
                    "facet": node.facet, "position": i,
                    "expected": weights[i - 1], "actual": actual})
        for i in node.facet:
            for j in node.facet:
                key = (weights[i - 1], roots[j - 1])
                dot = dots.get(key)
                if dot is None:
                    dot = dots[key] = sum(x * y for x, y in zip(key[0], coroot[key[1]]))
                if dot != (i == j):
                    return _report("g-vectors", cartan, c, started, {
                        "facet": node.facet, "position": (i, j),
                        "expected": int(i == j), "actual": dot})
    return _report("g-vectors", cartan, c, started, None)


def check_exchange_matrix(cartan: CartanMatrix, c: Word) -> Report:
    """The principal part of every exchange matrix is recovered from the
    root and coroot configurations: entry (i,j) is the pairing of the root
    at j against the coroot at i, negated when i < j.  The pairings are
    read from `reflection_tables`."""
    started = time.monotonic()
    corr = build_correspondence(cartan, c)
    pairing = reflection_tables(cartan).pairing
    for node in corr.nodes.values():
        bpr = principal_part(node.seed.matrix)
        roots = node.table.roots
        for i in node.facet:
            against_i = pairing[roots[i - 1]]
            for j in node.facet:
                s, t = node.pos_to_slot[i], node.pos_to_slot[j]
                if i == j:
                    expected = 0
                else:
                    value = against_i[roots[j - 1]]
                    expected = -value if i < j else value
                if bpr[s - 1][t - 1] != expected:
                    return _report("exchange", cartan, c, started, {
                        "facet": node.facet, "position": (i, j),
                        "expected": expected, "actual": bpr[s - 1][t - 1]})
    return _report("exchange", cartan, c, started, None)


def check_lemmas(cartan: CartanMatrix, c: Word) -> Report:
    """Weight rigidity and monotonicity along the flip graph.

    Each column takes a single value on the facets containing it (so the
    shared positions of adjacent facets carry the identical pooled weight);
    along every increasing flip, out of each position whose root beta is
    positive, every column moves down by a nonnegative multiple of beta, in
    the local form of `_first_upward`; and the greedy-minus-antigreedy
    weight difference of a column beyond the first n is exactly its
    positive root.
    """
    started = time.monotonic()
    corr = build_correspondence(cartan, c)
    complex_ = corr.complex_
    n, m = complex_.n, complex_.m
    common: dict[int, Vec] = {}
    for node in corr.nodes.values():
        for i in node.facet:
            w = node.table.weights[i - 1]
            if i in common:
                if common[i] is not w:
                    return _report("lemmas", cartan, c, started, {
                        "lemma": "column constant on facets containing it",
                        "facet": node.facet, "position": i,
                        "expected": common[i], "actual": w})
            else:
                common[i] = w
    coroots, images = coroot_of_root(cartan), complex_.tables.weight_images
    lam_negative: dict = {beta: {} for beta in coroots}
    for node in corr.nodes.values():
        old = node.table.weights
        for i in node.facet:
            beta = node.table.roots[i - 1]
            if min(beta) < 0:
                continue        # decreasing: the reverse of an increasing flip
            new_facet, j = flip(complex_, node.facet, i, node.table)
            new = corr.nodes[new_facet].table.weights
            k = _first_upward(old, new, i, j, images[beta], coroots[beta],
                              lam_negative[beta])
            if k:
                return _report("lemmas", cartan, c, started, {
                    "lemma": "increasing flips shift weights down",
                    "facet": node.facet, "flip": (i, j), "position": k,
                    "difference": tuple(a - b for a, b in zip(old[k - 1], new[k - 1]))})
    g_table = corr.nodes[greedy_facet(complex_)].table
    ag_table = corr.nodes[antigreedy_facet(complex_)].table
    for k in range(n + 1, m + 1):
        expected = root_to_weight_coords(cartan, complex_.pos_root[k - 1])
        actual = tuple(a - b for a, b in zip(g_table.weights[k - 1],
                                             ag_table.weights[k - 1]))
        if actual != expected:
            return _report("lemmas", cartan, c, started, {
                "lemma": "greedy minus antigreedy equals the column root",
                "position": k, "expected": expected, "actual": actual})
    return _report("lemmas", cartan, c, started, None)


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


def check_newton_conjecture(cartan: CartanMatrix, c: Word) -> Report:
    """Newton polytope of each F-polynomial equals the hull of its weight
    column shifted to start at the antigreedy facet, in root coordinates."""
    started = time.monotonic()
    corr = build_correspondence(cartan, c)
    complex_ = corr.complex_
    for k in range(complex_.n + 1, complex_.m + 1):
        beta = complex_.pos_root[k - 1]
        newton = corr.newton_polytopes[beta]
        column = corr.column_hulls[beta]
        if newton != column:
            return _report("newton", cartan, c, started, {
                "root": beta, "position": k,
                "newton_vertices": newton.vertices,
                "column_vertices": column.vertices})
    return _report("newton", cartan, c, started, None)


def check_lattice_points(cartan: CartanMatrix, c: Word) -> Report:
    """The monomials of each F-polynomial are exactly the lattice points of
    its Newton polytope."""
    started = time.monotonic()
    corr = build_correspondence(cartan, c)
    complex_ = corr.complex_
    for k in range(complex_.n + 1, complex_.m + 1):
        beta = complex_.pos_root[k - 1]
        support = set(corr.f_polynomials[beta].support())
        points = set(corr.newton_polytopes[beta].lattice_points())
        if support != points:
            return _report("lattice", cartan, c, started, {
                "root": beta, "position": k,
                "monomials_missing": sorted(points - support),
                "monomials_extra": sorted(support - points)})
    return _report("lattice", cartan, c, started, None)


def check_minkowski_brick(cartan: CartanMatrix, c: Word) -> Report:
    """The Minkowski sum of all Newton polytopes equals the brick polytope
    translated by the negated antigreedy brick vector.

    Gated on the Newton check, since the statement presumes it.
    """
    started = time.monotonic()
    gate = check_newton_conjecture(cartan, c)
    if not gate.passed:
        payload = {"gated_on": "newton"}
        payload.update(gate.counterexample or {})
        return _report("minkowski", cartan, c, started, payload)
    corr = build_correspondence(cartan, c)
    complex_ = corr.complex_
    total = minkowski_sum([corr.newton_polytopes[beta]
                           for beta in sorted(corr.newton_polytopes)])
    in_weight = LatticePolytope(
        [root_to_weight_coords(cartan, v) for v in total.vertices])
    bricks = LatticePolytope([brick_vector(complex_, node.facet, node.table)
                              for node in corr.nodes.values()])
    shift = equal_up_to_translation(in_weight, bricks)
    ag = brick_vector(complex_, antigreedy_facet(complex_),
                      corr.nodes[antigreedy_facet(complex_)].table)
    if shift != ag:
        return _report("minkowski", cartan, c, started, {
            "expected_shift": ag, "actual_shift": shift,
            "minkowski_vertices": in_weight.vertices,
            "brick_vertices": bricks.vertices})
    return _report("minkowski", cartan, c, started, None)


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


def check_typea_models(n: int, c: Word) -> Report:
    """All three F-polynomial models agree in type A, and every weight
    column realizes the full orbit interval between its greedy and
    antigreedy values."""
    started = time.monotonic()
    cartan = cartan_of_type("A", n)
    word = tuple(c)
    corr = build_correspondence(cartan, word)
    complex_ = corr.complex_
    tri = triangulation_of_coxeter(word)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            beta = tuple(1 if i <= t + 1 <= j else 0 for t in range(n))
            from_mutation = corr.f_polynomials[beta]
            from_tpaths = f_poly_via_tpaths(tri, i, j)
            from_prefixes = f_poly_via_prefixes(word, i, j)
            if not (from_mutation == from_tpaths == from_prefixes):
                return _report("typea", cartan, word, started, {
                    "root": beta, "interval": (i, j),
                    "mutation": from_mutation.terms,
                    "tpaths": from_tpaths.terms,
                    "prefixes": from_prefixes.terms})
    g_table = corr.nodes[greedy_facet(complex_)].table
    ag_table = corr.nodes[antigreedy_facet(complex_)].table
    for k in range(1, complex_.m + 1):
        realized = {node.table.weights[k - 1] for node in corr.nodes.values()}
        expected = {w for w in _weight_orbit(n, complex_.word[k - 1])
                    if _dominates(cartan, g_table.weights[k - 1], w)
                    and _dominates(cartan, w, ag_table.weights[k - 1])}
        if realized != expected:
            return _report("typea", cartan, word, started, {
                "position": k,
                "realized": sorted(realized),
                "interval": sorted(expected)})
    return _report("typea", cartan, word, started, None)


_CHECKS = (
    ("c-vectors", check_c_vectors),
    ("g-vectors", check_g_vectors),
    ("exchange", check_exchange_matrix),
    ("lemmas", check_lemmas),
    ("newton", check_newton_conjecture),
    ("lattice", check_lattice_points),
    ("minkowski", check_minkowski_brick),
    ("typea", lambda cartan, c: check_typea_models(cartan.n, c)),
)


def check_names(cartan: CartanMatrix) -> tuple[str, ...]:
    """The checks that apply to `cartan`: all of them, typea in type A only."""
    type_a = type_label(cartan).startswith("A")
    return tuple(name for name, _ in _CHECKS if type_a or name != "typea")


def run_checks(cartan: CartanMatrix, c: Word, names=None, jobs: int = 1
               ) -> tuple[Report, ...]:
    """Run the named checks (all applicable ones by default) serially, in
    the order asked for, and return their reports.  An empty selection, an
    unknown name, or a `jobs` other than the int 1 raises ValueError."""
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
    table = dict(_CHECKS)
    return tuple(table[name](cartan, tuple(c)) for name in selected)
