"""Slow reference models that the tests compare the engine against, each
independent of the fast path it checks; they are not package API."""

import functools
from collections import deque
from itertools import combinations

from clusterbrick.cluster import (FPolynomial, MPoly, Seed, initial_matrix, initial_seed,
                                  mutate)
from clusterbrick.coxeter import Matrix, Word, det_int, restricted_prefixes
from clusterbrick.errors import InvariantViolation, NotInRootLattice
from clusterbrick.polytope import convex_hull_vertices
from clusterbrick.roots import (CartanMatrix, Vec, _symmetrizer, det_adjugate, positive_roots,
                                reflect_coroot, reflect_root, reflect_weight,
                                root_to_weight_coords, transpose, weight_diff_to_root_coords)
from clusterbrick.subword import ClusterComplex, Facet, flip, is_facet
from clusterbrick.typea import Edge, Triangle


def pair(cartan: CartanMatrix, root_vec: Vec, coroot_vec: Vec) -> int:
    """Pairing of a root-coordinate vector against a coroot-coordinate
    vector, summed entry by entry over the Cartan matrix: the reference for
    `ReflectionTables.pairing`."""
    n = cartan.n
    if len(root_vec) != n or len(coroot_vec) != n:
        raise ValueError(f"vector lengths {len(root_vec)}, {len(coroot_vec)} vs rank {n}")
    return sum(coroot_vec[s] * cartan.rows[s][t] * root_vec[t]
               for s in range(n) for t in range(n))


def coroot_of_root_by_reflections(cartan: CartanMatrix) -> dict[Vec, Vec]:
    """The closure of the pairs (alpha_s, alpha_s-dual) under every simple
    reflection, one checked `reflect_root` and `reflect_coroot` call per
    pair: the reference for `coroot_of_root`."""
    n = cartan.n
    pairs, frontier = {}, []
    for s in range(n):
        unit = tuple(int(t == s) for t in range(n))
        pairs[unit] = unit
        frontier.append((unit, unit))
    while frontier:
        beta, beta_co = frontier.pop()
        for s in range(1, n + 1):
            img = reflect_root(cartan, s, beta)
            if img not in pairs:
                pairs[img] = reflect_coroot(cartan, s, beta_co)
                frontier.append((img, pairs[img]))
    return pairs


def reflection_tables_by_formula(cartan: CartanMatrix) -> tuple[dict, dict, dict, dict]:
    """`pool`, `negative`, `pairing` and `reflect` of `ReflectionTables`,
    with every pairing and image computed from its formula, for every root
    beta against every root x; -beta shares the images of beta.  The
    reference for the tables, which compute a quarter of the pairings and
    half of the images and derive the rest by symmetry."""
    coroots = coroot_of_root_by_reflections(cartan)
    pool = {beta: beta for beta in coroots}
    negative, pairing, reflect = {}, {}, {}
    for beta, beta_co in coroots.items():
        minus = negative[beta] = pool[tuple(-x for x in beta)]
        dual = root_to_weight_coords(transpose(cartan), beta_co)
        pairs = pairing[beta] = {x: sum(a * b for a, b in zip(x, dual)) for x in coroots}
        reflect[beta] = reflect[minus] if minus in reflect else {
            x: pool[tuple(a - p * b for a, b in zip(x, beta))] for x, p in pairs.items()}
    return pool, negative, pairing, reflect


def positive_definite_by_minors(rows) -> bool:
    """Sylvester's criterion one minor at a time: every leading principal
    minor of the symmetrization of the symmetrizable Cartan matrix `rows`
    is positive, each from its own elimination."""
    d = _symmetrizer(rows)
    sym = [[d[s] * a for a in row] for s, row in enumerate(rows)]
    return all(det_int([row[:k] for row in sym[:k]]) > 0
               for k in range(1, len(rows) + 1))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def apply_matrix(m: Matrix, v: Vec) -> Vec:
    return tuple(sum(row[c] * v[c] for c in range(len(v))) for row in m)


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


def is_reduced(cartan: CartanMatrix, word: Word) -> bool:
    return length(cartan, element_of_word(cartan, word)) == len(word)


@functools.lru_cache(maxsize=None)
def longest_element_by_matrices(cartan: CartanMatrix) -> Matrix:
    """The longest element by greedy length ascent from the identity, one
    matrix product per letter: right-multiply by s while g(alpha_s) is
    positive."""
    n = cartan.n
    mats = reflection_matrices(cartan)
    g = identity_matrix(n)
    while True:
        for s in range(n):
            if not _is_negative(tuple(g[r][s] for r in range(n))):
                g = mat_mul(g, mats[s])
                break
        else:
            return g


def word_action_root(cartan: CartanMatrix, word: Word, v: Vec) -> Vec:
    """Apply the element of `word` to v in simple-root coordinates."""
    for s in reversed(word):
        v = reflect_root(cartan, s, v)
    return v


def word_action_weight(cartan: CartanMatrix, word: Word, v: Vec) -> Vec:
    """Apply the element of `word` to v in fundamental-weight coordinates."""
    for s in reversed(word):
        v = reflect_weight(cartan, s, v)
    return v


def weight_orbit(cartan: CartanMatrix, start: Vec) -> set:
    """The Weyl group orbit of a weight, by breadth-first search under the
    simple reflections."""
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for s in range(1, cartan.n + 1):
            image = reflect_weight(cartan, s, w)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


def root_function(complex_: ClusterComplex, facet: Facet, k: int) -> Vec:
    """Product of the complement letters before position k, applied to the
    simple root of the letter at k."""
    return _entry(complex_, facet, k, word_action_root, complex_.cartan)


def weight_function(complex_: ClusterComplex, facet: Facet, k: int) -> Vec:
    """Same prefix product applied to the fundamental weight of the letter at k."""
    return _entry(complex_, facet, k, word_action_weight, complex_.cartan)


def coroot_function(complex_: ClusterComplex, facet: Facet, k: int) -> Vec:
    """Same prefix product applied to the simple coroot of the letter at k,
    in simple-coroot coordinates."""
    return _entry(complex_, facet, k, word_action_root, transpose(complex_.cartan))


def _entry(complex_: ClusterComplex, facet: Facet, k: int, action,
           cartan: CartanMatrix) -> Vec:
    """`action` of the complement letters before position k on the unit
    vector of the letter at k."""
    if not 1 <= k <= complex_.m:
        raise ValueError(f"position {k} out of range 1..{complex_.m}")
    chosen = set(facet)
    letters = tuple(complex_.word[p - 1] for p in range(1, k) if p not in chosen)
    q = complex_.word[k - 1]
    unit = tuple(1 if t == q - 1 else 0 for t in range(complex_.n))
    return action(cartan, letters, unit)


def brute_force_facets(complex_: ClusterComplex) -> tuple[Facet, ...]:
    """All size-n position sets whose complement spells the longest element:
    `is_facet` on every combination, exponential in the word length."""
    positions = range(1, complex_.m + 1)
    return tuple(combo for combo in combinations(positions, complex_.n)
                 if is_facet(complex_, combo))


def principal_part(matrix) -> Matrix:
    """Top n rows of an extended matrix: the exchange block."""
    n = len(matrix[0])
    return tuple(tuple(matrix[s]) for s in range(n))


def variable_from_g_and_F(cartan: CartanMatrix, c, g: Vec, F: FPolynomial) -> MPoly:
    """Reassemble a variable from its g-vector and F-polynomial: each F term
    y^v contributes x^(B v + g) y^v, with B the initial exchange block for c."""
    n = cartan.n
    top = principal_part(initial_matrix(cartan, c))
    terms = {}
    for v, coeff in F.terms.items():
        xs = tuple(sum(top[s][t] * v[t] for t in range(n)) + g[s] for s in range(n))
        terms[xs + v] = coeff
    return MPoly(2 * n, terms)


def g_from_F(cartan: CartanMatrix, c, F: FPolynomial, dvec: Vec) -> Vec:
    """g-vector (componentwise max of -B v over the support of F) - d, with
    the d-vector d in simple-root coordinates.  The max is computed twice, over the whole
    support and over the vertices of its convex hull, and the two must agree."""
    n = cartan.n
    top = principal_part(initial_matrix(cartan, c))

    def image(vs):
        pts = [tuple(-sum(top[s][t] * v[t] for t in range(n)) for s in range(n))
               for v in vs]
        return tuple(max(p[s] for p in pts) for s in range(n))

    full = image(F.terms.keys())
    hull = image(convex_hull_vertices(F.terms.keys()))
    if full != hull:
        raise InvariantViolation("componentwise max differs between support and hull")
    return tuple(a - b for a, b in zip(full, dvec))


def cluster_key(seed: Seed) -> frozenset:
    """Unordered fingerprint of the cluster (the variable set)."""
    return frozenset((p.nvars, frozenset(p._t.items())) for p in seed.variables)


def enumerate_seeds(cartan: CartanMatrix, c, cap: int = 100000) -> tuple[Seed, ...]:
    """One seed per cluster, by breadth-first mutation from the initial seed."""
    start = initial_seed(cartan, c)
    found = {cluster_key(start): start}
    queue = deque([start])
    while queue:
        seed = queue.popleft()
        for i in range(1, seed.n + 1):
            nxt = mutate(seed, i)
            key = cluster_key(nxt)
            if key not in found:
                if len(found) >= cap:
                    raise InvariantViolation(f"more than {cap} clusters")
                found[key] = nxt
                queue.append(nxt)
    return tuple(found.values())


def all_cluster_variables(cartan: CartanMatrix, c) -> set[MPoly]:
    out: set[MPoly] = set()
    for seed in enumerate_seeds(cartan, c):
        out.update(seed.variables)
    return out


def loday_summands(c: Word) -> dict[tuple[int, int], tuple[Vec, ...]]:
    """For each label interval, the indicator vectors of the restricted
    prefixes: the vertex generators of the interval's summand polytope."""
    n = len(c)
    out = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            pts = []
            for prefix in restricted_prefixes(c, i, j):
                m = [0] * n
                for s in prefix:
                    m[s - 1] = 1
                pts.append(tuple(m))
            out[(i, j)] = tuple(sorted(set(pts)))
    return out


def matrix_inverse(m: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1."""
    det, adj = det_adjugate(m)
    if det not in (1, -1):
        raise InvariantViolation(f"matrix has determinant {det}, so its inverse is not integral")
    return tuple(tuple(det * x for x in row) for row in adj)


def is_facet_by_matrices(complex_: ClusterComplex, positions) -> bool:
    """True when the matrix product of the complement letters of
    `positions` is the longest element."""
    if len(positions) != complex_.n or len(set(positions)) != len(positions):
        return False
    if any(not 1 <= k <= complex_.m for k in positions):
        return False
    mats = reflection_matrices(complex_.cartan)
    acc = identity_matrix(complex_.n)
    for k, q in enumerate(complex_.word, start=1):
        if k not in positions:
            acc = mat_mul(acc, mats[q - 1])
    return acc == longest_element_by_matrices(complex_.cartan)


def antigreedy_by_matrices(complex_: ClusterComplex) -> Facet:
    """The positions a left-to-right sweep skips, absorbing each letter q
    with u(alpha_q) positive into the matrix u of the absorbed letters."""
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
    if u != longest_element_by_matrices(complex_.cartan) or len(skipped) != n:
        raise InvariantViolation("length sweep did not absorb a longest word")
    return tuple(skipped)


def c_sorting_word_by_inverse(cartan: CartanMatrix, c: Word, target: Matrix) -> Word:
    """The sorting word of target in c, c, c, ...: take s whenever column s
    of the inverse of the remainder is negative, the inverse carried as a
    matrix."""
    n = cartan.n
    mats = reflection_matrices(cartan)
    ident = identity_matrix(n)
    inv_rem = matrix_inverse(target)
    word = []
    for _ in range(len(positive_roots(cartan)) + 1):
        for s in c:
            if inv_rem == ident:
                return tuple(word)
            if _is_negative(tuple(inv_rem[r][s - 1] for r in range(n))):
                word.append(s)
                inv_rem = mat_mul(inv_rem, mats[s - 1])
    raise InvariantViolation("sorting-word scan exceeded its cap")


def first_facet_not_unimodular(corr) -> Facet | None:
    """The first facet of a correspondence whose root configuration has a
    determinant other than +-1, by one determinant per facet."""
    for facet, node in corr.nodes.items():
        if abs(det_int(tuple(node.table.roots[i - 1] for i in facet))) != 1:
            return facet
    return None


def first_weight_moving_up(corr) -> tuple | None:
    """(facet, (i, j), k) for the first increasing flip i -> j after which
    w_k(F) - w_k(F') leaves the positive root cone, by one root-lattice
    solve per changed column; None when there is none."""
    complex_ = corr.complex_
    for node in corr.nodes.values():
        for i in node.facet:
            new_facet, j = flip(complex_, node.facet, i, node.table)
            if i > j:
                continue
            other = corr.nodes[new_facet]
            for k in range(1, complex_.m + 1):
                hi, lo = node.table.weights[k - 1], other.table.weights[k - 1]
                if hi == lo:
                    continue
                try:
                    diff = weight_diff_to_root_coords(complex_.cartan, hi, lo)
                except NotInRootLattice:
                    diff = None
                if diff is None or any(x < 0 for x in diff):
                    return node.facet, (i, j), k
    return None


def _in_convex_hull(point, generators) -> bool:
    """Exact test whether `point` is a convex combination of `generators`.

    Solves the phase-one LP: minimize the sum of artificial variables in
      sum_i lam_i g_i = p,  sum_i lam_i = 1,  lam >= 0.
    Feasible with optimum zero iff the point is in the hull.

    The tableau is fraction free (Bareiss; Avis, lrs): it holds integers
    with one common denominator d > 0, so the true entries are T / d.  A
    pivot on p = T[pr][pc] keeps the pivot row and sets every other row,
    the objective included, to (x * p - f * y) // d, where f is the row's
    entry in the pivot column; Sylvester's identity makes the division
    exact.  Then d becomes p.  Bland's rule picks the same pivots as over
    the rationals.  The artificial columns are never read, so they are not
    stored; the artificial of row r has basis index cols + r.
    """
    if not generators:
        return False
    dim = len(point)
    rows = dim + 1
    cols = len(generators)
    # tableau rows: lam_1..lam_k, rhs; the last row is sum lam = 1
    tab = []
    for r in range(dim):
        row = [g[r] for g in generators]
        row.append(point[r])
        if point[r] < 0:
            row = [-x for x in row]
        tab.append(row)
    tab.append([1] * (cols + 1))
    # objective: sum of artificials, expressed in terms of non-basic columns.
    # The basic artificials have reduced cost zero, so only the lam columns
    # and the value cell pick up the row sums.
    obj = [-sum(col) for col in zip(*tab)]
    basis = [cols + r for r in range(rows)]
    d = 1
    while True:
        # Bland's rule, and artificials never re-enter the basis.
        pc = -1
        for j in range(cols):
            if obj[j] < 0:
                pc = j
                break
        if pc < 0:
            break
        # least ratio rhs / a over a > 0, compared by cross-multiplying;
        # ties go to the least basis index
        pr = -1
        for r in range(rows):
            a = tab[r][pc]
            if a > 0:
                if pr < 0:
                    pr = r
                    continue
                lhs = tab[r][-1] * tab[pr][pc]
                rhs = tab[pr][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[pr]):
                    pr = r
        if pr < 0:
            # unbounded phase-one cannot happen: objective is bounded below by 0
            return False
        prow = tab[pr]
        p = prow[pc]
        for r in range(rows):
            if r != pr:
                row = tab[r]
                f = row[pc]
                if f:
                    tab[r] = [(x * p - f * y) // d for x, y in zip(row, prow)]
                elif p != d:
                    tab[r] = [x * p // d for x in row]
        f = obj[pc]
        obj = [(x * p - f * y) // d for x, y in zip(obj, prow)]
        d = p
        basis[pr] = pc
    return obj[-1] == 0


def _dual_strip(n: int, diagonals: tuple[Edge, ...], size: int) -> tuple[Triangle, ...]:
    """The triangles of a snake triangulation in dual-path order, found by
    searching every triple of polygon vertices for one bounded by sides and
    diagonals, then chaining them through shared diagonals."""
    edges = set(diagonals)
    for j in range(size):
        edges.add((min(j, (j + 1) % size), max(j, (j + 1) % size)))
    triangles = []
    for a in range(size):
        for b in range(a + 1, size):
            for cc in range(b + 1, size):
                if ((a, b) in edges and (b, cc) in edges and (a, cc) in edges):
                    triangles.append((a, b, cc))
    if len(triangles) != n + 1:
        raise InvariantViolation(f"{len(triangles)} triangles, expected {n + 1}")

    def has_diag(tri: Triangle, d: Edge) -> bool:
        return d[0] in tri and d[1] in tri

    if n == 1:
        # Both triangles of the square contain the lone diagonal; any order
        # gives the same crossing set, so take the lexicographic one.
        return tuple(sorted(triangles))

    strip = []
    for k in range(n + 1):
        if k == 0:
            want, avoid = diagonals[0], diagonals[1]
            cands = [t for t in triangles
                     if has_diag(t, want) and not has_diag(t, avoid)]
        elif k < n:
            cands = [t for t in triangles
                     if has_diag(t, diagonals[k - 1]) and has_diag(t, diagonals[k])]
        else:
            cands = [t for t in triangles
                     if has_diag(t, diagonals[n - 1]) and t != strip[n - 1]]
        if len(cands) != 1:
            raise InvariantViolation(f"dual strip not a path at step {k}: {cands}")
        strip.append(cands[0])
    return tuple(strip)


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
