"""Slow reference models that the tests compare the engine against, each
independent of the fast path it checks; they are not package API."""

from collections import deque
from itertools import combinations

from clusterbrick.cluster import (FPolynomial, MPoly, Seed, initial_matrix, initial_seed,
                                  mutate, principal_part)
from clusterbrick.coxeter import Word, restricted_prefixes
from clusterbrick.errors import InvariantViolation
from clusterbrick.polytope import convex_hull_vertices
from clusterbrick.roots import CartanMatrix, Vec, reflect_root, reflect_weight, transpose
from clusterbrick.subword import ClusterComplex, Facet, is_facet


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
