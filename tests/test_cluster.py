"""Seeds with principal coefficients, mutation, Laurent expansions."""

import pytest

from clusterbrick.errors import InexactDivision, InvariantViolation
from clusterbrick.roots import cartan_of_type, positive_roots
from clusterbrick.coxeter import coxeter_words
from clusterbrick.cluster import (ExchangeMemo, FPolynomial, MPoly, c_vector,
                                  d_vector, exact_div, exchange_binomial,
                                  f_polynomial, format_fpoly, format_laurent,
                                  g_vector, initial_matrix, initial_seed, mutate,
                                  variable_names)
from oracles import (all_cluster_variables, cluster_key, enumerate_seeds,
                     g_from_F, principal_part, variable_from_g_and_F)

A2 = cartan_of_type("A", 2)
A3 = cartan_of_type("A", 3)
B2 = cartan_of_type("B", 2)


def mono(nvars, exps):
    return MPoly.monomial(nvars, exps)


def c_vectors(seed):
    return tuple(c_vector(seed, i) for i in range(1, seed.n + 1))


def test_mpoly_arithmetic():
    x = mono(2, (1, 0))
    y = mono(2, (0, 1))
    one = MPoly.constant(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + one) ** 2 == x * x + MPoly(2, {(1, 0): 2}) + one
    assert (x - x).is_zero()
    assert hash(x * y) == hash(y * x)
    # Laurent exponents are allowed
    inv = mono(2, (-1, 0))
    assert x * inv == one


def test_exact_division():
    x = mono(2, (1, 0))
    y = mono(2, (0, 1))
    assert exact_div(x * x - y * y, x - y) == x + y
    assert exact_div(x * y, y) == x
    with pytest.raises(InexactDivision):
        exact_div(x + y, x - y)
    with pytest.raises(InexactDivision):
        exact_div(MPoly.constant(2, 3), MPoly.constant(2, 2))


def test_exact_division_with_laurent_denominator():
    x = mono(2, (1, 0))
    xinv = mono(2, (-1, 0))
    y = mono(2, (0, 1))
    assert exact_div(x + y, xinv) == x * (x + y)


def test_initial_matrix_goldens():
    assert initial_matrix(A2, (1, 2)) == ((0, 1), (-1, 0), (1, 0), (0, 1))
    assert initial_matrix(A2, (2, 1)) == ((0, -1), (1, 0), (1, 0), (0, 1))
    assert initial_matrix(B2, (1, 2)) == ((0, 1), (-2, 0), (1, 0), (0, 1))


def test_initial_seed_shape():
    seed = initial_seed(A2, (1, 2))
    assert c_vectors(seed) == ((1, 0), (0, 1))
    assert seed.variables == (mono(4, (1, 0, 0, 0)), mono(4, (0, 1, 0, 0)))
    assert principal_part(seed.matrix) == ((0, 1), (-1, 0))


def test_first_mutation_golden():
    seed = mutate(initial_seed(A2, (1, 2)), 1)
    assert seed.matrix == ((0, -1), (1, 0), (-1, 1), (0, 1))
    assert c_vectors(seed) == ((-1, 0), (1, 1))
    # new first variable is (x2 + y1) / x1
    assert seed.variables[0] == MPoly(4, {(-1, 1, 0, 0): 1, (-1, 0, 1, 0): 1})


def test_pentagon_walk_goldens():
    seed = initial_seed(A2, (1, 2))
    walk = [seed]
    for i in (1, 2, 1, 2, 1):
        walk.append(mutate(walk[-1], i))
    assert [(s.matrix, c_vectors(s)) for s in walk] == [
        (((0, 1), (-1, 0), (1, 0), (0, 1)), ((1, 0), (0, 1))),
        (((0, -1), (1, 0), (-1, 1), (0, 1)), ((-1, 0), (1, 1))),
        (((0, 1), (-1, 0), (0, -1), (1, -1)), ((0, 1), (-1, -1))),
        (((0, -1), (1, 0), (0, -1), (-1, 0)), ((0, -1), (-1, 0))),
        (((0, 1), (-1, 0), (0, 1), (-1, 0)), ((0, -1), (1, 0))),
        (((0, -1), (1, 0), (0, 1), (1, 0)), ((0, 1), (1, 0))),
    ]
    # five alternating mutations return the initial cluster with its
    # two slots exchanged, so the pentagon closes as an unordered walk
    assert cluster_key(walk[5]) == cluster_key(walk[0])
    assert walk[5].variables == walk[0].variables[::-1]


def test_pentagon_coefficient_pairs():
    seeds = enumerate_seeds(A2, (1, 2))
    assert len(seeds) == 5
    got = {frozenset(c_vectors(s)) for s in seeds}
    assert got == {
        frozenset({(1, 0), (0, 1)}),
        frozenset({(-1, 0), (1, 1)}),
        frozenset({(1, 0), (0, -1)}),
        frozenset({(-1, 0), (0, -1)}),
        frozenset({(-1, -1), (0, 1)}),
    }


@pytest.mark.parametrize("fn", [c_vector, exchange_binomial, mutate])
@pytest.mark.parametrize("memo", [False, True])
def test_slot_indices_are_validated(fn, memo):
    seed = initial_seed(A2, (1, 2))
    if memo:
        seed = ExchangeMemo().attach(seed)
    for bad in (True, False, 1.0, "1", None):
        with pytest.raises(TypeError, match="is not an int"):
            fn(seed, bad)
    for bad in (0, -1, 3):      # 0 used to wrap round to slot 2
        with pytest.raises(ValueError, match="out of range 1..2"):
            fn(seed, bad)
    for good in (1, 2):
        fn(seed, good)


def test_mutation_is_involution():
    for cartan, c in [(A2, (1, 2)), (B2, (2, 1)), (A3, (1, 3, 2))]:
        for seed in enumerate_seeds(cartan, c):
            for i in range(1, cartan.n + 1):
                assert mutate(mutate(seed, i), i) == seed


def test_memoized_mutation_matches_plain_mutation(monkeypatch):
    """A seed carrying an ExchangeMemo mutates to the same seeds as a plain
    one, hands the memo on, and holds interned variables throughout: equal
    variables are identical, and the memo divides once per new variable."""
    import random
    from clusterbrick import cluster
    divisions = []
    divide = cluster.exact_div

    def counting(num, den):
        divisions.append(den)
        return divide(num, den)

    monkeypatch.setattr(cluster, "exact_div", counting)
    rng = random.Random(3)
    for cartan, c in [(B2, (2, 1)), (A3, (1, 3, 2)),
                      (cartan_of_type("G", 2), (1, 2))]:
        memo = ExchangeMemo()
        plain, memoized = initial_seed(cartan, c), memo.attach(initial_seed(cartan, c))
        seen = {}
        plain_divisions = 0
        divisions.clear()
        for _ in range(200):
            i = rng.randint(1, cartan.n)
            before = len(divisions)
            plain = mutate(plain, i)
            plain_divisions += len(divisions) - before
            del divisions[before:]
            memoized = mutate(memoized, i)
            assert memoized == plain and memoized.memo is memo
            assert plain.memo is None
            for v in memoized.variables:
                assert seen.setdefault(v, v) is v
                assert memo.intern(v) is v
        assert len(seen) == cartan.n + len(positive_roots(cartan))
        assert plain_divisions == 200
        assert len(divisions) == len(seen) - cartan.n


@pytest.mark.parametrize("family,rank", [
    ("B", 2), ("A", 3), ("G", 2), ("B", 3), ("D", 4)])
def test_every_memo_entry_is_a_certified_exchange(family, rank):
    """On a random mutation sequence, every partner the memo records, under
    the exchange key and under its reverse, times the old variable is the
    exchange binomial of a seed met with that key; each reverse entry maps
    back to the variable of its forward entry."""
    import random
    cartan = cartan_of_type(family, rank)
    rng = random.Random(rank * 7 + len(family))
    memo = ExchangeMemo()
    seed = memo.attach(initial_seed(cartan, tuple(range(1, rank + 1))))
    witness = {}
    for step in range(301):
        for i in range(1, rank + 1):
            witness.setdefault(memo.exchange_key(seed, i), (seed, i))
        if step < 300:
            seed = mutate(seed, rng.randint(1, rank))
    assert memo.partners and len(memo.partners) % 2 == 0
    for key, partner in memo.partners.items():
        witness_seed, i = witness[key]
        old = witness_seed.variables[i - 1]
        assert memo.index(old) == key[2]
        assert partner * old == exchange_binomial(witness_seed, i)
        column, c, _ = key
        reverse = (tuple((k, -b) for k, b in column), tuple(-a for a in c),
                   memo.index(partner))
        assert memo.partners[reverse] is old


def test_exchange_memo_rejects_foreign_variables():
    memo = ExchangeMemo()
    x = memo.intern(mono(2, (1, 0)))
    assert memo.index(x) == 0
    assert memo.intern(mono(2, (1, 0))) is x
    with pytest.raises(InvariantViolation):
        memo.index(mono(2, (1, 0)))


def test_variable_count_and_laurent_positivity():
    variables = all_cluster_variables(A2, (1, 2))
    assert len(variables) == 5
    for v in variables:
        assert all(coeff > 0 for coeff in v.terms.values())
    assert len(all_cluster_variables(A3, (1, 3, 2))) == 9
    assert len(all_cluster_variables(B2, (1, 2))) == 6


def test_exchange_table_golden():
    # columns: d-vector, g-vector, F-polynomial terms
    expected = {
        ((-1, 0), (1, 0)): {(0, 0): 1},
        ((0, -1), (0, 1)): {(0, 0): 1},
        ((1, 0), (-1, 1)): {(0, 0): 1, (1, 0): 1},
        ((1, 1), (-1, 0)): {(0, 0): 1, (1, 0): 1, (1, 1): 1},
        ((0, 1), (0, -1)): {(0, 0): 1, (0, 1): 1},
    }
    got = {}
    for v in all_cluster_variables(A2, (1, 2)):
        got[(d_vector(v, 2), g_vector(v, 2))] = f_polynomial(v, 2).terms
    assert got == expected


def test_five_variables_include_the_double_denominator():
    # (x1 y1 y2 + x2 + y1) / (x1 x2), written term by term
    deep = MPoly(4, {(0, -1, 1, 1): 1, (-1, 0, 0, 0): 1, (-1, -1, 1, 0): 1})
    assert deep in all_cluster_variables(A2, (1, 2))


def test_d_vectors_cover_almost_positive_roots():
    for cartan, c in [(A2, (1, 2)), (A2, (2, 1)), (B2, (1, 2)),
                      (A3, (1, 3, 2)), (cartan_of_type("G", 2), (2, 1))]:
        n = cartan.n
        negs = {tuple(-1 if t == s else 0 for t in range(n))
                for s in range(n)}
        expected = negs | set(positive_roots(cartan))
        got = {d_vector(v, n) for v in all_cluster_variables(cartan, c)}
        assert got == expected


def test_variable_from_g_and_F_round_trip():
    for cartan, c in [(A2, (1, 2)), (B2, (2, 1)), (A3, (1, 3, 2))]:
        n = cartan.n
        for v in all_cluster_variables(cartan, c):
            g = g_vector(v, n)
            F = f_polynomial(v, n)
            assert variable_from_g_and_F(cartan, c, g, F) == v
            assert g_from_F(cartan, c, F, d_vector(v, n)) == g


def test_f_polynomial_shape_validation():
    with pytest.raises(InvariantViolation):
        FPolynomial(2, {(0, 0): 2})
    with pytest.raises(InvariantViolation):
        FPolynomial(2, {(1, 0): 1})
    with pytest.raises(InvariantViolation):
        FPolynomial(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    with pytest.raises(InvariantViolation):
        FPolynomial(2, {(0, 0): 1, (1, 0): -1, (1, 1): 1})
    ok = FPolynomial(2, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    assert ok.top_exponent() == (1, 1)
    assert ok.support() == ((0, 0), (1, 0), (1, 1))


def test_f_polynomial_rejects_a_negative_exponent():
    """1 + y^-1 has constant term 1, and its top exponent, 0, is one of its
    monomials: only the sign test refuses it."""
    with pytest.raises(InvariantViolation, match=r"negative exponent \(-1,\)"):
        FPolynomial(1, {(0,): 1, (-1,): 1})


@pytest.mark.parametrize("build, bad", [
    (lambda: MPoly(2, {(1, 0): 0.5}), "0.5"),              # float coefficient
    (lambda: MPoly(2, {(1, 0): 0.0}), "0.0"),              # even a zero one
    (lambda: MPoly(2, {(1, 0): True}), "True"),
    (lambda: MPoly(2, {(True, 0): 1}), "True"),            # bool exponent
    (lambda: MPoly(2, {(0.5, 0): 1}), "0.5"),              # was a struct.error
    (lambda: MPoly(2, {(2.0, 0): 1}), "2.0"),
    (lambda: MPoly.monomial(2, (1, False)), "False"),
    (lambda: MPoly.monomial(2, (1.0, 0)), "1.0"),
    (lambda: FPolynomial(1, {(0,): 1, (1,): 2.5}), "2.5"),
    (lambda: FPolynomial(1, {(0,): 1, (True,): 1}), "True"),
    (lambda: FPolynomial(1, {(0.0,): 1}), "0.0"),
])
def test_polynomials_take_only_int_exponents_and_coefficients(build, bad):
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value) == f"exponent or coefficient {bad} is not an int"


def test_cluster_key_identifies_unordered_clusters():
    seed = initial_seed(A2, (1, 2))
    one_step = mutate(seed, 1)
    assert cluster_key(seed) != cluster_key(one_step)
    assert cluster_key(mutate(one_step, 1)) == cluster_key(seed)
    seeds = enumerate_seeds(A2, (1, 2))
    assert len({cluster_key(s) for s in seeds}) == len(seeds)


def test_seed_counts_match_catalan():
    from clusterbrick.roots import w_catalan
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        cartan = cartan_of_type(family, rank)
        for c in coxeter_words(cartan):
            assert len(enumerate_seeds(cartan, c)) == w_catalan(family, rank)


def test_formatting():
    assert variable_names(2) == ("x1", "x2", "y1", "y2")
    F = FPolynomial(2, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    assert format_fpoly(F) == "y1*y2 + y1 + 1"
    v = MPoly(4, {(-1, 1, 0, 0): 1, (-1, 0, 1, 0): 1})
    assert format_laurent(v, 2) == "(x2 + y1)/x1"
