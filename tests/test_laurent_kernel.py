"""The packed-monomial Laurent kernel against a tuple-keyed oracle.

`TupleMPoly` and `tuple_exact_div` are the polynomial class and the exact
division the package used before it packed each exponent vector into one
integer: kept here as the slow reference, never on a hot path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbrick.cluster import (MPoly, d_vector, exact_div, f_polynomial,
                                  g_vector)
from clusterbrick.errors import (DimensionMismatch, InexactDivision,
                                 InvariantViolation, ResourceLimit)
from clusterbrick.roots import cartan_of_type
from oracles import all_cluster_variables


class TupleMPoly:
    """Immutable sparse Laurent polynomial over exponent tuples."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c != 0}

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return TupleMPoly(self.nvars, out)

    def __neg__(self):
        return TupleMPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return TupleMPoly(self.nvars, out)

    def __eq__(self, other):
        if not isinstance(other, TupleMPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))


def tuple_exact_div(num, den):
    """Long division by the lex-leading term of den, confined to the box of
    num's extremes minus den's."""
    num._check(den)
    if den.is_zero():
        raise InexactDivision("division by zero polynomial")
    if num.is_zero():
        return TupleMPoly(num.nvars, {})
    nv = num.nvars
    lo = tuple(min(e[t] for e in num.terms) - min(e[t] for e in den.terms)
               for t in range(nv))
    hi = tuple(max(e[t] for e in num.terms) - max(e[t] for e in den.terms)
               for t in range(nv))
    den_lead = max(den.terms)
    den_lc = den.terms[den_lead]
    rem = dict(num.terms)
    quo = {}
    while rem:
        lead = max(rem)
        lc = rem[lead]
        q_exp = tuple(a - b for a, b in zip(lead, den_lead))
        if any(q < a or q > b for q, a, b in zip(q_exp, lo, hi)):
            raise InexactDivision("quotient would leave the exponent box")
        if lc % den_lc != 0:
            raise InexactDivision(f"coefficient {lc} not divisible by {den_lc}")
        q_c = lc // den_lc
        quo[q_exp] = quo.get(q_exp, 0) + q_c
        for e, c in den.terms.items():
            key = tuple(a + b for a, b in zip(q_exp, e))
            val = rem.get(key, 0) - q_c * c
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return TupleMPoly(nv, quo)


def tuple_d_vector(p, n):
    return tuple(-min(e[t] for e in p.terms) for t in range(n))


def tuple_g_vector(p, n):
    survivors = {e: c for e, c in p.terms.items() if all(a == 0 for a in e[n:])}
    if len(survivors) != 1 or next(iter(survivors.values())) != 1:
        return None
    return next(iter(survivors))[:n]


def term_dicts(nvars, max_terms=6):
    exps = st.tuples(*[st.integers(-5, 5)] * nvars)
    coeffs = st.integers(-3, 3).filter(bool)
    return st.dictionaries(exps, coeffs, max_size=max_terms)


@st.composite
def poly_pairs(draw, max_terms=6):
    nvars = draw(st.integers(2, 12))
    return (nvars, draw(term_dicts(nvars, max_terms)),
            draw(term_dicts(nvars, max_terms)))


def both(nvars, terms):
    return MPoly(nvars, terms), TupleMPoly(nvars, terms)


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_ring_operations_match_oracle(case):
    nvars, t1, t2 = case
    (p, p0), (q, q0) = both(nvars, t1), both(nvars, t2)
    assert p.terms == p0.terms
    assert (p + q).terms == (p0 + q0).terms
    assert (p - q).terms == (p0 - q0).terms
    assert (p * q).terms == (p0 * q0).terms
    assert (-p).terms == (-p0).terms
    assert (p == q) == (p0 == q0)
    again = (p + q) - q
    assert again == p and hash(again) == hash(p)
    assert (p * q == q * p) and hash(p * q) == hash(q * p)


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_exact_division_round_trip(case):
    nvars, t1, t2 = case
    p, q = MPoly(nvars, t1), MPoly(nvars, t2)
    if q.is_zero():
        with pytest.raises(InexactDivision):
            exact_div(p, q)
        return
    assert exact_div(p * q, q) == p


@settings(max_examples=200, deadline=None)
@given(poly_pairs(max_terms=4), st.integers(0, 2), st.integers(0, 2))
def test_inexact_division_matches_oracle(case, multiply, perturb):
    """Numerators are exact multiples of the denominator, multiples plus one
    stray term, or unrelated polynomials; the kernel raises exactly when the
    oracle does, at the same step (same message), and agrees with it
    otherwise."""
    nvars, t1, t2 = case
    (p, p0), (den, den0) = both(nvars, t1), both(nvars, t2)
    num, num0 = (p * den, p0 * den0) if multiply else (p, p0)
    if perturb:
        extra = tuple((perturb * k) % 5 - 2 for k in range(nvars))
        num = num + MPoly(nvars, {extra: perturb})
        num0 = num0 + TupleMPoly(nvars, {extra: perturb})
    try:
        expected = tuple_exact_div(num0, den0)
    except InexactDivision as err:
        with pytest.raises(InexactDivision) as caught:
            exact_div(num, den)
        assert str(caught.value) == str(err)
    else:
        assert exact_div(num, den).terms == expected.terms


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), term_dicts(2 * n, 5), st.booleans())))
def test_d_and_g_vectors_match_tuple_definitions(case):
    n, terms, plant = case
    if plant:
        terms = dict(terms)
        terms[tuple(range(n)) + (0,) * n] = 1
    p, p0 = both(2 * n, terms)
    if p.is_zero():
        with pytest.raises(ValueError):
            d_vector(p, n)
        return
    assert d_vector(p, n) == tuple_d_vector(p0, n)
    expected = tuple_g_vector(p0, n)
    if expected is None:
        with pytest.raises(InvariantViolation):
            g_vector(p, n)
    else:
        assert g_vector(p, n) == expected


def test_f_polynomials_match_tuple_collection():
    for cartan, n in ((cartan_of_type("A", 3), 3), (cartan_of_type("B", 3), 3),
                      (cartan_of_type("G", 2), 2)):
        for v in all_cluster_variables(cartan, tuple(range(1, n + 1))):
            collected = {}
            for e, c in v.terms.items():
                collected[e[n:]] = collected.get(e[n:], 0) + c
            assert f_polynomial(v, n).terms == collected


def test_division_that_would_descend_forever_stops_at_the_box():
    """Dividing x + 1/x by 1 + 1/x leaves remainders 2/x, -2/x^2, ... that
    never vanish; the quotient box [0, 1] in x cuts the descent off."""
    x = MPoly.monomial(2, (1, 0))
    x_inv = MPoly.monomial(2, (-1, 0))
    with pytest.raises(InexactDivision, match="exponent box"):
        exact_div(x + x_inv, MPoly.constant(2, 1) + x_inv)


def test_exponent_range_limits():
    lo, hi = -2 ** 14, 2 ** 14 - 1
    edge = MPoly(3, {(lo, hi, 0): 5})
    assert edge.terms == {(lo, hi, 0): 5}
    x = MPoly.monomial(3, (1, 0, 0))
    assert MPoly.monomial(3, (hi, 0, 0)) * MPoly.monomial(3, (lo, 0, 0)) == \
        MPoly.monomial(3, (-1, 0, 0))
    one_plus_z = MPoly.constant(3, 1) + MPoly.monomial(3, (0, 0, 1))
    assert exact_div(edge * one_plus_z, edge) == one_plus_z
    for bad in ((2 ** 40, 0, 0), (hi + 1, 0, 0), (0, lo - 1, 0)):
        with pytest.raises(ResourceLimit):
            MPoly.monomial(3, bad)
    with pytest.raises(ResourceLimit):
        MPoly(3, {(0, 0, hi + 1): 1, (0, 0, 0): 2})
    with pytest.raises(ResourceLimit):
        MPoly.monomial(3, (hi, 0, 0)) * x
    with pytest.raises(ResourceLimit):
        x ** 2 * MPoly.monomial(3, (hi - 1, 0, 0))
    with pytest.raises(ResourceLimit):
        exact_div(MPoly.monomial(3, (lo, 0, 0)), MPoly.monomial(3, (hi, 0, 0)))


def test_resource_limit_is_not_a_value_error():
    assert not issubclass(ResourceLimit, ValueError)
    with pytest.raises(ResourceLimit):
        MPoly.monomial(2, (2 ** 40, 0))


def test_exponent_tuples_must_match_the_variable_count():
    with pytest.raises(DimensionMismatch):
        MPoly(3, {(1, 0): 1})


def test_division_where_a_cancelled_key_comes_back():
    """(x^6 - 2x^5 - x^4 + x^3 + 4x^2 - x - 2) / (-x^3 + 2x^2 - 1): the
    first step cancels x^5 and the x^3 of the numerator, and the second
    brings x^3 back as -2x^3, so the heap holds a stale x^3 entry beside
    the live one and must still pop each leading term once."""
    den = MPoly(1, {(3,): -1, (2,): 2, (0,): -1})
    quotient = MPoly(1, {(3,): -1, (1,): 1, (0,): 2})
    num = quotient * den
    assert num.terms == {(6,): 1, (5,): -2, (4,): -1, (3,): 1, (2,): 4,
                         (1,): -1, (0,): -2}
    assert exact_div(num, den) == quotient
    oracle = tuple_exact_div(TupleMPoly(1, num.terms), TupleMPoly(1, den.terms))
    assert oracle.terms == quotient.terms


@pytest.mark.parametrize("num, den, message", [
    # leading coefficient 3 against 2
    ({(1, 0): 3, (0, 0): 1}, {(1, 0): 2, (0, 0): 1},
     "coefficient 3 not divisible by 2"),
    # the boxes alone rule a quotient out: y in the denominator only
    ({(1, 0): 1}, {(0, 1): 1, (0, 0): 1},
     "quotient would leave the exponent box"),
    # x^2 + 1 = (x + 1)(x - 1) + 2: the remainder 2 leaves the box [0, 1]
    ({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 1},
     "quotient would leave the exponent box"),
    ({(1, 0): 1}, {}, "division by zero polynomial"),
])
def test_inexact_divisions_keep_their_messages(num, den, message):
    with pytest.raises(InexactDivision) as caught:
        exact_div(MPoly(2, num), MPoly(2, den))
    assert str(caught.value) == message
