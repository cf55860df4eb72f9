"""The fraction-free integer core against a Fraction Gauss-Jordan oracle.

`fraction_gauss_jordan` is the elimination the package used before its
integer routine: kept here as the slow reference, never on a hot path.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbrick import roots
from clusterbrick.coxeter import det_int
from clusterbrick.errors import (InvalidCartanMatrix, InvariantViolation,
                                 NotInRootLattice)
from clusterbrick.roots import (CartanMatrix, _symmetrizer, cartan_of_type,
                                cartan_rows, det_adjugate, root_to_weight_coords,
                                weight_diff_to_root_coords)
from oracles import matrix_inverse, positive_definite_by_minors

TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
         ("C", 2), ("C", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7),
         ("E", 8), ("F", 4), ("G", 2)]


def fraction_gauss_jordan(matrix):
    """(det, inverse) over Fraction; the inverse is None when det is 0."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return det, [row[n:] for row in aug]


@st.composite
def integer_matrices(draw):
    """Square integer matrices up to 6x6; about half are made singular by
    replacing a row with an integer combination of the others."""
    n = draw(st.integers(1, 6))
    entries = st.integers(-4, 4)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        target = draw(st.integers(0, n - 1))
        others = [row for r, row in enumerate(rows) if r != target]
        rows[target] = [sum(a * row[c] for a, row in zip(coeffs, others))
                        for c in range(n)]
    return tuple(tuple(row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_det_adjugate_matches_fraction_oracle(matrix):
    det, adj = det_adjugate(matrix)
    ref_det, ref_inv = fraction_gauss_jordan(matrix)
    assert det == ref_det
    assert det_int(matrix) == det
    if det == 0:
        assert adj is None
    else:
        assert adj == tuple(tuple(det * x for x in row) for row in ref_inv)


@pytest.mark.parametrize("family,rank", TYPES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_weight_diff_matches_fraction_oracle(family, rank, data):
    cartan = cartan_of_type(family, rank)
    vectors = st.lists(st.integers(-6, 6), min_size=rank, max_size=rank).map(tuple)
    w2 = data.draw(vectors)
    if data.draw(st.booleans()):  # a difference that is in the root lattice
        beta = data.draw(vectors)
        w1 = tuple(a + b for a, b in zip(w2, root_to_weight_coords(cartan, beta)))
    else:
        w1 = data.draw(vectors)
    _, inv = fraction_gauss_jordan(cartan.rows)
    diff = [a - b for a, b in zip(w1, w2)]
    expected = [sum(x * y for x, y in zip(row, diff)) for row in inv]
    if all(x.denominator == 1 for x in expected):
        assert weight_diff_to_root_coords(cartan, w1, w2) == tuple(expected)
    else:
        with pytest.raises(NotInRootLattice):
            weight_diff_to_root_coords(cartan, w1, w2)


@st.composite
def cartan_candidates(draw):
    """Matrices with diagonal 2, nonpositive off-diagonal entries, symmetric
    zero pattern and entry products at most 3: finite, affine, indefinite
    and non-symmetrizable ones all occur."""
    n = draw(st.integers(1, 5))
    rows = [[2 if r == c else 0 for c in range(n)] for r in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            a, b = draw(st.sampled_from([(0, 0), (-1, -1), (-1, -2), (-2, -1),
                                         (-1, -3), (-3, -1)]))
            rows[r][c], rows[c][r] = a, b
    return tuple(tuple(row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(cartan_candidates())
def test_cartan_validation_matches_fraction_minors(rows):
    n = len(rows)
    d = _symmetrizer(rows)
    symmetric = all(d[s] * rows[s][t] == d[t] * rows[t][s]
                    for s in range(n) for t in range(n))
    finite = symmetric and all(
        fraction_gauss_jordan([[d[s] * rows[s][t] for t in range(k)]
                               for s in range(k)])[0] > 0
        for k in range(1, n + 1))
    if finite:
        assert CartanMatrix(rows).rows == rows
    else:
        with pytest.raises(InvalidCartanMatrix):
            CartanMatrix(rows)


AFFINE_A2 = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
# affine A2 with a tail: the third leading minor is 0 but the matrix is not
# singular, so elimination swaps rows there and goes on
AFFINE_A2_TAIL = ((2, -1, -1, 0), (-1, 2, -1, 0), (-1, -1, 2, -1), (0, 0, -1, 2))


@pytest.mark.parametrize("rows", [
    *(cartan_rows(f, r) for f, r in TYPES), cartan_rows("A", 12),
    AFFINE_A2, AFFINE_A2_TAIL,
    ((2, 0, -1, 0), (0, 2, -1, 0), (-1, -1, 2, -1), (0, 0, -2, 2)),     # affine B3
    ((2, -1, 0), (-1, 2, -1), (0, -3, 2)),                               # affine G2
    ((2, 0, 0, 0, -1), (0, 2, 0, 0, -1), (0, 0, 2, 0, -1), (0, 0, 0, 2, -1),
     (-1, -1, -1, -1, 2)),                                                # affine D4
])
def test_one_elimination_decides_positive_definiteness(monkeypatch, rows):
    calls = []
    eliminate = roots._eliminate

    def counting(matrix, right):
        calls.append(len(matrix))
        return eliminate(matrix, right)

    monkeypatch.setattr(roots, "_eliminate", counting)
    try:
        CartanMatrix(rows)
        finite = True
    except InvalidCartanMatrix as err:
        assert "not positive definite" in str(err)
        finite = False
    assert calls == [len(rows)]
    monkeypatch.undo()
    assert finite == positive_definite_by_minors(rows)


def test_a_zero_leading_minor_is_met_at_the_row_swap():
    d = _symmetrizer(AFFINE_A2_TAIL)
    sym = [[d[s] * a for a in row] for s, row in enumerate(AFFINE_A2_TAIL)]
    sign, met, _ = roots._eliminate(sym, [()] * 4)
    assert met == [1, 2, 3, 0, 3] and sign == -1 and det_int(sym) == -3


@pytest.mark.parametrize("family,rank", TYPES)
def test_symmetrizer_is_positive_integers(family, rank):
    rows = cartan_of_type(family, rank).rows
    d = _symmetrizer(rows)
    assert all(type(x) is int and x > 0 for x in d)
    assert all(d[s] * rows[s][t] == d[t] * rows[t][s]
               for s in range(rank) for t in range(rank))


def test_package_imports_no_fractions():
    """The engine is integer-only: no module of the package imports
    `fractions` (the tests may, for their oracles).  The seed side does not
    depend on the polytope layer: `cluster` imports nothing from it."""
    sources = sorted((Path(__file__).resolve().parents[1] / "src" /
                      "clusterbrick").glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        forbidden = {"fractions"} | ({"polytope"} if path.name == "cluster.py" else set())
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # `from . import polytope` names the module only as an alias
                modules = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(forbidden & set(m.split(".")) for m in modules):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_the_empty_matrix_has_determinant_one():
    assert det_int(()) == 1
    assert det_adjugate(()) == (1, ())


def test_det_adjugate_rejects_non_square():
    with pytest.raises(ValueError):
        det_adjugate(((1, 2),))


@pytest.mark.parametrize("matrix", [((2, 1), (0, 1)), ((1, 1), (1, -1))])
def test_matrix_inverse_rejects_determinant_two(matrix):
    assert abs(det_int(matrix)) == 2
    with pytest.raises(InvariantViolation):
        matrix_inverse(matrix)


def test_matrix_inverse_of_unimodular():
    m = ((0, 1, 2), (1, 0, 3), (0, 0, 1))  # needs a row swap; det -1
    assert det_int(m) == -1
    inv = matrix_inverse(m)
    assert [[sum(m[r][k] * inv[k][c] for k in range(3)) for c in range(3)]
            for r in range(3)] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
