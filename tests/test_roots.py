"""Cartan matrices, reflections, coordinate changes, positive roots."""

import pytest

from clusterbrick.errors import (InvalidCartanMatrix, InvalidCartanType,
                                 NotInRootLattice)
from clusterbrick.roots import (CartanMatrix, cartan_of_type, coroot_of_root,
                                degrees, height, positive_roots,
                                reflect_coroot, reflect_root, reflect_weight,
                                root_to_weight_coords, transpose, w_catalan,
                                weight_diff_to_root_coords)
from oracles import pair

FAMILIES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
            ("C", 2), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)]


def test_cartan_entries():
    assert cartan_of_type("A", 2).rows == ((2, -1), (-1, 2))
    assert cartan_of_type("B", 2).rows == ((2, -1), (-2, 2))
    assert cartan_of_type("C", 2).rows == ((2, -2), (-1, 2))
    assert cartan_of_type("G", 2).rows == ((2, -1), (-3, 2))
    assert cartan_of_type("B", 3).rows == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert cartan_of_type("C", 3).rows == transpose(cartan_of_type("B", 3)).rows
    assert cartan_of_type("D", 4).rows == (
        (2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
    assert cartan_of_type("F", 4).rows == (
        (2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))


def test_cartan_validation_rejects():
    # affine A1 tilde: symmetrizable but not positive definite
    with pytest.raises(InvalidCartanMatrix):
        CartanMatrix(((2, -2), (-2, 2)))
    # affine A2 tilde: leading minors 2 and 3, then 0
    with pytest.raises(InvalidCartanMatrix, match="not positive definite"):
        CartanMatrix(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))
    # entry product 4 exceeds the finite bound
    with pytest.raises(InvalidCartanMatrix):
        CartanMatrix(((2, -1), (-4, 2)))
    # zero pattern must be symmetric
    with pytest.raises(InvalidCartanMatrix):
        CartanMatrix(((2, 0), (-1, 2)))
    with pytest.raises(InvalidCartanMatrix):
        CartanMatrix(((1, 0), (0, 2)))
    with pytest.raises(InvalidCartanMatrix):
        CartanMatrix(((2, 1), (1, 2)))
    with pytest.raises(InvalidCartanType):
        cartan_of_type("H", 3)
    with pytest.raises(InvalidCartanType):
        cartan_of_type("E", 5)


def test_reflections_A2():
    A2 = cartan_of_type("A", 2)
    assert reflect_root(A2, 1, (1, 0)) == (-1, 0)
    assert reflect_root(A2, 1, (0, 1)) == (1, 1)
    assert reflect_weight(A2, 1, (1, 0)) == (-1, 1)
    assert reflect_weight(A2, 1, (0, 1)) == (0, 1)
    # involution on a spread of vectors
    for v in [(1, 0), (0, 1), (2, -3), (5, 7)]:
        for s in (1, 2):
            assert reflect_root(A2, s, reflect_root(A2, s, v)) == v
            assert reflect_weight(A2, s, reflect_weight(A2, s, v)) == v


@pytest.mark.parametrize("reflect", [reflect_root, reflect_weight, reflect_coroot])
def test_reflection_index_must_be_an_int(reflect):
    A2 = cartan_of_type("A", 2)
    for s in (True, 1.0):
        with pytest.raises(TypeError, match="not an int"):
            reflect(A2, s, (1, 0))
    with pytest.raises(ValueError, match="out of range"):
        reflect(A2, 0, (1, 0))


def test_reflect_coroot_matches_transpose():
    B2 = cartan_of_type("B", 2)
    C2 = transpose(B2)
    for v in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        for s in (1, 2):
            assert reflect_coroot(B2, s, v) == reflect_root(C2, s, v)


def test_pair_against_cartan_entries():
    for family, rank in FAMILIES:
        cartan = cartan_of_type(family, rank)
        for s in range(rank):
            for t in range(rank):
                root = tuple(1 if k == t else 0 for k in range(rank))
                coroot = tuple(1 if k == s else 0 for k in range(rank))
                assert pair(cartan, root, coroot) == cartan.rows[s][t]


def test_root_to_weight_and_back():
    for family, rank in FAMILIES:
        cartan = cartan_of_type(family, rank)
        for beta in positive_roots(cartan):
            w = root_to_weight_coords(cartan, beta)
            assert weight_diff_to_root_coords(cartan, w, (0,) * rank) == beta


def test_fundamental_weight_not_in_root_lattice():
    A2 = cartan_of_type("A", 2)
    with pytest.raises(NotInRootLattice):
        weight_diff_to_root_coords(A2, (1, 0), (0, 0))


def test_positive_roots_goldens():
    assert positive_roots(cartan_of_type("A", 2)) == ((0, 1), (1, 0), (1, 1))
    assert positive_roots(cartan_of_type("B", 2)) == (
        (0, 1), (1, 0), (1, 1), (1, 2))
    assert positive_roots(cartan_of_type("G", 2)) == (
        (0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3))
    assert positive_roots(cartan_of_type("A", 3)) == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1))


def test_positive_root_counts():
    expected = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
                ("B", 2): 4, ("B", 3): 9, ("C", 2): 4, ("C", 3): 9,
                ("D", 4): 12, ("E", 6): 36, ("F", 4): 24, ("G", 2): 6}
    for key, count in expected.items():
        assert len(positive_roots(cartan_of_type(*key))) == count


def test_positive_roots_sorted_by_height():
    for family, rank in FAMILIES:
        pos = positive_roots(cartan_of_type(family, rank))
        heights = [height(b) for b in pos]
        assert heights == sorted(heights)
        assert len(set(pos)) == len(pos)


def test_coroot_pairing_is_two():
    for family, rank in FAMILIES:
        cartan = cartan_of_type(family, rank)
        table = coroot_of_root(cartan)
        pos = positive_roots(cartan)
        # the table covers the whole root system, positives and negatives
        assert set(table) == set(pos) | {
            tuple(-x for x in b) for b in pos}
        for beta, beta_co in table.items():
            assert pair(cartan, beta, beta_co) == 2
            neg = tuple(-x for x in beta)
            assert table[neg] == tuple(-x for x in beta_co)


def test_coroot_goldens_B2():
    table = coroot_of_root(cartan_of_type("B", 2))
    assert table[(1, 1)] == (2, 1)
    assert table[(1, 2)] == (1, 1)
    assert table[(1, 0)] == (1, 0)
    assert table[(0, 1)] == (0, 1)


def test_coroots_are_roots_of_transpose():
    for family, rank in FAMILIES:
        cartan = cartan_of_type(family, rank)
        table = coroot_of_root(cartan)
        pos_co = {table[b] for b in positive_roots(cartan)}
        assert pos_co == set(positive_roots(transpose(cartan)))


def test_degrees_and_coxeter_number():
    assert degrees("A", 3) == (2, 3, 4)
    assert degrees("B", 3) == (2, 4, 6)
    assert degrees("D", 4) == (2, 4, 4, 6)
    assert degrees("E", 6) == (2, 5, 6, 8, 9, 12)
    assert degrees("F", 4) == (2, 6, 8, 12)
    assert degrees("G", 2) == (2, 6)
    assert max(degrees("A", 2)) == 3
    assert max(degrees("D", 4)) == 6
    # the degree list must multiply out to the Weyl group order:
    # number of positive roots equals sum of (d_i - 1)
    for family, rank in FAMILIES:
        ds = degrees(family, rank)
        assert sum(d - 1 for d in ds) == len(
            positive_roots(cartan_of_type(family, rank)))
        # the Coxeter number h is the largest degree, and 2N = n h
        assert 2 * sum(d - 1 for d in ds) == rank * max(ds)


def test_w_catalan_goldens():
    expected = {("A", 2): 5, ("A", 3): 14, ("A", 4): 42, ("B", 2): 6,
                ("B", 3): 20, ("C", 3): 20, ("D", 4): 50, ("G", 2): 8,
                ("F", 4): 105, ("E", 6): 833, ("E", 7): 4160, ("E", 8): 25080}
    for (family, rank), value in expected.items():
        assert w_catalan(family, rank) == value


@pytest.mark.parametrize("fn, family, rank", [
    (cartan_of_type, "A", True), (w_catalan, "A", True),
    (w_catalan, "E", 6.0), (degrees, "A", 2.0)])
def test_rank_must_be_an_int(fn, family, rank):
    with pytest.raises(InvalidCartanType):
        fn(family, rank)
