"""Facets of the subword complex, root and weight functions, flips, bricks."""

from itertools import combinations

import pytest

from clusterbrick.roots import cartan_of_type, coroot_of_root, positive_roots
from clusterbrick.coxeter import coxeter_words
from clusterbrick.errors import InvariantViolation
from clusterbrick.subword import (ClusterComplex, RootTable, antigreedy_facet, brick_vector,
                                  build_complex, enumerate_facets,
                                  enumerate_facets_with_tables, flip,
                                  greedy_facet, is_facet, root_table,
                                  update_after_flip)
from oracles import (brute_force_facets, coroot_function, root_function,
                     weight_function)

A2 = cartan_of_type("A", 2)
A3 = cartan_of_type("A", 3)
B2 = cartan_of_type("B", 2)


def test_word_and_position_roots_A2():
    cx = build_complex(A2, (1, 2))
    assert cx.word == (1, 2, 1, 2, 1)
    assert cx.m == 5
    assert cx.pos_root == ((-1, 0), (0, -1), (1, 0), (1, 1), (0, 1))


def test_facets_A2():
    cx = build_complex(A2, (1, 2))
    assert enumerate_facets(cx) == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
    assert greedy_facet(cx) == (1, 2)
    assert antigreedy_facet(cx) == (4, 5)


def test_is_facet():
    cx = build_complex(A2, (1, 2))        # word 1 2 1 2 1
    assert is_facet(cx, (3, 4))
    # complements 1 1 1 and 2 2 1 repeat a letter, so they are not reduced
    assert not is_facet(cx, (2, 4))
    assert not is_facet(cx, (1, 3))
    assert not is_facet(cx, (3,))
    # the complement 1 2 of (1, 2) in the word 1 2 1 2 is one letter short of w0
    assert not is_facet(ClusterComplex(A2, (1, 2), (1, 2, 1, 2), ()), (1, 2))


def test_is_facet_rejects_a_position_that_is_not_an_int():
    cx = build_complex(A2, (1, 2))
    for positions in ((True, 2), (1.0, 2)):
        with pytest.raises(TypeError, match="not an int"):
            is_facet(cx, positions)


@pytest.mark.parametrize("fn, args", [
    (flip, ((1, 3), 1)),            # flip used to answer ((3, 5), 5)
    (brick_vector, ((0, 9),)),      # brick_vector used to answer (-1, 1)
    (root_table, ((1, 1),)),
    (root_table, ((1, 3),)),        # distinct and in range, complement 2 2 1
    (root_table, ((3,),)),
    (root_table, ((3, 4, 5),)),
    (brick_vector, ((5, 6),)),
    (flip, ((0, 2), 2)),
], ids=lambda x: getattr(x, "__name__", repr(x)))
def test_non_facets_are_refused(fn, args):
    cx = build_complex(A2, (1, 2))        # word 1 2 1 2 1
    with pytest.raises(ValueError, match="is not a facet"):
        fn(cx, *args)


@pytest.mark.parametrize("cartan, c", [(A2, (2, 1)), (A3, (2, 1, 3)), (B2, (1, 2))])
def test_root_table_accepts_exactly_the_facets(cartan, c):
    cx = build_complex(cartan, c)
    for positions in combinations(range(0, cx.m + 2), cx.n):
        try:
            root_table(cx, positions)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == is_facet(cx, positions), positions


def test_antigreedy_needs_a_reduced_word_for_the_longest_element():
    # 1 1 2 2 holds neither 1 2 1 nor 2 1 2
    broken = ClusterComplex(A2, (1, 2), (1, 1, 2, 2), ())
    with pytest.raises(InvariantViolation, match="did not absorb a longest word"):
        antigreedy_facet(broken)


def test_root_row_golden():
    cx = build_complex(A2, (1, 2))
    table = root_table(cx, (3, 4))
    assert table.roots == ((1, 0), (1, 1), (0, 1), (-1, -1), (0, 1))
    assert root_function(cx, (3, 4), 3) == (0, 1)
    assert root_function(cx, (3, 4), 4) == (-1, -1)


def test_brick_vectors_A2():
    cx = build_complex(A2, (1, 2))
    expected = {(1, 2): (1, 3), (1, 5): (3, -1), (2, 3): (-1, 4),
                (3, 4): (-2, 3), (4, 5): (-1, 1)}
    for facet, brick in expected.items():
        assert brick_vector(cx, facet) == brick


def test_flip_goldens_A2():
    cx = build_complex(A2, (1, 2))
    assert flip(cx, (1, 2), 1) == ((2, 3), 3)
    assert flip(cx, (1, 2), 2) == ((1, 5), 5)
    assert flip(cx, (3, 4), 4) == ((2, 3), 2)
    assert flip(cx, (4, 5), 4) == ((1, 5), 1)


def test_flip_without_a_partner_raises():
    cx = build_complex(A2, (1, 2))
    # the partner of position 1 is position 3, the only complement alpha_1
    table = root_table(cx, (1, 2))
    broken = RootTable(table.roots[:2] + ((0, 1),) + table.roots[3:], table.weights)
    with pytest.raises(InvariantViolation, match="no flip partner"):
        flip(cx, (1, 2), 1, broken)


def test_flip_is_involution():
    for cartan in (A2, B2, A3):
        for c in coxeter_words(cartan):
            cx = build_complex(cartan, c)
            for facet in enumerate_facets(cx):
                for i in facet:
                    other, j = flip(cx, facet, i)
                    back, k = flip(cx, other, j)
                    assert back == facet and k == i


def test_flip_requires_facet_position():
    cx = build_complex(A2, (1, 2))
    with pytest.raises(ValueError):
        flip(cx, (1, 2), 3)
    # True == 1 is in the facet, but a position is an int
    for i in (True, 1.0):
        with pytest.raises(TypeError, match="not an int"):
            flip(cx, (1, 2), i)


def test_update_after_flip_matches_direct():
    for cartan, c in [(A2, (1, 2)), (B2, (1, 2)), (B2, (2, 1)),
                      (A3, (1, 3, 2))]:
        cx = build_complex(cartan, c)
        for facet in enumerate_facets(cx):
            table = root_table(cx, facet)
            for i in facet:
                other, j = flip(cx, facet, i, table)
                updated = update_after_flip(cx, i, j, table)
                assert updated == root_table(cx, other)


def test_facets_A3_golden():
    cx = build_complex(A3, (1, 3, 2))
    assert cx.word == (1, 3, 2, 1, 3, 2, 1, 3, 2)
    assert cx.pos_root[3:] == ((1, 0, 0), (0, 0, 1), (1, 1, 1),
                               (0, 1, 1), (1, 1, 0), (0, 1, 0))
    assert enumerate_facets(cx) == (
        (1, 2, 3), (1, 2, 9), (1, 3, 5), (1, 5, 7), (1, 7, 9),
        (2, 3, 4), (2, 4, 8), (2, 8, 9), (3, 4, 5), (4, 5, 6),
        (4, 6, 8), (5, 6, 7), (6, 7, 8), (7, 8, 9))


def test_antigreedy_needs_a_sweep():
    # the last n positions are not always a facet: here the tail spells
    # a non-reduced double copy of c, and the sweep must skip earlier
    cx = build_complex(A3, (1, 2, 3))
    assert antigreedy_facet(cx) == (6, 8, 9)
    assert is_facet(cx, antigreedy_facet(cx))


def test_greedy_antigreedy_all_small_types():
    for cartan in (A2, B2, A3, cartan_of_type("G", 2)):
        for c in coxeter_words(cartan):
            cx = build_complex(cartan, c)
            facets = enumerate_facets(cx)
            assert greedy_facet(cx) == min(facets)
            assert antigreedy_facet(cx) == max(facets)


def test_brute_force_agrees_with_enumeration():
    for cartan in (A2, B2, cartan_of_type("G", 2), A3,
                   cartan_of_type("B", 3)):
        for c in coxeter_words(cartan):
            cx = build_complex(cartan, c)
            assert sorted(brute_force_facets(cx)) == sorted(
                enumerate_facets(cx))


def test_complement_roots_cover_positives():
    for cartan in (A2, B2, A3):
        for c in coxeter_words(cartan):
            cx = build_complex(cartan, c)
            pos = sorted(positive_roots(cartan))
            for facet in enumerate_facets(cx):
                table = root_table(cx, facet)
                outside = sorted(table.roots[k - 1]
                                 for k in range(1, cx.m + 1)
                                 if k not in facet)
                assert outside == pos


def test_roots_at_facet_positions_form_sign_coherent_columns():
    # each facet position carries a root whose entries share a sign
    for c in coxeter_words(A3):
        cx = build_complex(A3, c)
        for facet, table in enumerate_facets_with_tables(cx).items():
            for i in facet:
                entries = table.roots[i - 1]
                assert all(x >= 0 for x in entries) or all(
                    x <= 0 for x in entries)


def test_pointwise_functions_match_table():
    # the coroots derived from the root row differ from it in B, G and F,
    # and agree with it in the simply laced D4
    for cartan, c in [(B2, (1, 2)), (cartan_of_type("G", 2), (2, 1)),
                      (cartan_of_type("B", 3), (3, 1, 2)),
                      (cartan_of_type("D", 4), (1, 2, 3, 4)),
                      (cartan_of_type("F", 4), (1, 2, 3, 4))]:
        cx = build_complex(cartan, c)
        coroot = coroot_of_root(cartan)
        for facet in enumerate_facets(cx):
            table = root_table(cx, facet)
            coroots = tuple(coroot[beta] for beta in table.roots)
            for k in range(1, cx.m + 1):
                assert weight_function(cx, facet, k) == table.weights[k - 1]
                assert root_function(cx, facet, k) == table.roots[k - 1]
                assert coroot_function(cx, facet, k) == coroots[k - 1]
            simply_laced = cartan.rows == tuple(zip(*cartan.rows))
            assert (coroots == table.roots) == simply_laced


def test_coroot_function_pairs_to_two():
    from oracles import pair
    for cartan, c in [(A2, (1, 2)), (B2, (1, 2)), (B2, (2, 1))]:
        cx = build_complex(cartan, c)
        for facet in enumerate_facets(cx):
            for k in range(1, cx.m + 1):
                beta = root_function(cx, facet, k)
                assert pair(cartan, beta, coroot_function(cx, facet, k)) == 2


def test_facet_counts_match_catalan_numbers():
    from clusterbrick.roots import w_catalan
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                         ("G", 2), ("C", 3)]:
        cartan = cartan_of_type(family, rank)
        for c in coxeter_words(cartan):
            cx = build_complex(cartan, c)
            assert len(enumerate_facets(cx)) == w_catalan(family, rank)
