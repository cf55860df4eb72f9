"""The ascent to the longest element and the sorting word, against the
Weyl group as matrices; reduced words and prefixes."""

import functools
import itertools

import pytest

from clusterbrick.cluster import initial_matrix
from clusterbrick.roots import cartan_of_type, positive_roots
from clusterbrick.typea import triangulation_of_coxeter
from clusterbrick.coxeter import (ascent_to_w0, c_sorting_word,
                                  canonical_commutation_word, coxeter_words,
                                  longest_element, restricted_prefixes)
from oracles import (apply_matrix, element_of_word, identity_matrix, is_reduced,
                     length, longest_element_by_matrices, mat_mul,
                     reflection_matrices, word_action_root, word_action_weight)


def group_elements(cartan):
    """All Weyl group elements with their lengths, by breadth-first search."""
    gens = reflection_matrices(cartan)
    seen = {identity_matrix(cartan.n): 0}
    frontier = [identity_matrix(cartan.n)]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for g in frontier:
            for s in gens:
                h = mat_mul(g, s)
                if h not in seen:
                    seen[h] = depth
                    nxt.append(h)
        frontier = nxt
    return seen


def test_braid_relation_A2():
    A2 = cartan_of_type("A", 2)
    assert element_of_word(A2, (1, 2, 1)) == element_of_word(A2, (2, 1, 2))
    assert element_of_word(A2, (1, 2)) != element_of_word(A2, (2, 1))


def test_length_matches_group_search():
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)]:
        cartan = cartan_of_type(family, rank)
        table = group_elements(cartan)
        for g, depth in table.items():
            assert length(cartan, g) == depth


def test_group_orders():
    orders = {("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("B", 3): 48,
              ("G", 2): 12, ("D", 4): 192}
    for (family, rank), order in orders.items():
        assert len(group_elements(cartan_of_type(family, rank))) == order


def test_longest_element():
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("G", 2), ("D", 4)]:
        cartan = cartan_of_type(family, rank)
        w0 = longest_element(cartan)
        assert w0 == longest_element_by_matrices(cartan)
        assert mat_mul(w0, w0) == identity_matrix(rank)
        assert length(cartan, w0) == len(positive_roots(cartan))
        # w0 sends every positive root to a negative one
        for beta in positive_roots(cartan):
            assert all(x <= 0 for x in apply_matrix(w0, beta))


def test_is_reduced():
    A2 = cartan_of_type("A", 2)
    assert is_reduced(A2, ())
    assert is_reduced(A2, (1,))
    assert is_reduced(A2, (1, 2, 1))
    assert not is_reduced(A2, (1, 1))
    assert not is_reduced(A2, (1, 2, 1, 2))


def test_word_actions_match_matrices():
    B2 = cartan_of_type("B", 2)
    mats = reflection_matrices(B2)
    for word in itertools.product((1, 2), repeat=3):
        m = element_of_word(B2, word)
        for v in [(1, 0), (0, 1), (2, -1)]:
            assert word_action_root(B2, word, v) == apply_matrix(m, v)
    # weight action of a reflection is an involution as well
    for v in [(1, 0), (0, 1), (3, -2)]:
        assert word_action_weight(B2, (1, 1), v) == v


def test_sorting_word_goldens():
    A2 = cartan_of_type("A", 2)
    assert c_sorting_word(A2, (1, 2)) == (1, 2, 1)
    assert c_sorting_word(A2, (2, 1)) == (2, 1, 2)
    A3 = cartan_of_type("A", 3)
    assert c_sorting_word(A3, (1, 3, 2)) == (1, 3, 2, 1, 3, 2)
    assert c_sorting_word(A3, (1, 2, 3)) == (1, 2, 3, 1, 2, 1)


@pytest.mark.parametrize("c", [(1,), (1, 1), (1, 2, 3)])
def test_sorting_word_rejects_a_c_that_is_not_a_permutation(c):
    with pytest.raises(ValueError, match="not a permutation"):
        c_sorting_word(cartan_of_type("A", 2), c)


WORD_CHECKS = {
    "c_sorting_word": functools.partial(c_sorting_word, cartan_of_type("A", 2)),
    "initial_matrix": functools.partial(initial_matrix, cartan_of_type("A", 2)),
    "triangulation_of_coxeter": triangulation_of_coxeter,
}


@pytest.mark.parametrize("c, error", [
    ((True, 2), TypeError), ((1.0, 2), TypeError),
    ((1, 1), ValueError), ((1, 2, 3), ValueError)])
@pytest.mark.parametrize("caller", sorted(WORD_CHECKS))
def test_coxeter_words_are_checked_alike(caller, c, error):
    """Letters must be ints, bools excluded, forming a permutation of 1..n.
    n is the rank of A2 for two callers and len(c) for a triangulation, to
    which (1, 2, 3) is a valid A3 word, so (1, 3) stands in for it."""
    if caller == "triangulation_of_coxeter" and c == (1, 2, 3):
        c = (1, 3)
    with pytest.raises(error, match="not an int" if error is TypeError
                       else "not a permutation"):
        WORD_CHECKS[caller](c)


def test_ascent_takes_each_lengthening_letter_and_stops_at_w0():
    A2 = cartan_of_type("A", 2)
    assert ascent_to_w0(A2, (1, 2, 1)) == [0, 1, 2]
    assert ascent_to_w0(A2, (1, 1, 2, 2, 1, 2)) == [0, 2, 4]
    # a reduced word one letter short of w0, and a word holding no reduced
    # word for w0, never reach it
    assert ascent_to_w0(A2, (1, 2)) is None
    assert ascent_to_w0(A2, (1, 1, 2, 2)) is None
    # letters after w0 are not read
    assert ascent_to_w0(A2, itertools.chain((2, 1, 2), itertools.repeat(0))) == [0, 1, 2]


def greedy_embedding(word, c):
    """Positions of the leftmost embedding of `word` into c repeated."""
    positions = []
    cursor = 0
    for letter in word:
        while c[cursor % len(c)] != letter:
            cursor += 1
        positions.append(cursor)
        cursor += 1
    return tuple(positions)


def all_reduced_words(cartan, g):
    """Every reduced word for g, by peeling length-decreasing letters."""
    if length(cartan, g) == 0:
        return [()]
    words = []
    mats = reflection_matrices(cartan)
    for s in range(1, cartan.n + 1):
        h = mat_mul(mats[s - 1], g)
        if length(cartan, h) < length(cartan, g):
            words.extend((s,) + rest for rest in all_reduced_words(cartan, h))
    return words


def test_sorting_word_properties():
    for family, rank in [("A", 3), ("B", 3), ("D", 4)]:
        cartan = cartan_of_type(family, rank)
        w0 = longest_element_by_matrices(cartan)
        for c in coxeter_words(cartan):
            word = c_sorting_word(cartan, c)
            assert is_reduced(cartan, word)
            assert element_of_word(cartan, word) == w0
            # blocks cut at copy boundaries of c have nested supports
            positions = greedy_embedding(word, c)
            blocks = {}
            for letter, p in zip(word, positions):
                blocks.setdefault(p // rank, set()).add(letter)
            for k in range(len(blocks) - 1):
                assert blocks[k + 1] <= blocks[k]


def test_sorting_word_is_first_embedding():
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        cartan = cartan_of_type(family, rank)
        w0 = longest_element_by_matrices(cartan)
        for c in coxeter_words(cartan):
            best = min(all_reduced_words(cartan, w0),
                       key=lambda w: greedy_embedding(w, c))
            assert c_sorting_word(cartan, c) == best


def test_restricted_prefixes_rejects_bad_interval():
    with pytest.raises(ValueError):
        restricted_prefixes((1, 2), 2, 1)
    with pytest.raises(ValueError):
        restricted_prefixes((1, 2), 0, 1)


def test_canonical_commutation_word():
    assert canonical_commutation_word((3, 1, 2)) == (1, 3, 2)
    assert canonical_commutation_word((2, 1, 3)) == (2, 1, 3)
    assert canonical_commutation_word((1, 3, 2)) == (1, 3, 2)


def test_coxeter_words_counts():
    # one word per Coxeter element; the diagram is a tree with rank-1
    # edges, so there are 2^(rank-1) elements in the irreducible types
    counts = {("A", 1): 1, ("A", 2): 2, ("A", 3): 4, ("A", 4): 8,
              ("B", 3): 4, ("D", 4): 8, ("F", 4): 8}
    for (family, rank), count in counts.items():
        cartan = cartan_of_type(family, rank)
        words = coxeter_words(cartan)
        assert len(words) == count
        elements = {element_of_word(cartan, w) for w in words}
        assert len(elements) == count
        for w in words:
            assert sorted(w) == list(range(1, rank + 1))
            if family == "A":
                # the commutation-canonical form is a type A notion
                assert canonical_commutation_word(w) == w


def test_restricted_prefixes_goldens():
    assert restricted_prefixes((1, 3, 2), 1, 3) == (
        (), (1,), (3,), (1, 3), (1, 3, 2))
    assert restricted_prefixes((1, 3, 2), 2, 3) == ((), (3,), (3, 2))
    assert restricted_prefixes((3, 1, 2), 1, 2) == ((), (1,), (1, 2))
    assert restricted_prefixes((1, 2), 1, 1) == ((), (1,))


def order_ideal_letter_sets(word):
    """Letter sets of prefixes of `word` in the commutation order.

    A letter can be taken once every earlier adjacent letter (difference
    one) has been taken, so the reachable sets are the order ideals of
    the precedence relation.
    """
    ideals = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        current = frontier.pop()
        for pos, letter in enumerate(word):
            if letter in current:
                continue
            blockers = [q for q in word[:pos] if abs(q - letter) == 1]
            if all(q in current for q in blockers):
                grown = current | {letter}
                if grown not in ideals:
                    ideals.add(grown)
                    frontier.append(grown)
    return ideals


def test_restricted_prefixes_match_order_ideals():
    for rank in (2, 3, 4):
        cartan = cartan_of_type("A", rank)
        for c in coxeter_words(cartan):
            for i in range(1, rank + 1):
                for j in range(i, rank + 1):
                    window = tuple(q for q in c if i <= q <= j)
                    got = {frozenset(p) for p in restricted_prefixes(c, i, j)}
                    assert got == order_ideal_letter_sets(window)
                    # sets determine prefixes: no two prefixes share one
                    assert len(got) == len(restricted_prefixes(c, i, j))
