"""Coxeter elements and the sorting word of the longest element.

The sorting word is read off greedily from repeated copies of the chosen
Coxeter word; it is the backbone of the subword complex construction.
Each sorting word has one letter per positive root, and reflecting a simple
root along it gives the column of the longest element's matrix.
"""

from clusterbrick import (c_sorting_word, cartan_of_type, coxeter_words,
                          longest_element, positive_roots, reflect_root)

for family, rank in [("A", 3), ("B", 3)]:
    cartan = cartan_of_type(family, rank)
    w0 = longest_element(cartan)
    print(f"== {family}{rank}: longest element has length {len(positive_roots(cartan))} ==")
    for c in coxeter_words(cartan):
        word = c_sorting_word(cartan, c)
        assert len(word) == len(positive_roots(cartan))
        for t in range(rank):
            v = tuple(int(r == t) for r in range(rank))
            for s in reversed(word):
                v = reflect_root(cartan, s, v)
            assert v == tuple(row[t] for row in w0)
        print(f"c = {c}  sorting word = {word}")
    print()
