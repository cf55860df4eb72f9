"""Reflection tables: root reflections and pairings as lookups, weight images
memoized, one object per vector value across a walk."""

import os
import random
import subprocess
import sys
import threading
from operator import mul
from pathlib import Path

import pytest

from clusterbrick.coxeter import coxeter_words
from clusterbrick.roots import (ReflectionTables, cartan_of_type, coroot_of_root,
                                reflection_tables, root_to_weight_coords)
from clusterbrick.subword import (build_complex, enumerate_facets,
                                  enumerate_facets_with_tables, flip,
                                  root_table, update_after_flip)
from oracles import coroot_of_root_by_reflections, pair, reflection_tables_by_formula

ROOT = Path(__file__).resolve().parents[1]
TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
         ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6)]
ROOT_TYPES = TYPES + [("B", 5), ("C", 4), ("D", 5), ("E", 7), ("E", 8)]
EVERY_TYPE_TO_RANK_8 = [(family, rank) for family, ranks in (
    ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)), ("D", range(4, 9)),
    ("E", range(6, 9)), ("F", (4,)), ("G", (2,))) for rank in ranks]


@pytest.mark.parametrize("family,rank", ROOT_TYPES)
def test_root_tables_match_the_formula(family, rank):
    cartan = cartan_of_type(family, rank)
    coroot = coroot_of_root(cartan)
    tables = reflection_tables(cartan)
    assert set(tables.reflect) == set(tables.pairing) == set(coroot)
    for beta, beta_co in coroot.items():
        assert tables.negative[beta] == tuple(-x for x in beta)
        assert tables.pool[tables.negative[beta]] is tables.negative[beta]
        for x in coroot:
            p = pair(cartan, x, beta_co)
            image = tuple(a - p * b for a, b in zip(x, beta))
            assert tables.pairing[beta][x] == p
            assert tables.reflect[beta][x] == image
            assert tables.pool[image] is tables.reflect[beta][x]


@pytest.mark.parametrize("family,rank", EVERY_TYPE_TO_RANK_8)
def test_tables_and_coroots_equal_their_oracles(family, rank):
    """Key by key against the constructions that compute every entry, and
    every root a table hands out, as key or value, is the pool's object."""
    cartan = cartan_of_type(family, rank)
    coroot = coroot_of_root(cartan)
    assert coroot == coroot_of_root_by_reflections(cartan)
    tables = ReflectionTables(cartan)       # fresh: its pool holds roots only
    assert ((tables.pool, tables.negative, tables.pairing, tables.reflect)
            == reflection_tables_by_formula(cartan))
    pool = tables.pool
    assert set(tables.weight_images) == set(coroot)
    for beta in coroot:
        minus = tables.negative[beta]
        assert pool[beta] is beta and pool[minus] is minus
        assert tables.reflect[beta] is tables.reflect[minus]
        assert tables.weight_images[beta] is tables.weight_images[minus]
        assert all(pool[x] is x for x in tables.pairing[beta])
        assert all(pool[x] is x and pool[y] is y for x, y in tables.reflect[beta].items())
    # the fundamental weights, fixed by some reflections and moved by others,
    # and rho, which every reflection moves
    weights = [tuple(int(t == s) for t in range(rank)) for s in range(rank)] + [(1,) * rank]
    for beta, beta_co in coroot.items():
        beta_w = root_to_weight_coords(cartan, beta)
        for w in weights:
            coef = sum(map(mul, w, beta_co))
            image = tuple(a - coef * b for a, b in zip(w, beta_w))
            found = tables.weight_images[beta][tuple(list(w))]
            assert found == image and pool[image] is found
            assert tables.weight_images[beta][found] is pool[w]


@pytest.mark.parametrize("family,rank", TYPES)
def test_weight_images_match_the_formula_on_table_weights(family, rank):
    cartan = cartan_of_type(family, rank)
    coroot = coroot_of_root(cartan)
    tables = reflection_tables(cartan)
    cx = build_complex(cartan, tuple(range(1, rank + 1)))
    facets = enumerate_facets(cx)
    rng = random.Random(f"{family}{rank}")
    weights = [w for facet in rng.sample(facets, min(len(facets), 10))
               for w in root_table(cx, facet).weights]
    for w in rng.sample(weights, min(len(weights), 30)):
        for beta, beta_co in coroot.items():
            coef = sum(a * b for a, b in zip(w, beta_co))
            image = tuple(a - coef * b
                          for a, b in zip(w, root_to_weight_coords(cartan, beta)))
            # an equal tuple that is not the pooled one finds the same image
            found = tables.weight_images[beta][tuple(list(w))]
            assert found == image
            assert tables.pool[image] is found
            assert tables.weight_images[beta][found] == w


def test_weight_images_fill_to_one_object_per_value_from_threads():
    """Threads that miss the same weight at once all get the one pooled
    image: `run_checks` runs serially, but a caller's own threads may
    still share one Cartan matrix's tables."""
    cartan = cartan_of_type("D", 4)
    tables = ReflectionTables(cartan)       # fresh, not the cached one
    cx = build_complex(cartan, (1, 2, 3, 4))
    weights = sorted({w for table in enumerate_facets_with_tables(cx).values()
                      for w in table.weights})
    work = [(beta, tuple(list(w))) for beta in tables.weight_images for w in weights]
    results = [[] for _ in range(4)]

    def fill(out):
        for beta, w in work:
            out.append(tables.weight_images[beta][w])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    coroot = coroot_of_root(cartan)
    for (beta, w), *images in zip(work, *results):
        coef = sum(a * b for a, b in zip(w, coroot[beta]))
        expected = tuple(a - coef * b
                         for a, b in zip(w, root_to_weight_coords(cartan, beta)))
        assert images[0] == expected and tables.pool[expected] is images[0]
        assert all(image is images[0] for image in images)


@pytest.mark.parametrize("family,rank", [("D", 4), ("E", 6)])
def test_equal_table_vectors_of_a_walk_are_one_object(family, rank):
    cx = build_complex(cartan_of_type(family, rank), tuple(range(1, rank + 1)))
    vectors = [v for table in enumerate_facets_with_tables(cx).values()
               for row in (table.roots, table.weights) for v in row]
    assert len({id(v) for v in vectors}) == len(set(vectors))


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_update_after_flip_matches_root_table_on_every_word(family, rank):
    cartan = cartan_of_type(family, rank)
    for c in coxeter_words(cartan):
        cx = build_complex(cartan, c)
        for facet in enumerate_facets(cx):
            table = root_table(cx, facet)
            for i in facet:
                other, j = flip(cx, facet, i, table)
                assert update_after_flip(cx, i, j, table) == root_table(cx, other)


E8_WALK = """
import resource
from clusterbrick.roots import cartan_of_type
from clusterbrick.subword import build_complex, enumerate_facets
cx = build_complex(cartan_of_type("E", 8), tuple(range(1, 9)))
print(len(enumerate_facets(cx)), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.stretch
def test_e8_facet_walk_fits_in_150_mb_stretch():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", E8_WALK], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    facets, peak_kb = map(int, result.stdout.split())
    assert facets == 25080
    assert peak_kb < 150 * 1024


E8_CORRESPONDENCE = """
import resource, time
from clusterbrick.roots import cartan_of_type
from clusterbrick.verify import build_correspondence, run_checks
cartan, c = cartan_of_type("E", 8), tuple(range(1, 9))
start = time.perf_counter()
corr = build_correspondence(cartan, c)
reports = run_checks(cartan, c, ("c-vectors", "g-vectors", "exchange"))
elapsed = time.perf_counter() - start
print(len(corr.nodes), all(r.passed for r in reports), elapsed,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.stretch
def test_e8_correspondence_fits_in_90_s_and_300_mb_stretch():
    """The E8 lockstep walk (25,080 facets) and the c-vector, g-vector and
    exchange checks on it pass in under 90 s at under 300 MB peak RSS.
    Measured on a 2-core Python 3.11 host: about 46 s at 158 MB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", E8_CORRESPONDENCE], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    facets, passed, elapsed, peak_kb = result.stdout.split()
    assert (int(facets), passed) == (25080, "True")
    assert float(elapsed) < 90
    assert int(peak_kb) < 300 * 1024


E8_WALK_CHECKS = E8_CORRESPONDENCE.replace(
    '("c-vectors", "g-vectors", "exchange")', '("lemmas", "newton", "lattice")')


@pytest.mark.stretch
def test_e8_lemmas_newton_and_lattice_fit_in_120_s_and_300_mb_stretch():
    """The E8 lockstep walk and the lemma, Newton polytope and lattice point
    checks on it pass in under 120 s at under 300 MB peak RSS.  Measured on
    a 2-core Python 3.11 host: about 56 s at 159 MB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", E8_WALK_CHECKS], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    facets, passed, elapsed, peak_kb = result.stdout.split()
    assert (int(facets), passed) == (25080, "True")
    assert float(elapsed) < 120
    assert int(peak_kb) < 300 * 1024
