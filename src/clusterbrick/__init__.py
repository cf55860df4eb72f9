"""Exact engine for finite-type cluster algebras with principal coefficients,
computed through subword complexes, root configurations, and brick polytopes.

Everything is integer arithmetic; no fractions and no floats anywhere.
"""

from .cluster import (FPolynomial, MPoly, Seed, c_vector, d_vector, exact_div,
                      exchange_binomial, f_polynomial, format_fpoly,
                      format_laurent, g_vector, initial_matrix, initial_seed,
                      mutate, variable_names)
from .coxeter import (c_sorting_word, canonical_commutation_word, coxeter_words,
                      longest_element, restricted_prefixes)
from .errors import (ClusterBrickError, DimensionMismatch, InexactDivision,
                     InvalidCartanMatrix, InvalidCartanType, InvariantViolation,
                     NotInRootLattice, ResourceLimit)
from .polytope import (LatticePolytope, convex_hull_vertices,
                       equal_up_to_translation, minkowski_sum, translate)
from .roots import (CartanMatrix, cartan_of_type, coroot_of_root, degrees,
                    height, positive_roots, reflect_coroot, reflect_root,
                    reflect_weight, root_to_weight_coords, transpose, w_catalan,
                    weight_diff_to_root_coords)
from .subword import (ClusterComplex, RootTable, antigreedy_facet, brick_vector,
                      build_complex, enumerate_facets,
                      enumerate_facets_with_tables, flip, greedy_facet,
                      is_facet, root_table, update_after_flip, walk_flips)
from .typea import (CrossingDiagonal, TPath, Triangulation, diagonal_of_root,
                    enumerate_tpaths, f_poly_via_prefixes, f_poly_via_tpaths,
                    monomial_of_tpath, triangulation_of_coxeter)
from .verify import (Report, build_correspondence, check_c_vectors,
                     check_exchange_matrix, check_g_vectors,
                     check_lattice_points, check_lemmas, check_minkowski_brick,
                     check_names, check_newton_conjecture, check_typea_models,
                     run_checks, type_label, variables_by_root)

__version__ = "0.1.0"
