"""Finite pseudocomplemented distributive lattices via their dual posets.

The library represents a finite distributive lattice by its poset of
join-irreducible elements, carries the pseudocomplement as an operation
on up-sets, and decides structural questions (congruences, variety
membership, amalgamation bases) by searches over posets and the maps
between them.
"""

__version__ = "0.1.0"

from .algebras import (embedding_p_morphism_witness, fan_algebra,
                       hom_of_dual_map, in_variety, is_p_morphism, make_pcdl,
                       onto_star_hom_exists, p_morphism_failure, p_morphisms,
                       pcdl_from_abstract, pseudocomplement, star_embeddings,
                       star_hom_pairs, star_homs, variety_index)
from .amalgamation import (AmalgamationVerdict, ExtensionResult,
                           SeparationResult, amalgamate_or_separate,
                           extension_property_bounded, forbidden_images,
                           is_amalgamation_base_finite, lift_through)
from .catalog import catalog
from .congruences import (DualCongruence, PullbackError, Quotient,
                          RestrictedCongruence, congruence_relates,
                          dual_congruence, enumerate_congruences,
                          is_congruence_extensile_bounded,
                          is_congruence_mask, is_essential_extension,
                          is_subdirectly_irreducible, pullback_congruence,
                          quotient, restrict_congruence,
                          validate_star_embedding)
from .duality import (AbstractLattice, LatticeHom, UpSetLattice,
                      dual_lattice, dual_of_lattice_hom, dual_of_order_map,
                      dual_space, product_lattice, unit_iso)
from .enumeration import (classes_with_upsets_bounded, poset_classes_exactly,
                          poset_classes_upto)
from .posets import (DisjointSum, OrderMap, Poset, antichain, bits, chain,
                     classify_map, disjoint_sum, fan, max_above, ordinal_sum)
from .qmodel import (CollapseReport, DivergenceReport, LiftCaseReport,
                     QuotientModel, SeparationReport, build_quotient_model,
                     check_lift_cases, divergence_report, verify_collapse,
                     verify_separation)

__all__ = [
    "__version__",
    "Poset", "OrderMap", "bits", "antichain", "chain", "fan",
    "ordinal_sum", "disjoint_sum", "DisjointSum", "classify_map",
    "max_above",
    "poset_classes_exactly", "poset_classes_upto",
    "classes_with_upsets_bounded",
    "UpSetLattice", "AbstractLattice", "LatticeHom", "dual_lattice",
    "dual_space", "dual_of_order_map", "dual_of_lattice_hom", "unit_iso",
    "product_lattice",
    "make_pcdl", "pcdl_from_abstract",
    "pseudocomplement", "fan_algebra", "is_p_morphism",
    "p_morphism_failure", "p_morphisms", "star_homs", "star_hom_pairs",
    "star_embeddings", "hom_of_dual_map", "variety_index", "in_variety",
    "onto_star_hom_exists", "embedding_p_morphism_witness",
    "DualCongruence", "dual_congruence", "is_congruence_mask",
    "enumerate_congruences", "congruence_relates", "Quotient", "quotient",
    "RestrictedCongruence", "restrict_congruence",
    "validate_star_embedding", "is_essential_extension", "PullbackError",
    "pullback_congruence",
    "is_congruence_extensile_bounded", "is_subdirectly_irreducible",
    "forbidden_images", "AmalgamationVerdict",
    "is_amalgamation_base_finite", "lift_through", "ExtensionResult",
    "extension_property_bounded", "SeparationResult",
    "amalgamate_or_separate",
    "QuotientModel", "build_quotient_model", "CollapseReport",
    "verify_collapse", "SeparationReport", "verify_separation",
    "LiftCaseReport", "check_lift_cases", "DivergenceReport",
    "divergence_report",
    "catalog",
]
