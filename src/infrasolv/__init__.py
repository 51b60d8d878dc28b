"""Exact rational computation with polycyclic group actions on nilpotent Lie groups."""

from .linalg import (Poly, RationalMatrix, char_poly, kernel, rank, solve,
                     squarefree_part)
from .jordan import (additive_jordan, is_semisimple, is_unipotent,
                     multiplicative_jordan)
from .lie import (NilpotentLieAlgebra, UnipotentGroupData, center, lie_closure,
                  lower_central_series, nilp_exp, unip_log)
from .polynomial import MPoly, PolynomialMap
from .actions import (AffineElement, FixedPointScopeError, FreenessResult,
                      GammaActionData, emit_polynomial_action,
                      fixed_point_solve, freeness_check, orbit_sample,
                      parse_word, torus_rank)
from .hull import (CosetExtension, HullCertificate, InducedEmbedding,
                   SplitHullData, alpha_T, conjugacy_transport,
                   fitting_radical_check, hol_from_ambient, hull_axiom_check,
                   induce_extension, strong_radical_check)
from .cohomology import (CEComplex, DualityReport, cohomology_ranks,
                         duality_report, euler_characteristic,
                         invariant_cohomology_ranks)
from .schema import Bundle, SchemaError, load_bundle
from . import bundles

__all__ = [
    "Poly", "RationalMatrix", "char_poly", "kernel", "rank", "solve",
    "squarefree_part",
    "additive_jordan", "is_semisimple", "is_unipotent", "multiplicative_jordan",
    "NilpotentLieAlgebra", "UnipotentGroupData", "center", "lie_closure",
    "lower_central_series", "nilp_exp", "unip_log",
    "MPoly", "PolynomialMap",
    "AffineElement", "FixedPointScopeError", "FreenessResult",
    "GammaActionData", "emit_polynomial_action", "fixed_point_solve",
    "freeness_check", "orbit_sample", "parse_word", "torus_rank",
    "CosetExtension", "HullCertificate", "InducedEmbedding", "SplitHullData",
    "alpha_T", "conjugacy_transport", "fitting_radical_check",
    "hol_from_ambient", "hull_axiom_check", "induce_extension",
    "strong_radical_check",
    "CEComplex", "DualityReport", "cohomology_ranks", "duality_report",
    "euler_characteristic", "invariant_cohomology_ranks",
    "Bundle", "SchemaError", "load_bundle", "bundles",
]

__version__ = "0.1.0"
