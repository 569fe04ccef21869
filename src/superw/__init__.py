"""Exact workbench for the superderivation algebra of a Grassmann
algebra at finite rank: the graded bracket, weight modules over the
degree-zero general linear part, induced modules in both directions,
tensor-field realizations, and cross-rank stabilization checks.  The
Grassmann algebra and the superderivation algebra are themselves tensor
fields, T(C) and T(V*), on one column kernel; a Grassmann element is a
term dict, its vector in T(C), and a superderivation is a ``WElement``.

Everything is computed over the rationals, and every verdict is exact;
arithmetic modulo a prime survives only in oracles the tests compare
against.  Simplicity, isomorphism with a simple module and coinduction
duality are one certificate: a singular vector that generates.
"""

from .errors import (InhomogeneousError, NonBasisElementError,
                     RankMismatchError, RankTooSmallError)
from .weights import Weight, order_sequence
from .partitions import (Partition, aspartition, lr_coefficient,
                         partitions_of, socle_layer_mults,
                         stable_highest_weight)
from .grassmann import merge_sign, removal_sign
from .walgebra import (BorelOrder, WElement, basis_terms, bracket,
                       component_dim, format_welement, graded_jacobi_defect)
from .glmodules import (SocleReport, gl_conatural, gl_natural, gl_simple,
                        gl_trivial, mixed_tensor, verify_socle_identity,
                        weyl_dim)
from .modules import (Character, FiniteWModule, GlModule, SimplicityVerdict,
                      check_representation, dual_module, is_simple, iso_check,
                      psi_invariants, quotient_module, submodule_generated,
                      tensor_module)
from .induction import Typicality, kac_minus_truncated, kac_plus, typicality
from .tensorfields import (DualityReport, adjoint_module,
                           coinduction_duality_check, extract_L_minus,
                           lambda_module, tensor_field)
from .stability import (StabilizationReport, restricted_character,
                        stabilization_sweep)
from .suite import Criterion, run_suite

# the gl and superderivation modules share one iso check
gl_iso_check = iso_check

__all__ = [
    "BorelOrder", "Character", "Criterion", "DualityReport", "FiniteWModule",
    "GlModule", "InhomogeneousError",
    "NonBasisElementError", "Partition", "RankMismatchError",
    "RankTooSmallError", "SimplicityVerdict", "SocleReport",
    "StabilizationReport", "Typicality", "WElement",
    "Weight", "adjoint_module", "aspartition", "basis_terms", "bracket",
    "check_representation", "coinduction_duality_check", "component_dim",
    "dual_module", "extract_L_minus",
    "format_welement", "gl_conatural", "gl_iso_check", "gl_natural",
    "gl_simple", "gl_trivial", "graded_jacobi_defect",
    "is_simple", "iso_check", "kac_minus_truncated", "kac_plus",
    "lambda_module", "lr_coefficient", "merge_sign",
    "mixed_tensor", "order_sequence", "partitions_of",
    "psi_invariants",
    "quotient_module", "removal_sign", "restricted_character", "run_suite",
    "socle_layer_mults",
    "stabilization_sweep", "stable_highest_weight", "submodule_generated",
    "tensor_field",
    "tensor_module", "typicality", "verify_socle_identity",
    "weyl_dim",
]
