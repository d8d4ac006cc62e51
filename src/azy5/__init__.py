"""Geometric construction of the degree-2 weight-30 Siegel modular form
with character.

The package builds the product of fifteen coset-indexed factors, each the
defining polynomial of a coordinate tetrahedron in the projective space of
second-order theta constants, and certifies numerically that the product
transforms with weight 30 and the quadratic permutation character, and
that it is proportional to the classical signed theta-triple construction.
"""

from .chars import (EVEN_CHARS, M0, ODD_CHARS, act_char, act_set, chi_p,
                    classify_quadruple, classify_triple, even_quadruples,
                    even_triples, format_char, pair_sign, parity, psi_p,
                    xi_numerator)
from .construction import (AZY_NORMALIZATION, LambdaEstimate, estimate_lambda,
                           geometric_crosscheck, phi, phi_gamma,
                           phi_modularity_error, phi_transversal,
                           rep_independence_error)
from .forms import (azy, azy_eval, chi5_determinant, chi5_product, chi10,
                    chi12, mono_key, mu_ratio, p2, slash_unit, symmetrize_exact)
from .geometry import (ADDITION_TABLE, Tetrahedron, addition_residuals,
                       all_faces, all_tetrahedra, f_m, faces_from_vertices,
                       quadric_value, tetrahedron)
from .reports import CheckResult, EvalReport
from .siegel import SiegelPoint, sample_stream, sample_taus
from .symplectic import (GENERATORS, IDENTITY, J, PRINCIPAL2, THETA0_2,
                         CosetSystem, SymplecticMatrix, act_tau, coset_reps,
                         gl_rotation, lower_translation, random_word, transform,
                         translation)
from .theta import (ThetaValue, kappa4, kappa_numeric, kappa_probes,
                    theta_all_even, theta_constant, theta_second_order,
                    theta_second_vector, truncation_radius)

__version__ = "0.1.0"

__all__ = [
    "EVEN_CHARS", "ODD_CHARS", "M0", "act_char", "act_set", "chi_p",
    "pair_sign", "classify_triple", "classify_quadruple", "even_triples",
    "even_quadruples", "format_char", "parity", "psi_p",
    "SiegelPoint", "sample_stream", "sample_taus",
    "SymplecticMatrix", "CosetSystem", "IDENTITY", "J",
    "GENERATORS", "PRINCIPAL2", "THETA0_2", "translation",
    "lower_translation", "gl_rotation", "act_tau", "transform",
    "coset_reps", "random_word",
    "ThetaValue", "theta_constant", "theta_second_order",
    "theta_second_vector", "theta_all_even", "truncation_radius",
    "xi_numerator", "kappa4", "kappa_numeric",
    "kappa_probes",
    "mono_key", "slash_unit", "symmetrize_exact", "chi5_product",
    "chi5_determinant", "chi10", "chi12", "p2", "azy", "azy_eval",
    "mu_ratio",
    "ADDITION_TABLE", "Tetrahedron", "addition_residuals", "all_faces",
    "all_tetrahedra", "f_m", "faces_from_vertices", "quadric_value",
    "tetrahedron",
    "AZY_NORMALIZATION", "LambdaEstimate", "estimate_lambda",
    "geometric_crosscheck", "phi", "phi_gamma", "phi_modularity_error",
    "phi_transversal", "rep_independence_error",
    "CheckResult", "EvalReport",
    "__version__",
]
