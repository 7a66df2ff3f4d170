"""Exact computer algebra for the solenoidal Virasoro algebra.

Scalars live in the field of rational functions in mu_1..mu_n, a, b, lambda
and c with denominators restricted to the linear forms mu.alpha.  On top of
them the package builds the rank-n bracket with its central extension, the
2-cocycle toolkit, tensor-density modules, Verma modules for the
lexicographic triangular decomposition, graded generalized Verma modules,
and a deterministic verification CLI (console script: solvir).

The public names below are loaded on first use (PEP 562): importing the
package loads no layer, and reading one name loads only its submodule and
the layers that submodule imports.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "scalars": (
        "A", "B", "CCHARGE", "LAMBDA", "ONE", "ZERO", "Polynomial", "Scalar",
        "mu_poly", "parse_scalar", "scalar_str",
    ),
    "algebra": (
        "CENTRAL", "AlgebraElement", "SolenoidalAlgebra", "basis_element",
        "central_element", "element_str", "euler_element", "jacobi_residual",
        "lex_compare", "lex_sign", "parse_element", "triangular_split",
        "vir_bracket", "vir_i_cocycle_coefficients", "vir_i_element",
        "witt_bracket",
    ),
    "cocycle": (
        "EtaTable", "OneCochain", "TwoCochain", "canonical_cochain",
        "canonical_cocycle", "coboundary", "cocycle_residual",
        "full_equation_residual", "h2_rank_experiment", "normalize_cocycle",
        "recognize_eta", "solve_functional_equation",
    ),
    "density": (
        "DensityParams", "DensityVector", "classify_density", "density_act",
        "density_axiom_residual", "duality_check", "formal_params",
        "lattice_params", "submodule_invariance_check",
    ),
    "verma": (
        "PBWMonomial", "TruncationBox", "VermaVector", "is_singular_within_box",
        "pbw_enumerate", "singular_residuals", "vacuum", "verma_act",
        "weight_space_dim_truncated",
    ),
    "gvm": (
        "GvmMonomial", "GvmVector", "grade_of", "gvm_act", "level_weight_basis",
        "quotient_dim_level1",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
