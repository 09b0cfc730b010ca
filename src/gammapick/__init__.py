"""Structured singular values for block-scalar scalings, the derived gamma
domains, Schur-class realizations, sampled kernel triples with lurking
isometry reconstruction, rational inner-outer factorization, and matricial
Nevanlinna-Pick interpolation with gamma-domain reductions.

The public names resolve on first use (PEP 562): ``import gammapick`` loads
no submodule, and ``gammapick.mu`` loads ``domains`` and what it imports.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it gives the package, in the order of __all__
_EXPORTS = {
    "domains": (
        "BlockStructure", "GammaPoint", "E211", "E311", "E312", "MuBound", "mu", "mu_bound",
        "pi_coordinates", "in_gamma", "tetrablock_member",
    ),
    "realization": ("RealizedSchurFunction", "random_schur", "realization_to_rational"),
    "fractional": ("SEEvaluation", "SingularFractionError", "se_eval", "se_values"),
    "kernels": (
        "SampleGrid", "SampledKernel", "KernelTriple", "tensor_grid", "upper_e", "combine_k",
        "kernel_rank", "membership",
    ),
    "lurking": (
        "RankError", "GramInconsistencyError", "RankOneFactor", "UWResult", "UWVerification",
        "TorusFit", "rank1_factor", "uw_construct", "verify_uw", "torus_fit", "right_s",
    ),
    "hardy": ("RationalFunction", "InnerOuterPair", "blaschke_eval", "inner_outer"),
    "nevanlinna": (
        "UnsolvablePickError", "PickData", "PickInterpolant", "GammaCurve", "GammaNodes",
        "SlicedSchur2x2", "CertificationReport", "DEFAULT_Z_GRID", "pick_matrix", "np_solve",
        "sample_curve", "gamma_curve_from_entries", "slice_coordinates", "psi3_eval",
        "psi_lower3_eval", "build_slice_schur", "reduce_gamma7", "reduce_gamma5",
        "certify_gamma7_interpolation", "certify_gamma5_interpolation",
    ),
    "linalg": ("IndefiniteMatrixError", "operator_norm"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
