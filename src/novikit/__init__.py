"""Exact computational algebra for truncated Novikov rings and the
persistence invariants of filtered chain complex families.

The public names below are loaded on first access (PEP 562), so that
``import novikit`` imports no submodule and a CLI job imports only the
modules its command runs.
"""

import importlib

_EXPORTS = {
    "fields": ("GF2", "QQ", "PrimeField", "RationalField", "field_by_name"),
    "periods": ("DimensionMismatch", "Exponent", "PeriodSystem", "RaySupport",
                "period_at", "period_pair", "ray_finite_for",
                "ray_finite_interval"),
    "series": ("INF", "LexOrder", "ModeMismatch", "NovikovElement",
               "Rank2Value", "RingMode", "TWeightedOrder", "VALUE_INF", "add",
               "compare_lex", "compare_t_weighted", "monomial", "mul",
               "render_element", "unit", "valuation", "valuation_at", "zero"),
    "envelope": ("PiecewiseAffine", "PointCloud", "filtration_curve",
                 "lower_envelope", "min_intercept", "stable_point",
                 "stability_threshold", "upper_envelope"),
    "complexes": ("CappedGenerator", "ContinuationData", "FilteredComplex",
                  "NEG_INF", "apply_boundary", "basis_chain", "ell",
                  "ell_curve", "validate", "verify_continuation"),
    "cancellation": ("DivergenceCheck", "FloerDivergenceError",
                     "ReductionOutcome", "best_approximation", "fixed_point",
                     "floer_divergence_check", "homology_ranks_at_cutoff",
                     "matrix_rank_at_cutoff", "normalize_columns"),
    "reduction": ("Bar", "Barcode", "persistence_barcode"),
    "invariants": ("SpectralResult", "boundary_depth", "rho", "spectrum"),
    "matching": ("bottleneck",),
    "semicontinuity": ("SemicontinuityReport", "scan_semicontinuity"),
    "models": ("InfeasibleSpec", "ModelSpec", "elementary_bars",
               "gen_elementary", "gen_pathological", "gen_random",
               "line_family", "pathological_columns", "shift_constants"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
