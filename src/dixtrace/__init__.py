"""Dixmier traces, Marcinkiewicz quasi-norms and noncommutative residues
of Fourier multipliers on model compact manifolds, computed from global
symbols by partial-sum log averages, with a matrix-level oracle.

The names below load on first use (PEP 562): `import dixtrace` imports no
submodule and no numpy, so the command line can set up the process before
numpy loads (see cli.py)."""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "boundary": ("AlphaTable", "BoundarySymbol", "IntervalBC", "PowerDecay",
                 "boundary_dixmier", "boundary_dixmier_weyl", "boundary_series",
                 "boundary_weyl_series", "parametrix_trace", "s0_summability_check"),
    "errors": ("ConfigError", "DixtraceError", "DomainError", "EllipticityError",
               "FitError", "NumericError", "SizeError", "SpectrumFormatError",
               "TableLookupError"),
    "geometry": ("DualPoint", "Geometry", "counting_function", "enumerate_dual",
                 "parse_geometry", "radial_shells", "save_spectrum_file"),
    "golden": ("su2_bessel_count_ratio", "su2_bessel_terms", "su2_count_cubic",
               "su2_square_sum", "su3_dim_sum", "su3_dim_sum_direct"),
    "oracle": ("TruncatedOperator", "compare_symbol_vs_oracle", "operator_singular_values",
               "truncate_operator"),
    "summation": ("PartialSumSeries", "counting_series", "dyadic_grid", "partial_sums",
                  "weyl_fit"),
    "symbol": ("DiagonalTable", "FullMatrixTable", "ModulusWeight", "PowerOfEigenvalue",
               "RadialWeight", "Scaled", "SymbolSum", "eval_symbol", "nuclear_trace_abs",
               "parse_symbol", "singular_values"),
    "trace": ("QuasiNormResult", "TraceEstimate", "density_integral_from_samples",
              "dixmier_estimate", "log_model_fit", "quasinorm", "residue_factored"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as after the eager import
        return importlib.import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
