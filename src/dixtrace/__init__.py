"""Dixmier traces, Marcinkiewicz quasi-norms and noncommutative residues
of Fourier multipliers on model compact manifolds, computed from global
symbols by partial-sum log averages, with a matrix-level oracle."""

from .boundary import (AlphaTable, BoundarySymbol, IntervalBC, PowerDecay,
                       boundary_dixmier, boundary_dixmier_weyl, boundary_series,
                       boundary_weyl_series, interval_eigenvalue,
                       interval_spectrum, parametrix_trace,
                       s0_summability_check)
from .errors import (ConfigError, DixtraceError, DomainError, EllipticityError,
                     FitError, NumericError, SizeError, SpectrumFormatError,
                     TableLookupError)
from .geometry import (DualPoint, Geometry, counting_function, enumerate_dual,
                       load_spectrum_file, parse_geometry, radial_shells,
                       save_spectrum_file, sphere_harmonic_dim)
from .golden import (su2_bessel_count_ratio, su2_bessel_terms, su2_count_cubic,
                     su2_square_sum, su3_dim_sum, su3_dim_sum_direct)
from .oracle import (TruncatedOperator, compare_symbol_vs_oracle,
                     dixmier_partial_norm, lpinf_partial_norm,
                     operator_singular_values, truncate_operator)
from .summation import (PartialSumSeries, counting_series, default_picture,
                        dyadic_grid, partial_sums, scale_series, weyl_fit)
from .symbol import (BesselPotential, ClassOneMask, DiagonalTable,
                     FullMatrixTable, ModulusWeight, PowerOfEigenvalue,
                     RadialWeight, Scaled, SymbolSum, eval_symbol,
                     nuclear_trace_abs, parse_symbol, singular_values)
from .trace import (MeasurabilityProbe, QuasiNormResult, TraceEstimate,
                    density_integral_from_samples, dixmier_estimate,
                    log_model_fit, marcinkiewicz_exponent, measurability_probe,
                    quasinorm, residue_factored, torus_density_integral)

__version__ = "0.1.0"
