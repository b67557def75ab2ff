"""Arithmetic Asian option pricing via a log-normal polynomial series.

The price of a continuously sampled arithmetic-average call in the
Black-Scholes model is expanded in polynomials orthonormal under a
log-normal weight; every term is explicit (normal CDFs and one small
matrix exponential), giving millisecond prices.  A seeded Monte-Carlo
engine (control-variate pricing, integration-by-parts density estimators)
verifies the series and quantifies its projection error.
"""

__version__ = "0.1.0"

from .errors import AsianLnsError, MomentOverflowError, NumericalError, ValidationError
from .model import (MarketParams, MomentVector, geometric_price_closed_form, mean_average,
                    moments)
from .basis import (OrthonormalBasis, WeightParams, default_weight, gram,
                    orthonormal_basis, weight_density)
from .pricer import (DensityApproximant, SeriesApproximation, likelihood_coefficients,
                     payoff_coefficients, payoff_norm_sq, price, scaled_payoff_projections)
from .mc import (DensityGridEstimate, ErrorBound, McConfig, McEstimate, PathBatch,
                 density_cv, density_malliavin, error_bound, geo_average_density,
                 iter_path_batches, likelihood_norm_sq, price_cv, simulate,
                 squared_relative_error, tail_envelope_diagnostic)
from .benchmarks import benchmark_cases, reference_case, reference_data

__all__ = [
    "AsianLnsError", "MomentOverflowError", "NumericalError", "ValidationError",
    "MarketParams", "MomentVector", "mean_average", "moments",
    "OrthonormalBasis", "WeightParams", "default_weight", "gram",
    "orthonormal_basis", "weight_density",
    "DensityApproximant", "SeriesApproximation", "likelihood_coefficients",
    "payoff_coefficients", "payoff_norm_sq", "price", "scaled_payoff_projections",
    "DensityGridEstimate", "ErrorBound", "McConfig", "McEstimate", "PathBatch",
    "density_cv", "density_malliavin", "error_bound", "geo_average_density",
    "geometric_price_closed_form", "iter_path_batches", "likelihood_norm_sq",
    "price_cv", "simulate", "squared_relative_error", "tail_envelope_diagnostic",
    "benchmark_cases", "reference_case", "reference_data",
]
