"""Ergodic mutual information of m x n MIMO Rayleigh channels.

Exact closed-form evaluation (finite polynomials in the inverse SNR t
with a common e^t Ei(-t) factor and exactly computed rational
coefficients), cross-validated against adaptive quadrature of the
eigenvalue-density representation and Monte Carlo over random channel
matrices.
"""

from .coefficients import (
    ChannelDims,
    CoefficientTable,
    build_table,
    coeff_a,
    coeff_b,
    coeff_c,
)
from .evaluator import (
    EvaluationResult,
    GridMode,
    Method,
    evaluate_closed_form,
    render_expression,
    results_to_csv,
    results_to_json,
    sweep,
)
from .oracles import (
    ConvergenceError,
    McReport,
    QuadratureConfig,
    a_pq_check,
    density_moment,
    lemma1_check,
    lnt_identity_check,
    monte_carlo_mi,
    one_point_density,
    telatar_quadrature,
)
from .special_functions import (
    PolyRational,
    ei_exp_scaled,
    exp_integral_ei_neg,
    harmonic,
    laguerre_coeffs,
    laguerre_eval,
    upper_gamma_int,
)

__all__ = [
    "ChannelDims",
    "CoefficientTable",
    "ConvergenceError",
    "EvaluationResult",
    "GridMode",
    "McReport",
    "Method",
    "PolyRational",
    "QuadratureConfig",
    "a_pq_check",
    "build_table",
    "coeff_a",
    "coeff_b",
    "coeff_c",
    "density_moment",
    "ei_exp_scaled",
    "evaluate_closed_form",
    "exp_integral_ei_neg",
    "harmonic",
    "laguerre_coeffs",
    "laguerre_eval",
    "lemma1_check",
    "lnt_identity_check",
    "monte_carlo_mi",
    "one_point_density",
    "render_expression",
    "results_to_csv",
    "results_to_json",
    "sweep",
    "telatar_quadrature",
    "upper_gamma_int",
]

__version__ = "0.1.0"
