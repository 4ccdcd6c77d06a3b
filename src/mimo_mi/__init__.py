"""Ergodic mutual information of m x n MIMO Rayleigh channels.

Exact closed-form evaluation (finite polynomials in the inverse SNR t
with a common e^t Ei(-t) factor and exactly computed rational
coefficients), cross-validated against double-exponential quadrature of the
eigenvalue-density representation and Monte Carlo over random channel
matrices.
"""

from .coefficients import (
    ChannelDims,
    CoefficientTable,
    build_table,
    coeff_c,
)
from .evaluator import (
    EvaluationResult,
    Method,
    evaluate_closed_form,
    render_expression,
)
from .special_functions import ei_exp_scaled

__all__ = [
    "ChannelDims",
    "CoefficientTable",
    "ConvergenceError",
    "EvaluationResult",
    "McReport",
    "Method",
    "build_table",
    "coeff_c",
    "density_moment",
    "ei_exp_scaled",
    "evaluate_closed_form",
    "monte_carlo_mi",
    "one_point_density",
    "render_expression",
    "telatar_quadrature",
]

__version__ = "0.1.0"

# Each name in __all__ not bound above comes from .oracles on first use
# (PEP 562), so that importing the package, or the CLI for a command
# that needs no oracle, loads neither the oracles nor what they import.
def __getattr__(name):
    if name in __all__:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
