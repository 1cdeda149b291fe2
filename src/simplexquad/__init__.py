"""Exact posterior moments of multinomial bin probabilities and
numerical integration over the probability simplex.

The closed-form route (``moments``) evaluates normalization integrals
and moment ratios through log-gamma arithmetic. The numerical routes
(``quadrature``) integrate arbitrary prior-weighted functions over the
simplex after a spherical change of variables that turns the simplex
into an axis-aligned box of angles. ``expressions`` supplies a small
parser for prior weight functions used by the command line tool.

Each module's ``__all__`` decides which of its names are public; the
package re-exports exactly those. They are listed here by module and
imported on first access (PEP 562), so ``import simplexquad`` loads no
numpy: the closed forms in ``moments`` and ``special`` need none.
"""

import importlib

__version__ = "0.1.0"

# each module's __all__, in order
_EXPORTS = {
    "special": "log_gamma log_beta log_factorial",
    "spherical": "angles_to_simplex simplex_to_angles log_jacobian log_kernel",
    "moments": "as_exponent_vector log_norm_integral moment mean means "
               "second_moment variance std_dev skewness covariance",
    "quadrature": "DEFAULT_EVAL_BUDGET BUDGET_ENV_VAR IntegrationError "
                  "QuadratureSpec IntegralEstimate resolve_eval_budget "
                  "gauss_legendre power_log_integrand integrate_simplex_log "
                  "integrate_separable nested_oracle",
    "expressions": "GRAMMAR_VERSION PriorExpression ExpressionSyntaxError "
                   "EvaluationError parse evaluate evaluate_batch "
                   "format_expression",
}
_HOMES = {name: module for module, names in _EXPORTS.items()
          for name in names.split()}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
