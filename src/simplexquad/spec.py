"""What a quadrature runs, may spend and raises, without numpy.

The command line reads these on every call, for its defaults, the
report and exit code 3; quadrature re-exports them, the oracle the error.
"""

import math
import operator
import os
from collections import namedtuple

DEFAULT_EVAL_BUDGET = 100_000_000
BUDGET_ENV_VAR = "SIMPLEXQUAD_EVAL_BUDGET"

_SCHEMES = ("gauss_grid", "monte_carlo", "nested_oracle")


class IntegrationError(RuntimeError):
    """Numerical integration could not meet its contract."""
    evaluations = 0  # what a failed nested_simplex_integral had spent


def resolve_eval_budget(budget=None):
    """Effective evaluation cap: explicit argument, else the
    SIMPLEXQUAD_EVAL_BUDGET environment variable, else 1e8. Either must
    be a whole number of at least 1 ("2e9" is one; 2.5 is refused)."""
    if budget is not None:
        return _whole("evaluation budget", budget, 1)
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None or not raw.strip():
        return DEFAULT_EVAL_BUDGET
    return _whole(BUDGET_ENV_VAR, raw, 1)


def _whole(what, value, least=None):
    """value as an int; ValueError unless it is a whole number >= least.

    Ints stay exact, as float() overflows past 1e308; 8.0 and "8" pass."""
    try:
        number = operator.index(value)
    except TypeError:
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"{what} must be a number, got {value!r}") from None
        if not math.isfinite(number):
            raise ValueError(f"{what} must be finite, got {value!r}") from None
        if not number.is_integer():
            raise ValueError(f"{what} must be an integer, got {value!r}") from None
        number = int(number)
    if least is not None and number < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")
    return number


def _positive(what, value):
    """value as a float; ValueError unless it is positive and finite."""
    number = float(value)
    if not 0.0 < number < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value!r}")
    return number


class QuadratureSpec(namedtuple(
    "QuadratureSpec", ("scheme", "nodes_per_axis", "samples", "seed", "rel_tol"),
    defaults=(32, 100_000, 0, 1e-10),
)):
    """Which scheme to run and its knobs, immutable.

    Only the fields of the chosen scheme are checked and normalised, the
    rest ignored: nodes_per_axis for gauss_grid, samples and seed for
    monte_carlo (ints), rel_tol for nested_oracle (a positive finite
    float). The defaults are in QuadratureSpec._field_defaults.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # the generated base binds the arguments and the defaults; the
        # checked, normalised fields then make the record in one call
        scheme, nodes, samples, seed, rel_tol = super().__new__(cls, *args, **kwargs)
        if scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
        if scheme == "gauss_grid":
            nodes = _whole("nodes_per_axis", nodes, 2)
        elif scheme == "monte_carlo":
            samples = _whole("samples", samples, 1)
            seed = _whole("seed", seed)
            # one seed per value of the generator's 64-bit key word
            if not -2**63 <= seed < 2**63:
                raise ValueError(f"seed must lie in [-2**63, 2**63), got {seed}")
        else:
            rel_tol = _positive("rel_tol", rel_tol)
        return super().__new__(cls, scheme, nodes, samples, seed, rel_tol)

    # _replace builds through _make, so the checks hold there too
    _make = classmethod(lambda cls, fields: cls(*fields))
