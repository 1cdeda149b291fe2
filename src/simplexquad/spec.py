"""What a quadrature runs and how much it may spend, without numpy.

The command line reads these on every call, for its defaults and the
report; quadrature re-exports them under the same names.
"""

import os
from dataclasses import dataclass

DEFAULT_EVAL_BUDGET = 100_000_000
BUDGET_ENV_VAR = "SIMPLEXQUAD_EVAL_BUDGET"

_SCHEMES = ("gauss_grid", "monte_carlo", "nested_oracle")


def resolve_eval_budget(budget=None):
    """Effective evaluation cap: explicit argument, else the
    SIMPLEXQUAD_EVAL_BUDGET environment variable, else 1e8."""
    source = "evaluation budget"
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR)
        if raw is None or not raw.strip():
            return DEFAULT_EVAL_BUDGET
        source = BUDGET_ENV_VAR
        try:
            budget = float(raw)
        except ValueError:
            raise ValueError(
                f"{BUDGET_ENV_VAR} must be a number, got {raw!r}"
            ) from None
    try:
        limit = int(budget)
    except (OverflowError, ValueError):
        # inf overflows int() and NaN has no integer value
        raise ValueError(f"{source} must be finite, got {budget!r}") from None
    if limit <= 0:
        raise ValueError("evaluation budget must be positive")
    return limit


def _whole(what, value, least=None):
    """value as an int; ValueError unless it is a whole number >= least."""
    if not float(value).is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class QuadratureSpec:
    """Which scheme to run and its knobs.

    Only the fields of the chosen scheme matter: nodes_per_axis for
    gauss_grid, samples and seed for monte_carlo, rel_tol for
    nested_oracle. The rest are ignored.
    """

    scheme: str
    nodes_per_axis: int = 32
    samples: int = 100_000
    seed: int = 0
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(
                f"scheme must be one of {_SCHEMES}, got {self.scheme!r}"
            )
        if self.scheme == "gauss_grid":
            nodes = _whole("nodes_per_axis", self.nodes_per_axis, 2)
            object.__setattr__(self, "nodes_per_axis", nodes)
        if self.scheme == "monte_carlo":
            object.__setattr__(self, "samples", _whole("samples", self.samples, 1))
            object.__setattr__(self, "seed", _whole("seed", self.seed))
        if self.scheme == "nested_oracle" and not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
