"""Numerical integration over the probability simplex.

All schemes integrate int f(p) dp_1..dp_{n-1} over the simplex by
working in the angle box: p = p(theta), dp = J(theta) dtheta, with
theta ranging over [0, pi/2]^{n-1}. The integrand is smooth there
even when f has power-law behavior at the simplex boundary, which is
the whole point of the substitution.

Three schemes:

gauss_grid
    Tensor product of one axis rule per angle: Gauss-Legendre nodes
    passed through the Kosloff-Tal-Ezer conformal map, which spreads
    them towards uniform spacing. Deterministic and rapidly
    convergent for smooth f; integer counts up to 10 at n <= 5 come
    within 1e-12 at 32 nodes. Real counts that put a singularity at
    the ends of an angle axis converge more slowly than with the
    unmapped rule ([-0.5, 0.3, 2.7, 1.1]: 2.9e-7 at 32 nodes, 3.0e-8
    at 64). The grid is built from per-axis factors: weights, map and
    kernel K_j (power times Jacobian) are computed once on the axis
    and combined by outer sums and products, in blocks of whole rows
    of at most _CHUNK points (spherical.tensor_grid_blocks); only the
    prior is evaluated per point.
monte_carlo
    Uniform sampling of the angle box, weighted by the Jacobian and
    the box volume. Uniform in theta is intentionally NOT uniform on
    the simplex; the Jacobian is what corrects the distortion, so do
    not reuse these samples as simplex draws. Deterministic for a
    fixed seed: samples come in batches of 2^16 from a counter-based
    Philox generator keyed (seed, batch_index), and the reduction
    always runs in batch order, so any future parallel split over
    batches reproduces the serial result bit for bit.
nested_oracle
    Brute-force iterated integration in raw p coordinates (see the
    oracle module). Kept free of any shared code with the angle-based
    schemes so it can serve as independent ground truth.

Integrands come in one form, through one core (integrate_simplex_log):
counts m and a log prior, for prod p_i^{m_i} exp(log_prior(p)); the
grid folds the power into its per-axis factors. Sums accumulate in log
space with a running max shift: products of many bin powers underflow
linear doubles long before they stop mattering.
"""

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .moments import as_exponent_vector
from .oracle import IntegrationError, nested_simplex_integral
from .spherical import (
    HALF_PI,
    _xlogy,
    angles_to_simplex,
    log_jacobian,
    log_kernel,
    tensor_grid_blocks,
)

__all__ = [
    "DEFAULT_EVAL_BUDGET",
    "BUDGET_ENV_VAR",
    "IntegrationError",
    "QuadratureSpec",
    "IntegralEstimate",
    "resolve_eval_budget",
    "gauss_legendre",
    "power_log_integrand",
    "integrate_simplex_log",
    "integrate_separable",
    "nested_oracle",
]

DEFAULT_EVAL_BUDGET = 100_000_000
BUDGET_ENV_VAR = "SIMPLEXQUAD_EVAL_BUDGET"

_SCHEMES = ("gauss_grid", "monte_carlo", "nested_oracle")
_CHUNK = 1 << 18
_MC_BATCH = 1 << 16


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


@dataclass(frozen=True)
class IntegralEstimate:
    """An integral value in log form plus how it was obtained.

    std_error is a linear-scale 1-sigma estimate for monte_carlo and
    exactly 0.0 for the deterministic schemes.
    """

    log_value: float
    std_error: float
    evaluations: int
    scheme: str

    def __post_init__(self):
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be nonnegative")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")
        # normalize numpy scalars so reports serialize cleanly
        object.__setattr__(self, "log_value", float(self.log_value))
        object.__setattr__(self, "std_error", float(self.std_error))
        object.__setattr__(self, "evaluations", int(self.evaluations))

    @property
    def value(self) -> float:
        """exp(log_value); inf if it overflows linear doubles."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf


def _legendre_pair(order, x):
    # recurrence k P_k = (2k-1) x P_{k-1} - (k-1) P_{k-2}
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, order + 1):
        p_prev, p = p, ((2.0 * k - 1.0) * x * p - (k - 1.0) * p_prev) / k
    return p, p_prev


@lru_cache(maxsize=None)
def _gauss_legendre_cached(count):
    # Newton iteration on P_count from the standard cosine initial
    # guesses; only the positive half is solved, the rest is mirrored,
    # which keeps the rule exactly symmetric.
    half = (count + 1) // 2
    k = np.arange(half)
    x = np.cos(np.pi * (k + 0.75) / (count + 0.5))
    for _ in range(100):
        p, p_prev = _legendre_pair(count, x)
        dp = count * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for n={count} did not converge")
    if count % 2 == 1:
        x[-1] = 0.0
    p, p_prev = _legendre_pair(count, x)
    dp = count * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    skip = count % 2
    nodes = np.concatenate([-x, x[::-1][skip:]])
    if skip:
        nodes[half - 1] = 0.0
    weights = np.concatenate([w, w[::-1][skip:]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(count):
    """Nodes and weights of the count-point Gauss-Legendre rule on [-1, 1].

    Found by Newton root-polishing of the Legendre recurrence (no
    eigenvalue machinery), converged to a 1e-15 step size. Results are
    cached and returned as read-only arrays in ascending node order.
    """
    if count < 2:
        raise ValueError("a Gauss-Legendre rule needs at least 2 nodes")
    return _gauss_legendre_cached(int(count))


# Target accuracy eps of the Kosloff-Tal-Ezer map below: it sets
# alpha = sech(|ln eps| / count). Equal to the CLI's default --tol.
# Any eps from 1e-6 to 1e-12 keeps every 32-node integer case of the
# acceptance class within 1e-10 (worst 1.3e-12 and 8.3e-11 at the two
# ends); machine epsilon does not (2.9e-10).
_KTE_EPS = 1e-8


@lru_cache(maxsize=None)
def _angle_rule(count):
    # Legendre nodes s pass through the Kosloff-Tal-Ezer map
    # x = arcsin(alpha s) / arcsin(alpha) before the affine step onto
    # [0, pi/2]; weights take the map's derivative. Plain Legendre
    # nodes bunch at the ends and a 32-point rule resolves angle
    # kernels only to trigonometric degree ~80. The map spreads the
    # nodes towards uniform spacing, which is what periodic-like
    # kernels sin^a t cos^b t want (Hale & Trefethen 2008), so integer
    # counts up to degree 108 come within 1e-12. The price is a slower
    # algebraic rate for end singularities: generic real counts such
    # as [-0.5, 0.3, 2.7, 1.1] miss by 2.9e-7 at 32 nodes (8.2e-8
    # unmapped) and 3.0e-8 at 64 (2.3e-9 unmapped).
    s, w = _gauss_legendre_cached(count)
    alpha = 1.0 / math.cosh(abs(math.log(_KTE_EPS)) / count)
    scale = math.asin(alpha)
    x = np.arcsin(alpha * s) / scale
    dx_ds = alpha / (scale * np.sqrt(1.0 - (alpha * s) ** 2))
    theta = (x + 1.0) * (math.pi / 4.0)
    log_weights = np.log(w * dx_ds * (math.pi / 4.0))
    theta.flags.writeable = False
    log_weights.flags.writeable = False
    return theta, log_weights


class _LogSumAccumulator:
    """Streaming log-sum-exp with a running max shift.

    Chunks are added in a fixed order and reduced with plain numpy
    sums, so results are bit-stable from run to run.
    """

    __slots__ = ("shift", "total")

    def __init__(self):
        self.shift = -math.inf
        self.total = 0.0

    def add(self, log_values):
        peak = float(np.max(log_values)) if log_values.size else -math.inf
        if peak == -math.inf:
            return
        if peak > self.shift:
            if self.total:
                self.total *= math.exp(self.shift - peak)
            self.shift = peak
        self.total += float(np.sum(np.exp(log_values - self.shift)))

    @property
    def log_sum(self):
        if self.total <= 0.0 or self.shift == -math.inf:
            return -math.inf
        return self.shift + math.log(self.total)


def power_log_integrand(m):
    """Vectorized log integrand for prod p_i^{m_i}.

    Zero exponents contribute nothing even at p_i = 0 (the 0^0 = 1
    convention), so boundary points do not produce NaNs.
    """
    m = as_exponent_vector(m)

    def log_f(points):
        return np.sum(_xlogy(m, points), axis=-1)

    return log_f


def _checked_log_values(log_f, points, count):
    values = np.asarray(log_f(points), dtype=float)
    if values.shape != (count,):
        raise IntegrationError(
            "integrand must return one value per point "
            f"(expected shape {(count,)}, got {values.shape})"
        )
    # NaN and +inf fail this comparison; -inf, an integrand zero, passes
    if not np.all(values < math.inf):
        raise IntegrationError("integrand evaluated to NaN or infinity")
    return values


def _check_budget(what, needed, limit):
    if needed > limit:
        raise IntegrationError(
            f"{what} needs {needed} evaluations, over the budget of {limit}"
        )


def _axis_factors(m, nodes):
    # the axis rule and, per angle j = 1..n-1, the log of its weights
    # times the kernel K_j: the per-axis factors of prod p^m dp
    theta, log_w = _angle_rule(nodes)
    n = m.size
    return theta, [log_w + log_kernel(j, n, m, theta) for j in range(1, n)]


def _gauss_grid(m, log_prior, nodes, budget):
    d = m.size - 1
    total = nodes ** d
    _check_budget(f"gauss_grid with {nodes} nodes on {d} axes", total, budget)
    theta, axis_logs = _axis_factors(m, nodes)
    acc = _LogSumAccumulator()
    # blocks of whole leading-index rows, built from per-axis factors;
    # with a power-of-two node count they end where the chunks end
    for points, logs in tensor_grid_blocks(theta, axis_logs, _CHUNK):
        logs += _checked_log_values(log_prior, points, points.shape[0])
        acc.add(logs)
    return acc.log_sum, total


def _monte_carlo(n, log_f, samples, seed, budget):
    _check_budget(f"monte_carlo with {samples} samples", samples, budget)
    log_cube = (n - 1) * math.log(HALF_PI)
    # two's-complement fold of the signed seed into the uint64 key word
    key_word = int(seed) & 0xFFFFFFFFFFFFFFFF
    acc_mean = _LogSumAccumulator()
    acc_square = _LogSumAccumulator()
    done = 0
    batch = 0
    while done < samples:
        count = min(_MC_BATCH, samples - done)
        key = np.array([key_word, batch], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        th = rng.random((count, n - 1)) * HALF_PI
        logs = log_jacobian(th) + log_cube
        logs += _checked_log_values(log_f, angles_to_simplex(th), count)
        acc_mean.add(logs)
        acc_square.add(2.0 * logs)
        done += count
        batch += 1

    log_samples = math.log(samples)
    log_mean = acc_mean.log_sum - log_samples
    if log_mean == -math.inf:
        return -math.inf, 0.0, samples
    log_second = acc_square.log_sum - log_samples
    gap = 2.0 * log_mean - log_second
    if gap >= 0.0:
        # mean^2 >= E[g^2] can only happen through roundoff
        std_error = 0.0
    else:
        log_variance = log_second + math.log1p(-math.exp(gap))
        std_error = math.exp(0.5 * (log_variance - log_samples))
    return log_mean, std_error, samples


def integrate_simplex_log(m, log_prior, spec, budget=None):
    """Integrate prod p_i^{m_i} exp(log_prior(p)) over the simplex.

    m holds the exponents (counts, each > -1), one per bin. log_prior
    maps a (k, n) array of simplex points to k log values; -inf
    encodes a zero. For a general f pass m = np.zeros(n) and
    np.log(f(points)): a negative f then comes in as NaN and is
    rejected. gauss_grid folds the power into its per-axis factors;
    the other schemes add it to log_prior per point. This is the one
    integration core: every scheme and the command line come through
    here, so the shape, NaN and +inf checks on prior values hold on
    every route.
    """
    m = as_exponent_vector(m)
    if not isinstance(spec, QuadratureSpec):
        raise TypeError("spec must be a QuadratureSpec")
    limit = resolve_eval_budget(budget)
    if spec.scheme == "gauss_grid":
        log_value, evaluations = _gauss_grid(m, log_prior, spec.nodes_per_axis, limit)
        return IntegralEstimate(log_value, 0.0, evaluations, spec.scheme)
    power = power_log_integrand(m)

    def log_f(points):
        # the power term plus the checked prior, per sampled point
        prior = _checked_log_values(log_prior, points, points.shape[0])
        return power(points) + prior

    if spec.scheme == "monte_carlo":
        log_value, std_error, evaluations = _monte_carlo(
            m.size, log_f, spec.samples, spec.seed, limit
        )
        return IntegralEstimate(log_value, std_error, evaluations, spec.scheme)

    def f(p):
        row = np.asarray(p, dtype=float)[None, :]
        return float(np.exp(_checked_log_values(log_f, row, 1)[0]))

    return nested_oracle(f, n=m.size, spec=spec, budget=limit)


def integrate_separable(m, spec=None, budget=None):
    """Integrate prod p_i^{m_i} as a product of n-1 one-axis integrals.

    The transformed integrand separates into per-angle kernels K_j
    (see spherical.log_kernel), so each axis is a single 1-D sum over
    the per-axis factors gauss_grid combines into its tensor grid (the
    same mapped Gauss-Legendre rule times K_j). Without a prior the
    product telescopes to the value the full grid would give, at a
    tiny fraction of the cost. Accuracy is therefore that of
    gauss_grid: within 1e-12 for integer counts up to 10 at n <= 5 and
    32 nodes, slower for real counts with end singularities.
    """
    m = as_exponent_vector(m)
    n = m.size
    if spec is None:
        spec = QuadratureSpec(scheme="gauss_grid")
    if spec.scheme != "gauss_grid":
        raise ValueError(
            "integrate_separable is a Gauss computation; spec.scheme must "
            "be 'gauss_grid'"
        )
    evaluations = (n - 1) * spec.nodes_per_axis
    _check_budget("integrate_separable", evaluations, resolve_eval_budget(budget))
    _, axis_logs = _axis_factors(m, spec.nodes_per_axis)
    log_total = 0.0
    for logs in axis_logs:
        acc = _LogSumAccumulator()
        acc.add(logs)
        log_total += acc.log_sum
    return IntegralEstimate(log_total, 0.0, evaluations, spec.scheme)


def nested_oracle(integrand, n=None, spec=None, budget=None):
    """Brute-force reference integral in raw p coordinates.

    integrand is either an exponent vector (integrand prod p_i^{m_i})
    or a scalar callable on full probability vectors; callables need
    an explicit n. Limited to n <= 5. See the oracle module for the
    machinery; this wrapper only adds the spec/budget plumbing and the
    log-form result, and is the one place an oracle value becomes an
    IntegralEstimate (integrate_simplex_log's oracle route ends here).
    """
    if spec is None:
        spec = QuadratureSpec(scheme="nested_oracle")
    if spec.scheme != "nested_oracle":
        raise ValueError("spec.scheme must be 'nested_oracle'")
    limit = resolve_eval_budget(budget)
    value, evaluations = nested_simplex_integral(
        integrand, n=n, rel_tol=spec.rel_tol, max_evaluations=limit
    )
    log_value = math.log(value) if value > 0.0 else -math.inf
    return IntegralEstimate(log_value, 0.0, evaluations, spec.scheme)
