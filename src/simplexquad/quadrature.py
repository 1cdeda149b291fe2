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
    (spherical.tensor_grid_blocks); only the prior is evaluated per
    point. Points and log weights come in blocks of at most _BLOCK
    points (one row, if a single axis has more nodes), each a run of
    whole rows in C order, built in one pass over its angles: a row's
    leading angles gathered per row, its trailing ones broadcast along
    their own axes. Every block is written into one reused buffer,
    its prior values are added into its log weights, and the log-sum
    reduction takes it as it comes; a per-point power term
    (power_log_integrand, as compare's plain grid uses it) runs on one
    block too. p_1..p_r depend on t_1..t_r alone, so a prior that reads
    only p_1..p_r (prior_bins = r) couples just the first r axes: the
    tensor grid covers those, k^r points, and each later axis is one
    1-D sum of its factors, (n-1-r) k more. log_prior then gets
    (count, r+1) points, p_1..p_r and the mass left for bins r+1..n;
    at r = 0 that is the grid's one point [[1.0]]. The axis rule costs
    O(k^2) to build, so the budget bounds its k ceil(k/2) recurrence
    steps too, before it is built.
monte_carlo
    Uniform sampling of the angle box, weighted by the Jacobian and
    the box volume. Uniform in theta is intentionally NOT uniform on
    the simplex; the Jacobian is what corrects the distortion, so do
    not reuse these samples as simplex draws. Deterministic for a
    fixed seed: samples come in batches of 2^16 from a counter-based
    Philox generator keyed (seed, batch_index), and the reduction
    always runs in batch order, so any future parallel split over
    batches reproduces the serial result bit for bit. Points need
    nothing from each other, so a batch runs in blocks of _BLOCK
    points that read the Philox stream in order: per block, three
    scratch arrays of n rows, reused throughout the call, hold the
    draws, the angles one per row and the points one bin per row. The
    map, the log-Jacobian and the power term are passes over those
    rows (spherical._map_rows and _log_power_rows), and their sums
    over angles and bins keep np.sum's pairwise order, so they equal
    angles_to_simplex, log_jacobian and power_log_integrand bit for
    bit. Per batch: the log values and their squares, reduced once. A
    prior gets each block's points one per row, as elsewhere, in one
    call per block, and its values are added to the block's power
    terms.
nested_oracle
    Brute-force iterated integration in raw p coordinates (see the
    oracle module). Kept free of any shared code with the angle-based
    schemes so it can serve as independent ground truth.

Integrands come in one form, through one core (integrate_simplex_log):
counts m and a log prior, for prod p_i^{m_i} exp(log_prior(p)), or
None for no prior. The grid folds the power into its axis factors,
the oracle into its nesting, and Monte Carlo adds it per point. Sums
accumulate in log space with a running max shift: products of many
bin powers underflow linear doubles long before they stop mattering.
"""

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .moments import as_exponent_vector
from .oracle import nested_simplex_integral
from .spec import (
    BUDGET_ENV_VAR,
    DEFAULT_EVAL_BUDGET,
    IntegrationError,
    QuadratureSpec,
    _whole,
    resolve_eval_budget,
)
from .spherical import (
    HALF_PI,
    _log_kernels,
    _log_power_rows,
    _map_rows,
    # not called here; perfbench/tracer.py wraps these three names
    angles_to_simplex,  # noqa: F401
    log_jacobian,  # noqa: F401
    log_kernel,  # noqa: F401
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

_MC_BATCH = 1 << 16
# points per block of a Monte Carlo batch and of the full tensor grid,
# the grid's unit of its log-sum reduction too: n rows of this many
# doubles stay in cache; 4096 was slower at n = 5
_BLOCK = 1 << 13


class IntegralEstimate(namedtuple(
    "IntegralEstimate", ("log_value", "std_error", "evaluations", "scheme"),
)):
    """An integral value in log form plus how it was obtained, immutable.

    std_error is monte_carlo's linear-scale 1-sigma estimate (inf past
    linear doubles) and exactly 0.0 for the deterministic schemes.
    """

    __slots__ = ()

    def __new__(cls, log_value, std_error, evaluations, scheme):
        if not std_error >= 0.0:
            raise ValueError("std_error must be nonnegative")
        if evaluations <= 0:
            raise ValueError("evaluations must be positive")
        # normalize numpy scalars so reports serialize cleanly
        return super().__new__(cls, float(log_value), float(std_error),
                               int(evaluations), scheme)

    # _replace builds through _make, so the checks hold there too
    _make = classmethod(lambda cls, fields: cls(*fields))

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
    return _gauss_legendre_cached(_whole("count", count, 2))


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

    Arrays are added in a fixed order and reduced with plain numpy
    sums, so results are bit-stable from run to run. add shifts and
    exponentiates an array in place: the caller's array is overwritten.
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
        np.subtract(log_values, self.shift, out=log_values)
        self.total += float(np.sum(np.exp(log_values, out=log_values)))

    @property
    def log_sum(self):
        if self.total <= 0.0 or self.shift == -math.inf:
            return -math.inf
        return self.shift + math.log(self.total)


def power_log_integrand(m):
    """Vectorized log integrand for prod p_i^{m_i}.

    The returned function maps points (..., n) to their log values.
    Zero exponents contribute nothing even at p_i = 0 (the 0^0 = 1
    convention), so boundary points do not produce NaNs. The bins are
    summed in np.sum(axis=-1)'s order, as Monte Carlo sums them, in one
    pass with one (n, count) scratch: the grid hands it a block of at
    most _BLOCK points, and a larger batch gets a scratch of its size.
    """
    m = np.asarray(as_exponent_vector(m))

    def log_f(points):
        points = np.asarray(points, dtype=float)
        if points.ndim == 0 or points.shape[-1] != m.size:
            raise ValueError(f"points need {m.size} bins, got shape {points.shape}")
        return _log_power_rows(m, np.moveaxis(points, -1, 0))

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
    return theta, [log_w + k for k in _log_kernels(m, theta, range(m.size - 1))]


def _axis_log_sums(axis_logs):
    # each axis summed on its own, the sums added left to right: the
    # integral of the per-axis factors where nothing couples the axes
    log_total = 0.0
    for logs in axis_logs:
        acc = _LogSumAccumulator()
        acc.add(logs)
        log_total += acc.log_sum
    return log_total


def _gauss_grid(m, log_prior, nodes, budget, prior_bins):
    d = m.size - 1
    r = 0 if log_prior is None else d if prior_bins is None else min(prior_bins, d)
    total = (0 if log_prior is None else nodes ** r) + (d - r) * nodes
    _check_budget(
        f"gauss_grid with {nodes} nodes on {r} tensor axes of {d}", total, budget
    )
    # each Newton sweep of the axis rule runs the k-step recurrence on
    # ceil(k/2) nodes; the budget limits that too, though never below
    # the default, so a small budget refuses no rule the default builds
    steps, limit = nodes * ((nodes + 1) // 2), max(budget, DEFAULT_EVAL_BUDGET)
    if steps > limit:
        raise IntegrationError(
            f"the {nodes}-node axis rule needs {steps} recurrence steps, "
            f"over the limit of {limit}"
        )
    theta, axis_logs = _axis_factors(m, nodes)
    tail = _axis_log_sums(axis_logs[r:])
    if log_prior is None:
        return tail, total
    acc = _LogSumAccumulator()
    # blocks of whole leading-index rows, built from per-axis factors
    # into one reused point buffer; the prior's values go into each
    # block's log weights, which the reduction then takes as they are
    for points, logs in tensor_grid_blocks(theta, axis_logs[:r], _BLOCK):
        logs += _checked_log_values(log_prior, points, points.shape[0])
        acc.add(logs)
    return acc.log_sum + tail, total


def _monte_carlo(m, log_prior, samples, seed, budget):
    _check_budget(f"monte_carlo with {samples} samples", samples, budget)
    n = m.size
    d = n - 1
    log_cube = d * math.log(HALF_PI)
    # per batch: its log values and squares; per block: the scratch
    # rows of the map, flat so that a short block is whole rows too
    size = min(samples, _MC_BATCH)
    block = min(size, _BLOCK)
    draws, work, points = np.empty(n * block), np.empty(n * block), np.empty(n * block)
    logs, squares = np.empty(size), np.empty(size)

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
        batch_logs = logs[:count]
        # every point is independent of the others, so the batch runs
        # in cache-sized blocks; consecutive draws read the stream in the
        # order one draw of the whole batch would
        for start in range(0, count, block):
            c = min(block, count - start)
            # drawn one point per row, the stream's order; then one angle
            # per row, in [0, pi/2) and so unchecked, for every later step
            uniform = draws[: d * c].reshape(c, d)
            rng.random(out=uniform)
            theta = work[: d * c].reshape(d, c)
            np.multiply(uniform.T, HALF_PI, out=theta)
            by_bin = points[: n * c].reshape(n, c)
            block_logs = batch_logs[start:start + c]
            _map_rows(theta, draws[: d * c].reshape(d, c), by_bin, block_logs)
            block_logs += log_cube
            power = _log_power_rows(m, by_bin, work[: n * c].reshape(n, c))
            if log_prior is not None:
                # the prior gets one point per row, as the other schemes
                # give it, in the draws' scratch that the map is done with
                by_point = draws[: n * c].reshape(c, n)
                np.copyto(by_point, by_bin.T)
                power += _checked_log_values(log_prior, by_point, c)
            block_logs += power
        batch_squares = np.multiply(2.0, batch_logs, out=squares[:count])
        acc_mean.add(batch_logs)
        acc_square.add(batch_squares)
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
        try:
            std_error = math.exp(0.5 * (log_variance - log_samples))
        except OverflowError:
            std_error = math.inf
    return log_mean, std_error, samples


def integrate_simplex_log(m, log_prior, spec, budget=None, prior_bins=None):
    """Integrate prod p_i^{m_i} exp(log_prior(p)) over the simplex.

    m holds the exponents (counts, each > -1), one per bin. log_prior
    maps a (k, n) array of simplex points to k log values; -inf encodes
    a zero. For a general f pass m = np.zeros(n) and np.log(f(points)):
    a negative f then comes in as NaN and is rejected. log_prior None
    means no prior: nothing is evaluated per point, each scheme gives a
    zero prior's bits, and gauss_grid is n-1 one-axis sums, (n-1) k
    evaluations for k nodes per axis (integrate_separable). gauss_grid
    folds the power into its per-axis factors, nested_oracle into its
    nesting, and monte_carlo adds it to log_prior per point. log_prior
    gets at most _BLOCK (8192) points per call on gauss_grid (one row
    of the grid, if a single axis has more nodes), whose log-sum
    reduction takes the same blocks, on monte_carlo, and 15 on
    nested_oracle. This is the one integration core: every scheme and
    the command line come through here, so the shape, NaN and +inf
    checks on prior values hold on every route.

    prior_bins = r promises that log_prior reads only p_1..p_r; None
    means it may read every bin. gauss_grid then runs its tensor grid
    on the first r angles only, at k^r + (n-1-r) k evaluations for k
    nodes per axis, and hands log_prior points of shape (count, r+1):
    p_1..p_r and the mass left for the later bins. The other schemes
    ignore it, as does gauss_grid with no prior.
    """
    m = np.asarray(as_exponent_vector(m))
    if not isinstance(spec, QuadratureSpec):
        raise TypeError("spec must be a QuadratureSpec")
    if prior_bins is not None:
        prior_bins = _whole("prior_bins", prior_bins, 0)
    limit = resolve_eval_budget(budget)
    if spec.scheme == "gauss_grid":
        log_value, evaluations = _gauss_grid(
            m, log_prior, spec.nodes_per_axis, limit, prior_bins
        )
        return IntegralEstimate(log_value, 0.0, evaluations, spec.scheme)
    if spec.scheme == "monte_carlo":
        log_value, std_error, evaluations = _monte_carlo(
            m, log_prior, spec.samples, spec.seed, limit
        )
        return IntegralEstimate(log_value, std_error, evaluations, spec.scheme)

    def prior(rows):
        values = _checked_log_values(log_prior, np.array(rows, dtype=float), len(rows))
        # only this exp is quiet: its overflow is an inf the oracle refuses
        with np.errstate(over="ignore"):
            return np.exp(values).tolist()

    return _oracle_estimate(m, None if log_prior is None else prior, spec, limit)


def integrate_separable(m, spec=None, budget=None):
    """Integrate prod p_i^{m_i} as a product of n-1 one-axis integrals.

    The gauss_grid core with no prior: integrate_simplex_log(m, None,
    spec, budget). The integrand separates into per-angle kernels K_j
    (see spherical.log_kernel), so each axis is one 1-D sum, (n-1) k
    evaluations for k nodes, and their product is the value the full
    grid would give, at a tiny fraction of the cost. Accuracy is that
    of gauss_grid: within 1e-12 for integer counts up to 10 at n <= 5
    and 32 nodes, slower for real counts with end singularities.
    """
    if spec is None:
        spec = QuadratureSpec(scheme="gauss_grid")
    if spec.scheme != "gauss_grid":
        raise ValueError(
            "integrate_separable is a Gauss computation; spec.scheme must "
            "be 'gauss_grid'"
        )
    return integrate_simplex_log(m, None, spec, budget)


def _oracle_estimate(m, prior, spec, limit):
    # prior is the oracle module's batch callable, or None
    value, evaluations = nested_simplex_integral(
        m, prior, rel_tol=spec.rel_tol, max_evaluations=limit
    )
    log_value = math.log(value) if value > 0.0 else -math.inf
    return IntegralEstimate(log_value, 0.0, evaluations, spec.scheme)


def nested_oracle(m, prior=None, spec=None, budget=None):
    """Brute-force reference integral of prod p_i^{m_i} * prior(p) in
    raw p coordinates, for n <= 5.

    prior is a scalar callable on the full probability vector, a list
    of n floats, returning a nonnegative float; None means 1. It is
    called once per point, from the batch callable the oracle module
    takes. See the oracle module for the machinery; this wrapper only
    adds the spec/budget plumbing and the log-form result, which it
    shares with integrate_simplex_log's oracle route.
    """
    if spec is None:
        spec = QuadratureSpec(scheme="nested_oracle")
    if spec.scheme != "nested_oracle":
        raise ValueError("spec.scheme must be 'nested_oracle'")
    limit = resolve_eval_budget(budget)
    batch = None if prior is None else (lambda rows: [prior(row) for row in rows])
    return _oracle_estimate(m, batch, spec, limit)
