"""Closed-form posterior moments of multinomial bin probabilities.

With observed counts m_1..m_n and a constant prior, the posterior over
the bin probabilities is Dirichlet, density proportional to
prod p_i^{m_i} on the simplex. Its normalization integral is

    I_n = prod_i Gamma(m_i + 1) / Gamma(sum_i (m_i + 1))

which for integer counts reads prod_i m_i! / (N + n - 1)! with
N = sum m_i. Every moment E[prod p_i^{a_i}] is a ratio of two such
integrals, I(m + a) / I(m): a ratio of rising factorials for integer
a, exact at any count, and a difference of logarithms for real a.

Each marginal p_i is Beta(a, b) with a = m_i + 1 and b = N + n - a
(Johnson, Kotz & Balakrishnan, Continuous Multivariate Distributions,
Ch. 49). Mean, variance, skewness and covariance are the Beta and
Dirichlet closed forms in a and b, with the differences of raw
moments cancelled symbolically, so they keep full precision at large
counts where a subtraction of raw moments would lose every digit.
b is summed from the other bins and each form is a product of ratios
like a / (a + b), so neither a dominant count nor a huge total breaks them.

Non-integer counts are fine everywhere (they arise from fractional
pseudo-counts); each m_i only has to stay above -1 so that the Gamma
arguments stay positive.

Bin indices in this module are 1-based, matching the p1, p2, ...
naming used by the expression language and the command line.
"""

import math

import numpy as np

from .special import log_gamma

__all__ = [
    "as_exponent_vector",
    "log_norm_integral",
    "moment",
    "mean",
    "means",
    "second_moment",
    "variance",
    "std_dev",
    "skewness",
    "covariance",
]


def as_exponent_vector(m):
    """Validate counts/exponents: a 1-D vector, n >= 2, every entry > -1."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 1 or m.size < 2:
        raise ValueError("counts must form a 1-D vector with at least two bins")
    if not np.all(np.isfinite(m)) or np.any(m <= -1.0):
        raise ValueError("every count must be a finite value > -1")
    return m


_EXACT_ORDER = 100_000  # largest |a| done factor by factor, in O(|a|)


def _bin_index(i, n):
    if not float(i).is_integer() or not 1 <= int(i) <= n:
        raise IndexError(f"bin index must be an integer in 1..{n}, got {i!r}")
    return int(i) - 1


def log_norm_integral(m) -> float:
    """Return ln I_n for counts m, the log of int prod p_i^{m_i} dp.

    I_n = prod Gamma(m_i + 1) / Gamma(sum (m_i + 1)); for integer
    counts this is prod m_i! / (N + n - 1)!.
    """
    m = as_exponent_vector(m)
    args = m + 1.0
    return math.fsum(log_gamma(a) for a in args) - log_gamma(math.fsum(args))


def moment(m, idx) -> float:
    """Return E[prod_i p_i^{a_i}] for the multi-index a = idx.

    That is I(m + a) / I(m). Entries of idx may be any reals with
    m_i + a_i > -1; a_i = q with zeros elsewhere gives the q-th
    marginal moment of bin i. Non-negative integer a use the rising
    factorials prod_i (m_i + 1)^{(a_i)} / (N + n)^{(|a|)} as |a|
    ratios, each at most 1, so nothing overflows or cancels; real a
    use exp(ln I(m + a) - ln I(m)).
    """
    m = as_exponent_vector(m)
    a = np.asarray(idx, dtype=float)
    if a.shape != m.shape:
        raise ValueError(
            f"moment index has {a.size} entries for {m.size} bins"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError("moment index entries must be finite")
    if np.any(m + a <= -1.0):
        raise ValueError("every shifted count m_i + a_i must stay > -1")
    integer = np.all(a >= 0.0) and np.all(a == np.floor(a))
    if integer and a.sum() <= _EXACT_ORDER:
        # numerator factors m_i + 1 + j, j < a_i, in ascending order:
        # the k-th is at most N + n + k, and the order does not depend
        # on how the bins are numbered
        rising = sorted(c + 1.0 + j for c, k in zip(m.tolist(), a.tolist())
                        for j in range(int(k)))
        t = _total(m)
        return math.prod((x / (t + k) for k, x in enumerate(rising)), start=1.0)
    return math.exp(log_norm_integral(m + a) - log_norm_integral(m))


def _total(m) -> float:
    # N + n, the normalizing total behind every closed-form moment, in
    # one rounding: fsum(m) + n cancels when counts sit near -1
    return math.fsum([*m, m.size])


def mean(m, i) -> float:
    """Posterior mean of bin i: (m_i + 1) / (N + n), N = sum m_j."""
    m = as_exponent_vector(m)
    i = _bin_index(i, m.size)
    return (m[i] + 1.0) / _total(m)


def means(m):
    """All n posterior means at once; they sum to 1 by construction."""
    m = as_exponent_vector(m)
    return (m + 1.0) / _total(m)


def _beta_marginal(m, i):
    # bin i's Beta(a, b), b summed from the other bins, not N + n - a
    m = as_exponent_vector(m)
    i0 = _bin_index(i, m.size)
    return float(m[i0]) + 1.0, math.fsum([*np.delete(m, i0), m.size - 1])


def second_moment(m, i) -> float:
    """E[p_i^2] = (m_i + 2)(m_i + 1) / ((N + n + 1)(N + n))."""
    a, b = _beta_marginal(m, i)
    return (a / (a + b)) * ((a + 1.0) / (a + b + 1.0))


def variance(m, i) -> float:
    """Posterior variance of bin i, in closed form.

    var p_i = (m_i + 1)(N + n - m_i - 1) / ((N + n)^2 (N + n + 1)),
    which is E[p_i^2] - E[p_i]^2 with the cancellation done
    symbolically.
    """
    a, b = _beta_marginal(m, i)
    t = a + b
    return (a / t) * (b / t) / (t + 1.0)


def std_dev(m, i) -> float:
    """Posterior standard deviation of bin i: sqrt(variance)."""
    return math.sqrt(variance(m, i))


def skewness(m, i) -> float:
    """Posterior skewness of bin i, from its Beta(a, b) marginal.

    2 (b - a) sqrt(a + b + 1) / ((a + b + 2) sqrt(a b)) with
    a = m_i + 1 and b = N + n - a. Zero for symmetric marginals;
    positive means a tail toward larger p_i.
    """
    a, b = _beta_marginal(m, i)
    t = a + b
    spread = math.sqrt(t + 1.0) / (math.sqrt(a) * math.sqrt(b))
    return 2.0 * ((b - a) / (t + 2.0)) * spread


def covariance(m, i, j) -> float:
    """Posterior covariance of bins i and j, in closed form.

    cov(p_i, p_j) = -a_i a_j / (A^2 (A + 1)) for i != j, with
    a_i = m_i + 1 and A = N + n: E[p_i p_j] - E[p_i] E[p_j] with the
    cancellation done symbolically. Negative: the bins compete for the
    same unit of probability. covariance(m, i, i) is variance.
    """
    m = as_exponent_vector(m)
    i0 = _bin_index(i, m.size)
    j0 = _bin_index(j, m.size)
    if i0 == j0:
        return variance(m, i)
    t = _total(m)
    return -((m[i0] + 1.0) / t) * ((m[j0] + 1.0) / t) / (t + 1.0)
