"""Reference values computed without simplexquad.

Everything here is exact rational arithmetic (``fractions.Fraction``)
or 50-digit mpmath, so a reference is many digits better than any
double-precision output it is compared with.

Dirichlet facts used (counts m_1..m_n, a_i = m_i + 1, A = sum a_i):

- normalization  I(m) = prod Gamma(a_i) / Gamma(A);
- moments        E[prod p_i^k_i] = prod (a_i)_k_i / (A)_|k|, with
  (x)_k the rising factorial, so a polynomial prior integrates as a
  finite sum of exact ratios and exp(c p_i) as its power series;
- marginals      p_i ~ Beta(a, b) with a = a_i and b = A - a, which
  gives the variance and skewness in closed form.

Counts arrive as the decimal strings the benchmark passes to the CLI,
so they are read as exact rationals.
"""

import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 50

# exp(c p) series terms; (|c| = 2)^61 / 61! < 1e-65 bounds the rest
_EXP_TERMS = 61


def counts_of(text):
    """Exact rational counts from a comma-separated CLI argument."""
    return [Fraction(piece) for piece in text.split(",")]


def _mpf(value):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


def _rising(x, k):
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


def log_norm(counts):
    """ln I(m) as a 50-digit mpf; exact factorials for integer counts."""
    a = [m + 1 for m in counts]
    total = sum(a)
    if all(v.denominator == 1 for v in a):
        numerator = math.prod(math.factorial(int(v) - 1) for v in a)
        return mpmath.log(_mpf(Fraction(numerator, math.factorial(int(total) - 1))))
    return mpmath.fsum(mpmath.loggamma(_mpf(v)) for v in a) - mpmath.loggamma(
        _mpf(total)
    )


def dirichlet_moment(counts, powers):
    """E[prod p_i^k_i] under Dirichlet(m + 1), exact."""
    a = [m + 1 for m in counts]
    out = Fraction(1)
    for ai, k in zip(a, powers):
        out *= _rising(ai, k)
    return out / _rising(sum(a), sum(powers))


# Polynomials in p1..pn: {exponent tuple: Fraction coefficient}.


def _constant(n, c):
    return {(0,) * n: Fraction(c)}


def _power(n, i, k, c=1):
    exps = [0] * n
    exps[i - 1] = k
    return {tuple(exps): Fraction(c)}


def _add(*polys):
    out = {}
    for poly in polys:
        for exps, c in poly.items():
            out[exps] = out.get(exps, 0) + c
    return out


def _mul(x, y):
    out = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            exps = tuple(i + j for i, j in zip(ex, ey))
            out[exps] = out.get(exps, 0) + cx * cy
    return out


def _exp_series(n, i, c):
    c = Fraction(c)
    return _add(*(
        _power(n, i, k, c ** k / math.factorial(k)) for k in range(_EXP_TERMS)
    ))


# The priors the workloads use, as CLI text and as the monomial
# expansion of the same function.
PRIORS = {
    "1": lambda n: _constant(n, 1),
    "(1+p2^2)*(2-p1)": lambda n: _mul(
        _add(_constant(n, 1), _power(n, 2, 2)),
        _add(_constant(n, 2), _power(n, 1, 1, -1)),
    ),
    "exp(-2*p1)*(1+p2^2)": lambda n: _mul(
        _exp_series(n, 1, -2), _add(_constant(n, 1), _power(n, 2, 2))
    ),
}


def prior_expectation(counts, prior):
    """E[prior(p)] under Dirichlet(m + 1), exact (series truncated)."""
    poly = PRIORS[prior](len(counts))
    return sum(c * dirichlet_moment(counts, exps) for exps, c in poly.items())


def log_integral(counts, prior):
    """ln of the integral of prior(p) prod p_i^{m_i} over the simplex."""
    return log_norm(counts) + mpmath.log(_mpf(prior_expectation(counts, prior)))


def shifted(counts, indices):
    """Counts raised by one per 1-based bin index, as --moment does."""
    out = list(counts)
    for index in indices:
        out[index - 1] += 1
    return out


def marginal(counts, i):
    """Beta-marginal mean, variance, std dev and skewness of bin i."""
    a = counts[i] + 1
    total = sum(m + 1 for m in counts)
    b = total - a
    variance = a * b / (total * total * (total + 1))
    skewness = (
        2 * _mpf(b - a) * mpmath.sqrt(_mpf(total + 1))
        / (_mpf(total + 2) * mpmath.sqrt(_mpf(a * b)))
    )
    return {
        "mean": _mpf(a / total),
        "variance": _mpf(variance),
        "std_dev": mpmath.sqrt(_mpf(variance)),
        "skewness": skewness,
    }


def rel_err(got, ref):
    """|got / ref - 1|, or |got| where the reference is exactly 0."""
    ref = _mpf(ref)
    if ref == 0:
        return float(abs(_mpf(got)))
    return float(abs(_mpf(got) / ref - 1))


def log_rel_err(got_log, ref_log):
    """Relative error of exp(got_log) against exp(ref_log)."""
    return float(abs(mpmath.expm1(_mpf(got_log) - ref_log)))
