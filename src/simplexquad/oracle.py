"""Brute-force ground truth: iterated adaptive integration in raw coordinates.

The normalization integral and friends can be written as a nested set
of one-dimensional integrals directly over the probabilities,

    int_0^1 dp_1 int_0^{1-p_1} dp_2 ... int_0^{1-...-p_{n-2}} dp_{n-1} f(p),

with the last probability fixed by the simplex constraint. The
integrand is prod p_i^{m_i} times an optional prior; each level
multiplies its own p_i^{m_i} into a running factor, so the counts are
folded into the nesting and only the prior is a callable. This module
evaluates exactly that, one adaptive Gauss-Kronrod pass per nesting
level, in plain linear arithmetic. It is slow by design and shares no
code with the spherical change of variables, so the two routes can
serve as independent checks on each other. Practical up to n = 5.

Everything here is deliberately self-contained: no numpy, no package
imports beyond the exception type it defines.
"""

import math

__all__ = ["IntegrationError", "nested_simplex_integral", "gauss_kronrod"]


class IntegrationError(RuntimeError):
    """Numerical integration could not meet its contract."""

    evaluations = 0  # what a failed nested_simplex_integral had spent


# 15-point Kronrod extension of 7-point Gauss on [-1, 1], the classical
# published constants. Nodes are symmetric; weights listed per node.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# 7-point Gauss weights, paired with _XGK[1], _XGK[3], _XGK[5], _XGK[7]
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# depth must allow bisection from unit width all the way down to
# _MIN_WIDTH (2^-50 < 1e-15), so that integrable endpoint
# singularities bottom out on a negligible sliver instead of erroring
_MAX_DEPTH = 54
_MIN_WIDTH = 1e-15


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit):
        self.remaining = int(limit)

    def spend(self, count):
        if count > self.remaining:
            raise IntegrationError(
                "nested integration exhausted its evaluation budget"
            )
        self.remaining -= count


def gauss_kronrod(f, a, b, budget):
    """One 15-point Kronrod pass over [a, b], charged to budget.

    Returns (integral, error_estimate) where the error estimate is the
    difference from the embedded 7-point Gauss rule, the usual
    conservative proxy for the true error.
    """
    budget.spend(15)
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    fc = f(center)
    result_k = _WGK[7] * fc
    result_g = _WG[3] * fc
    for i in range(7):
        off = half * _XGK[i]
        v = f(center - off) + f(center + off)
        result_k += _WGK[i] * v
        if i % 2 == 1:
            result_g += _WG[i // 2] * v
    result_k *= half
    result_g *= half
    return result_k, abs(result_k - result_g)


def _adaptive(f, a, b, tol, budget, depth):
    value, err = gauss_kronrod(f, a, b, budget)
    if err <= tol or (b - a) <= _MIN_WIDTH:
        return value
    if depth >= _MAX_DEPTH:
        raise IntegrationError(
            f"adaptive integration did not converge on [{a}, {b}]"
        )
    mid = 0.5 * (a + b)
    half_tol = 0.5 * tol
    return _adaptive(f, a, mid, half_tol, budget, depth + 1) + _adaptive(
        f, mid, b, half_tol, budget, depth + 1
    )


def _integrate(f, a, b, rel_tol, budget):
    # Scale the refinement target by the first whole-interval estimate,
    # so rel_tol means what it says for integrals away from magnitude 1.
    value, err = gauss_kronrod(f, a, b, budget)
    tol = max(rel_tol * abs(value), 1e-300)
    if err <= tol:
        return value
    mid = 0.5 * (a + b)
    half_tol = 0.5 * tol
    return _adaptive(f, a, mid, half_tol, budget, 1) + _adaptive(
        f, mid, b, half_tol, budget, 1
    )


def _pow(base, exponent):
    # 0^0 = 1 here: a zero exponent removes the factor
    if base <= 0.0:
        return 1.0 if exponent == 0.0 else 0.0
    return base ** exponent


def nested_simplex_integral(m, prior=None, rel_tol=1e-10, max_evaluations=10**8):
    """Integrate prod p_i^{m_i} * prior(p) over the simplex by direct
    nesting in p coordinates.

    Parameters
    ----------
    m : sequence of float
        Exponents (counts), one per bin, each finite and > -1. The bin
        count n = len(m) must satisfy 2 <= n <= 5 (cost explodes
        beyond that; use the spherical schemes instead).
    prior : callable, optional
        Takes the full probability vector as a list of n floats and
        returns a nonnegative float. None means 1, and then no prior is
        evaluated.
    rel_tol : float
        Per-level refinement target, relative to each level's first
        whole-interval estimate.
    max_evaluations : int
        Hard cap on innermost integrand evaluations.

    Returns
    -------
    (value, evaluations) : (float, int)
    """
    m = [float(v) for v in m]
    n = len(m)
    if n < 2:
        raise ValueError("exponent vector must have at least two bins")
    if any(not math.isfinite(v) or v <= -1.0 for v in m):
        raise ValueError("every exponent must be a finite value > -1")
    if n > 5:
        raise ValueError(
            f"nested integration is practical only for 2 <= n <= 5, got n={n}"
        )
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")

    budget = _Budget(max_evaluations)

    def level(factor, prefix, remaining, k):
        # factor is the product of the outer powers and prefix the outer
        # probabilities; k is the 0-based index of the probability being
        # integrated. The innermost level is k = n-2, where p_{n-1}
        # (0-based) is fixed to the leftover mass.
        if k == n - 2:
            def inner(p):
                leftover = remaining - p
                if leftover < 0.0:
                    leftover = 0.0
                value = factor * _pow(p, m[k]) * _pow(leftover, m[n - 1])
                if prior is None:
                    return value
                return value * prior(prefix + [p, leftover])
            return _integrate(inner, 0.0, remaining, rel_tol, budget)

        def outer(p):
            return level(factor * _pow(p, m[k]), prefix + [p], remaining - p, k + 1)
        return _integrate(outer, 0.0, remaining, rel_tol, budget)

    try:
        value = level(1.0, [], 1.0, 0)
    except IntegrationError as exc:
        exc.evaluations = max_evaluations - budget.remaining
        raise
    return value, max_evaluations - budget.remaining
