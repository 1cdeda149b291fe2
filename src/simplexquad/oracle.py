"""Brute-force ground truth: iterated adaptive integration in raw coordinates.

The normalization integral and friends can be written as a nested set
of one-dimensional integrals directly over the probabilities,

    int_0^1 dp_1 int_0^{1-p_1} dp_2 ... int_0^{1-...-p_{n-2}} dp_{n-1} f(p),

with the last probability fixed by the simplex constraint. The
integrand is prod p_i^{m_i} times an optional prior; each level
multiplies its own p_i^{m_i} into a running factor, so the counts are
folded into the nesting and only the prior is a callable. This module
evaluates exactly that, one adaptive Gauss-Kronrod pass per nesting
level, in plain linear arithmetic. A pass hands its integrand all 15
abscissae in one call, so the prior is called once per innermost pass,
on 15 points. It is slow by design and shares no code with the
spherical change of variables, so the two routes can serve as
independent checks on each other. Practical up to n = 5.

Everything here is deliberately self-contained: it imports only math
and the exception type IntegrationError from spec, so no numpy.
"""

import math

from .spec import IntegrationError

__all__ = ["IntegrationError", "nested_simplex_integral", "gauss_kronrod"]


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

    f takes the pass's 15 abscissae as one list, the center first and
    then center - offset, center + offset for each Kronrod offset from
    the outermost in, and returns their 15 values in that order.
    Returns (integral, error_estimate) where the error estimate is the
    difference from the embedded 7-point Gauss rule, the usual
    conservative proxy for the true error. Both sums add the center
    term and then the symmetric pairs, outermost first, left to right.
    """
    budget.spend(15)
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    o0, o1, o2, o3, o4, o5, o6 = [half * x for x in _XGK[:7]]
    fc, f0m, f0p, f1m, f1p, f2m, f2p, f3m, f3p, f4m, f4p, f5m, f5p, f6m, f6p = f([
        center,
        center - o0, center + o0, center - o1, center + o1,
        center - o2, center + o2, center - o3, center + o3,
        center - o4, center + o4, center - o5, center + o5,
        center - o6, center + o6,
    ])
    # the pairs that the Gauss rule shares
    v1 = f1m + f1p
    v3 = f3m + f3p
    v5 = f5m + f5p
    result_k = (_WGK[7] * fc + _WGK[0] * (f0m + f0p) + _WGK[1] * v1
                + _WGK[2] * (f2m + f2p) + _WGK[3] * v3 + _WGK[4] * (f4m + f4p)
                + _WGK[5] * v5 + _WGK[6] * (f6m + f6p)) * half
    result_g = (_WG[3] * fc + _WG[0] * v1 + _WG[1] * v3 + _WG[2] * v5) * half
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
        A batch callable: takes a list of probability vectors, each a
        list of n floats, and returns one finite nonnegative float per
        vector, in order; anything else is an IntegrationError in the
        first pass that sees it. The innermost level calls it once per
        Kronrod pass, with that pass's 15 points. None means 1, and then
        no prior is evaluated.
    rel_tol : float
        Per-level refinement target, relative to each level's first
        whole-interval estimate.
    max_evaluations : int
        Hard cap on evaluations, charged 15 per pass at every level.
        For n >= 3 the first outer pass is predicted from its first
        node, and refused at once if 15 times that node's inner cost
        exceeds the evaluations left.

    Returns
    -------
    (value, evaluations) : (float, int)

    Raises
    ------
    IntegrationError
        With the evaluations spent, when the budget runs out or would, a
        pass does not converge, a prior value is bad or, with no prior,
        the value underflows to 0.0 (prod p_i^{m_i} > 0 in the simplex).
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
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(
            f"rel_tol must be positive and finite, got {rel_tol!r}"
        )

    budget = _Budget(max_evaluations)
    # p^m_i is p ** m_i for p > 0; a base of 0 gives zero[i], so that
    # 0^0 = 1 (a zero exponent removes the factor)
    zero = [1.0 if v == 0.0 else 0.0 for v in m]
    predicted = False  # whether the first outer pass's cost was predicted

    def level(factor, prefix, remaining, k):
        # factor is the product of the outer powers and prefix the outer
        # probabilities; k is the 0-based index of the probability being
        # integrated. The innermost level is k = n-2, where p_{n-1}
        # (0-based) is fixed to the leftover mass, clipped at 0 where
        # roundoff took p past it.
        mk, zk = m[k], zero[k]
        if k == n - 2:
            ml, zl = m[n - 1], zero[n - 1]

            def inner(points):
                values = [
                    factor * (p ** mk if p > 0.0 else zk) * (q ** ml if q > 0.0 else zl)
                    for p in points for q in [remaining - p if p < remaining else 0.0]
                ]
                if prior is None:
                    return values
                weights = list(prior([prefix + [p, remaining - p if p < remaining else 0.0]
                                      for p in points]))
                # stop at the first bad value, which would only steer the bisection
                if len(weights) != len(points) or not all(
                    0.0 <= w < math.inf for w in weights
                ):
                    raise IntegrationError(
                        "prior must return one finite nonnegative value per point"
                    )
                return [v * w for v, w in zip(values, weights)]
            return _integrate(inner, 0.0, remaining, rel_tol, budget)

        def outer(points):
            nonlocal predicted
            values = []
            for p in points:
                left = budget.remaining
                values.append(level(factor * (p ** mk if p > 0.0 else zk),
                                    prefix + [p], remaining - p, k + 1))
                if k == 0 and not predicted:
                    # fail fast: the first outer pass has 15 nodes, each
                    # about as dear as the first one's inner subproblem
                    predicted = True
                    need = 15 * (left - budget.remaining)
                    if need > budget.remaining:
                        raise IntegrationError(
                            f"nested integration would need about {need} "
                            "evaluations for its first outer pass, over the "
                            f"{budget.remaining} left of its budget of "
                            f"{max_evaluations}"
                        )
            return values
        return _integrate(outer, 0.0, remaining, rel_tol, budget)

    try:
        value = level(1.0, [], 1.0, 0)
        if prior is None and value == 0.0:
            raise IntegrationError("the nested oracle underflowed to 0")
    except IntegrationError as exc:
        exc.evaluations = max_evaluations - budget.remaining
        raise
    return value, max_evaluations - budget.remaining
