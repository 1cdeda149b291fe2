"""Log-domain special functions.

Everything downstream stores nonnegative magnitudes as natural logs
(negative infinity encodes an exact zero): the normalization integrals
shrink like 1/(N + n - 1)! and underflow double precision long before
the counts get interesting. Multiplying magnitudes is adding logs.

All arguments in scope are strictly positive (they arrive as m_i + 1
with m_i > -1), so the negative axis and the poles of Gamma are
rejected rather than handled.
"""

import math

from .spec import _whole

__all__ = ["log_gamma", "log_beta", "log_factorial"]

# k! is exact in binary64 up to k = 20 (2^53 > 20!).
_EXACT_FACTORIALS = tuple(math.factorial(k) for k in range(21))


def log_gamma(x: float) -> float:
    """Return ln Gamma(x) for x > 0.

    Relative error stays below 1e-13 on [0.5, 1e6].
    """
    # not x > 0 also catches nan
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """Return ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b).

    B(a, b) is the value of a single angular integral
    2 * int_0^{pi/2} cos^{2a-1}(t) sin^{2b-1}(t) dt, which is why it
    shows up everywhere the simplex is parametrized by angles.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"log_beta requires a > 0 and b > 0, got a={a!r}, b={b!r}")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def log_factorial(k: int) -> float:
    """Return ln k! for a whole number k >= 0 (5, 5.0 or "5"), else ValueError.

    For k <= 20 the factorial is computed exactly as an integer first,
    so the result is correctly rounded; beyond that it is ln Gamma(k+1).
    """
    k = _whole("log_factorial argument", k, 0)
    if k <= 20:
        return math.log(_EXACT_FACTORIALS[k])
    return math.lgamma(k + 1.0)
