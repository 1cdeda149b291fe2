"""Log-domain special functions.

Expected values come from three independent sources: hand-checkable
identities (Gamma(1) = 1, Gamma(1/2) = sqrt(pi), B(a, 1) = 1/a),
exact integer factorials, and mpmath evaluated at 50 significant
digits as a high-precision oracle.
"""

import math

import mpmath
import numpy as np
import pytest

from simplexquad import log_beta, log_factorial, log_gamma

mpmath.mp.dps = 50


def mp_log_gamma(x):
    return float(mpmath.log(mpmath.gamma(mpmath.mpf(x))))


class TestLogGamma:
    def test_integer_arguments_match_factorials(self):
        # Gamma(k) = (k-1)!
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
        assert log_gamma(11.0) == pytest.approx(math.log(3628800.0), rel=1e-15)

    def test_half_integer_value(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan")])
    def test_rejects_nonpositive_and_nan(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    def test_accuracy_against_high_precision_oracle(self):
        """Relative error <= 1e-13 over [0.5, 1e6], mpmath at 50 digits.

        lgamma crosses zero at x = 1 and x = 2, so the error is scaled
        by max(1, |exact|) to keep the criterion meaningful there.
        """
        rng = np.random.default_rng(61094)
        xs = np.concatenate([
            rng.uniform(0.5, 3.0, 200),
            np.exp(rng.uniform(math.log(3.0), math.log(1e6), 400)),
            [0.5, 1.0, 2.0, 1e6],
        ])
        for x in xs:
            exact = mp_log_gamma(x)
            err = abs(log_gamma(float(x)) - exact) / max(1.0, abs(exact))
            assert err <= 1e-13, f"x={x}: rel err {err:.3e}"

    def test_recurrence_residual_tracks_representation_limit(self):
        """log_gamma(x+1) - log_gamma(x) = log(x) up to rounding.

        The residual cannot stay below a fixed absolute bound for large
        x in double precision: near x = 1e5 the two lgamma values are
        ~1e6, where one unit in the last place is already 2.3e-10, so
        the difference carries a few ulp of that magnitude no matter
        how the function is implemented. The bound below is therefore
        1e-12 or 8 ulp of the larger value, whichever is bigger; the
        observed worst case is about 4 ulp.
        """
        rng = np.random.default_rng(7)
        xs = np.exp(rng.uniform(math.log(0.5), math.log(1e5), 2000))
        for x in xs:
            x = float(x)
            residual = abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x))
            bound = max(1e-12, 8.0 * math.ulp(log_gamma(x + 1.0)))
            assert residual <= bound, f"x={x}: residual {residual:.3e}"


class TestLogBeta:
    def test_unit_second_argument(self):
        """B(a, 1) = 1/a.

        The bound grows with ulp(lgamma(a + 1)) because the identity
        is reached by cancelling lgamma(a) against lgamma(a + 1).
        """
        for a in (0.5, 1.0, 2.0, 7.5, 300.0):
            bound = max(1e-13, 8.0 * math.ulp(log_gamma(a + 1.0)))
            assert log_beta(a, 1.0) == pytest.approx(-math.log(a), abs=bound)

    def test_symmetry_is_bit_identical(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            a, b = np.exp(rng.uniform(math.log(1e-2), math.log(1e4), 2))
            assert log_beta(float(a), float(b)) == log_beta(float(b), float(a))

    def test_accuracy_against_high_precision_oracle_moderate_range(self):
        # a, b <= 50: the three lgamma terms stay small enough that a
        # flat relative bound is meaningful
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b = np.exp(rng.uniform(math.log(0.5), math.log(50.0), 2))
            exact = float(
                mpmath.log(mpmath.beta(mpmath.mpf(float(a)), mpmath.mpf(float(b))))
            )
            err = abs(log_beta(float(a), float(b)) - exact) / max(1.0, abs(exact))
            assert err <= 1e-13

    def test_accuracy_against_high_precision_oracle_wide_range(self):
        """Error stays within a few ulp of the cancelling terms.

        For large a + b the result is a small difference of lgamma
        values in the thousands, so the attainable absolute error is
        set by the magnitude of those terms, not of the result.
        """
        rng = np.random.default_rng(32)
        for _ in range(200):
            a, b = np.exp(rng.uniform(math.log(0.5), math.log(1e3), 2))
            a, b = float(a), float(b)
            exact = float(mpmath.log(mpmath.beta(mpmath.mpf(a), mpmath.mpf(b))))
            bound = 8.0 * math.ulp(max(abs(log_gamma(a)), abs(log_gamma(b)),
                                       abs(log_gamma(a + b)), 1.0))
            assert abs(log_beta(a, b) - exact) <= bound

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0),
                                     (2.0, -0.5), (float("nan"), 1.0)])
    def test_rejects_nonpositive_arguments(self, a, b):
        with pytest.raises(ValueError):
            log_beta(a, b)


class TestLogFactorial:
    def test_small_arguments_are_correctly_rounded(self):
        # k <= 20: k! is exact in binary64, so log(k!) is one rounding
        for k in range(21):
            assert log_factorial(k) == math.log(math.factorial(k))

    def test_boundary_values(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0
        assert log_factorial(2) == math.log(2.0)

    def test_integer_valued_floats_are_accepted(self):
        assert log_factorial(5.0) == log_factorial(5)

    def test_a_fractional_string_is_refused_by_the_whole_number_rule(self):
        # int("3.5") once raised its own "invalid literal" message
        with pytest.raises(ValueError, match="must be an integer, got '3.5'"):
            log_factorial("3.5")
        assert log_factorial("5") == log_factorial(5)

    @pytest.mark.parametrize("bad", [-1, -7, 1.5, float("nan"), float("inf")])
    def test_rejects_negative_and_fractional(self, bad):
        with pytest.raises(ValueError):
            log_factorial(bad)

    def test_large_argument_against_summed_logs(self):
        # ln 170! = sum_{k=2}^{170} ln k, summed at 50 digits
        exact = float(mpmath.fsum(mpmath.log(k) for k in range(2, 171)))
        assert log_factorial(170) == pytest.approx(exact, rel=1e-15)

    def test_agrees_with_log_gamma_shifted_by_one(self):
        for k in (0, 1, 5, 20, 21, 50, 500, 10_000):
            lg = log_gamma(k + 1.0)
            assert log_factorial(k) == pytest.approx(lg, rel=1e-13, abs=1e-13)
