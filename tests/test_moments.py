"""Closed-form posterior moments.

Oracles, in order of authority: exact rational arithmetic through the
factorial form I = prod(m_i!) / (N + n - 1)! for integer counts, the
brute-force nested quadrature oracle for small real-count cases, and
internal cross-routes (generic moment ratios vs the specialized closed
forms, which share no algebra beyond log_gamma).
"""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from simplexquad import (
    as_exponent_vector,
    covariance,
    log_norm_integral,
    mean,
    means,
    moment,
    second_moment,
    skewness,
    std_dev,
    variance,
)
from simplexquad.moments import _beta_marginals
from simplexquad.oracle import nested_simplex_integral

mpmath.mp.dps = 50


def exact_log_norm(counts):
    # I = prod(m_i!) / (N + n - 1)! for integer counts
    value = Fraction(1)
    for c in counts:
        value *= math.factorial(c)
    value /= math.factorial(sum(counts) + len(counts) - 1)
    return float(mpmath.log(mpmath.mpf(value.numerator) / value.denominator))


class TestLogNormIntegral:
    def test_flat_two_bin_integral_is_one(self):
        # int_0^1 dp = 1
        assert log_norm_integral(np.array([0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)

    def test_flat_three_bin_integral_is_a_half(self):
        # area of the triangle p1 + p2 <= 1
        got = log_norm_integral(np.array([0.0, 0.0, 0.0]))
        assert got == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_unit_counts_give_one_over_120(self):
        got = log_norm_integral(np.array([1.0, 1.0, 1.0]))
        assert got == pytest.approx(math.log(1.0 / 120.0), rel=1e-15)

    def test_integer_counts_match_factorial_form(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            counts = [int(c) for c in rng.integers(0, 9, n)]
            got = log_norm_integral(np.array(counts, dtype=float))
            assert got == pytest.approx(exact_log_norm(counts), rel=1e-14, abs=1e-13)

    def test_real_counts_match_nested_oracle(self):
        # fractional counts leave the factorial lattice entirely
        m = np.array([0.5, 0.0, 2.5])
        value, _ = nested_simplex_integral(m, rel_tol=1e-11)
        assert math.exp(log_norm_integral(m)) == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("bad", [
        np.array([1.0]),
        np.array([-1.0, 0.0]),
        np.array([np.nan, 1.0]),
        np.array([[1.0, 2.0]]),
    ])
    def test_rejects_malformed_count_vectors(self, bad):
        with pytest.raises(ValueError):
            log_norm_integral(bad)


class TestMomentRatios:
    def test_zero_multi_index_is_exactly_one(self):
        for m in ([0.0, 0.0], [2.0, 0.0, 1.0], [0.5, 1.5, 3.0, 0.0]):
            m = np.array(m)
            assert moment(m, np.zeros(m.size)) == 1.0

    def test_first_moments_of_a_small_posterior(self):
        # counts (2, 0, 1): means (m_i + 1)/(N + n) = (3, 1, 2)/6
        m = np.array([2.0, 0.0, 1.0])
        assert moment(m, np.array([1.0, 0.0, 0.0])) == pytest.approx(3 / 6, rel=1e-15)
        assert moment(m, np.array([0.0, 1.0, 0.0])) == pytest.approx(1 / 6, rel=1e-15)
        assert moment(m, np.array([0.0, 0.0, 1.0])) == pytest.approx(2 / 6, rel=1e-15)

    def test_ratio_tower_property(self):
        # E_m[p^(a+b)] = E_m[p^a] * E_{m+a}[p^b]: both sides reduce to
        # I(m+a+b)/I(m), split at different intermediate points
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = rng.uniform(0.0, 5.0, n)
            a = rng.integers(0, 3, n).astype(float)
            b = rng.integers(0, 3, n).astype(float)
            lhs = moment(m, a + b)
            rhs = moment(m, a) * moment(m + a, b)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_permutation_equivariance_is_bitwise(self):
        # fsum is correctly rounded and the rising factors are taken in
        # ascending order, so reordering the counts cannot change any of
        # the sums or products the ratio is built from
        rng = np.random.default_rng(18)
        m = rng.uniform(0.0, 9.0, 6)
        a = np.array([2.0, 0.0, 1.0, 0.0, 3.0, 0.0])
        perm = rng.permutation(6)
        assert moment(m, a) == moment(m[perm], a[perm])
        assert log_norm_integral(m) == log_norm_integral(m[perm])

    def test_count_sensitivity_matches_digamma_slope(self):
        """d/dm_i ln I(m) = psi(m_i + 1) - psi(sum(m) + n).

        Central difference of log_norm_integral against mpmath's
        digamma; confirms smooth real-count dependence, not just the
        integer lattice.
        """
        m = np.array([1.3, 0.2, 4.0, 2.5])
        total = float(np.sum(m)) + m.size
        h = 1e-4
        for i in range(m.size):
            up, down = m.copy(), m.copy()
            up[i] += h
            down[i] -= h
            slope = (log_norm_integral(up) - log_norm_integral(down)) / (2 * h)
            exact = float(mpmath.digamma(m[i] + 1.0) - mpmath.digamma(total))
            assert slope == pytest.approx(exact, abs=1e-6)

    @pytest.mark.parametrize("counts, index", [
        ((10 ** 8, 10 ** 8, 1), (1, 1, 0)),
        ((10 ** 7, 2 * 10 ** 7, 3 * 10 ** 7), (0, 1, 2)),
        ((10 ** 6, 3 * 10 ** 6, 5), (1, 1, 1)),
        ((123456789, 5, 987654321, 0), (3, 0, 2, 1)),
    ])
    def test_integer_moments_at_large_counts_are_exact(self, counts, index):
        # E[prod p_i^{a_i}] = prod (m_i + 1)^(a_i) / (N + n)^(|a|), rising
        # factorials; a difference of lgamma values loses ~1e-7 here
        exact = Fraction(1)
        for c, a in zip(counts, index):
            for j in range(a):
                exact *= c + 1 + j
        total = sum(counts) + len(counts)
        for j in range(sum(index)):
            exact /= total + j
        value = moment(np.array(counts, dtype=float), np.array(index, dtype=float))
        assert type(value) is float
        assert abs(Fraction(value) - exact) <= exact * Fraction(1, 10 ** 15)

    def test_rejects_mismatched_or_invalid_multi_indices(self):
        m = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            moment(m, np.array([1.0]))
        with pytest.raises(ValueError):
            moment(m, np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            # shifted exponent m + idx must stay > -1
            moment(np.array([0.0, 0.0]), np.array([-1.5, 0.0]))


class TestClosedForms:
    def test_means_of_the_small_posterior(self):
        m = np.array([2.0, 0.0, 1.0])
        np.testing.assert_allclose(means(m), [0.5, 1 / 6, 1 / 3], rtol=1e-15)
        assert mean(m, 1) == 0.5

    def test_lopsided_five_bin_mean(self):
        m = np.array([10.0, 0.0, 0.0, 0.0, 0.0])
        assert mean(m, 1) == pytest.approx(11.0 / 15.0, rel=1e-15)
        value, _ = nested_simplex_integral(
            np.array([11.0, 0.0, 0.0, 0.0, 0.0]), rel_tol=1e-11
        )
        assert mean(m, 1) == pytest.approx(
            value / math.exp(log_norm_integral(m)), rel=1e-9
        )

    def test_second_moment_of_the_small_posterior(self):
        # E[p_1^2] = (m_1+2)(m_1+1) / ((N+n+1)(N+n)) = 12/42
        m = np.array([2.0, 0.0, 1.0])
        assert second_moment(m, 1) == pytest.approx(12.0 / 42.0, rel=1e-15)

    def test_second_moment_agrees_with_generic_ratio(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            m = rng.uniform(0.0, 8.0, n)
            i = int(rng.integers(1, n + 1))
            idx = np.zeros(n)
            idx[i - 1] = 2.0
            assert second_moment(m, i) == pytest.approx(moment(m, idx), rel=1e-14)

    def test_variance_agrees_with_raw_moments(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(3, 9))
            m = rng.integers(0, 7, n).astype(float)
            for i in range(1, n + 1):
                raw = second_moment(m, i) - mean(m, i) ** 2
                assert variance(m, i) == pytest.approx(raw, rel=1e-14)

    def test_symmetric_counts_give_bitwise_equal_spreads(self):
        m = np.array([3.0, 3.0, 3.0, 3.0])
        for i in (2, 3, 4):
            assert variance(m, i) == variance(m, 1)
            assert std_dev(m, i) == std_dev(m, 1)
            assert skewness(m, i) == skewness(m, 1)

    def test_std_dev_is_the_square_root_of_variance(self):
        m = np.array([2.0, 0.0, 1.0, 5.5])
        for i in range(1, 5):
            assert std_dev(m, i) == math.sqrt(variance(m, i))

    def test_balanced_bin_has_zero_skewness(self):
        # counts (2, 0, 1): bin 1 has mean exactly 1/2, and its
        # marginal is symmetric around it
        assert abs(skewness(np.array([2.0, 0.0, 1.0]), 1)) < 1e-12

    def test_skewness_sign_follows_the_mean(self):
        # rare bins (mean < 1/2) lean right: positive skewness
        m = np.array([1.0, 7.0])
        assert skewness(m, 1) > 0.0
        assert skewness(m, 2) < 0.0

    def test_two_bin_skewness_reflection(self):
        # p_2 = 1 - p_1, so the two skewnesses are mirror images
        rng = np.random.default_rng(43)
        for _ in range(100):
            m = rng.uniform(0.0, 6.0, 2)
            assert skewness(m, 1) == pytest.approx(-skewness(m, 2), rel=1e-10)

    def test_skewness_against_oracle_assembled_moments(self):
        # raw moments E[p_1^q] from the brute-force oracle, then the
        # same standardization arithmetic
        m = np.array([2.0, 0.0, 1.0])
        base, _ = nested_simplex_integral(m, rel_tol=1e-12)
        raw = []
        for q in (1, 2, 3):
            shifted = m.copy()
            shifted[0] += q
            value, _ = nested_simplex_integral(shifted, rel_tol=1e-12)
            raw.append(value / base)
        e1, e2, e3 = raw
        var = e2 - e1 * e1
        third = e3 - 3.0 * e2 * e1 + 2.0 * e1 ** 3
        assert skewness(m, 1) == pytest.approx(third / var ** 1.5, abs=1e-8)

    @pytest.mark.parametrize("counts", [
        (100000, 300000),
        (1000000, 1000001),
        (250000, 3, 740000, 12),
    ])
    def test_skewness_at_large_counts_is_exact(self, counts):
        # Beta(a, b) marginal: skewness^2 = 4 (b-a)^2 (a+b+1) /
        # ((a+b+2)^2 a b), a rational number for integer counts; a
        # subtraction of raw moments loses every digit here
        m = np.array(counts, dtype=float)
        total = sum(counts) + len(counts)
        for i in range(1, len(counts) + 1):
            a = counts[i - 1] + 1
            b = total - a
            exact = Fraction(4 * (b - a) ** 2 * (a + b + 1),
                             (a + b + 2) ** 2 * a * b)
            value = skewness(m, i)
            assert (value > 0.0) == (b > a) and (value < 0.0) == (b < a)
            got = Fraction(value) ** 2
            assert abs(got - exact) <= exact * Fraction(1, 10 ** 14)

    def test_covariance_at_large_counts_is_exact(self):
        # cov(p_i, p_j) = -a_i a_j / (A^2 (A + 1)) with a_i = m_i + 1
        counts = (12345678, 23456789, 34567890, 9876543)
        m = np.array(counts, dtype=float)
        total = sum(counts) + len(counts)
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                exact = Fraction(-(counts[i - 1] + 1) * (counts[j - 1] + 1),
                                 total * total * (total + 1))
                got = Fraction(covariance(m, i, j))
                assert abs(got - exact) <= abs(exact) * Fraction(1, 10 ** 14)

    @pytest.mark.parametrize("counts", [
        (1e20, 1e-3),
        (1e300, 1e300),
        (1e-3, 5.0, 1e20),
    ])
    def test_dominant_and_huge_counts_stay_exact(self, counts):
        # one dominant count must not cancel b = N + n - a of the other
        # bins, and no step may overflow near the top of the doubles;
        # references are the Beta and Dirichlet forms in 50 digits
        m = np.array(counts)
        c = [mpmath.mpf(v) + 1 for v in counts]
        t = mpmath.fsum(c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(1, len(c) + 1):
                a = c[i - 1]
                b = t - a
                var = a * b / (t * t * (t + 1))
                skew = 2 * (b - a) * mpmath.sqrt(t + 1) / (
                    (t + 2) * mpmath.sqrt(a * b))
                got = (variance(m, i), std_dev(m, i), skewness(m, i),
                       second_moment(m, i))
                want = (var, mpmath.sqrt(var), skew, a * (a + 1) / (t * (t + 1)))
                for g, w in zip(got, want):
                    assert g == pytest.approx(float(w), rel=1e-14, abs=0)
                for j in range(1, len(c) + 1):
                    if j != i:
                        cov = -a * c[j - 1] / (t * t * (t + 1))
                        assert covariance(m, i, j) == pytest.approx(
                            float(cov), rel=1e-14, abs=0)

    def test_std_dev_survives_an_underflowing_variance(self):
        # every variance here is below the smallest double, while each
        # standard deviation (1e-262 to 1e-192) is a normal float. The
        # reference sums b from the other bins, not as t - a, in 400
        # digits: t spans 256 orders of magnitude
        counts = (9.98e66, 1.36e129, -0.9999999999961533, -0.0225, 1.03e256)
        m = np.array(counts)
        with mpmath.workdps(400):
            c = [mpmath.mpf(v) + 1 for v in counts]
            for i in range(1, len(c) + 1):
                a = c[i - 1]
                b = mpmath.fsum(c[:i - 1] + c[i:])
                t = a + b
                want = float(mpmath.sqrt(a * b / (t * t * (t + 1))))
                assert variance(m, i) == 0.0
                assert std_dev(m, i) == pytest.approx(want, rel=1e-14, abs=0)

    def test_counts_near_minus_one_round_the_total_once(self):
        # N + n nearly cancels here; summed as fsum(m) + n it is rounded
        # twice and the means drift by ~1e-5. References in 50 digits.
        counts = (-0.9999999999989165, -0.9999999999970104)
        m = np.array(counts)
        c = [mpmath.mpf(v) + 1 for v in counts]
        t = mpmath.fsum(c)
        for i in (1, 2):
            want = float(c[i - 1] / t)
            assert mean(m, i) == pytest.approx(want, rel=1e-14, abs=0)
            assert means(m)[i - 1] == pytest.approx(want, rel=1e-14, abs=0)
        cov = -c[0] * c[1] / (t * t * (t + 1))
        assert covariance(m, 1, 2) == pytest.approx(float(cov), rel=1e-14, abs=0)
        # E[p1^2 p2] by rising factorials
        raw = c[0] * (c[0] + 1) * c[1] / (t * (t + 1) * (t + 2))
        assert moment(m, np.array([2.0, 1.0])) == pytest.approx(
            float(raw), rel=1e-14, abs=0
        )

    def test_covariance_matches_generic_ratio(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = rng.uniform(0.0, 6.0, n)
            i, j = rng.integers(1, n + 1, 2)
            if i == j:
                continue
            idx = np.zeros(n)
            idx[i - 1] += 1.0
            idx[j - 1] += 1.0
            expected = moment(m, idx) - mean(m, i) * mean(m, j)
            assert covariance(m, int(i), int(j)) == pytest.approx(
                expected, rel=1e-12, abs=1e-18
            )

    def test_covariance_against_oracle(self):
        m = np.array([2.0, 0.0, 1.0])
        base, _ = nested_simplex_integral(m, rel_tol=1e-12)
        cross, _ = nested_simplex_integral(np.array([3.0, 1.0, 1.0]), rel_tol=1e-12)
        expected = cross / base - mean(m, 1) * mean(m, 2)
        assert covariance(m, 1, 2) == pytest.approx(expected, rel=1e-8)

    def test_covariance_diagonal_is_the_variance(self):
        m = np.array([1.0, 4.0, 0.5])
        for i in (1, 2, 3):
            assert covariance(m, i, i) == variance(m, i)

    def test_covariance_is_symmetric_bitwise(self):
        m = np.array([1.0, 4.0, 0.5, 2.0])
        for i in (1, 2, 3, 4):
            for j in (1, 2, 3, 4):
                assert covariance(m, i, j) == covariance(m, j, i)

    def test_covariance_rows_sum_to_zero(self):
        # sum_j cov(p_i, p_j) = cov(p_i, 1) = 0
        m = np.array([3.0, 0.0, 1.5, 2.0, 0.5])
        for i in range(1, 6):
            row = math.fsum(covariance(m, i, j) for j in range(1, 6))
            assert abs(row) <= 1e-15

    def test_means_sum_to_one(self):
        rng = np.random.default_rng(45)
        for _ in range(500):
            n = int(rng.integers(2, 65))
            m = rng.uniform(0.0, 12.0, n)
            assert math.fsum(float(v) for v in means(m)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_bin_indices_are_one_based_and_checked(self):
        m = np.array([1.0, 2.0, 3.0])
        with pytest.raises(IndexError):
            mean(m, 0)
        with pytest.raises(IndexError):
            variance(m, 4)
        with pytest.raises(IndexError):
            covariance(m, 1, -1)

    def test_bin_index_is_a_whole_number_of_any_spelling(self):
        m = [1.0, 2.0]
        for i in ("1", 1.0, "1.0", np.int64(1)):
            assert mean(m, i) == mean(m, 1)
        # a whole number out of range, however large, is an IndexError,
        # not float()'s OverflowError
        with pytest.raises(IndexError, match=r"bin index \d+ is outside 1\.\.2"):
            mean(m, 10**400)
        with pytest.raises(ValueError, match="bin index must be an integer"):
            variance(m, 1.5)


# Frozen values of the closed forms, captured before they moved from
# numpy arrays to plain floats; the move must not change a bit. Counts
# near -1, counts of order 1e5, and the vector whose variances
# underflow (see test_std_dev_survives_an_underflowing_variance).
FROZEN = {
    (-0.9999999999989165, -0.9999999999970104, 2.5): {
        "means": [3.095618999229798e-13, 8.54173874487755e-13,
                  0.9999999999988363],
        "variance": [6.879153331613416e-14, 1.898164165525005e-13,
                     2.5860794986851713e-13],
        "std_dev": [2.622814010106972e-07, 4.3567925880457114e-07,
                    5.085351019040054e-07],
        "skewness": [1386435.950984714, 834642.3573920612,
                     -715066.3981183554],
        "covariance": [6.879153331613416e-14, -5.875993054461398e-26,
                       -6.879153331607541e-14, -5.875993054461398e-26,
                       1.898164165525005e-13, -1.8981641655244175e-13,
                       -6.879153331607541e-14, -1.8981641655244175e-13,
                       2.5860794986851713e-13],
        "moment": {(2, 1, 0): 3.7392683073901613e-26,
                   (0.5, 1.75, -0.5): 2.9970498129845944e-25},
        "log_norm_integral": 54.08673400777531,
    },
    (123456.0, 98765.5, 100000.25, 54321.0): {
        "means": [0.3278663273551026, 0.26229545202554533,
                  0.265574593327389, 0.14426362729196307],
        "variance": [5.852378582577622e-07, 5.138698820329166e-07,
                     5.179813946740644e-07, 3.278512038181841e-07],
        "std_dev": [0.0007650084040438786, 0.0007168471817848743,
                    0.0007197092431489708, 0.0005725829230934015],
        "skewness": [0.0023902229383655316, 0.003522489360381309,
                     0.0034600819015357005, 0.006599767893930886],
        "covariance": [5.852378582577622e-07, -2.2838496986786422e-07,
                       -2.312401722041254e-07, -1.2561271618577267e-07,
                       -2.2838496986786422e-07, 5.138698820329166e-07,
                       -1.8499382350128997e-07, -1.0049108866376242e-07,
                       -2.312401722041254e-07, -1.8499382350128997e-07,
                       5.179813946740644e-07, -1.01747398968649e-07,
                       -1.2561271618577267e-07, -1.0049108866376242e-07,
                       -1.01747398968649e-07, 3.278512038181841e-07],
        "moment": {(1, 0, 3, 2): 0.00012781264122703332,
                   (0.5, 2.25, -1.5, 0.0): 0.20599730458234533},
        "log_norm_integral": -507625.36504848767,
    },
    (9.98e66, 1.36e129, -0.9999999999961533, -0.0225, 1.03e256): {
        "means": [9.689320388349514e-190, 1.320388349514563e-127,
                  3.7346609084672255e-268, 9.490291262135922e-257, 1.0],
        "variance": [0.0] * 5,
        "std_dev": [3.067100776491517e-223, 3.580405614482674e-192,
                    1.9041755111209275e-262, 9.598893171497665e-257,
                    3.580405614482674e-192],
        "skewness": [6.3308893783291835e-34, 5.423261445466405e-65,
                     1019731.4068347034, 2.0228869496966944,
                     -5.423261445466405e-65],
        "covariance": [0.0 if i == j else -0.0
                       for i in range(5) for j in range(5)],
        "moment": {(0, 0, 1, 2, 0): 0.0, (0.0, 0.0, 0.5, 1.25, 0.0): 1.0},
        "log_norm_integral": 0.0,
    },
}


def bits(values):
    # equal bit for bit compares equal here, the sign of a zero included
    return [(v, math.copysign(1.0, v)) for v in values]


class TestFrozenValues:
    @pytest.mark.parametrize("counts", list(FROZEN))
    @pytest.mark.parametrize("as_array", [False, True])
    def test_closed_forms_keep_every_bit(self, counts, as_array):
        want = FROZEN[counts]
        m = np.array(counts) if as_array else list(counts)
        bins = range(1, len(counts) + 1)
        assert bits(means(m)) == bits(want["means"])
        for name, fn in (("variance", variance), ("std_dev", std_dev),
                         ("skewness", skewness)):
            assert bits([fn(m, i) for i in bins]) == bits(want[name]), name
        got = [covariance(m, i, j) for i in bins for j in bins]
        assert bits(got) == bits(want["covariance"])
        for index, value in want["moment"].items():
            assert moment(m, index) == value, index
        assert log_norm_integral(m) == want["log_norm_integral"]

    def test_integer_moment_on_both_sides_of_the_exact_order(self):
        # |a| = 1e5 is done factor by factor; one more takes the logs
        m = [1e7, 1.0, 2.0]
        assert moment(m, [100000, 0, 0]) == 0.9514657017374286
        assert moment(m, [100000, 1, 0]) == 1.8840894459586651e-07


def _seeded_count_vectors(count):
    # real counts over many scales, the extremes of the doubles included:
    # the smallest subnormal, 1e+-300, counts a hair above -1 and whole
    # numbers near the top of the exact integers
    rng = np.random.default_rng(20250125)
    extremes = [5e-324, 1e-300, 1e300, -1.0 + 2.0 ** -53, -0.5, 0.0,
                2.0 ** 53 + 2.0, 1e15, 7e12, 0.1, 3.3]
    for _ in range(count):
        n = int(rng.integers(2, 40))
        kind = rng.integers(4)
        if kind == 0:
            m = rng.integers(0, 10, n).astype(float)
        elif kind == 1:
            m = rng.uniform(-0.99, 50.0, n)
        elif kind == 2:
            m = -1.0 + 10.0 ** rng.uniform(-15.0, 0.0, n)
        else:
            m = 10.0 ** rng.uniform(-320.0, 300.0, n)
            m[rng.random(n) < 0.3] = rng.choice(extremes)
        yield [float(v) for v in m]


def _fsum_of_the_others(m):
    # each bin's Beta(a, b) with b summed by fsum, bin by bin
    n = len(m)
    return [(m[i] + 1.0, math.fsum([*m[:i], *m[i + 1:], n - 1]))
            for i in range(n)]


class TestBetaMarginals:
    def test_b_is_the_correctly_rounded_sum_of_the_other_bins(self):
        # the one-pass integer sum keeps fsum's bits
        for m in _seeded_count_vectors(3000):
            assert _beta_marginals(m) == _fsum_of_the_others(m), m

    @pytest.mark.parametrize("m", [
        [5e-324, 5e-324], [1e300, 1e-300, 5e-324], [-1.0 + 2.0 ** -53] * 3,
        [1.5e308, 0.0, -0.5],
    ])
    def test_counts_at_the_ends_of_the_doubles(self, m):
        assert _beta_marginals(m) == _fsum_of_the_others(m)


class TestExponentVector:
    def test_returns_a_list_of_floats(self):
        got = as_exponent_vector(np.array([1, 2, 3]))
        assert type(got) is list
        assert got == [1.0, 2.0, 3.0]
        assert all(type(v) is float for v in got)
        assert type(means((1, 2))) is list

    @pytest.mark.parametrize("bad", [
        3.0, "12", [1.0], [[1.0, 2.0], [3.0, 4.0]], np.ones((2, 2)),
        np.ones((2, 1)),
    ])
    def test_rejects_what_is_not_one_vector_of_two_or_more(self, bad):
        with pytest.raises(ValueError, match="1-D vector"):
            as_exponent_vector(bad)

    @pytest.mark.parametrize("bad", [
        [0.0, -1.0], [0.0, math.nan], [0.0, math.inf], [-math.inf, 1.0],
    ])
    def test_rejects_counts_outside_the_domain(self, bad):
        with pytest.raises(ValueError, match="finite value > -1"):
            as_exponent_vector(bad)
