"""Simplex/angle change of variables.

Oracles: hand-evaluated trivial angles (where sines and cosines are
0, 1, or sqrt(1/2)), round-trip consistency, finite-difference
Jacobian determinants, and mpmath for one non-trivial kernel value.
"""

import hashlib
import math

import mpmath
import numpy as np
import pytest

from simplexquad import (
    angles_to_simplex,
    log_jacobian,
    log_kernel,
    simplex_to_angles,
)
from simplexquad.spherical import HALF_PI, _map_and_log_jacobian, _row_sum

mpmath.mp.dps = 50


def fd_log_abs_det(theta, h=1e-5):
    """log |det dp/dtheta| by central differences.

    The square Jacobian drops the last (dependent) probability, i.e.
    it is the matrix d(p_1..p_{n-1})/d(theta_1..theta_{n-1}).
    """
    theta = np.asarray(theta, dtype=float)
    k = theta.size
    jac = np.empty((k, k))
    for j in range(k):
        up = theta.copy()
        down = theta.copy()
        up[j] += h
        down[j] -= h
        jac[:, j] = (angles_to_simplex(up)[:k] - angles_to_simplex(down)[:k]) / (2 * h)
    return math.log(abs(np.linalg.det(jac)))


class TestAnglesToSimplex:
    def test_zero_first_angle_puts_all_mass_in_bin_one(self):
        # cos(0) = 1 and sin(0) = 0 exactly, so this is exact in floats
        p = angles_to_simplex(np.array([0.0, 1.234]))
        assert p.tolist() == [1.0, 0.0, 0.0]

    def test_right_angles_push_mass_to_the_last_bin(self):
        # cos(pi/2) rounds to ~6e-17, squaring leaves ~4e-33
        p = angles_to_simplex(np.array([HALF_PI, HALF_PI]))
        assert p[0] <= 1e-30
        assert p[1] <= 1e-30
        assert p[2] == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_angle_splits_two_bins_evenly(self):
        p = angles_to_simplex(np.array([math.pi / 4.0]))
        assert p[0] == pytest.approx(0.5, abs=1e-15)
        assert p[1] == pytest.approx(0.5, abs=1e-15)

    def test_components_sum_to_one_without_renormalization(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 8, 64):
            theta = rng.uniform(0.0, HALF_PI, size=(500, n - 1))
            p = angles_to_simplex(theta)
            assert np.all(p >= 0.0)
            assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-14

    def test_batch_rows_match_single_vector_calls_bitwise(self):
        rng = np.random.default_rng(12)
        theta = rng.uniform(0.0, HALF_PI, size=(40, 4))
        batched = angles_to_simplex(theta)
        for row in range(theta.shape[0]):
            single = angles_to_simplex(theta[row])
            assert np.array_equal(batched[row], single)

    @pytest.mark.parametrize("bad", [
        np.array([-0.1]),
        np.array([HALF_PI + 0.1, 0.3]),
        np.array([np.nan, 0.2]),
        np.array([np.inf]),
    ])
    def test_rejects_angles_outside_the_box(self, bad):
        with pytest.raises(ValueError):
            angles_to_simplex(bad)


class TestSimplexToAngles:
    def test_worked_three_bin_example(self):
        # p = (0.2, 0.3, 0.5): theta_1 = arccos sqrt(0.2), and the
        # second angle sees 0.3 out of the remaining 0.8, so
        # cos^2 theta_2 = 0.375
        theta = simplex_to_angles(np.array([0.2, 0.3, 0.5]))
        assert theta[0] == pytest.approx(math.acos(math.sqrt(0.2)), rel=1e-15)
        assert math.cos(theta[1]) ** 2 == pytest.approx(0.375, rel=1e-14)

    def test_vertex_fills_remaining_angles_with_right_angle(self):
        theta = simplex_to_angles(np.array([1.0, 0.0, 0.0]))
        assert theta[0] == 0.0
        assert theta[1] == HALF_PI

    def test_exhausted_tail_is_filled_by_convention(self):
        theta = simplex_to_angles(np.array([0.3, 0.7, 0.0, 0.0]))
        assert theta[1] == 0.0
        assert theta[2] == HALF_PI
        back = angles_to_simplex(theta)
        np.testing.assert_allclose(back, [0.3, 0.7, 0.0, 0.0], atol=1e-15)

    def test_round_trip_from_simplex(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4, 6, 8):
            for _ in range(200):
                raw = rng.uniform(0.05, 1.0, n)
                p = raw / raw.sum()
                back = angles_to_simplex(simplex_to_angles(p))
                np.testing.assert_allclose(back, p, atol=1e-12, rtol=0.0)

    def test_round_trip_from_angles(self):
        rng = np.random.default_rng(22)
        for n in (2, 4, 7):
            for _ in range(200):
                theta = rng.uniform(0.05, HALF_PI - 0.05, n - 1)
                back = simplex_to_angles(angles_to_simplex(theta))
                np.testing.assert_allclose(back, theta, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("bad", [
        np.array([0.5]),
        np.array([0.5, 0.6]),
        np.array([-0.1, 1.1]),
        np.array([np.nan, 1.0]),
        np.array([[0.5, 0.5]]),
    ])
    def test_rejects_malformed_probability_vectors(self, bad):
        with pytest.raises(ValueError):
            simplex_to_angles(bad)


class TestLogJacobian:
    def test_two_bin_diagonal_angle(self):
        # n = 2: J = 2 sin cos = sin(2t), so J(pi/4) = 1
        assert log_jacobian(np.array([math.pi / 4.0])) == pytest.approx(0.0, abs=1e-15)

    def test_three_bin_diagonal_angles(self):
        # n = 3: J = 4 cos t1 sin^3 t1 cos t2 sin t2 = 1/2 at t = pi/4
        got = log_jacobian(np.array([math.pi / 4.0, math.pi / 4.0]))
        assert got == pytest.approx(-math.log(2.0), abs=1e-14)

    def test_vanishes_at_the_box_boundary(self):
        # sin(0) is exactly 0 so those factors give -inf; cos at the
        # float pi/2 is ~6.1e-17, leaving a finite but huge-negative log
        assert log_jacobian(np.array([0.0, 0.3])) == -math.inf
        assert log_jacobian(np.array([0.3, 0.0])) == -math.inf
        assert log_jacobian(np.array([HALF_PI, 0.3])) < -30.0

    def test_matches_finite_difference_determinant_at_a_point(self):
        theta = np.array([math.pi / 4.0] * 3)
        assert log_jacobian(theta) == pytest.approx(fd_log_abs_det(theta), abs=1e-8)

    def test_matches_finite_difference_determinants(self):
        rng = np.random.default_rng(33)
        for n in (3, 4, 5):
            for _ in range(40):
                theta = rng.uniform(0.1, HALF_PI - 0.1, n - 1)
                ratio = math.exp(log_jacobian(theta) - fd_log_abs_det(theta))
                assert abs(ratio - 1.0) <= 1e-6

    def test_batch_rows_match_single_vector_calls_bitwise(self):
        rng = np.random.default_rng(34)
        theta = rng.uniform(0.01, HALF_PI - 0.01, size=(30, 5))
        batched = log_jacobian(theta)
        for row in range(theta.shape[0]):
            assert batched[row] == log_jacobian(theta[row])


class TestMapAndLogJacobian:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_one_pass_equals_the_public_functions_bitwise(self, n):
        # n = 9 sums eight Jacobian terms per row, numpy's pairwise
        # order; rows at exactly 0 and pi/2 give a -inf Jacobian and
        # exact-zero coordinates
        rng = np.random.default_rng(100 + n)
        theta = rng.uniform(0.0, HALF_PI, size=(257, n - 1))
        theta[0] = 0.0
        theta[1] = HALF_PI
        theta[2, ::2] = 0.0
        theta[3, 1::2] = HALF_PI
        points, logs = _map_and_log_jacobian(theta)
        assert np.array_equal(points, angles_to_simplex(theta))
        assert np.array_equal(logs, log_jacobian(theta))
        assert logs[0] == -math.inf
        assert np.any(points[:4] == 0.0)


    # angles_to_simplex and log_jacobian of the batch above, captured
    # from the row-major implementation: sha256 prefixes of the points
    # and of the log-Jacobian, and the log-Jacobian of the four boundary
    # rows. n = 12 and 140 take the other two branches of the row sums.
    @pytest.mark.parametrize("n, map_digest, jac_digest, boundary", [
        (2, "8aadd918399468a5", "dbaecfe3a0326d8f",
         ("-inf", "-0x1.251c137889f6dp+5", "-inf", "-0x1.bef79a005b453p-3")),
        (3, "1caaa9b5fb9a8a11", "c341931805958122",
         ("-inf", "-0x1.251c137889f6dp+6", "-inf", "-0x1.3432446852423p+5")),
        (4, "56517a5fb718426a", "1d714faec71de7f6",
         ("-inf", "-0x1.b7aa1d34cef24p+6", "-inf", "-0x1.2b906b461b1e5p+5")),
        (5, "c300142fec18b1a5", "1a0efd78ecd2e602",
         ("-inf", "-0x1.251c137889f6dp+7", "-inf", "-0x1.49ec6734cae56p+6")),
        (6, "c30b22b92afa8822", "c70ee17dc677242e",
         ("-inf", "-0x1.6e631856ac748p+7", "-inf", "-0x1.8635ae1868999p+6")),
        (7, "58f2cd226c6165aa", "776cae64a5e2e983",
         ("-inf", "-0x1.b7aa1d34cef23p+7", "-inf", "-0x1.0ebffd3fda87ep+7")),
        (8, "a22250ca410bd839", "7bb4d6a43894e50e",
         ("-inf", "-0x1.0078910978b7fp+8", "-inf", "-0x1.ce200354e0292p+6")),
        (9, "d318f1a784a32f53", "b349a99102e4eaa3",
         ("-inf", "-0x1.251c137889f6dp+8", "-inf", "-0x1.3e644e186c142p+7")),
        (12, "3cf5840e5af53192", "478ec77cfdd77e79",
         ("-inf", "-0x1.93069ac5bdb37p+8", "-inf", "-0x1.13adee2e6a0f0p+8")),
        (140, "899cb026d91c3ab9", "885b05c51f206fa5",
         ("-inf", "-0x1.3e4c7d24e5d21p+12", "-inf", "-0x1.5efbbe08f8f69p+13")),
    ])
    def test_public_functions_are_frozen(self, n, map_digest, jac_digest,
                                         boundary):
        rng = np.random.default_rng(100 + n)
        theta = rng.uniform(0.0, HALF_PI, size=(257, n - 1))
        theta[0] = 0.0
        theta[1] = HALF_PI
        theta[2, ::2] = 0.0
        theta[3, 1::2] = HALF_PI
        points = angles_to_simplex(theta)
        logs = log_jacobian(theta)
        assert hashlib.sha256(points.tobytes()).hexdigest()[:16] == map_digest
        assert hashlib.sha256(logs.tobytes()).hexdigest()[:16] == jac_digest
        assert [float(x) for x in logs[:4]] == [float.fromhex(x) for x in boundary]
        for row in range(4):
            assert np.array_equal(angles_to_simplex(theta[row]), points[row])
            assert log_jacobian(theta[row]) == logs[row]


class TestRowSum:
    def test_equals_numpys_row_sum_bitwise(self):
        # numpy sums fewer than 8 terms in one run, up to 128 in eight
        # interleaved runs and more by halving; magnitudes from 1e-30
        # to 1e30 make any other order show in the last bits
        count = 24
        for k in range(1, 301):
            rng = np.random.default_rng(k)
            a = rng.standard_normal((count, k)) * 10.0 ** rng.integers(-30, 31, (count, k))
            a[rng.random((count, k)) < 0.1] = 0.0
            a[rng.random((count, k)) < 0.1] = -0.0
            a[0] = -0.0
            a[1] = -0.0
            a[1, k // 2] = 0.0
            a[2, k - 1] = -math.inf
            a[3, 0] = -math.inf
            expected = np.sum(a, axis=-1).view(np.int64)
            got = _row_sum(a.T.copy(), np.empty(count))
            assert np.array_equal(got.view(np.int64), expected), k
            terms = a.T.copy()
            got = _row_sum(terms, terms[0])
            assert np.array_equal(got.view(np.int64), expected), k


class TestLogKernel:
    def test_two_bin_flat_kernel_peaks_at_one(self):
        # m = (0, 0): K_1 = 2 cos sin = sin(2t), so K_1(pi/4) = 1
        got = log_kernel(1, 2, np.array([0.0, 0.0]), math.pi / 4.0)
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_boundary_zeros(self):
        # at t = 0 the sin factor is an exact zero; at the float pi/2
        # sin rounds to 1.0 and cos to ~6.1e-17, so only the cos power
        # (exponent 2(m_1+1)-1 = 3 here) survives in the log
        m = np.array([1.0, 2.0, 3.0])
        assert log_kernel(1, 3, m, 0.0) == -math.inf
        assert log_kernel(1, 3, m, HALF_PI) == pytest.approx(
            math.log(2.0) + 3.0 * math.log(math.cos(HALF_PI)), abs=1e-12
        )

    def test_nontrivial_value_against_high_precision_oracle(self):
        # n = 4, m = (1,2,3,4), j = 2: cos exponent 2(m_2+1)-1 = 5,
        # sin exponent 2((m_3+1)+(m_4+1))-1 = 17
        t = mpmath.mpf("0.7")
        exact = float(mpmath.log(2 * mpmath.cos(t) ** 5 * mpmath.sin(t) ** 17))
        got = log_kernel(2, 4, np.array([1.0, 2.0, 3.0, 4.0]), 0.7)
        assert got == pytest.approx(exact, rel=1e-14)

    def test_each_kernel_integrates_to_a_beta_value(self):
        """int_0^{pi/2} K_j = B(m_j + 1, sum_{l>j} (m_l + 1)).

        mpmath quadrature of the exp of log_kernel against log_beta.
        """
        from simplexquad import log_beta

        m = np.array([1.5, 0.0, 2.0, 0.5])
        for j in (1, 2, 3):
            value = mpmath.quad(
                lambda t, j=j: math.exp(log_kernel(j, 4, m, float(t))),
                [0, math.pi / 2],
            )
            s_j = float(np.sum(m[j:] + 1.0))
            assert float(value) == pytest.approx(
                math.exp(log_beta(m[j - 1] + 1.0, s_j)), rel=1e-12
            )

    def test_kernels_factorize_the_transformed_integrand(self):
        """sum_j ln K_j(theta_j) = sum_i m_i ln p_i + ln J(theta).

        Checked pointwise at random interior angles for integer and
        fractional exponents; agreement of the logs to 1e-11 is the
        same as relative agreement of the products.
        """
        rng = np.random.default_rng(55)
        for n in (3, 4, 6):
            for _ in range(100):
                m = np.round(rng.uniform(-0.5, 4.0, n), 2)
                theta = rng.uniform(0.1, HALF_PI - 0.1, n - 1)
                p = angles_to_simplex(theta)
                lhs = sum(
                    log_kernel(j, n, m, theta[j - 1]) for j in range(1, n)
                )
                rhs = float(np.sum(m * np.log(p))) + log_jacobian(theta)
                assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_index_bounds(self):
        m = np.array([1.0, 2.0, 3.0])
        with pytest.raises(IndexError):
            log_kernel(0, 3, m, 0.5)
        with pytest.raises(IndexError):
            log_kernel(3, 3, m, 0.5)

    @pytest.mark.parametrize("m", [
        np.array([1.0]),
        np.array([-1.0, 2.0]),
        np.array([np.inf, 0.0]),
    ])
    def test_rejects_bad_exponent_vectors(self, m):
        with pytest.raises(ValueError):
            log_kernel(1, m.size, m, 0.5)
