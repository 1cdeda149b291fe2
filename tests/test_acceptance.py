"""Acceptance gate: ten numbered criteria with stated tolerances and
runtime budgets.

Each test prints one `[criterion N] PASS/FAIL` line (run with -s to
see them) and then asserts. Expected values come from exact factorial
arithmetic, the brute-force nested oracle, finite differences, or the
library's own independent routes pitted against each other; no
expected number is copied from the implementation under test.
"""

import itertools
import json
import math
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from simplexquad import (
    QuadratureSpec,
    integrate_simplex_log,
    log_jacobian,
    log_kernel,
    log_norm_integral,
    mean,
    means,
    moment,
    power_log_integrand,
    second_moment,
    variance,
)
from simplexquad.oracle import nested_simplex_integral
from simplexquad.spherical import HALF_PI, angles_to_simplex


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_exact_means_for_small_counts():
    """Counts (2,0,1) give means exactly (3/6, 1/6, 2/6), under 1 ms."""
    m = np.array([2.0, 0.0, 1.0])
    means(m)  # warm any lazy setup before timing
    start = time.perf_counter()
    got = means(m)
    elapsed = time.perf_counter() - start
    expected = [Fraction(3, 6), Fraction(1, 6), Fraction(2, 6)]
    worst = max(
        abs(float(g) - float(e)) / float(e) for g, e in zip(got, expected)
    )
    report(
        1,
        worst <= 1e-15 and elapsed < 1e-3,
        f"worst rel dev {worst:.2e} (tol 1e-15), {elapsed * 1e6:.0f} us (< 1 ms)",
    )


def test_criterion_2_three_bin_mean_via_log_ratio():
    """<p_1> = (m_1+1)/(N+3) for 1000 random integer triples, 1e-13."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        m = rng.integers(0, 13, size=3).astype(float)
        ratio = moment(m, np.array([1.0, 0.0, 0.0]))
        exact = Fraction(int(m[0]) + 1, int(m.sum()) + 3)
        worst = max(worst, abs(ratio - float(exact)) / float(exact))
    report(2, worst <= 1e-13, f"worst rel dev {worst:.2e} (tol 1e-13)")


def test_criterion_3_means_sum_to_one():
    """Sum of means is 1 within 1e-12; n in 2..64, 1000 trials, < 1 s."""
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        m = rng.uniform(0.0, 12.0, n)
        worst = max(worst, abs(math.fsum(float(v) for v in means(m)) - 1.0))
    elapsed = time.perf_counter() - start
    report(
        3,
        worst <= 1e-12 and elapsed < 1.0,
        f"worst |sum-1| {worst:.2e} (tol 1e-12), {elapsed:.2f} s (< 1 s)",
    )


def test_criterion_4_closed_form_vs_nested_oracle_exhaustive():
    """exp(log_I) vs the oracle, all integer m, n in {2,3,4}, N <= 6."""
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in (2, 3, 4):
        for m in itertools.product(range(7), repeat=n):
            if sum(m) > 6:
                continue
            value, _ = nested_simplex_integral(np.array(m, dtype=float))
            exact = math.exp(log_norm_integral(np.array(m, dtype=float)))
            worst = max(worst, abs(value - exact) / exact)
            cases += 1
    elapsed = time.perf_counter() - start
    report(
        4,
        worst <= 1e-9 and elapsed < 60.0,
        f"{cases} count vectors, worst rel dev {worst:.2e} (tol 1e-9), "
        f"{elapsed:.1f} s (< 60 s)",
    )


def test_criterion_5_kernel_factorization_identity():
    """prod p^m x Jacobian = prod K_j at 10000 interior points per n."""
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5, 6, 8):
        for _ in range(10):
            m = rng.integers(0, 7, size=n).astype(float)
            theta = rng.uniform(0.05, HALF_PI - 0.05, size=(1000, n - 1))
            lhs = np.zeros(1000)
            for j in range(1, n):
                lhs += log_kernel(j, n, m, theta[:, j - 1])
            rhs = power_log_integrand(m)(angles_to_simplex(theta))
            rhs = rhs + log_jacobian(theta)
            worst = max(worst, float(np.max(np.abs(np.expm1(lhs - rhs)))))
    elapsed = time.perf_counter() - start
    report(
        5,
        worst <= 1e-11 and elapsed < 10.0,
        f"5 x 10000 points, worst rel dev {worst:.2e} (tol 1e-11), "
        f"{elapsed:.1f} s (< 10 s)",
    )


def test_criterion_6_gauss_grid_convergence():
    """gauss_grid(32) matches exp(log_I) at 1e-10 for n <= 5 integer
    counts <= 10; gauss_grid(64) handles fractional counts.

    Known limitation: the heaviest vectors in this class reach
    trigonometric degree 2(N + n) - 2 = 108 per axis, more than a
    plain 32-node Legendre rule on [0, pi/2] resolves (~80; it missed
    by 1.3e-9 at the all-tens corner of n = 5). The axis rule
    composes Legendre with the Kosloff-Tal-Ezer conformal map, whose
    near-uniform nodes bring every integer vector of the class within
    5.3e-13. The price is slower convergence on generic real counts
    with end singularities: [-0.5, 0.3, 2.7, 1.1] misses by 2.9e-7 at
    32 nodes and 3.0e-8 at 64 (8.2e-8 and 2.3e-9 unmapped). The
    all-tens corners stay in the case list so the gate keeps
    probing the worst case.
    """
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    spec32 = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=32)
    worst = 0.0
    worst_case = None
    cases = []
    for n in (2, 3, 4, 5):
        cases.append([10] * n)       # heaviest admissible counts
        cases.append([0] * n)        # flat integrand
        cases.append([10] + [0] * (n - 1))  # maximal lopsidedness
        for _ in range(3):
            cases.append(rng.integers(0, 11, size=n).tolist())
    for counts in cases:
        m = np.array(counts, dtype=float)
        est = integrate_simplex_log(np.zeros(m.size), power_log_integrand(m), spec32)
        dev = abs(math.expm1(est.log_value - log_norm_integral(m)))
        if dev > worst:
            worst, worst_case = dev, counts

    m_frac = np.array([0.5, 0.0, 2.0, 1.5])
    spec64 = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=64)
    est = integrate_simplex_log(np.zeros(4), power_log_integrand(m_frac), spec64)
    frac_dev = abs(math.expm1(est.log_value - log_norm_integral(m_frac)))
    if frac_dev > worst:
        worst, worst_case = frac_dev, m_frac.tolist()
    elapsed = time.perf_counter() - start
    report(
        6,
        worst <= 1e-10 and elapsed < 30.0,
        f"{len(cases)} integer cases + 1 fractional, worst rel dev "
        f"{worst:.2e} at counts {worst_case} (tol 1e-10), "
        f"{elapsed:.1f} s (< 30 s)",
    )


def test_criterion_7_variance_identity():
    """Closed-form variance equals second_moment - mean^2 at 1e-14."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        m = rng.integers(0, 7, size=n).astype(float)
        for i in range(1, n + 1):
            closed = variance(m, i)
            raw = second_moment(m, i) - mean(m, i) ** 2
            worst = max(worst, abs(raw - closed) / closed)
    report(7, worst <= 1e-14, f"worst rel dev {worst:.2e} (tol 1e-14)")


def test_criterion_8_monte_carlo_calibration():
    """>= 99% of 200 seeded runs land within 5 sigma of I_4(1,2,3,4)."""
    m = np.array([1.0, 2.0, 3.0, 4.0])
    exact = float(
        Fraction(
            math.factorial(1) * math.factorial(2)
            * math.factorial(3) * math.factorial(4),
            math.factorial(10 + 4 - 1),
        )
    )
    log_f = power_log_integrand(m)
    start = time.perf_counter()
    hits = 0
    for seed in range(200):
        spec = QuadratureSpec(scheme="monte_carlo", samples=100_000, seed=seed)
        est = integrate_simplex_log(np.zeros(4), log_f, spec)
        if abs(est.value - exact) <= 5.0 * est.std_error:
            hits += 1
    elapsed = time.perf_counter() - start
    report(
        8,
        hits >= 198 and elapsed < 60.0,
        f"{hits}/200 within 5 sigma (need >= 198), {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_9_jacobian_vs_finite_differences():
    """log_jacobian vs FD determinants, 1e-6 rel, n in {3,4,5}."""

    def fd_log_abs_det(theta, h=1e-5):
        k = theta.size
        jac = np.empty((k, k))
        for j in range(k):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            jac[:, j] = (
                angles_to_simplex(up)[:k] - angles_to_simplex(down)[:k]
            ) / (2 * h)
        return math.log(abs(np.linalg.det(jac)))

    rng = np.random.default_rng(9)
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5):
        for _ in range(100):
            theta = rng.uniform(0.1, HALF_PI - 0.1, n - 1)
            dev = abs(math.expm1(log_jacobian(theta) - fd_log_abs_det(theta)))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    report(
        9,
        worst <= 1e-6 and elapsed < 5.0,
        f"300 points, worst rel dev {worst:.2e} (tol 1e-6), "
        f"{elapsed:.1f} s (< 5 s)",
    )


def test_criterion_10_cli_compare_is_deterministic():
    """compare --counts 1,1,1 --tol 1e-9 exits 0, byte-stable report."""
    args = [sys.executable, "-m", "simplexquad", "compare",
            "--counts", "1,1,1", "--tol", "1e-9"]
    first = subprocess.run(args, capture_output=True, text=True, timeout=60)
    second = subprocess.run(args, capture_output=True, text=True, timeout=60)
    mask = re.compile(r'"wall_time_s": [^,\n]+')
    stable = (
        mask.sub("<t>", first.stdout) == mask.sub("<t>", second.stdout)
        and mask.search(first.stdout) is not None
    )
    ok = first.returncode == 0 and second.returncode == 0 and stable
    within = json.loads(first.stdout)["results"]["within_tolerance"]
    report(
        10,
        ok and within,
        f"exit codes ({first.returncode}, {second.returncode}), "
        f"byte-stable={stable}, within_tolerance={within}",
    )
