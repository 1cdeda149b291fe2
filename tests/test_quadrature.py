"""Quadrature engines and their shared plumbing.

Dual-route checks throughout: the tensor grid, the separated per-axis
rule, the brute-force nested oracle and the closed form are four
independent routes to the same integrals, and the tests pit them
against each other rather than against copied constants.
"""

import ast
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import simplexquad
from simplexquad import oracle, quadrature
from simplexquad import (
    BUDGET_ENV_VAR,
    DEFAULT_EVAL_BUDGET,
    IntegralEstimate,
    IntegrationError,
    QuadratureSpec,
    gauss_legendre,
    integrate_separable,
    integrate_simplex_log,
    log_beta,
    log_norm_integral,
    nested_oracle,
    power_log_integrand,
    resolve_eval_budget,
)
from simplexquad.quadrature import _LogSumAccumulator, _angle_rule
from simplexquad.spherical import (
    HALF_PI,
    angles_to_simplex,
    log_jacobian,
    tensor_grid_blocks,
)


def log_rel_gap(log_a, log_b):
    # |a/b - 1| computed from the logs
    return abs(math.expm1(log_a - log_b))


def test_package_exports_each_public_name_once():
    names = simplexquad.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(simplexquad, name) is not None
    # module constants and the raw oracle stay importable from their
    # modules but are not part of the package API; integrands go in as
    # log values, through integrate_simplex_log only
    for internal in ("HALF_PI", "MAX_NODES", "nested_simplex_integral",
                     "integrate_simplex"):
        assert internal not in names


def test_the_error_type_is_one_class_from_spec():
    from simplexquad import expressions, spec

    assert simplexquad.IntegrationError is spec.IntegrationError
    assert spec.IntegrationError is oracle.IntegrationError
    assert quadrature.IntegrationError is spec.IntegrationError
    assert issubclass(expressions.EvaluationError, spec.IntegrationError)


def test_the_oracle_imports_only_math_and_the_error_type():
    # its independence from the spherical routes, as code: no numpy and
    # nothing numerical of the package
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imports = [
        ("import", alias.name) if isinstance(node, ast.Import)
        else ("." * node.level + (node.module or ""), alias.name)
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imports == [("import", "math"), (".spec", "IntegrationError")]


# the package's public names, in order, as they stood before the
# package resolved them on first access
PUBLIC_NAMES = [
    "__version__", "log_gamma", "log_beta", "log_factorial",
    "angles_to_simplex", "simplex_to_angles", "log_jacobian", "log_kernel",
    "as_exponent_vector", "log_norm_integral", "moment", "mean", "means",
    "second_moment", "variance", "std_dev", "skewness", "covariance",
    "DEFAULT_EVAL_BUDGET", "BUDGET_ENV_VAR", "IntegrationError",
    "QuadratureSpec", "IntegralEstimate", "resolve_eval_budget",
    "gauss_legendre", "power_log_integrand", "integrate_simplex_log",
    "integrate_separable", "nested_oracle", "GRAMMAR_VERSION",
    "PriorExpression", "ExpressionSyntaxError", "EvaluationError", "parse",
    "evaluate", "evaluate_batch", "format_expression",
]


def test_package_names_are_pinned_in_order():
    assert simplexquad.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from simplexquad import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(simplexquad, name), name


def test_package_names_are_the_modules_own():
    # the package lists each module's __all__ so that it need not import
    # the module to know them; the lists must agree
    from simplexquad import expressions, moments, special, spherical

    listed = ["__version__"]
    for module in (special, spherical, moments, quadrature, expressions):
        listed += module.__all__
        for name in module.__all__:
            assert getattr(simplexquad, name) is getattr(module, name), name
    assert listed == simplexquad.__all__


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        simplexquad.no_such_name  # noqa: B018


class TestGaussLegendre:
    @pytest.mark.parametrize("count", [2, 3, 7, 16, 31, 32, 64])
    def test_matches_the_reference_implementation(self, count):
        x, w = gauss_legendre(count)
        x_ref, w_ref = np.polynomial.legendre.leggauss(count)
        np.testing.assert_allclose(x, x_ref, atol=1e-13, rtol=0.0)
        np.testing.assert_allclose(w, w_ref, atol=1e-13, rtol=0.0)

    @pytest.mark.parametrize("count", [2, 5, 12, 33])
    def test_rule_is_exactly_symmetric(self, count):
        x, w = gauss_legendre(count)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        if count % 2 == 1:
            assert x[count // 2] == 0.0

    @pytest.mark.parametrize("count", [2, 9, 40])
    def test_weights_sum_to_the_interval_length(self, count):
        _, w = gauss_legendre(count)
        assert math.fsum(w) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("count", [3, 8, 17])
    def test_polynomial_exactness_up_to_degree(self, count):
        # a count-point rule integrates degree 2*count - 1 exactly;
        # odd degrees vanish by symmetry, so even degrees carry the test
        x, w = gauss_legendre(count)
        for degree in range(0, 2 * count, 2):
            exact = 2.0 / (degree + 1)
            got = float(np.sum(w * x ** degree))
            assert got == pytest.approx(exact, rel=1e-13)

    def test_nodes_are_read_only_and_cached(self):
        x, _ = gauss_legendre(24)
        assert gauss_legendre(24)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_rejects_degenerate_rules(self):
        with pytest.raises(ValueError):
            gauss_legendre(1)

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError, match="integer"):
            gauss_legendre(2.5)
        assert gauss_legendre(3.0)[0] is gauss_legendre(3)[0]

    def test_a_whole_number_string_is_a_count(self):
        # "8" once reached a comparison with the least count, a TypeError
        assert gauss_legendre("8")[0] is gauss_legendre(8)[0]
        assert gauss_legendre("8")[1] is gauss_legendre(8)[1]


class TestSpecsAndEstimates:
    def test_scheme_names_are_validated(self):
        with pytest.raises(ValueError):
            QuadratureSpec(scheme="simpson")

    def test_per_scheme_field_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(scheme="gauss_grid", nodes_per_axis=1)
        with pytest.raises(ValueError):
            QuadratureSpec(scheme="monte_carlo", samples=0)
        with pytest.raises(ValueError):
            QuadratureSpec(scheme="monte_carlo", seed=0.5)
        for rel_tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                QuadratureSpec(scheme="nested_oracle", rel_tol=rel_tol)
        # counts must be whole numbers, not just large enough
        with pytest.raises(ValueError):
            QuadratureSpec(scheme="gauss_grid", nodes_per_axis=8.5)
        with pytest.raises(ValueError):
            QuadratureSpec(scheme="monte_carlo", samples=1000.5)
        # fields of other schemes are not policed
        QuadratureSpec(scheme="monte_carlo", nodes_per_axis=1)

    def test_whole_float_fields_are_normalized(self):
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=8.0)
        assert spec.nodes_per_axis == 8 and type(spec.nodes_per_axis) is int
        log_f = power_log_integrand(np.array([1.0, 2.0, 0.0]))
        expected = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=8)
        flat = np.zeros(3)
        assert integrate_simplex_log(flat, log_f, spec) == integrate_simplex_log(
            flat, log_f, expected
        )
        mc = QuadratureSpec(scheme="monte_carlo", samples=1000.0, seed=7.0)
        assert (mc.samples, mc.seed) == (1000, 7)

    def test_numeric_strings_are_normalized(self):
        # both once raised TypeError comparing a str with a number
        grid = QuadratureSpec("gauss_grid", "32")
        assert grid.nodes_per_axis == 32 and type(grid.nodes_per_axis) is int
        oracle_spec = QuadratureSpec("nested_oracle", rel_tol="1e-3")
        assert oracle_spec.rel_tol == 0.001 and type(oracle_spec.rel_tol) is float
        assert type(QuadratureSpec("nested_oracle", rel_tol=1).rel_tol) is float

    @pytest.mark.parametrize("seed", [2**63, 2**64, 2.0**64, -2**63 - 1])
    def test_monte_carlo_seeds_outside_the_key_word_are_refused(self, seed):
        # 2**64 would fold onto seed 0 and -1 onto 2**64 - 1
        with pytest.raises(ValueError, match=r"seed must lie in \[-2\*\*63, 2\*\*63\)"):
            QuadratureSpec(scheme="monte_carlo", seed=seed)

    def test_monte_carlo_seeds_at_the_ends_of_the_range_run(self):
        m = np.array([1.0, 2.0])
        runs = {
            integrate_simplex_log(
                m, None, QuadratureSpec(scheme="monte_carlo", samples=100, seed=s)
            ).log_value
            for s in (-2**63, 2**63 - 1, -1, 0)
        }
        assert len(runs) == 4

    def test_specs_are_immutable(self):
        spec = QuadratureSpec(scheme="gauss_grid")
        with pytest.raises(Exception):
            spec.nodes_per_axis = 64

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            IntegralEstimate(0.0, -1.0, 10, "gauss_grid")
        with pytest.raises(ValueError):
            IntegralEstimate(0.0, math.nan, 10, "gauss_grid")
        with pytest.raises(ValueError):
            IntegralEstimate(0.0, 0.0, 0, "gauss_grid")

    def test_estimates_are_immutable_records(self):
        est = IntegralEstimate(log_value=np.float64(-1.5), std_error=np.float64(0.0),
                               evaluations=np.int64(8), scheme="gauss_grid")
        assert est == IntegralEstimate(-1.5, 0.0, 8, "gauss_grid")
        assert [type(v) for v in est[:3]] == [float, float, int]
        with pytest.raises(AttributeError):
            est.log_value = 0.0

    def test_replace_and_make_keep_the_checks(self):
        # namedtuple's _replace builds through _make, which skips __new__
        estimate = IntegralEstimate(0.0, 0.0, 1, "gauss_grid")
        with pytest.raises(ValueError, match="std_error must be nonnegative"):
            estimate._replace(std_error=-1.0, evaluations=0)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            QuadratureSpec._make(["monte_carlo", 32, 0, 2**70, 1e-10])
        with pytest.raises(ValueError, match="seed must lie"):
            QuadratureSpec._make(["monte_carlo", 32, 10, 2**70, 1e-10])
        spec = QuadratureSpec("gauss_grid")._replace(nodes_per_axis=8.0)
        assert spec.nodes_per_axis == 8 and type(spec.nodes_per_axis) is int
        assert estimate._replace(evaluations=np.int64(3)) == (0.0, 0.0, 3, "gauss_grid")

    def test_estimate_value_is_exp_of_log_value(self):
        est = IntegralEstimate(math.log(0.25), 0.0, 4, "gauss_grid")
        assert est.value == 0.25
        assert IntegralEstimate(800.0, 0.0, 1, "gauss_grid").value == math.inf
        assert IntegralEstimate(-math.inf, 0.0, 1, "gauss_grid").value == 0.0


class TestEvalBudget:
    def test_default_and_explicit_argument(self):
        assert resolve_eval_budget(None) == DEFAULT_EVAL_BUDGET
        assert resolve_eval_budget(5000) == 5000

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "1234")
        assert resolve_eval_budget(None) == 1234
        # an explicit argument wins over the environment
        assert resolve_eval_budget(99) == 99

    def test_malformed_environment_values(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "plenty")
        with pytest.raises(ValueError):
            resolve_eval_budget(None)
        monkeypatch.setenv(BUDGET_ENV_VAR, "-5")
        with pytest.raises(ValueError):
            resolve_eval_budget(None)
        # numbers without an integer value; the error names the variable
        for raw in ("inf", "1e400", "nan"):
            monkeypatch.setenv(BUDGET_ENV_VAR, raw)
            with pytest.raises(ValueError, match=BUDGET_ENV_VAR):
                resolve_eval_budget(None)

    def test_non_finite_explicit_budget_is_refused(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                resolve_eval_budget(bad)

    def test_a_fractional_budget_is_refused_not_truncated(self, monkeypatch):
        # 2.5 was cut to 2, and 0.5 was called not positive
        for bad in (2.5, 0.5, "2.5"):
            with pytest.raises(ValueError, match="evaluation budget must be an integer"):
                resolve_eval_budget(bad)
            monkeypatch.setenv(BUDGET_ENV_VAR, str(bad))
            with pytest.raises(ValueError, match=f"{BUDGET_ENV_VAR} must be an integer"):
                resolve_eval_budget(None)
        # a whole number in float spelling stays a budget
        assert resolve_eval_budget(2e9) == resolve_eval_budget("2e9") == 2_000_000_000
        monkeypatch.setenv(BUDGET_ENV_VAR, "2e9")
        assert resolve_eval_budget(None) == 2_000_000_000

    def test_grid_refuses_instead_of_truncating(self):
        # 32^7 evaluations is over the default budget of 1e8
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=32)
        with pytest.raises(IntegrationError, match="budget"):
            integrate_simplex_log(
                np.zeros(8), power_log_integrand(np.zeros(8)), spec
            )

    def test_budget_argument_caps_the_grid(self):
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=16)
        with pytest.raises(IntegrationError, match="budget"):
            integrate_simplex_log(
                np.zeros(3), power_log_integrand(np.zeros(3)), spec, budget=100
            )

    def test_budget_environment_caps_the_grid(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "300")
        m = np.zeros(3)
        spec_ok = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=16)
        assert integrate_simplex_log(np.zeros(3), power_log_integrand(m), spec_ok)
        spec_big = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=32)
        with pytest.raises(IntegrationError, match="budget"):
            integrate_simplex_log(np.zeros(3), power_log_integrand(m), spec_big)

    def test_an_oversized_axis_rule_is_refused_before_it_is_built(self, monkeypatch):
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(quadrature, "_axis_factors", built)

        def run(nodes, budget=None):
            spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=nodes)
            integrate_separable([1, 2], spec, budget)

        # one axis of 14143 evaluations fits the default budget, but the
        # rule's 14143 * 7072 recurrence steps do not
        with pytest.raises(IntegrationError, match=(
            "^the 14143-node axis rule needs 100019296 recurrence steps, "
            "over the limit of 100000000$"
        )):
            run(14143)
        # the evaluation count is checked first, with its own message
        with pytest.raises(IntegrationError, match="needs 100000001 evaluations"):
            run(10 ** 8 + 1)
        # 14142 * 7071 = 99998082 steps fit; a larger budget allows more
        for nodes, budget in ((14142, None), (14143, 2 * 10 ** 8)):
            with pytest.raises(Built):
                run(nodes, budget)

    def test_oracle_budget_exhaustion(self):
        spec = QuadratureSpec(scheme="nested_oracle", rel_tol=1e-10)
        with pytest.raises(IntegrationError, match="budget"):
            nested_oracle(np.array([1.0, 2.0, 3.0]), spec=spec, budget=50)

    def test_the_oracle_refuses_a_first_outer_pass_over_its_budget(self):
        # at [3]*5 the first outer node's inner subproblem costs C =
        # 25,305 evaluations, after the outer pass's own 15; 15 C =
        # 379,575 exceeds the 274,680 left of 300,000, so the oracle
        # stops there instead of running until the budget is gone
        c = 25_305
        with pytest.raises(IntegrationError, match=(
            "^nested integration would need about 379575 evaluations for "
            "its first outer pass, over the 274680 left of its budget of "
            "300000$"
        )) as refused:
            oracle.nested_simplex_integral([3.0] * 5, max_evaluations=300_000)
        assert refused.value.evaluations == 15 + c
        # with 15 C left the prediction fits, and the budget runs out later
        budget = 15 + 16 * c
        with pytest.raises(IntegrationError, match="exhausted") as exhausted:
            oracle.nested_simplex_integral([3.0] * 5, max_evaluations=budget)
        assert 15 + c < exhausted.value.evaluations <= budget


class TestGaussGrid:
    def test_flat_integrand_gives_the_simplex_volume(self):
        # volume of p1 + p2 <= 1 is 1/2
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=16)
        est = integrate_simplex_log(np.zeros(3), lambda p: np.zeros(p.shape[0]), spec)
        assert est.value == pytest.approx(0.5, rel=1e-14, abs=0)
        assert est.std_error == 0.0
        assert est.evaluations == 16 ** 2

    def test_product_integrand_against_two_independent_references(self):
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=24)
        est = integrate_simplex_log(
            np.zeros(3), lambda p: np.log(p[:, 0] * p[:, 1] * p[:, 2]), spec
        )
        # route 1: exact factorial form 1!1!1!/5! = 1/120
        assert est.value == pytest.approx(1.0 / 120.0, rel=1e-12, abs=0)
        # route 2: the brute-force oracle in raw coordinates
        reference = nested_oracle(np.array([1.0, 1.0, 1.0]))
        assert log_rel_gap(est.log_value, reference.log_value) <= 1e-9

    def test_fractional_exponents_at_64_nodes(self):
        # non-integer powers are outside the rule's polynomial-exactness
        # class, so this probes genuine convergence, not algebra
        m = np.array([0.5, 0.0, 2.0, 1.5])
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=64)
        est = integrate_simplex_log(np.zeros(4), power_log_integrand(m), spec)
        assert log_rel_gap(est.log_value, log_norm_integral(m)) <= 1e-10

    def test_five_bins_at_32_nodes(self):
        m = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=32)
        est = integrate_simplex_log(np.zeros(5), power_log_integrand(m), spec)
        assert log_rel_gap(est.log_value, log_norm_integral(m)) <= 1e-10
        assert est.evaluations == 32 ** 4

    def test_zero_integrand_comes_back_as_log_zero(self):
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=8)
        est = integrate_simplex_log(
            np.zeros(3), lambda p: np.full(p.shape[0], -math.inf), spec
        )
        assert est.log_value == -math.inf
        assert est.value == 0.0

    # every scheme goes through integrate_simplex_log, so the value
    # checks must hold on each route; the oracle spec is loose because
    # one of its first evaluations already fails
    _EVERY_SCHEME = pytest.mark.parametrize("spec", [
        QuadratureSpec(scheme="gauss_grid", nodes_per_axis=8),
        QuadratureSpec(scheme="monte_carlo", samples=64),
        QuadratureSpec(scheme="nested_oracle", rel_tol=1e-4),
    ], ids=lambda spec: spec.scheme)

    @_EVERY_SCHEME
    def test_nan_integrand_is_rejected(self, spec):
        with pytest.raises(IntegrationError, match="NaN or infinity"):
            integrate_simplex_log(
                np.zeros(3), lambda points: np.full(points.shape[0], math.nan), spec
            )
        with pytest.raises(IntegrationError, match="NaN or infinity"):
            integrate_simplex_log(
                np.zeros(3), lambda points: np.full(points.shape[0], math.inf), spec
            )
        # the log of a negative linear integrand is NaN
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            IntegrationError, match="NaN or infinity"
        ):
            integrate_simplex_log(
                np.zeros(3), lambda points: np.log(points[:, 0] - 0.5), spec
            )

    def test_wrong_result_shape_is_rejected(self):
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=8)
        with pytest.raises(IntegrationError):
            integrate_simplex_log(
                np.zeros(3), lambda points: np.zeros((points.shape[0], 2)), spec
            )


def _peak_of_second_run(m, log_prior, spec):
    # tracemalloc peak of an integral, after a warm-up run
    integrate_simplex_log(m, log_prior, spec)
    tracemalloc.start()
    try:
        integrate_simplex_log(m, log_prior, spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _tilted_log_prior(points):
    # the prior exp(-2 p1) (1 + p2^2): it does not separate into
    # per-angle factors
    return -2.0 * points[:, 0] + np.log1p(points[:, 1] ** 2)


def _written_out_log_kernel(m, j, t):
    # ln K_j = ln 2 + a ln cos t + b ln sin t for the 0-based angle j,
    # a = 2(m_j + 1) - 1 and b = 2 S_j - 1, added in that order: apart
    # from the kernel code the grid and log_kernel share
    return (math.log(2.0)
            + (2.0 * (m[j] + 1.0) - 1.0) * np.log(np.cos(t))
            + (2.0 * np.sum(m[j + 1:] + 1.0) - 1.0) * np.log(np.sin(t)))


def test_axis_factors_match_the_written_out_kernels_bitwise():
    # real counts, whose tail sums S_j round differently in another order
    m = np.random.default_rng(7).uniform(-0.99, 50.0, 40)
    theta, axis_logs = quadrature._axis_factors(m, 16)
    _, log_w = _angle_rule(16)
    assert len(axis_logs) == m.size - 1
    for j, logs in enumerate(axis_logs):
        assert np.array_equal(logs, log_w + _written_out_log_kernel(m, j, theta)), j


def _grid_and_reference(m, nodes, block):
    # each block of the factored grid beside the per-point map and the
    # per-axis terms log w + log K_j of the same points, taken in C
    # order as one batch and summed per point
    n = m.size
    theta, axis_logs = quadrature._axis_factors(m, nodes)
    _, log_w = _angle_rule(nodes)
    index = np.ascontiguousarray(
        np.indices((nodes,) * (n - 1)).reshape(n - 1, -1).T
    )
    start = 0
    for points, logs in tensor_grid_blocks(theta, axis_logs, block):
        assert points.shape == (logs.size, n)
        rows = index[start:start + logs.size]
        start += logs.size
        th = theta[rows]
        terms = np.stack(
            [_written_out_log_kernel(m, j, th[:, j]) for j in range(n - 1)], axis=1
        )
        reference = np.sum(log_w[rows] + terms, axis=1)
        yield points.copy(), logs, angles_to_simplex(th), reference
    assert start == nodes ** (n - 1)


class TestFactoredGrid:
    """The grid is built from per-axis factors in blocks of whole
    leading-index rows; these tests pin it to the per-point map,
    kernel and reduction and bound the size of what it hands the
    prior."""

    @pytest.mark.parametrize("n, nodes", [
        (n, nodes)
        for n in range(2, 7)
        for nodes in (5, 9, 24, 33)
        if nodes ** (n - 1) <= 400_000
    ])
    def test_matches_the_per_point_reference_bitwise(self, monkeypatch, n, nodes):
        # blocks of a few hundred points and of at most 50, which split
        # most grids unevenly; the reduction takes the same blocks
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=nodes)
        for block in (300, 50):
            monkeypatch.setattr(quadrature, "_BLOCK", block)
            # flat counts, then real and half-integer counts, some near -1
            for m in (np.zeros(n), np.linspace(0.0, 2.5, n),
                      np.resize([-0.999, 0.5, 10.0, 0.0, -0.5], n)):
                acc = _LogSumAccumulator()
                for points, logs, ref_points, ref_logs in _grid_and_reference(
                    m, nodes, block
                ):
                    assert np.array_equal(points, ref_points)
                    assert np.array_equal(logs, ref_logs)
                    acc.add(ref_logs + _tilted_log_prior(ref_points))

                est = integrate_simplex_log(m, _tilted_log_prior, spec)
                assert est.log_value == acc.log_sum

    def test_nine_bins_agree_with_the_per_point_sums_to_roundoff(self):
        # np.sum pairs eight or more terms per point, while the grid
        # adds them left to right; the map's products stay bitwise
        m = np.linspace(0.0, 2.5, 9)
        for points, logs, ref_points, ref_logs in _grid_and_reference(
            m, 4, 1 << 13
        ):
            assert np.array_equal(points, ref_points)
            np.testing.assert_allclose(
                logs, ref_logs, rtol=8 * np.finfo(float).eps, atol=0.0
            )

    @pytest.mark.parametrize("counts", [
        np.zeros,
        lambda n: np.resize([10.0, 3.0, 0.0, 7.0, 1.0, 5.0], n),
        lambda n: np.resize([0.5, 2.5, -0.5, 4.5, 1.5], n),
        lambda n: np.resize([-0.999999, 3.0, -0.99, 0.5, 10.0], n),
    ], ids=["zeros", "integers", "half_integers", "near_minus_one"])
    @pytest.mark.parametrize("n, nodes", [
        (2, 32), (3, 32), (4, 32), (5, 16), (6, 9),
    ])
    def test_counts_in_the_measure_match_the_per_point_power(
        self, n, nodes, counts
    ):
        # the same rule on the same points, with prod p^m either in the
        # per-axis kernel factors or evaluated at each point next to
        # the prior; only the rounding differs
        m = counts(n)
        power = power_log_integrand(m)
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=nodes)
        measure = integrate_simplex_log(m, _tilted_log_prior, spec)
        per_point = integrate_simplex_log(
            np.zeros(n), lambda p: power(p) + _tilted_log_prior(p), spec
        )
        assert log_rel_gap(measure.log_value, per_point.log_value) <= 1e-13
        assert measure.evaluations == per_point.evaluations

    @pytest.mark.parametrize("n, nodes, block, sizes", [
        # 5 rows of 24 per block; the last of 576 rows is alone
        (4, 24, 120, [120] * 115 + [24]),
        # 5 rows of 9, then the 4 rows left of 729
        (5, 9, 50, [45] * 145 + [36]),
        # a single axis of 33 nodes, wider than the block: one row each
        (3, 33, 20, [33] * 33),
        (2, 33, 20, [20, 13]),
        (6, 7, 1024, [686] * 24 + [343]),
        # the real block size: 8 rows of 32^2, 14 rows of 24^2 with 2
        # rows left, and 2 rows of 64^2
        (5, 32, 1 << 13, [1 << 13] * 128),
        (5, 24, 1 << 13, [8064] * 41 + [1152]),
        (4, 64, 1 << 13, [1 << 13] * 32),
    ])
    def test_each_block_goes_straight_to_the_reduction(
        self, monkeypatch, n, nodes, block, sizes
    ):
        # the prior gets the grid's points in C order, each call checked
        # against the per-point map of the next points, and every add of
        # the reduction takes the block the prior has just had
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        theta, _ = _angle_rule(nodes)
        calls, adds = [], []

        def log_f(points):
            start = sum(calls)
            index = np.unravel_index(
                np.arange(start, start + points.shape[0]), (nodes,) * (n - 1)
            )
            assert np.array_equal(points, angles_to_simplex(np.stack(
                [theta[i] for i in index], axis=1
            )))
            assert len(calls) == len(adds)
            calls.append(points.shape[0])
            return np.zeros(points.shape[0])

        class Recording(_LogSumAccumulator):
            def add(self, log_values):
                assert len(adds) + 1 == len(calls)
                adds.append(log_values.size)
                super().add(log_values)

        monkeypatch.setattr(quadrature, "_LogSumAccumulator", Recording)
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=nodes)
        est = integrate_simplex_log(np.zeros(n), log_f, spec)
        assert calls == adds == sizes
        assert sum(sizes) == nodes ** (n - 1) == est.evaluations
        assert max(sizes) <= max(block, nodes)


class TestFullTensorGrid:
    """compare's plain grid: the power term evaluated per point on all
    k^(n-1) points. Its bits and its memory are pinned."""

    @pytest.mark.parametrize("m, nodes, log_value", [
        ([3.0] * 5, 32, "-0x1.e618ee83f4908p+4"),
        ([0.5, 2.0, 1.5, 3.0], 64, "-0x1.8e94518bcbbb9p+3"),
        ([1.0, 2.0, 0.0, 1.0, 3.0], 24, "-0x1.e08e8cf403348p+3"),
    ])
    def test_frozen_values(self, m, nodes, log_value):
        # frozen from a grid that allocated each block's points afresh
        # and took the power term of 2^18 points in one pass; the
        # 24-node value from a grid that kept one point buffer, whose
        # rows split unevenly at the real block size; the 64-node value
        # from a grid whose reduction takes each 8192-point block, where
        # it had taken 2^18 points at a time (one bit nearer the exact
        # value)
        m = np.array(m)
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=nodes)
        est = integrate_simplex_log(np.zeros(m.size), power_log_integrand(m), spec)
        assert est.log_value == float.fromhex(log_value)
        assert log_rel_gap(est.log_value, log_norm_integral(m)) <= 1e-13
        assert est.evaluations == nodes ** (m.size - 1)

    @staticmethod
    def _grid_peak(m, log_f):
        # the 32^4 grid at n = 5
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=32)
        return _peak_of_second_run(m, log_f, spec)

    def test_one_grid_stays_within_its_memory(self):
        # 128 blocks of 8192 points: per block the (8192, 5) point
        # buffer, its log weights, the power term's (5, 8192) scratch
        # and its values, about 0.75 MB in all. Log weights of 2^18
        # points alive add 2.1 MB, points or power terms of as many
        # 10.5 MB.
        m = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert self._grid_peak(np.zeros(5), power_log_integrand(m)) <= 1.5e6

    def test_a_prior_on_every_bin_stays_within_its_memory(self):
        # the command line's prior on the same 32^4 points, the power
        # term in the measure: the expression's temporaries are a
        # block's 8192 values each, about 1.0 MB in all; on 2^18
        # points they alone would be several 2.1 MB arrays
        from simplexquad import cli

        cli._bind_numerics()
        log_prior = cli._log_prior(cli.parse("exp(-4*(p1^2+p2^2+p3^2+p4^2+p5^2))"))
        m = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert self._grid_peak(m, log_prior) <= 1.5e6


def _second_last_log_prior(points):
    # reads p1 and p_{n-1}, whose angles are the first and the last
    return np.log(2.0 + points[:, -2] - points[:, 0])


def _last_bin_log_prior(points):
    return np.log1p(points[:, -1])


# by r: a prior that reads p_1..p_r
_PRIORS_ON_THE_FIRST_BINS = (
    lambda p: np.full(p.shape[0], math.log(3.0)),
    lambda p: -2.0 * p[:, 0],
    _tilted_log_prior,
    lambda p: np.log1p(p[:, 0] * p[:, 2]),
)


class TestPartialGrid:
    """prior_bins = r: the tensor grid over the first r angles, a 1-D
    sum over each later one."""

    # full-tensor values captured before the partial grid existed
    @pytest.mark.parametrize("m, nodes, log_prior, frozen", [
        ([2.0, 0.5, 1.0], 16, _tilted_log_prior, -5.858575737666868),
        ([1.0, 2.0, 0.0, 3.0], 16, _second_last_log_prior, -9.675066944121074),
        ([0.5, 1.5, -0.5, 2.5], 24, _last_bin_log_prior, -6.225016689266598),
        ([3.0, 1.0, 4.0, 1.0, 5.0], 8, _tilted_log_prior, -27.020006511790083),
    ])
    def test_every_bin_is_the_full_tensor_bit_for_bit(
        self, m, nodes, log_prior, frozen
    ):
        n = len(m)
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=nodes)
        # None is the default; a prior reading p_n needs no more than
        # the n - 1 angles
        for prior_bins in (None, n - 1, n):
            est = integrate_simplex_log(
                np.array(m), log_prior, spec, prior_bins=prior_bins
            )
            assert est.log_value == frozen
            assert est.evaluations == nodes ** (n - 1)

    @pytest.mark.parametrize("m, nodes, prior_bins", [
        (m, nodes, r)
        for m, nodes in (
            ([10.0, 3.0, 0.0, 7.0], 32),
            ([0.5, 2.5, 1.5, 4.5], 64),
            ([10.0] * 5, 32),
            ([3.0, 1.0, 4.0, 1.0, 5.0], 32),
            ([1.5, 0.5, 3.5, 2.5, 0.0], 32),
        )
        for r in range(len(m) - 1)
    ])
    def test_fewer_bins_agree_with_the_full_tensor(self, m, nodes, prior_bins):
        # a prior that reads p_1..p_r and no later bin
        log_prior = _PRIORS_ON_THE_FIRST_BINS[prior_bins]
        m = np.array(m)
        d = m.size - 1
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=nodes)
        full = integrate_simplex_log(m, log_prior, spec)
        partial = integrate_simplex_log(m, log_prior, spec, prior_bins=prior_bins)
        assert log_rel_gap(partial.log_value, full.log_value) <= 1e-13
        assert partial.evaluations == nodes ** prior_bins + (d - prior_bins) * nodes

    @pytest.mark.parametrize("n, prior_bins", [(3, 1), (5, 2), (5, 3), (6, 1)])
    def test_the_prior_sees_its_bins_and_the_mass_left(self, n, prior_bins):
        # (count, r+1) points: p_1..p_r on the grid's first r angles,
        # then 1 - p_1 - ... - p_r
        nodes = 6
        seen = []

        def log_prior(points):
            seen.append(points.copy())
            return np.zeros(points.shape[0])

        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=nodes)
        integrate_simplex_log(np.ones(n), log_prior, spec, prior_bins=prior_bins)
        points = np.concatenate(seen)
        theta, _ = _angle_rule(nodes)
        angles = np.indices((nodes,) * prior_bins).reshape(prior_bins, -1).T
        # any later angles give the same first r bins and the same rest
        later = np.zeros((angles.shape[0], n - 1 - prior_bins))
        full = angles_to_simplex(np.concatenate([theta[angles], later], axis=1))
        assert points.shape == (nodes ** prior_bins, prior_bins + 1)
        assert np.array_equal(points[:, :prior_bins], full[:, :prior_bins])
        np.testing.assert_allclose(
            points[:, -1], np.sum(full[:, prior_bins:], axis=1), rtol=1e-15, atol=0
        )

    @pytest.mark.parametrize("m", [[1.0, 1.0, 1.0], [0.5, 3.0, -0.5, 2.0, 7.0]])
    def test_a_prior_that_reads_no_bin_is_one_point(self, m):
        m = np.array(m)
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=32)
        separable = integrate_separable(m, spec)
        seen = []

        def log_constant(points):
            seen.append(points.copy())
            return np.full(points.shape[0], math.log(2.0))

        est = integrate_simplex_log(m, log_constant, spec, prior_bins=0)
        assert [p.tolist() for p in seen] == [[[1.0]]]
        assert est.log_value == math.log(2.0) + separable.log_value
        assert est.evaluations == 1 + separable.evaluations
        flat = integrate_simplex_log(
            m, lambda p: np.zeros(p.shape[0]), spec, prior_bins=0
        )
        assert flat.log_value == separable.log_value

    @pytest.mark.parametrize("prior_bins, log_prior", [
        (0, lambda p: np.full(p.shape[0], math.nan)),
        (2, lambda p: np.log(p[:, 1] - 0.5)),
    ])
    def test_head_values_are_still_checked(self, prior_bins, log_prior):
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=8)
        with np.errstate(invalid="ignore"), pytest.raises(
            IntegrationError, match="NaN or infinity"
        ):
            integrate_simplex_log(np.ones(5), log_prior, spec, prior_bins=prior_bins)

    def test_budget_counts_only_the_tensor_axes(self):
        # 16^4 = 65536 for the full grid; 16^2 + 2 * 16 = 288 here
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=16)
        est = integrate_simplex_log(
            np.ones(5), _tilted_log_prior, spec, budget=288, prior_bins=2
        )
        assert est.evaluations == 288
        with pytest.raises(IntegrationError, match="2 tensor axes of 4"):
            integrate_simplex_log(
                np.ones(5), _tilted_log_prior, spec, budget=287, prior_bins=2
            )

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_prior_bins_must_be_a_count(self, bad):
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=8)
        with pytest.raises(ValueError, match="prior_bins"):
            integrate_simplex_log(
                np.ones(3), _tilted_log_prior, spec, prior_bins=bad
            )

    @pytest.mark.parametrize("spec", [
        QuadratureSpec(scheme="monte_carlo", samples=5000, seed=4),
        QuadratureSpec(scheme="nested_oracle", rel_tol=1e-6),
    ], ids=lambda spec: spec.scheme)
    def test_other_schemes_ignore_it(self, spec):
        m = np.array([1.0, 0.0, 2.0])
        plain = integrate_simplex_log(m, _tilted_log_prior, spec)
        told = integrate_simplex_log(m, _tilted_log_prior, spec, prior_bins=2)
        assert told == plain


# integrate_separable and the gauss_grid core with no prior
_SEPARABLE_ROUTES = (
    integrate_separable,
    lambda m, spec=QuadratureSpec("gauss_grid"): integrate_simplex_log(m, None, spec),
)


class TestSeparable:
    """integrate_separable is the gauss_grid core with no prior, so
    each case runs through both."""

    def test_unit_counts_give_one_over_120(self):
        for integrate in _SEPARABLE_ROUTES:
            est = integrate(np.array([1.0, 1.0, 1.0]))
            assert est.value == pytest.approx(1.0 / 120.0, rel=1e-13, abs=0)
            assert est.evaluations == 2 * 32

    def test_two_bins_reduce_to_a_beta_integral(self):
        # n = 2 has a single angle, so the "product" is one Beta value
        m = np.array([2.5, 4.0])
        for integrate in _SEPARABLE_ROUTES:
            est = integrate(m, QuadratureSpec("gauss_grid", 48))
            assert est.log_value == pytest.approx(
                log_beta(m[0] + 1.0, m[1] + 1.0), abs=1e-12
            )

    def test_five_bins_at_64_nodes_match_the_closed_form(self):
        m = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        for integrate in _SEPARABLE_ROUTES:
            est = integrate(m, QuadratureSpec("gauss_grid", 64))
            assert log_rel_gap(est.log_value, log_norm_integral(m)) <= 1e-12

    def test_agrees_with_the_full_grid_at_equal_nodes(self):
        # same 1-D rule, but the grid sums nodes^(n-1) products while
        # the separated form sums each axis alone; agreement is a
        # genuine consistency check of the kernel factorization
        m = np.array([2.0, 0.5, 1.0, 3.0])
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=20)
        grid = integrate_simplex_log(np.zeros(4), power_log_integrand(m), spec)
        for integrate in _SEPARABLE_ROUTES:
            separated = integrate(m, spec)
            assert log_rel_gap(separated.log_value, grid.log_value) <= 1e-10

    def test_rejects_non_gauss_specs(self):
        with pytest.raises(ValueError):
            integrate_separable(
                np.array([1.0, 2.0]), QuadratureSpec(scheme="monte_carlo")
            )


def _zero_log_prior(points):
    return np.zeros(points.shape[0])


class TestNoPrior:
    """log_prior None: no prior on every scheme, with the bits of a
    prior that returns zeros and no per-point prior call."""

    @pytest.mark.parametrize("spec", [
        QuadratureSpec(scheme="gauss_grid", nodes_per_axis=16),
        QuadratureSpec(scheme="monte_carlo", samples=70_000, seed=5),
        QuadratureSpec(scheme="nested_oracle", rel_tol=1e-8),
    ], ids=lambda spec: spec.scheme)
    @pytest.mark.parametrize("m", [[2.0, 3.0], [2.0, 0.5, 1.0], [1.0, 0.0, 2.0, 1.0]],
                             ids=str)
    def test_is_a_zero_prior_bit_for_bit(self, monkeypatch, spec, m):
        m = np.array(m)
        # prior_bins=0: the command line's flat prior before it was None
        zero = integrate_simplex_log(m, _zero_log_prior, spec, prior_bins=0)

        def refuse(*args):
            raise AssertionError("a prior was evaluated")

        monkeypatch.setattr(quadrature, "_checked_log_values", refuse)
        for prior_bins in (None, 0, m.size):
            bare = integrate_simplex_log(m, None, spec, prior_bins=prior_bins)
            assert (bare.log_value.hex(), bare.std_error.hex()) == (
                zero.log_value.hex(), zero.std_error.hex())
            if spec.scheme == "gauss_grid":
                # the n-1 axis sums, without the zero prior's head point
                assert bare.evaluations == (m.size - 1) * 16
                assert bare.evaluations == zero.evaluations - 1
            else:
                assert bare.evaluations == zero.evaluations

    def test_grid_budget_counts_the_axis_sums(self):
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=16)
        assert integrate_simplex_log(np.ones(5), None, spec, budget=64).evaluations == 64
        with pytest.raises(IntegrationError, match="0 tensor axes of 4"):
            integrate_simplex_log(np.ones(5), None, spec, budget=63)


class TestNestedOracleRoute:
    def test_two_bin_exponents_give_a_beta_value(self):
        # B(3, 4) = 2! 3! / 6! = 1/60
        est = nested_oracle(np.array([2.0, 3.0]))
        assert est.value == pytest.approx(
            float(Fraction(2 * 6, math.factorial(6))), rel=1e-10
        )

    def test_flat_callable_gives_the_simplex_volume(self):
        est = nested_oracle(np.zeros(3), lambda p: 1.0)
        assert est.value == pytest.approx(0.5, rel=1e-10)

    def test_integrates_through_the_linear_wrapper(self):
        # a linear integrand wrapped in a log, on the core's oracle route
        spec = QuadratureSpec(scheme="nested_oracle", rel_tol=1e-9)
        est = integrate_simplex_log(
            np.zeros(3), lambda p: np.log(p[:, 0] * p[:, 2] ** 2), spec
        )
        exact = log_norm_integral(np.array([1.0, 0.0, 2.0]))
        assert log_rel_gap(est.log_value, exact) <= 1e-8

    def test_bin_count_is_capped_at_five(self):
        with pytest.raises(ValueError):
            nested_oracle(np.ones(6))

    def test_oracle_rejects_tolerances_that_are_not_positive_finite(self):
        # a NaN tolerance never converges and an infinite one accepts the
        # first pass; the small budget keeps a missing check fast
        for rel_tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="rel_tol"):
                oracle.nested_simplex_integral(
                    [1.0, 1.0], rel_tol=rel_tol, max_evaluations=10_000
                )

    def test_zero_integrand_comes_back_as_log_zero(self):
        est = nested_oracle(np.zeros(2), lambda p: 0.0)
        assert est.log_value == -math.inf

    def test_a_flat_prior_underflow_is_raised_not_returned(self):
        # prod p_i^{m_i} is positive inside the simplex, so with no prior
        # a zero is the linear doubles underflowing; the spend is frozen
        match = "^the nested oracle underflowed to 0$"
        with pytest.raises(IntegrationError, match=match) as info:
            oracle.nested_simplex_integral([400, 300, 200])
        assert info.value.evaluations == 240
        with pytest.raises(IntegrationError, match=match) as info:
            nested_oracle([1e4, 3, 2e3, 7])
        assert info.value.evaluations == 3615

    # counts and a prior together: prod p^m times p_1 is the Dirichlet
    # integral at m + e_1, whose closed form is log_norm_integral
    _COUNTS_WITH_PRIOR = pytest.mark.parametrize("m", [
        [2.0, 3.0],
        [1.0, 0.0, 2.0],
        [2.0, 1.0, 0.0, 1.0],
        [0.5, 1.5],
        [3.5, 2.5, 4.5],
        [0.5, 1.0, 2.0, 1.0],
    ], ids=str)

    @_COUNTS_WITH_PRIOR
    def test_counts_times_a_prior(self, m):
        m = np.array(m)
        shifted = m + np.eye(m.size)[0]
        est = nested_oracle(m, lambda p: p[0])
        assert log_rel_gap(est.log_value, log_norm_integral(shifted)) <= 1e-9

    @_COUNTS_WITH_PRIOR
    def test_counts_times_a_log_prior_on_the_core_route(self, m):
        m = np.array(m)
        shifted = m + np.eye(m.size)[0]
        spec = QuadratureSpec(scheme="nested_oracle", rel_tol=1e-10)
        est = integrate_simplex_log(m, lambda p: np.log(p[:, 0]), spec)
        assert est.scheme == "nested_oracle"
        assert log_rel_gap(est.log_value, log_norm_integral(shifted)) <= 1e-9


class TestOracleRefusesBadPriorValues:
    """A prior value that is not one finite nonnegative float per point
    stops the oracle in the first pass that sees it, not at the end of
    its budget."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0], ids=str)
    def test_the_first_pass_refuses_the_value(self, value):
        with pytest.raises(IntegrationError, match="finite nonnegative") as info:
            nested_oracle([1, 1], lambda p: value, budget=10**6)
        assert info.value.evaluations == 15

    @pytest.mark.parametrize("count", [14, 16])
    def test_one_value_per_point(self, count):
        with pytest.raises(IntegrationError, match="one finite") as info:
            oracle.nested_simplex_integral(
                [1.0, 2.0, 0.0], lambda rows: [1.0] * count, max_evaluations=10**6
            )
        # the outer level's first pass, then its first point's inner pass
        assert info.value.evaluations == 30

    def test_an_overflowing_log_prior_on_the_core_route(self):
        spec = QuadratureSpec(scheme="nested_oracle")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="finite") as info:
                integrate_simplex_log(
                    [1, 1], lambda p: np.full(len(p), 800.0), spec, budget=10**6
                )
        assert info.value.evaluations == 15

    def test_a_log_prior_that_overflows_itself_still_warns(self):
        # only the route's own exp is quiet; the caller's code is not
        spec = QuadratureSpec(scheme="nested_oracle")
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(IntegrationError, match="NaN or infinity"):
                integrate_simplex_log(
                    [1, 1], lambda p: np.exp(np.full(len(p), 800.0)), spec,
                    budget=10**6,
                )


def _exp_prior(p):
    return math.exp(-2.0 * p[0]) * (1.0 + p[1] ** 2)


class TestBatchedOraclePasses:
    """Each Kronrod pass hands its integrand all 15 points at once. The
    frozen values below were captured from a verified run that
    evaluated the points one at a time; the batches must keep every
    bit and every budget charge."""

    @pytest.mark.parametrize("m, value, evaluations", [
        ([2, 3], "0x1.1111111111111p-6", 15),
        ([1, 3, 0, 2, 0], "0x1.bbd779334ef0ap-19", 54240),
        ([0.5, 1.5, 2.5], "0x1.123e0831f67fap-9", 933240),
        ([3, 5, 3, 0], "0x1.a9a9909fb036cp-25", 3615),
    ], ids=str)
    def test_raw_oracle_values_are_frozen(self, m, value, evaluations):
        got = oracle.nested_simplex_integral(m)
        assert got == (float.fromhex(value), evaluations)

    @pytest.mark.parametrize("m, value, evaluations", [
        ([2, 3], "0x1.5e7f0309f9a50p-7", 45),
        ([1, 3, 0, 2, 0], "0x1.6e19727421359p-19", 162720),
    ], ids=str)
    def test_raw_oracle_values_with_a_prior_are_frozen(self, m, value,
                                                       evaluations):
        def prior(rows):
            return [_exp_prior(row) for row in rows]

        got = oracle.nested_simplex_integral(m, prior, rel_tol=1e-9)
        assert got == (float.fromhex(value), evaluations)
        # the scalar prior of the public wrapper gives the same bits
        spec = QuadratureSpec(scheme="nested_oracle", rel_tol=1e-9)
        est = nested_oracle(m, _exp_prior, spec=spec)
        assert (est.log_value, est.evaluations) == (
            math.log(float.fromhex(value)), evaluations)

    def test_the_gauss_kronrod_pass_gets_one_batch(self):
        batches = []

        def f(points):
            batches.append(list(points))
            return [x * x for x in points]

        budget = oracle._Budget(100)
        value, _ = oracle.gauss_kronrod(f, 0.0, 2.0, budget)
        assert value == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert budget.remaining == 85
        (points,) = batches
        # the center, then the symmetric pairs from the outermost in
        assert points[0] == 1.0
        offsets = [points[2 * i + 2] - 1.0 for i in range(7)]
        assert offsets == sorted(offsets, reverse=True)
        assert all(points[2 * i + 1] < 1.0 < points[2 * i + 2] for i in range(7))

    # (counts, log value, evaluations, prior rows) of the exp prior on
    # the core's route, frozen from the one-row-per-call run: the same
    # points reach the prior, 15 to a call. At n > 2 the evaluations
    # also count the outer levels' passes, which call no prior.
    @pytest.mark.parametrize("m, log_value, evaluations, rows", [
        ([2, 3], "-0x1.226c44058506fp+2", 45, 45),
        ([2, 1, 1], "-0x1.a413880d6f3fdp+2", 720, 675),
        ([1, 1, 1, 1], "-0x1.1cc57742a2bf4p+3", 10845, 10125),
    ], ids=str)
    def test_core_route_calls_the_prior_once_per_pass(self, m, log_value,
                                                      evaluations, rows):
        shapes = []

        def log_prior(points):
            shapes.append(points.shape)
            return -2.0 * points[:, 0] + np.log1p(points[:, 1] ** 2)

        spec = QuadratureSpec(scheme="nested_oracle", rel_tol=1e-10)
        est = integrate_simplex_log(np.array(m, float), log_prior, spec)
        assert (est.log_value, est.evaluations) == (
            float.fromhex(log_value), evaluations)
        assert set(shapes) == {(15, len(m))}
        assert 15 * len(shapes) == rows
        if len(m) == 2:
            assert 15 * len(shapes) == est.evaluations


# (log_value, std_error) captured from the row-major batch: n = 2
# sums one Jacobian term, n = 9 eight, n = 12 eleven and n = 140 more
# than 128; 1000 samples is one short batch and 200,001 ends in one. At
# n = 140 one sample outweighs the rest and std_error rounds to 0.
_MC_FROZEN = [
    ([-0.5, 0.0], False, 1000, 0,
     "0x1.67a528ce25498p-1", "0x1.fda5eae1ab838p-6"),
    ([1.5, 2.0], True, 200_001, 1,
     "-0x1.bb7ece458b13cp+1", "0x1.3e9ac849c4338p-14"),
    ([1, 0, 2, 1, 0, 1, 2, 0, 3], False, 200_001, 3,
     "-0x1.090e44210c00fp+5", "0x1.8807dc71c9ab9p-50"),
    ([0.5, -0.5, 0, 2, 1.5, 0, 3, 1, 0], True, 1000, 7,
     "-0x1.a4fbc9ab6fca0p+4", "0x1.f6e34929c21dbp-39"),
    ([-0.5, 0, 1.5, 2, 0, 0.5, 3, 1, 0, 2.5, 1, 0], True, 200_001, 11,
     "-0x1.5e3db65707ddap+5", "0x1.646eb53c1d00bp-64"),
    ([(i % 5) * 0.5 - 0.5 for i in range(140)], True, 20_000, 2,
     "-0x1.74fa99254236dp+13", "0x0.0p+0"),
    ([0.0] * 140, False, 1000, 4,
     "-0x1.03762d472bc68p+13", "0x0.0p+0"),
]


def _check_frozen(m, prior, samples, seed, log_value, std_error):
    def log_prior(points):
        if prior:
            return -2.0 * points[:, 0] + np.log1p(points[:, 1] ** 2)
        return np.zeros(points.shape[0])

    spec = QuadratureSpec(scheme="monte_carlo", samples=samples, seed=seed)
    est = integrate_simplex_log(np.array(m, dtype=float), log_prior, spec)
    assert est.log_value == float.fromhex(log_value)
    assert est.std_error == float.fromhex(std_error)
    assert est.evaluations == samples
    if not prior:
        # no prior at all: the zero prior's bits
        bare = integrate_simplex_log(np.array(m, dtype=float), None, spec)
        assert (bare.log_value.hex(), bare.std_error.hex()) == (
            est.log_value.hex(), est.std_error.hex())


class TestMonteCarlo:
    def test_fixed_seed_is_bit_reproducible(self):
        m = np.array([1.0, 2.0, 3.0])
        spec = QuadratureSpec(scheme="monte_carlo", samples=40_000, seed=11)
        first = integrate_simplex_log(np.zeros(3), power_log_integrand(m), spec)
        second = integrate_simplex_log(np.zeros(3), power_log_integrand(m), spec)
        assert first.log_value == second.log_value
        assert first.std_error == second.std_error
        assert first.evaluations == 40_000

    def test_different_seeds_give_different_estimates(self):
        m = np.array([1.0, 2.0, 3.0])
        runs = {
            integrate_simplex_log(
                np.zeros(3), power_log_integrand(m),
                QuadratureSpec(scheme="monte_carlo", samples=10_000, seed=s),
            ).log_value
            for s in (0, 1, 2, -1)
        }
        assert len(runs) == 4

    def test_estimate_lands_within_five_sigma_of_the_truth(self):
        m = np.array([1.0, 2.0, 3.0])
        exact = math.exp(log_norm_integral(m))
        spec = QuadratureSpec(scheme="monte_carlo", samples=100_000, seed=0)
        est = integrate_simplex_log(np.zeros(3), power_log_integrand(m), spec)
        assert est.std_error > 0.0
        assert abs(est.value - exact) <= 5.0 * est.std_error

    def test_calibration_over_many_seeds(self):
        # the 5-sigma interval must cover the truth for nearly all
        # seeds; 27 of 30 is far below any plausible failure rate and
        # far above what a broken variance estimate could fake
        m = np.array([1.0, 2.0, 3.0])
        exact = math.exp(log_norm_integral(m))
        log_f = power_log_integrand(m)
        hits = 0
        for seed in range(30):
            spec = QuadratureSpec(scheme="monte_carlo", samples=20_000, seed=seed)
            est = integrate_simplex_log(np.zeros(3), log_f, spec)
            if abs(est.value - exact) <= 5.0 * est.std_error:
                hits += 1
        assert hits >= 27

    @staticmethod
    def _one_batch_peak(log_prior):
        # one full batch of 2^16 points at n = 8
        spec = QuadratureSpec(scheme="monte_carlo", samples=65_536, seed=0)
        return _peak_of_second_run(np.ones(8), log_prior, spec)

    def test_one_batch_stays_within_its_memory(self):
        # the prior gets each block's (8192, n) points in the map's
        # scratch, so only the batch's log values and squares are whole
        # (about 2.7 MB); the prior's points and power terms of a whole
        # batch would add 4.7 MB
        def flat(points):
            return np.zeros(points.shape[0])

        assert self._one_batch_peak(flat) <= 4e6

    def test_one_batch_without_a_prior_stays_within_its_memory(self):
        # the map runs on (n, 8192) scratch arrays and only the batch's
        # log values and squares are whole (about 2.6 MB); scratch
        # arrays as large as the batch would peak near 14 MB
        assert self._one_batch_peak(None) <= 4e6

    @pytest.mark.parametrize("m, prior, samples, seed, log_value, std_error", _MC_FROZEN)
    def test_frozen_values(self, m, prior, samples, seed, log_value, std_error):
        _check_frozen(m, prior, samples, seed, log_value, std_error)

    # the blocks of a batch split no sum: the same bits at any block
    # size, one that does not divide the batch and one over it too; the
    # 7-point blocks only on the 1000-sample cases, to keep this fast
    @pytest.mark.parametrize("block, case", [
        pytest.param(block, case, id=f"{block}-{len(case[0])}bins-{case[2]}")
        for block in (1 << 13, 3000, 1 << 16, 1 << 17, 7)
        for case in _MC_FROZEN if block != 7 or case[2] == 1000
    ])
    def test_the_bits_do_not_depend_on_the_block_size(self, monkeypatch, block, case):
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        _check_frozen(*case)

    @pytest.mark.parametrize("block", [1 << 13, 3000])
    def test_matches_the_per_point_formulas_bitwise(self, monkeypatch, block):
        # every point's log value, as the reduction gets it, against the
        # public functions on each batch drawn at once and mapped one
        # point per row: (Jacobian + box volume) + (power + prior)
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        added = []

        class Recording(_LogSumAccumulator):
            def add(self, log_values):
                added.append(log_values.copy())
                super().add(log_values)

        monkeypatch.setattr(quadrature, "_LogSumAccumulator", Recording)
        m, samples, seed = np.array([1, 2, 3, 0, 2.0]), 150_000, 3

        def log_prior(p):
            return -7.3 * p[:, 0] + np.log(0.1 + p[:, 1])

        spec = QuadratureSpec(scheme="monte_carlo", samples=samples, seed=seed)
        integrate_simplex_log(m, log_prior, spec)
        starts = range(0, samples, 1 << 16)
        assert len(added) == 2 * len(starts)
        for batch, start in enumerate(starts):
            key = np.array([seed, batch], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            theta = rng.random((min(1 << 16, samples - start), 4)) * HALF_PI
            p = angles_to_simplex(theta)
            logs = (log_jacobian(theta) + 4 * math.log(HALF_PI)) + (
                power_log_integrand(m)(p) + log_prior(p))
            assert np.array_equal(added[2 * batch], logs)
            assert np.array_equal(added[2 * batch + 1], 2.0 * logs)

    def test_the_prior_gets_one_point_per_row(self):
        # the batch runs one angle per row; the prior still gets
        # C-contiguous (count, n) points, one block of at most _BLOCK
        # per call, the short last batch too
        shapes = []

        def log_prior(points):
            assert points.flags.c_contiguous
            np.testing.assert_allclose(points.sum(axis=1), 1.0, rtol=1e-14)
            shapes.append(points.shape)
            return np.zeros(points.shape[0])

        spec = QuadratureSpec(scheme="monte_carlo", samples=200_001, seed=0)
        integrate_simplex_log(np.ones(3), log_prior, spec)
        assert shapes == [(8192, 3)] * 24 + [(3393, 3)]

    def test_an_overflowing_std_error_is_inf(self):
        # e^800 times the integral of p1 p2, 1/6: the log value fits in a
        # double, its linear-scale error does not
        spec = QuadratureSpec("monte_carlo")
        est = integrate_simplex_log([1, 1], lambda p: np.full(len(p), 800.0), spec)
        assert est.std_error == math.inf
        assert est.log_value == pytest.approx(800.0 + math.log(1 / 6), rel=1e-4)
        assert est.evaluations == spec.samples

    def test_sample_count_over_budget_is_refused(self):
        m = np.array([1.0, 2.0])
        spec = QuadratureSpec(scheme="monte_carlo", samples=1000, seed=0)
        with pytest.raises(IntegrationError, match="budget"):
            integrate_simplex_log(
                np.zeros(2), power_log_integrand(m), spec, budget=999
            )


class TestPowerLogIntegrand:
    def test_zero_exponents_ignore_zero_coordinates(self):
        # 0 * log(0) must follow the 0^0 = 1 convention, not produce NaN
        log_f = power_log_integrand(np.array([0.0, 1.0, 2.0]))
        points = np.array([[0.0, 0.3, 0.7]])
        got = float(log_f(points)[0])
        assert got == pytest.approx(math.log(0.3) + 2.0 * math.log(0.7), rel=1e-15)

    def test_positive_exponent_at_zero_gives_log_zero(self):
        log_f = power_log_integrand(np.array([1.0, 1.0]))
        assert log_f(np.array([[0.0, 1.0]]))[0] == -math.inf

    def test_values_match_direct_evaluation(self):
        rng = np.random.default_rng(9)
        m = np.array([0.5, 0.0, 3.0])
        log_f = power_log_integrand(m)
        raw = rng.uniform(0.05, 1.0, (50, 3))
        points = raw / raw.sum(axis=1, keepdims=True)
        expected = np.sum(m * np.log(points), axis=1)
        np.testing.assert_allclose(log_f(points), expected, rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 8, 9, 140])
    def test_bits_are_those_of_the_row_major_sum(self, n):
        # n = 8, 9 and 140 cross np.sum's blocks of 8 and its split at
        # 128; zero exponents meet zero coordinates
        rng = np.random.default_rng(n)
        m = rng.uniform(0.0, 6.0, n)
        m[::3] = 0.0
        log_f = power_log_integrand(m)
        for shape in [(n,), (2, 3, n)]:
            points = rng.uniform(0.0, 1.0, shape)
            points[..., ::4] = 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = np.sum(np.where(m == 0, 0, m * np.log(points)), axis=-1)
            got = log_f(points)
            assert type(got) is type(expected)
            assert np.shape(got) == shape[:-1]
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("shape, transposed", [
        ((20_000, 5), False),  # more than one grid block
        ((3, 10_000, 5), False),  # leading axes
        ((20_000, 5), True),  # a transposed view: one bin per row
        ((0, 5), False),
        ((5,), False),  # one point: a numpy scalar
    ])
    def test_blocks_give_the_bits_of_one_pass(self, block, shape, transposed):
        # each point's sum is that of the row-major sum over its bins,
        # whether the batch comes in one call or, as the grid hands it
        # over, in calls of a few points each
        rng = np.random.default_rng(21)
        m = np.array([0.0, 2.5, 1.0, 0.0, 7.0])
        points = rng.uniform(0.0, 1.0, shape)
        # zero coordinates under a zero and a nonzero exponent
        rows = points.reshape(-1, 5)
        rows[::2, 0] = 0.0
        rows[::3, 4] = 0.0
        if transposed:
            points = np.ascontiguousarray(points.T).T
            assert not points.flags.c_contiguous
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.sum(np.where(m == 0, 0, m * np.log(points)), axis=-1)
        log_f = power_log_integrand(m)
        if block is None:
            got = log_f(points)
        else:
            rows = points.reshape(-1, 5)
            got = np.concatenate([np.empty(0)] + [
                log_f(rows[start:start + block])
                for start in range(0, len(rows), block)
            ])
            got = got.reshape(points.shape[:-1])[()]
        assert type(got) is type(expected)
        assert np.shape(got) == points.shape[:-1]
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("shape", [(5, 1), (1,), (5, 3), (5, 5), ()])
    def test_points_need_one_coordinate_per_bin(self, shape):
        # a (count, 1) array used to broadcast against the exponents
        log_f = power_log_integrand(np.array([1.0, 2.0, 0.0, 0.5]))
        with pytest.raises(ValueError, match="points need 4 bins"):
            log_f(np.full(shape, 0.25))

    def test_a_grid_prior_of_fewer_bins_than_counts_is_refused(self):
        # prior_bins = r hands the prior (count, r+1) points, not n bins
        m = np.array([1.0, 2.0, 0.0, 0.5])
        spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=4)
        with pytest.raises(ValueError, match="points need 4 bins"):
            integrate_simplex_log(np.zeros(4), power_log_integrand(m), spec,
                                  prior_bins=2)
