"""Prior expression language: parsing, evaluation, printing.

Expected values are hand-evaluatable arithmetic; the interesting
content is the error contract (columns, domain edges, limits) and the
round-trip property of the canonical printer.
"""

import math

import numpy as np
import pytest

from simplexquad import (
    EvaluationError,
    ExpressionSyntaxError,
    GRAMMAR_VERSION,
    evaluate,
    evaluate_batch,
    format_expression,
    parse,
)
from simplexquad import expressions
from simplexquad.expressions import MAX_NODES, PriorExpression

POINT = np.array([0.25, 0.16, 0.59])


def ev(source, point=POINT):
    return evaluate(parse(source), point)


class TestParsing:
    def test_grammar_version_is_published(self):
        assert GRAMMAR_VERSION == 1

    def test_single_number(self):
        expr = parse("1")
        assert expr.ast == ("num", 1.0)
        assert expr.max_index == 0
        assert expr.node_count == 1

    def test_variables_are_one_based(self):
        expr = parse("p2 + p4")
        assert expr.max_index == 4
        with pytest.raises(ExpressionSyntaxError, match="numbered from p1"):
            parse("p0")

    def test_number_formats(self):
        assert ev("0.5") == 0.5
        assert ev(".5") == 0.5
        assert ev("2.") == 2.0
        assert ev("1e-3") == 1e-3
        assert ev("2.5E2") == 250.0

    def test_whitespace_is_free(self):
        assert ev("  1+ 2 *p1  ") == ev("1+2*p1")

    def test_multiplication_binds_tighter_than_addition(self):
        assert ev("2+3*4^2") == 50.0

    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_division_is_left_associative(self):
        assert ev("8/4/2") == 1.0

    def test_subtraction_is_left_associative(self):
        assert ev("8-4-2") == 2.0

    def test_power_base_includes_the_unary_minus(self):
        # -x^2 reads (-x)^2, so it is an error for positive x (negative
        # base) and fine after parenthesizing by hand
        assert ev("-(p1^2) + 1") == 1.0 - 0.25 ** 2
        with pytest.raises(EvaluationError, match="negative base"):
            ev("-p1^2")

    def test_negative_exponents_parse(self):
        assert ev("2^-1") == 0.5

    def test_pow_call_is_the_same_tree_as_the_operator(self):
        assert parse("pow(p1, 2)").ast == parse("p1^2").ast

    def test_function_calls(self):
        assert ev("exp(0)") == 1.0
        assert ev("log(exp(1))") == pytest.approx(1.0, rel=1e-15)
        assert ev("sqrt(p1)") == 0.5
        assert ev("abs(p1 - 1) - 0.5") == pytest.approx(0.25, rel=1e-14)

    def test_functions_must_be_called(self):
        with pytest.raises(ExpressionSyntaxError, match="must be called"):
            parse("exp + 1")

    def test_variables_cannot_be_called(self):
        with pytest.raises(ExpressionSyntaxError, match="cannot be called"):
            parse("p1(2)")

    def test_unknown_identifiers_are_rejected(self):
        with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
            parse("q1 + 1")
        with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
            parse("sin(p1)")

    def test_arity_is_checked(self):
        with pytest.raises(ExpressionSyntaxError, match="takes 1 argument"):
            parse("exp(p1, p2)")
        with pytest.raises(ExpressionSyntaxError, match="takes 2 arguments"):
            parse("pow(p1)")

    def test_empty_source_is_an_error(self):
        with pytest.raises(ExpressionSyntaxError, match="empty"):
            parse("   ")

    def test_overflowing_literal_is_a_parse_error(self):
        with pytest.raises(ExpressionSyntaxError, match="overflows"):
            parse("1e999")

    def test_non_string_source_is_a_type_error(self):
        with pytest.raises(TypeError):
            parse(42)


class TestErrorColumns:
    def test_truncated_product(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("2*")
        assert exc.value.column == 3
        assert "(column 3)" in str(exc.value)

    def test_unclosed_group(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("(p1")
        assert exc.value.column == 4

    def test_misplaced_operator(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("1 + * 2")
        assert exc.value.column == 5

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("1 2")
        assert exc.value.column == 3

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("1 @ 2")
        assert exc.value.column == 3


class TestLimits:
    def test_node_limit_rejects_giant_expressions(self):
        flat = "1" + "+1" * 5000
        with pytest.raises(ExpressionSyntaxError, match="nodes"):
            parse(flat)

    def test_long_flat_chains_parse_and_evaluate_iteratively(self):
        # 4000 additions: far beyond interpreter recursion if any part
        # of parse/evaluate/format recursed per term
        count = 4000
        expr = parse("1" + "+1" * count)
        assert evaluate(expr, np.array([0.5, 0.5])) == count + 1.0
        assert format_expression(expr).count("+") == count

    def test_depth_limit_rejects_deep_nesting(self):
        with pytest.raises(ExpressionSyntaxError, match="depth"):
            parse("(" * 200 + "1" + ")" * 200)
        with pytest.raises(ExpressionSyntaxError, match="depth"):
            parse("^".join(["2"] * 206))

    def test_moderate_nesting_is_fine(self):
        levels = 150
        assert ev("(" * levels + "1" + ")" * levels) == 1.0

    def test_custom_node_budget(self, monkeypatch):
        assert MAX_NODES == 10_000
        monkeypatch.setattr(expressions, "MAX_NODES", 5)
        with pytest.raises(ExpressionSyntaxError, match="limit of 5"):
            parse("1+1+1+1")


class TestEvaluation:
    def test_variables_read_the_point(self):
        assert ev("p1") == 0.25
        assert ev("p3") == 0.59
        assert ev("p1*p2 + p3") == 0.25 * 0.16 + 0.59

    def test_zero_power_conventions(self):
        assert ev("0^0") == 1.0
        assert ev("0^2") == 0.0
        assert ev("(p1 - 0.25)^0") == 1.0

    def test_power_domain_errors(self):
        with pytest.raises(EvaluationError, match="negative base"):
            ev("(p1 - 1)^2")
        with pytest.raises(EvaluationError, match="negative exponent"):
            ev("0^-1")

    def test_log_and_sqrt_domain_errors(self):
        with pytest.raises(EvaluationError, match="log"):
            ev("log(p1 - 0.25 + 1) + log(0)")
        with pytest.raises(EvaluationError, match="sqrt"):
            ev("sqrt(p1 - 1)")

    def test_division_by_zero_is_an_error(self):
        with pytest.raises(EvaluationError, match="division"):
            ev("1/0")
        with pytest.raises(EvaluationError, match="division"):
            ev("p1 / (p2 - 0.16)")

    def test_overflow_is_an_error_not_infinity(self):
        with pytest.raises(EvaluationError, match="non-finite"):
            ev("exp(1000)")
        with pytest.raises(EvaluationError, match="non-finite"):
            ev("1e308 * 10")

    @pytest.mark.parametrize("source, point", [
        ("p1", [math.nan, 0.5]),
        ("abs(p1)", [math.inf, 0.5]),
        ("abs(p2)", [0.5, -math.inf]),
    ])
    def test_a_non_finite_coordinate_is_an_error(self, source, point):
        expr = parse(source)
        with pytest.raises(EvaluationError, match="non-finite"):
            evaluate(expr, point)
        with pytest.raises(EvaluationError, match="non-finite"):
            evaluate_batch(expr, np.array([[0.5, 0.5], point]))

    def test_underflow_to_zero_is_fine(self):
        assert ev("exp(0 - 1000)") == 0.0

    def test_negative_final_value_is_rejected(self):
        with pytest.raises(EvaluationError, match="negative"):
            ev("p1 - 1")

    def test_negative_intermediates_are_allowed(self):
        # only the final prior value must be nonnegative
        assert ev("abs(p1 - 1)") == 0.75

    def test_batch_matches_scalar_bitwise(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(0.1, 1.0, (64, 3))
        points = raw / raw.sum(axis=1, keepdims=True)
        expr = parse("1 + 2*p1^2 - sqrt(p2) * p3")
        batch = evaluate_batch(expr, points)
        for i in range(points.shape[0]):
            assert batch[i] == evaluate(expr, points[i])

    def test_batch_of_exp_and_power_matches_scalar_bitwise(self):
        # the oracle's core route evaluates a prior 15 points to a call;
        # a point's value must not depend on the batch it comes in
        rng = np.random.default_rng(9)
        raw = rng.uniform(0.0, 1.0, (15, 4))
        points = raw / raw.sum(axis=1, keepdims=True)
        expr = parse("exp(-2*p1)*(1+p2^2) + p3^2.5 * exp(p4)")
        batch = evaluate_batch(expr, points)
        for i in range(points.shape[0]):
            assert batch[i] == evaluate(expr, points[i])
            assert batch[i] == evaluate_batch(expr, points[i:i + 1])[0]

    def test_point_must_cover_the_variables(self):
        expr = parse("p3")
        with pytest.raises(EvaluationError, match="p3"):
            evaluate(expr, np.array([0.5, 0.5]))

    def test_shape_contracts(self):
        expr = parse("p1")
        with pytest.raises(ValueError):
            evaluate(expr, np.ones((2, 2)))
        with pytest.raises(ValueError):
            evaluate_batch(expr, np.ones(2))

    def test_operands_are_checked_last_to_first(self):
        with pytest.raises(EvaluationError, match="sqrt"):
            ev("log(-1) + sqrt(-1)")

    def test_shared_subtrees_evaluate_once_per_use(self):
        leaf = ("var", 1)
        expr = PriorExpression("p1 + p1", ("add", leaf, leaf), 1, 3)
        assert evaluate_batch(expr, np.array([[0.25, 0.75]]))[0] == 0.5

    def test_only_parsed_expressions_are_accepted(self):
        with pytest.raises(TypeError):
            evaluate("p1", POINT)


class TestFormatting:
    @pytest.mark.parametrize("source", [
        "1",
        "p1",
        "1 + 2*p1",
        "2+3*4^2",
        "2^3^2",
        "(p1 + p2) * p3",
        "8/4/2",
        "8-(4-2)",
        "p1^(p2 + 1)",
        "(p1*p2)^2",
        "-(p1 + p2) + 1",
        "exp(log(p1 + 1)) - p2",
        "pow(p1, 2) + pow(p2, p3)",
        "abs(p1 - p2)^0.5",
        "2^-1 * p1",
    ])
    def test_round_trip_preserves_the_tree(self, source):
        expr = parse(source)
        printed = format_expression(expr)
        assert parse(printed).ast == expr.ast

    def test_printing_is_idempotent(self):
        expr = parse("-(p1) + (p2*p3)^2 / (1 - p1)")
        once = format_expression(expr)
        twice = format_expression(parse(once))
        assert once == twice

    def test_minimal_parentheses(self):
        assert format_expression(parse("(2*p1) + 1")) == "2.0 * p1 + 1.0"
        assert format_expression(parse("2*(p1 + 1)")) == "2.0 * (p1 + 1.0)"
        assert format_expression(parse("2^3^2")) == "2.0^3.0^2.0"
        assert format_expression(parse("(2^3)^2")) == "(2.0^3.0)^2.0"

    def test_raw_tree_input_is_accepted(self):
        assert format_expression(parse("p1 + 1").ast) == "p1 + 1.0"

    def test_shared_subtrees_print_once_per_use(self):
        leaf = ("var", 1)
        assert format_expression(("add", leaf, leaf)) == "p1 + p1"
        assert format_expression(("pow", leaf, leaf)) == "p1^p1"

    def test_parsed_expression_records_its_source(self):
        expr = parse(" p1+ 1")
        assert isinstance(expr, PriorExpression)
        assert expr.source == " p1+ 1"
