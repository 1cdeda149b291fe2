"""Prior expression language: parsing, evaluation, printing.

Expected values are hand-evaluatable arithmetic; the interesting
content is the error contract (columns, domain edges, limits) and the
round-trip property of the canonical printer.
"""

import hashlib
import math
import random
import sys
import threading

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
from simplexquad import IntegrationError, expressions
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


# 199 levels of each nesting form: one under the depth limit of 200
_LEVELS = 199
_NESTED = {
    "group": "(" * _LEVELS + "p1" + ")" * _LEVELS,
    "call": "exp(" * _LEVELS + "p1" + ")" * _LEVELS,
    "negation": "-(" * _LEVELS + "p1" + ")" * _LEVELS,
    "mixed levels": "1+2*(" * _LEVELS + "p1" + ")" * _LEVELS,
}
_POWER_CHAIN = "^".join(["2"] * _LEVELS)

_VOCAB = (
    "1", "2", "0", "2.5", ".5", "3e2", "1e999", "p1", "p2", "p3", "p0",
    "exp", "log", "sqrt", "abs", "pow", "q",
    "+", "-", "-", "*", "/", "^", "(", "(", ")", ")", ",",
)


def _tree_tokens(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return [rng.choice(("1", "2.5", "0", "p1", "p2", "p3"))]
    sub = _tree_tokens(rng, depth - 1)
    if roll < 0.4:
        return ["(", *sub, ")"]
    if roll < 0.5:
        return ["-", *sub]
    if roll < 0.6:
        return [rng.choice(("exp", "log", "sqrt", "abs")), "(", *sub, ")"]
    if roll < 0.65:
        return ["pow", "(", *sub, ",", *_tree_tokens(rng, depth - 1), ")"]
    op = rng.choice(("+", "-", "*", "/", "^"))
    return [*sub, op, *_tree_tokens(rng, depth - 1)]


def _random_source(rng):
    # a random token string, or a random well-formed tree with up to two
    # token edits, joined with or without spaces
    if rng.random() < 0.3:
        tokens = [rng.choice(_VOCAB) for _ in range(rng.randint(1, 16))]
    else:
        tokens = _tree_tokens(rng, rng.randint(0, 7))
        for _ in range(rng.choice((0, 0, 1, 2))):
            at = rng.randrange(len(tokens) + 1)
            edit = rng.random()
            if edit < 0.4 or at == len(tokens):
                tokens.insert(at, rng.choice(_VOCAB))
            elif edit < 0.7:
                del tokens[at]
            else:
                tokens[at] = rng.choice((*_VOCAB, "$"))
    return "".join(token + rng.choice(("", " ")) for token in tokens)


def _outcome(source):
    try:
        expr = parse(source)
    except ExpressionSyntaxError as exc:
        return ("error", str(exc), exc.column)
    return (expr.ast, expr.max_index, expr.node_count)


def _frame_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _parse_at_depth(depth, source):
    # parse from a caller `depth` frames deep
    if _frame_depth() < depth:
        return _parse_at_depth(depth, source)
    return parse(source)


def _in_threads(count, work):
    # the errors the threads raised; each thread must finish in time
    errors = []

    def run():
        try:
            work()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    return errors


class TestParserFrames:
    """The parser climbs _PRECEDENCE in one loop, so only nesting costs
    interpreter frames, and it leaves the recursion limit alone."""

    def test_deep_nesting_parses_without_touching_the_recursion_limit(
        self, monkeypatch,
    ):
        def refuse(limit):
            raise AssertionError("parse changed the recursion limit")

        limit = sys.getrecursionlimit()
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        for source in (*_NESTED.values(), _POWER_CHAIN):
            assert parse(source).max_index in (0, 1)
        assert parse(_NESTED["group"]).ast == ("var", 1)
        assert parse(_NESTED["call"]).node_count == _LEVELS + 1
        assert sys.getrecursionlimit() == limit

    def test_outcomes_of_random_token_strings_are_pinned(self, monkeypatch):
        # the trees, max_index and node_count, or the message and column,
        # of 6,000 seeded strings, a third of them under small limits;
        # the digest was taken from the recursive-descent parser
        rng = random.Random(20131)
        lines = []
        for nodes, depth, count in ((10_000, 200, 4000), (4, 200, 1000),
                                    (10_000, 3, 1000)):
            monkeypatch.setattr(expressions, "MAX_NODES", nodes)
            monkeypatch.setattr(expressions, "_MAX_DEPTH", depth)
            lines += [repr(_outcome(_random_source(rng))) for _ in range(count)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "187700201df4b00efb7f80191e0399300d80ce641cce00cc751150481514400e"
        )
        parsed = sum(not line.startswith("('error'") for line in lines)
        assert 1500 < parsed < 4500

    def test_threads_parse_deep_priors_at_once(self):
        source = "exp(" * _LEVELS + "1" + ")" * _LEVELS

        def work():
            for _ in range(25):
                parse(source)

        # switch threads often, so that parses overlap
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert _in_threads(4, work) == []
        finally:
            sys.setswitchinterval(interval)

    def test_headroom_for_deep_callers(self):
        # three frames per level and one per '^': at the default limit of
        # 1000, a caller 390 frames deep still parses 199 levels, 790
        # frames deep a 199-level power chain
        spare = sys.getrecursionlimit()

        def work():
            for source in _NESTED.values():
                _parse_at_depth(spare - 610, source)
            _parse_at_depth(spare - 210, _POWER_CHAIN)

        assert _in_threads(1, work) == []


class TestEvaluation:
    def test_evaluation_errors_are_numerical_failures(self):
        # one root for what the command line reports with exit 3
        assert issubclass(EvaluationError, IntegrationError)
        assert issubclass(EvaluationError, RuntimeError)
        with pytest.raises(IntegrationError):
            ev("log(p1 - 1)")

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
        # the message names the bin, not an intermediate value
        bad = 1 + [math.isfinite(v) for v in point].index(False)
        expr = parse(source)
        with pytest.raises(EvaluationError, match=f"non-finite .*p{bad} "):
            evaluate(expr, point)
        with pytest.raises(EvaluationError, match=f"non-finite .*p{bad} "):
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

    def test_parsed_expressions_are_immutable_records(self):
        expr = parse("p2 + 1")
        assert expr == PriorExpression(source="p2 + 1", ast=expr.ast,
                                       max_index=2, node_count=3)
        with pytest.raises(AttributeError):
            expr.source = "p1"
