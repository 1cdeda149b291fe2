"""A small, safe expression language for priors over bin probabilities.

Grammar (version 1, a public contract):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?            power is right-associative
    unary  := '-'? atom
    atom   := number | ident | ident '(' args ')' | '(' expr ')'
    args   := expr (',' expr)*

Identifiers are the bin variables p1, p2, ... (1-based) and the
functions exp, log, sqrt, abs (one argument) and pow (two arguments;
pow(x, y) parses to the same tree as x^y). Numbers are unsigned
decimal literals with optional fraction and exponent; a leading minus
is unary negation. Note the base of '^' is the unary production, so
-x^2 means (-x)^2.

Power uses real semantics: x^y = exp(y ln x) for x > 0, 0^y = 0 for
y > 0, 0^0 = 1, and a negative base or 0^negative is an evaluation
error. log/sqrt domain edges, division by zero and overflow are also
evaluation errors rather than silent infinities: these expressions sit
inside quadrature sums, and one NaN or inf would poison the whole
integral.

Parsed trees are immutable tuples; evaluation is pure, so a given tree
at a given point always returns the bit-identical value.
"""

import math
import re
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GRAMMAR_VERSION",
    "PriorExpression",
    "ExpressionSyntaxError",
    "EvaluationError",
    "parse",
    "evaluate",
    "evaluate_batch",
    "format_expression",
]

GRAMMAR_VERSION = 1
MAX_NODES = 10_000

# genuine nesting (parentheses, calls, power chains); flat +/* chains
# are parsed iteratively and only bounded by MAX_NODES
_MAX_DEPTH = 200

# the binary operators, read by the parser, the evaluator and the
# printer: token -> tree node -> ufunc; _PRECEDENCE orders the levels,
# loosest first
_BINARY = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}
_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_TIGHTEST = max(_PRECEDENCE[kind] for kind in _BINARY.values())
_ATOM_PRECEDENCE = 5
_OP_TEXT = {**{kind: f" {token} " for token, kind in _BINARY.items()}, "pow": "^"}

# one row per one-argument function: its ufunc, the arguments it
# rejects and the message; pow(x, y) is the '^' node
_CALLS = {
    "exp": (np.exp, None, None),
    "log": (np.log, lambda x: x <= 0.0, "log of a non-positive value"),
    "sqrt": (np.sqrt, lambda x: x < 0.0, "sqrt of a negative value"),
    "abs": (np.abs, None, None),
}
_FUNCTIONS = {**dict.fromkeys(_CALLS, 1), "pow": 2}

_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*/^(),])"
)

_VAR_RE = re.compile(r"p([0-9]+)\Z")


class ExpressionSyntaxError(ValueError):
    """Bad expression source; column is the 1-based position."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class EvaluationError(RuntimeError):
    """Evaluation hit a domain edge or produced a non-finite value."""


@dataclass(frozen=True)
class PriorExpression:
    """A parsed expression: original source plus an immutable tree."""

    source: str
    ast: tuple
    max_index: int
    node_count: int


def _tokenize(source):
    tokens = []
    pos = 0
    size = len(source)
    while pos < size:
        if source[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ExpressionSyntaxError(
                f"unexpected character {source[pos]!r}", pos + 1
            )
        tokens.append((match.lastgroup, match.group(), pos + 1))
        pos = match.end()
    tokens.append(("end", "", size + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.nodes = 0
        self.depth = 0
        self.max_index = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_close(self, what):
        kind, text, col = self.peek()
        if kind != "op" or text != ")":
            raise ExpressionSyntaxError(
                f"expected ')' to close {what}", col
            )
        self.advance()

    def make(self, node, column):
        self.nodes += 1
        if self.nodes > MAX_NODES:
            raise ExpressionSyntaxError(
                f"expression exceeds the limit of {MAX_NODES} nodes",
                column,
            )
        return node

    def parse_expression(self, level=1):
        # one left-associative loop per binary level, loosest first; the
        # operands of the tightest level are factors
        node = op = None
        while True:
            operand = (self.parse_factor() if level == _TIGHTEST
                       else self.parse_expression(level + 1))
            node = operand if op is None else self.make((op, node, operand), col)
            _, text, col = self.peek()
            op = _BINARY.get(text)
            if op is None or _PRECEDENCE[op] != level:
                return node
            self.advance()

    def parse_factor(self):
        # every genuinely nesting construct (parenthesized group, call
        # argument, power chain) re-enters here exactly once per level,
        # so counting depth at this single point measures real nesting
        _, _, col = self.peek()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nesting exceeds depth {_MAX_DEPTH}", col
            )
        node = self.parse_unary()
        _, text, col = self.peek()
        if text == "^":
            self.advance()
            node = self.make(("pow", node, self.parse_factor()), col)
        self.depth -= 1
        return node

    def parse_unary(self):
        kind, text, col = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            child = self.parse_atom()
            return self.make(("neg", child), col)
        return self.parse_atom()

    def parse_atom(self):
        kind, text, col = self.advance()
        if kind == "number":
            value = float(text)
            if not math.isfinite(value):
                raise ExpressionSyntaxError(
                    f"numeric literal {text!r} overflows", col
                )
            return self.make(("num", value), col)
        if kind == "ident":
            return self.parse_ident(text, col)
        if kind == "op" and text == "(":
            node = self.parse_expression()
            self.expect_close("the group")
            return node
        if kind == "end":
            raise ExpressionSyntaxError(
                "unexpected end of expression; expected a number, p<i>, "
                "a function call or '('",
                col,
            )
        raise ExpressionSyntaxError(
            f"unexpected {text!r}; expected a number, p<i>, a function "
            "call or '('",
            col,
        )

    def parse_ident(self, text, col):
        next_kind, next_text, next_col = self.peek()
        is_call = next_kind == "op" and next_text == "("
        if text in _FUNCTIONS:
            if not is_call:
                raise ExpressionSyntaxError(
                    f"function {text!r} must be called with parentheses", col
                )
            self.advance()
            args = [self.parse_expression()]
            while True:
                kind, token_text, _ = self.peek()
                if kind == "op" and token_text == ",":
                    self.advance()
                    args.append(self.parse_expression())
                else:
                    break
            self.expect_close(f"the arguments of {text}")
            arity = _FUNCTIONS[text]
            if len(args) != arity:
                plural = "s" if arity != 1 else ""
                raise ExpressionSyntaxError(
                    f"{text} takes {arity} argument{plural}, got {len(args)}",
                    col,
                )
            if text == "pow":
                return self.make(("pow", args[0], args[1]), col)
            return self.make(("call", text, args[0]), col)
        var = _VAR_RE.match(text)
        if var:
            if is_call:
                raise ExpressionSyntaxError(
                    f"variable {text!r} cannot be called", next_col
                )
            index = int(var.group(1))
            if index < 1:
                raise ExpressionSyntaxError(
                    "bin variables are numbered from p1", col
                )
            self.max_index = max(self.max_index, index)
            return self.make(("var", index), col)
        raise ExpressionSyntaxError(
            f"unknown identifier {text!r}; expected p<i> or one of "
            f"{sorted(_FUNCTIONS)}",
            col,
        )


def parse(source):
    """Parse an expression into a PriorExpression, or raise
    ExpressionSyntaxError with a 1-based column position. A tree may
    have at most MAX_NODES nodes."""
    if not isinstance(source, str):
        raise TypeError("expression source must be a string")
    tokens = _tokenize(source)
    if tokens[0][0] == "end":
        raise ExpressionSyntaxError("empty expression", 1)
    parser = _Parser(tokens)
    # the descent burns a handful of interpreter frames per nesting
    # level, so give it headroom up to _MAX_DEPTH before its own guard
    # takes over from the interpreter's
    needed = 8 * _MAX_DEPTH + 200
    previous = sys.getrecursionlimit()
    if previous < needed:
        sys.setrecursionlimit(needed)
    try:
        ast = parser.parse_expression()
    finally:
        if previous < needed:
            sys.setrecursionlimit(previous)
    kind, text, col = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(
            f"unexpected {text!r} after a complete expression", col
        )
    return PriorExpression(
        source=source,
        ast=ast,
        max_index=parser.max_index,
        node_count=parser.nodes,
    )


def _children(node):
    kind = node[0]
    if kind in ("num", "var"):
        return ()
    return node[2:] if kind == "call" else node[1:]


def _fold(root, fn):
    # iterative post-order walk: deep flat chains (a + a + ...) would
    # blow the recursion limit long before the node limit. Children are
    # walked last to first, so a node's first child's value is on top.
    stack = [(root, False)]
    values = []
    while stack:
        node, expanded = stack.pop()
        kids = _children(node)
        if kids and not expanded:
            stack.append((node, True))
            stack.extend((kid, False) for kid in kids)
            continue
        args = tuple(values.pop() for _ in kids)
        values.append(fn(node, args))
    return values.pop()


def _require_finite(values):
    if not np.all(np.isfinite(values)):
        raise EvaluationError(
            "non-finite intermediate value (overflow or 0/0)"
        )
    return values


def _apply_call(name, arg):
    ufunc, rejects, message = _CALLS[name]
    if rejects is not None and np.any(rejects(arg)):
        raise EvaluationError(message)
    out = ufunc(arg)
    return _require_finite(out) if name == "exp" else out


def _apply_pow(base, exponent):
    if np.any(base < 0.0):
        raise EvaluationError(
            "negative base in a power; real powers need base >= 0"
        )
    zero = base == 0.0
    if np.any(zero & (exponent < 0.0)):
        raise EvaluationError("zero base with a negative exponent")
    out = np.power(np.where(zero, 1.0, base), exponent)
    out = np.where(zero, np.where(exponent == 0.0, 1.0, 0.0), out)
    return _require_finite(out)


def _apply(node, values, points):
    op = node[0]
    if op == "num":
        return np.full(points.shape[0], node[1])
    if op == "var":
        return _require_finite(points[:, node[1] - 1])
    if op == "neg":
        return -values[0]
    if op == "call":
        return _apply_call(node[1], values[0])
    if op == "pow":
        return _apply_pow(*values)
    if op == "div" and np.any(values[1] == 0.0):
        raise EvaluationError("division by zero")
    return _require_finite(_UFUNCS[op](*values))


def _evaluate_array(expr, points):
    if not isinstance(expr, PriorExpression):
        raise TypeError("expected a PriorExpression from parse()")
    n = points.shape[1]
    if expr.max_index > n:
        raise EvaluationError(
            f"expression references p{expr.max_index} but the point has "
            f"only {n} bins"
        )
    with np.errstate(all="ignore"):
        out = _fold(expr.ast, lambda node, values: _apply(node, values, points))
    if np.any(out < 0.0):
        raise EvaluationError(
            "prior evaluated to a negative value; priors must be nonnegative"
        )
    return out


def evaluate(expr, point) -> float:
    """Evaluate at a single probability vector; returns a float >= 0."""
    points = np.asarray(point, dtype=float)
    if points.ndim != 1:
        raise ValueError(
            "evaluate expects a single probability vector; use "
            "evaluate_batch for batches"
        )
    return float(_evaluate_array(expr, points[None, :])[0])


def evaluate_batch(expr, points):
    """Evaluate at a (k, n) array of points; returns k values >= 0."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("evaluate_batch expects a 2-D array of points")
    return _evaluate_array(expr, points)


def _prec(node):
    return _PRECEDENCE.get(node[0], _ATOM_PRECEDENCE)


def format_expression(expr):
    """Canonical text form: parsing it back yields an identical tree.

    Numbers print in shortest round-trip form; parentheses appear only
    where precedence or associativity requires them.
    """
    ast = expr.ast if isinstance(expr, PriorExpression) else expr

    def fmt(node, values):
        op = node[0]
        if op == "num":
            return repr(node[1])
        if op == "var":
            return f"p{node[1]}"
        if op == "call":
            return f"{node[1]}({values[0]})"
        if op == "neg":
            if _prec(node[1]) == _ATOM_PRECEDENCE:
                return f"-{values[0]}"
            return f"-({values[0]})"
        # '^' groups to the right, the other operators to the left: an
        # equal-precedence operand is parenthesized on the other side
        own = _PRECEDENCE[op]
        right_assoc = op == "pow"
        left = f"({values[0]})" if _prec(node[1]) < own + right_assoc else values[0]
        right = f"({values[1]})" if _prec(node[2]) < own + (not right_assoc) else values[1]
        return f"{left}{_OP_TEXT[op]}{right}"

    return _fold(ast, fmt)
