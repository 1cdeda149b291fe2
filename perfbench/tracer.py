"""In-process traced run: spans around the calls between modules.

The program is not edited. The names one module imports from another
are replaced, for the length of a traced pass, by wrappers that record
a span per call, and restored afterwards:

- in ``quadrature``: angles_to_simplex, log_jacobian, log_kernel
  (from spherical) and nested_simplex_integral (from oracle);
- in ``cli``: power_log_integrand and the closure it returns,
  evaluate_batch and parse (from expressions), integrate_simplex_log,
  integrate_separable and nested_oracle (from quadrature), and the
  closed-form names (from moments).

``cli.main`` itself is the root span of each call. A span records its
name, start, end, parent span and call id, plus the work it was given
(points, evaluations). Spans stay in memory until the pass ends; the
last traced pass is written out when the run ends. Self
time is a span's duration minus the durations of its direct children;
spans nest strictly because everything runs on one thread.

The CLI's own prior closure (log of the prior plus the power term) is
not a public name, so its time counts as self time of the
integrate_simplex_log or nested_simplex_integral span around it.
"""

import json
import time
from collections import defaultdict

_NOW = time.perf_counter

MOMENT_NAMES = (
    "as_exponent_vector",
    "log_norm_integral",
    "means",
    "moment",
    "skewness",
    "std_dev",
    "variance",
)

_DEFAULT_BUDGET = 100_000_000  # nested_simplex_integral's default


class Span:
    __slots__ = ("name", "start", "end", "parent", "call_id", "points",
                 "nbytes", "evals", "wasted", "failed")

    def __init__(self, name, parent, call_id):
        self.name = name
        self.parent = parent
        self.call_id = call_id
        self.points = 0
        self.nbytes = 0
        self.evals = 0
        self.wasted = 0
        self.failed = 0
        self.start = self.end = 0.0


def _rows(array):
    return int(array.shape[0]) if array.ndim > 1 else 1


def _map_work(span, args, kwargs):
    # read k angles, write k+1 probabilities per row
    theta = args[0]
    k = theta.shape[-1]
    span.points = _rows(theta)
    span.nbytes = span.points * (2 * k + 1) * theta.itemsize


def _jacobian_work(span, args, kwargs):
    # read k angles, write one log value per row
    theta = args[0]
    k = theta.shape[-1]
    span.points = _rows(theta)
    span.nbytes = span.points * (k + 1) * theta.itemsize


def _points_work(index):
    def work(span, args, kwargs):
        span.points = _rows(args[index])
    return work


class Tracer:
    """Collects spans for one pass while its patches are installed."""

    def __init__(self, cli, quadrature):
        self.spans = []
        self._stack = []
        self.call_id = 0
        self._error = quadrature.IntegrationError
        self._estimate = quadrature.IntegralEstimate
        self._patches = []
        for name, label, work in (
            ("angles_to_simplex", "spherical.angles_to_simplex", _map_work),
            ("log_jacobian", "spherical.log_jacobian", _jacobian_work),
            ("log_kernel", "spherical.log_kernel", None),
        ):
            self._plan(quadrature, name,
                       self._wrap(label, getattr(quadrature, name), work))
        self._plan(quadrature, "nested_simplex_integral",
                   self._wrap_oracle(quadrature.nested_simplex_integral))
        for name, label, work in (
            ("evaluate_batch", "expressions.evaluate_batch", _points_work(1)),
            ("parse", "expressions.parse", None),
            ("integrate_simplex_log", "quadrature.integrate_simplex_log",
             None),
            ("integrate_separable", "quadrature.integrate_separable", None),
            ("nested_oracle", "quadrature.nested_oracle", None),
        ):
            self._plan(cli, name, self._wrap(label, getattr(cli, name), work))
        for name in MOMENT_NAMES:
            self._plan(cli, name,
                       self._wrap("moments", getattr(cli, name), None))
        self._plan(cli, "power_log_integrand",
                   self._wrap_factory(cli.power_log_integrand))
        self.main = self._wrap("cli.main", cli.main, None)

    def _plan(self, module, name, wrapper):
        self._patches.append((module, name, getattr(module, name), wrapper))

    def install(self):
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def restore(self):
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.call_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = _NOW()
        return span

    def _close(self, span):
        span.end = _NOW()
        self._stack.pop()

    def _wrap(self, name, fn, work):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                if work is not None:
                    work(span, args, kwargs)
                result = fn(*args, **kwargs)
                if isinstance(result, self._estimate):
                    span.points = result.evaluations
                return result
            finally:
                self._close(span)
        return wrapper

    def _wrap_oracle(self, fn):
        def wrapper(*args, **kwargs):
            span = self._open("oracle.nested_simplex_integral")
            try:
                value, evaluations = fn(*args, **kwargs)
                span.evals = evaluations
                return value, evaluations
            except self._error:
                # the budget it was given is spent and the report omits it
                span.failed = 1
                span.wasted = int(kwargs.get(
                    "max_evaluations",
                    args[3] if len(args) > 3 else _DEFAULT_BUDGET,
                ))
                raise
            finally:
                self._close(span)
        return wrapper

    def _wrap_factory(self, factory):
        def wrapper(*args, **kwargs):
            return self._wrap("quadrature.log_integrand",
                              factory(*args, **kwargs), _points_work(0))
        return wrapper


def write_spans(spans, path):
    """One JSON line per span; parent is the index of the parent line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps({
                "name": span.name, "start": span.start, "end": span.end,
                "parent": span.parent, "call": span.call_id,
                "points": span.points, "evals": span.evals,
                "wasted": span.wasted,
            }) + "\n")


def summarize(spans):
    """Per-name totals: calls, points, bytes, evals, wasted, failed, self_s."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        t = totals[span.name]
        t["calls"] += 1
        t["points"] += span.points
        t["bytes"] += span.nbytes
        t["evals"] += span.evals
        t["wasted"] += span.wasted
        t["failed"] += span.failed
        t["self_s"] += (span.end - span.start) - child_time[index]
    return totals


def _per(seconds, count):
    return seconds * 1e9 / count if count else 0.0


def layer_metrics(totals):
    """The per-layer metrics of one traced pass, by name."""
    empty = defaultdict(float)
    out = {}
    for name in ("spherical.angles_to_simplex", "spherical.log_jacobian"):
        s = totals.get(name, empty)
        out.update({
            f"{name}.calls": s["calls"],
            f"{name}.points": s["points"],
            f"{name}.self_s": s["self_s"],
            f"{name}.ns_per_point": _per(s["self_s"], s["points"]),
            f"{name}.bytes_computed": s["bytes"],
        })
    for name in ("quadrature.log_integrand", "expressions.evaluate_batch"):
        s = totals.get(name, empty)
        out.update({
            f"{name}.calls": s["calls"],
            f"{name}.points": s["points"],
            f"{name}.self_s": s["self_s"],
            f"{name}.ns_per_point": _per(s["self_s"], s["points"]),
        })
    s = totals.get("quadrature.integrate_simplex_log", empty)
    out.update({
        "quadrature.integrate_simplex_log.calls": s["calls"],
        "quadrature.integrate_simplex_log.points": s["points"],
        "quadrature.integrate_simplex_log.self_s": s["self_s"],
    })
    for name in ("quadrature.integrate_separable", "spherical.log_kernel",
                 "quadrature.nested_oracle", "expressions.parse", "moments",
                 "cli.main"):
        s = totals.get(name, empty)
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
    s = totals.get("oracle.nested_simplex_integral", empty)
    spent = s["evals"] + s["wasted"]
    prefix = "oracle.nested_simplex_integral"
    out.update({
        f"{prefix}.calls": s["calls"],
        f"{prefix}.evals": s["evals"],
        f"{prefix}.failed": s["failed"],
        f"{prefix}.wasted_evals": s["wasted"],
        f"{prefix}.useful_frac": s["evals"] / spent if spent else 0.0,
        f"{prefix}.self_s": s["self_s"],
        f"{prefix}.ns_per_eval": _per(s["self_s"], spent),
    })
    return out
