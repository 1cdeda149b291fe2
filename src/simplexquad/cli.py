"""Command line front end.

Subcommands
-----------
moments    closed-form posterior means, variances, standard deviations
           and skewness for given counts
integrate  numerical integral of prod p_i^{m_i} times an optional
           prior expression over the simplex
compare    exact closed form vs separated quadrature vs tensor-grid
           quadrature vs (n <= 5) the brute-force nested oracle, with
           a tolerance gate on the pairwise deviations

The machine-readable run report (JSON, format_version 1) is the only
thing written to stdout; diagnostics go to stderr, so pipelines stay
clean. Floats serialize in shortest round-trip form, which preserves
all 17 significant digits on re-parse. Reports are strict JSON: the
log of a zero integral is written as null, and any other NaN or
infinity in the results is a numerical failure. A fixed invocation
(including the seed) produces a byte-identical report except for the
wall-time diagnostic.

Exit codes: 0 success, 2 malformed input, 3 numerical failure,
4 tolerance breach in compare.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from .expressions import EvaluationError, ExpressionSyntaxError, evaluate_batch, parse
from .moments import (
    as_exponent_vector,
    log_norm_integral,
    means,
    moment,
    skewness,
    std_dev,
    variance,
)
from .quadrature import (
    IntegrationError,
    QuadratureSpec,
    integrate_separable,
    integrate_simplex_log,
    nested_oracle,
    power_log_integrand,
    resolve_eval_budget,
)

__all__ = ["main", "build_parser"]

FORMAT_VERSION = 1

_DEFAULT_TOL = 1e-8


class _InputError(Exception):
    pass


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}"
        )
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simplexquad",
        description=(
            "Posterior moments of multinomial bin probabilities and "
            "numerical integration over the probability simplex."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--counts",
            help="comma-separated counts, one per bin, each > -1",
        )
        group.add_argument(
            "--counts-file",
            help="file with counts, one per line; '#' starts a comment",
        )
        p.add_argument(
            "--plain",
            action="store_true",
            help="print bare numbers one per line instead of the JSON report",
        )

    p_moments = sub.add_parser(
        "moments", help="closed-form posterior moments for given counts"
    )
    add_common(p_moments)
    p_moments.add_argument(
        "--moment",
        help=(
            "comma list of 1-based bin indices for E[prod p_i]; repeat an "
            "index to raise its power (1,1 is the second moment of bin 1)"
        ),
    )

    p_integrate = sub.add_parser(
        "integrate",
        help="integrate prod p_i^{m_i} times a prior over the simplex",
    )
    add_common(p_integrate)
    p_integrate.add_argument(
        "--prior",
        default="1",
        help="prior weight expression over p1..pn (default: 1)",
    )
    p_integrate.add_argument(
        "--scheme",
        choices=("gauss", "mc", "oracle"),
        default="gauss",
        help="gauss: tensor Gauss grid; mc: Monte Carlo; oracle: brute force",
    )
    p_integrate.add_argument("--nodes", type=int, default=QuadratureSpec.nodes_per_axis)
    p_integrate.add_argument("--samples", type=int, default=QuadratureSpec.samples)
    p_integrate.add_argument("--seed", type=int, default=QuadratureSpec.seed)
    p_integrate.add_argument(
        "--tol",
        type=_tolerance,
        default=_DEFAULT_TOL,
        help="relative refinement target for --scheme oracle",
    )
    p_integrate.add_argument(
        "--moment",
        help="comma list of 1-based bin indices for a prior-weighted moment",
    )

    p_compare = sub.add_parser(
        "compare",
        help="cross-check the exact, separable, grid and oracle routes",
    )
    add_common(p_compare)
    p_compare.add_argument("--nodes", type=int, default=QuadratureSpec.nodes_per_axis)
    p_compare.add_argument(
        "--tol",
        type=_tolerance,
        default=_DEFAULT_TOL,
        help="largest tolerated pairwise relative deviation",
    )
    return parser


def _parse_counts_text(text):
    pieces = [piece.strip() for piece in text.split(",")]
    if not pieces or any(not piece for piece in pieces):
        raise _InputError(
            f"counts must be comma-separated numbers, got {text!r}"
        )
    try:
        return [float(piece) for piece in pieces]
    except ValueError:
        raise _InputError(
            f"counts must be comma-separated numbers, got {text!r}"
        ) from None


def _read_counts_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise _InputError(f"cannot read counts file: {exc}") from None
    values = []
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        for piece in body.replace(",", " ").split():
            try:
                values.append(float(piece))
            except ValueError:
                raise _InputError(
                    f"bad count {piece!r} in {path}"
                ) from None
    return values


def _resolve_counts(args):
    if args.counts_file is not None:
        values = _read_counts_file(args.counts_file)
    else:
        values = _parse_counts_text(args.counts)
    try:
        return as_exponent_vector(values)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _parse_moment_indices(text, n):
    if text is None:
        return None
    try:
        indices = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise _InputError(
            f"--moment expects comma-separated bin indices, got {text!r}"
        ) from None
    if not indices:
        raise _InputError("--moment needs at least one bin index")
    for index in indices:
        if not 1 <= index <= n:
            raise _InputError(
                f"--moment index {index} is outside 1..{n}"
            )
    return indices


def _moment_multi_index(indices, n):
    a = np.zeros(n)
    for index in indices:
        a[index - 1] += 1.0
    return a


def _make_report(command, counts, args, results, evaluations, wall_time,
                 extra_inputs):
    inputs = {
        "counts": [float(v) for v in counts],
        "nodes": int(getattr(args, "nodes", QuadratureSpec.nodes_per_axis)),
        "tol": float(getattr(args, "tol", _DEFAULT_TOL)),
        "eval_budget": int(resolve_eval_budget(None)),
        **extra_inputs,
    }
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": {
            "evaluations": int(evaluations),
            "wall_time_s": float(wall_time),
        },
    }


def cmd_moments(args, counts):
    n = counts.size
    indices = _parse_moment_indices(args.moment, n)

    mean_values = means(counts)
    results = {
        "mean": [float(v) for v in mean_values],
        "variance": [float(variance(counts, i)) for i in range(1, n + 1)],
        "std_dev": [float(std_dev(counts, i)) for i in range(1, n + 1)],
        "skewness": [float(skewness(counts, i)) for i in range(1, n + 1)],
        # self-check: the means must sum to 1
        "mean_sum": math.fsum(float(v) for v in mean_values),
    }
    if indices is not None:
        results["moment"] = {
            "index": indices,
            "value": moment(counts, _moment_multi_index(indices, n)),
        }
    return results, 0, {"moment": indices}, 0


def _quadrature_spec(args):
    if args.scheme == "gauss":
        return QuadratureSpec(scheme="gauss_grid", nodes_per_axis=args.nodes)
    if args.scheme == "mc":
        return QuadratureSpec(
            scheme="monte_carlo", samples=args.samples, seed=args.seed
        )
    return QuadratureSpec(scheme="nested_oracle", rel_tol=args.tol)


def _log_prior(expr):
    if expr.ast == ("num", 1.0):
        # the default prior costs no expression evaluation per point
        return lambda points: np.zeros(points.shape[0])

    def log_prior(points):
        with np.errstate(divide="ignore"):
            return np.log(evaluate_batch(expr, points))

    return log_prior


def _log_or_null(log_value):
    # an integral of zero has log -inf, which JSON cannot hold
    return log_value if log_value > -math.inf else None


def cmd_integrate(args, counts):
    n = counts.size
    indices = _parse_moment_indices(args.moment, n)
    try:
        expr = parse(args.prior)
    except ExpressionSyntaxError as exc:
        raise _InputError(f"bad --prior expression: {exc}") from None
    if expr.max_index > n:
        raise _InputError(
            f"prior references p{expr.max_index} but there are only {n} bins"
        )
    spec = _quadrature_spec(args)
    log_prior = _log_prior(expr)

    estimate = integrate_simplex_log(counts, log_prior, spec)
    evaluations = estimate.evaluations
    value = estimate.value
    results = {
        "log_value": _log_or_null(estimate.log_value),
        "value": value if value < math.inf else None,
        "std_error": estimate.std_error,
        "scheme": spec.scheme,
    }
    if indices is not None:
        if estimate.log_value == -math.inf:
            raise IntegrationError(
                "the normalizing integral is zero, so the moment is undefined"
            )
        shifted = counts + _moment_multi_index(indices, n)
        numerator = integrate_simplex_log(shifted, log_prior, spec)
        evaluations += numerator.evaluations
        results["moment"] = {
            "index": indices,
            "value": math.exp(numerator.log_value - estimate.log_value),
            "log_numerator": _log_or_null(numerator.log_value),
        }
    extra_inputs = {
        "prior": args.prior,
        "scheme": spec.scheme,
        "samples": int(args.samples),
        "seed": int(args.seed),
        "moment": indices,
    }
    return results, evaluations, extra_inputs, 0


def cmd_compare(args, counts):
    n = counts.size

    exact_log = log_norm_integral(counts)
    grid_spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=args.nodes)
    separable = integrate_separable(counts, grid_spec)
    # the power term per point: this grid checks the map and Jacobian
    grid = integrate_simplex_log(np.zeros(n), power_log_integrand(counts), grid_spec)
    # every route's evaluations, a failed oracle's included
    evaluations = separable.evaluations + grid.evaluations

    oracle_estimate = None
    oracle_note = None
    if n <= 5:
        oracle_spec = QuadratureSpec(
            scheme="nested_oracle",
            rel_tol=max(min(args.tol * 1e-2, 1e-9), 1e-13),
        )
        try:
            oracle_estimate = nested_oracle(counts, spec=oracle_spec)
            evaluations += oracle_estimate.evaluations
        except IntegrationError as exc:
            oracle_note = f"skipped: {exc}"
            evaluations += exc.evaluations
    else:
        oracle_note = f"skipped: the nested oracle is limited to n <= 5, got n={n}"

    log_values = {
        "exact": exact_log,
        "separable": separable.log_value,
        "grid": grid.log_value,
    }
    if oracle_estimate is not None:
        log_values["oracle"] = oracle_estimate.log_value

    # pairwise relative deviations, measured against the exact value
    # and computed in log space so large counts cannot underflow
    names = list(log_values)
    deviations = {}
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            first, second = names[a], names[b]
            deviations[f"{first}_vs_{second}"] = abs(
                math.exp(log_values[first] - exact_log)
                - math.exp(log_values[second] - exact_log)
            )
    max_deviation = max(deviations.values())
    within = max_deviation <= args.tol

    results = {
        "log_exact": exact_log,
        "log_separable": separable.log_value,
        "log_grid": grid.log_value,
        "log_oracle": (
            oracle_estimate.log_value if oracle_estimate is not None else None
        ),
        "oracle_note": oracle_note,
        "deviations": deviations,
        "max_relative_deviation": max_deviation,
        "within_tolerance": within,
    }
    return results, evaluations, {}, 0 if within else 4


def _plain_lines(report):
    results = report["results"]
    command = report["command"]
    if command == "moments":
        lines = []
        for key in ("mean", "variance", "std_dev", "skewness"):
            lines.extend(repr(v) for v in results[key])
        if "moment" in results:
            lines.append(repr(results["moment"]["value"]))
        return lines
    if command == "integrate":
        log_value = results["log_value"]
        value = results["value"]
        lines = [
            repr(log_value) if log_value is not None else "-inf",
            repr(value) if value is not None else "inf",
            repr(results["std_error"]),
        ]
        if "moment" in results:
            lines.append(repr(results["moment"]["value"]))
        return lines
    return [repr(results["max_relative_deviation"])]


def _render(report, plain):
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        raise IntegrationError(
            "a result is NaN or infinite, which the report cannot hold"
        ) from None
    if plain:
        return "\n".join(_plain_lines(report)) + "\n"
    return text + "\n"


# each step gets (args, counts) and returns
# (results, evaluations, extra_inputs, exit_code); main adds the rest
_COMMANDS = {
    "moments": cmd_moments,
    "integrate": cmd_integrate,
    "compare": cmd_compare,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        start = time.perf_counter()
        counts = _resolve_counts(args)
        results, evaluations, extra_inputs, code = _COMMANDS[args.command](
            args, counts
        )
        report = _make_report(
            args.command, counts, args, results, evaluations,
            time.perf_counter() - start, extra_inputs,
        )
        text = _render(report, args.plain)
    except (_InputError, ExpressionSyntaxError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, EvaluationError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
