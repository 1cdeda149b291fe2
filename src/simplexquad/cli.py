"""Command line front end.

Subcommands
-----------
moments    closed-form posterior means, variances, standard deviations
           and skewness for given counts
integrate  numerical integral of prod p_i^{m_i} times an optional
           prior expression over the simplex
compare    exact closed form vs separated quadrature vs tensor-grid
           quadrature (within the budget) vs (n <= 5) the brute-force
           nested oracle, with a tolerance gate on the pairwise
           deviations

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
import re
import sys
import time
from itertools import combinations

from .moments import (
    _beta_marginals,
    _beta_stats,
    _bin_index,
    as_exponent_vector,
    log_norm_integral,
    means,
    moment,
    # not called here; perfbench/tracer.py wraps these three names
    skewness,  # noqa: F401
    std_dev,  # noqa: F401
    variance,  # noqa: F401
)
from .spec import IntegrationError, QuadratureSpec, _positive, resolve_eval_budget

__all__ = ["main", "build_parser"]

# numpy and the numerical routes, bound as module globals on the first
# integrate or compare: moments, --help and input errors never load them
_NUMERICS = (
    "np", "parse", "evaluate_batch", "ExpressionSyntaxError",
    "integrate_simplex_log", "integrate_separable", "nested_oracle",
    "power_log_integrand",
)


def _bind_numerics():
    import numpy as np

    from .expressions import ExpressionSyntaxError, evaluate_batch, parse
    from .quadrature import (integrate_separable, integrate_simplex_log,
                             nested_oracle, power_log_integrand)

    found = locals()
    for name in _NUMERICS:
        # a name already bound stays, such as a wrapper set from outside
        globals().setdefault(name, found[name])


def __getattr__(name):
    if name not in _NUMERICS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_numerics()
    return globals()[name]


FORMAT_VERSION = 1

_DEFAULT_TOL = 1e-8
_SPEC_DEFAULTS = QuadratureSpec._field_defaults


def _tolerance(text):
    try:
        return _positive("--tol", text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}"
        ) from None


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
    p_integrate.add_argument("--nodes", type=int, default=_SPEC_DEFAULTS["nodes_per_axis"])
    p_integrate.add_argument("--samples", type=int, default=_SPEC_DEFAULTS["samples"])
    p_integrate.add_argument("--seed", type=int, default=_SPEC_DEFAULTS["seed"])
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
    p_compare.add_argument("--nodes", type=int, default=_SPEC_DEFAULTS["nodes_per_axis"])
    p_compare.add_argument(
        "--tol",
        type=_tolerance,
        default=_DEFAULT_TOL,
        help="largest tolerated pairwise relative deviation",
    )
    return parser


def _parse_counts_text(text):
    # an empty piece, as in "1,,2", fails float() like any other
    try:
        return [float(piece) for piece in text.split(",")]
    except ValueError:
        raise ValueError(
            f"counts must be comma-separated numbers, got {text!r}"
        ) from None


def _read_counts_file(path):
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read counts file: {exc}") from None
    values = []
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if not all(piece.strip() for piece in body.split(",")):
            raise ValueError(f"empty count in {path}: {line!r}")
        for piece in body.replace(",", " ").split():
            try:
                values.append(float(piece))
            except ValueError:
                raise ValueError(
                    f"bad count {piece!r} in {path}"
                ) from None
    return values


def _resolve_counts(args):
    if args.counts_file is not None:
        values = _read_counts_file(args.counts_file)
    else:
        values = _parse_counts_text(args.counts)
    return as_exponent_vector(values)


def _parse_moment_indices(text, n):
    if text is None:
        return None, None
    try:
        indices = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--moment expects comma-separated bin indices, got {text!r}"
        ) from None
    powers = [0.0] * n
    for index in indices:
        powers[_bin_index(index, n, "--moment index")] += 1.0
    return indices, powers


def _make_report(command, counts, args, results, evaluations, wall_time,
                 extra_inputs):
    inputs = {
        "counts": [float(v) for v in counts],
        "nodes": int(getattr(args, "nodes", _SPEC_DEFAULTS["nodes_per_axis"])),
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
    n = len(counts)
    indices, powers = _parse_moment_indices(args.moment, n)

    mean_values = means(counts)
    stats = zip(*(_beta_stats(a, b) for a, b in _beta_marginals(counts)))
    columns = [mean_values, *map(list, stats)]
    results = dict(zip(("mean", "variance", "std_dev", "skewness"), columns))
    # self-check: the means must sum to 1
    results["mean_sum"] = math.fsum(mean_values)
    numbers = [v for column in columns for v in column]
    if indices is not None:
        value = moment(counts, powers)
        results["moment"] = {"index": indices, "value": value}
        numbers.append(value)
    return results, 0, {"moment": indices}, 0, numbers


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
        # the default prior is no prior: nothing is evaluated per point
        return None

    def log_prior(points):
        with np.errstate(divide="ignore"):
            return np.log(evaluate_batch(expr, points))

    return log_prior


def _log_or_null(log_value):
    # an integral of zero has log -inf, which JSON cannot hold
    return log_value if log_value > -math.inf else None


def cmd_integrate(args, counts):
    _bind_numerics()
    counts = np.asarray(counts)
    n = counts.size
    indices, powers = _parse_moment_indices(args.moment, n)
    try:
        expr = parse(args.prior)
    except ExpressionSyntaxError as exc:
        raise ValueError(f"bad --prior expression: {exc}") from None
    if expr.max_index > n:
        raise ValueError(
            f"prior references p{expr.max_index} but there are only {n} bins"
        )
    spec = _quadrature_spec(args)
    log_prior = _log_prior(expr)

    # the grid needs only the angles of the bins the prior reads
    prior_bins = expr.max_index
    estimate = integrate_simplex_log(counts, log_prior, spec, prior_bins=prior_bins)
    evaluations = estimate.evaluations
    value = estimate.value
    results = {
        "log_value": _log_or_null(estimate.log_value),
        "value": value if value < math.inf else None,
        "std_error": estimate.std_error,
        "scheme": spec.scheme,
    }
    numbers = [estimate.log_value, value, estimate.std_error]
    if indices is not None:
        if estimate.log_value == -math.inf:
            raise IntegrationError(
                "the normalizing integral is zero, so the moment is undefined"
            )
        shifted = counts + powers
        numerator = integrate_simplex_log(
            shifted, log_prior, spec, prior_bins=prior_bins
        )
        evaluations += numerator.evaluations
        ratio = math.exp(numerator.log_value - estimate.log_value)
        results["moment"] = {
            "index": indices,
            "value": ratio,
            "log_numerator": _log_or_null(numerator.log_value),
        }
        numbers.append(ratio)
    extra_inputs = {
        "prior": args.prior,
        "scheme": spec.scheme,
        "samples": int(args.samples),
        "seed": int(args.seed),
        "moment": indices,
    }
    return results, evaluations, extra_inputs, 0, numbers


def _oracle_route(counts, tol):
    n = len(counts)
    if n > 5:
        raise IntegrationError(f"the nested oracle is limited to n <= 5, got n={n}")
    spec = QuadratureSpec(
        scheme="nested_oracle", rel_tol=max(min(tol * 1e-2, 1e-9), 1e-13)
    )
    return nested_oracle(counts, spec=spec)


def cmd_compare(args, counts):
    _bind_numerics()
    exact_log = log_norm_integral(counts)
    grid_spec = QuadratureSpec(scheme="gauss_grid", nodes_per_axis=args.nodes)
    separable = integrate_separable(counts, grid_spec)
    log_values = {"exact": exact_log, "separable": separable.log_value}
    # every route's evaluations, a skipped route's included
    evaluations = separable.evaluations
    notes = {}
    routes = {
        # the power term per point: this grid checks the map and Jacobian
        "grid": lambda: integrate_simplex_log(
            np.zeros(len(counts)), power_log_integrand(counts), grid_spec
        ),
        "oracle": lambda: _oracle_route(counts, args.tol),
    }
    for name, run in routes.items():
        try:
            estimate = run()
        except IntegrationError as exc:
            notes[name] = f"skipped: {exc}"
            evaluations += exc.evaluations
        else:
            log_values[name] = estimate.log_value
            evaluations += estimate.evaluations

    # pairwise relative deviations, measured against the exact value
    # and computed in log space so large counts cannot underflow
    ratios = {name: math.exp(log - exact_log) for name, log in log_values.items()}
    deviations = {
        f"{a}_vs_{b}": abs(ratios[a] - ratios[b])
        for a, b in combinations(ratios, 2)
    }
    max_deviation = max(deviations.values())
    within = max_deviation <= args.tol

    results = {
        "log_exact": exact_log,
        "log_separable": separable.log_value,
        "log_grid": log_values.get("grid"),
        "grid_note": notes.get("grid"),
        "log_oracle": log_values.get("oracle"),
        "oracle_note": notes.get("oracle"),
        "deviations": deviations,
        "max_relative_deviation": max_deviation,
        "within_tolerance": within,
    }
    return results, evaluations, {}, 0 if within else 4, [max_deviation]


def _render(report, plain):
    # serialized first, so a NaN or infinite result fails --plain too
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        raise IntegrationError(
            "a result is NaN or infinite, which the report cannot hold"
        ) from None
    if plain:
        # repr prints a zero integral's log as -inf and an overflow as inf
        return "".join(f"{v!r}\n" for v in plain)
    return text + "\n"


# each step gets (args, counts) and returns (results, evaluations,
# extra_inputs, exit_code, plain_numbers), the last being the --plain
# lines in order; main adds the rest
_COMMANDS = {
    "moments": cmd_moments,
    "integrate": cmd_integrate,
    "compare": cmd_compare,
}


# values that start with '-' but are not one plain number: counts
# that start negative, and a prior with a leading minus
_DASHED_VALUES = {"--counts": r"-\.?\d", "--prior": r"-[^-]"}


def _attach_dashed_values(argv):
    # argparse takes such a token for an option, so "--counts -0.5,0.3,2"
    # or "--prio -p1+1" would lose its value; the token is joined to
    # its flag as "--counts=-0.5,0.3,2" or "--prio=-p1+1". A flag may be
    # any abbreviation of the name: argparse resolves "--prio=..." as it
    # would "--prio", and one it calls ambiguous ("--count") stays so
    joined = []
    for token in argv:
        flag = joined[-1] if joined else ""
        pattern = next((p for name, p in _DASHED_VALUES.items()
                        if len(flag) > 2 and name.startswith(flag)), None)
        if pattern and re.match(pattern, token):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_dashed_values(argv))
    try:
        start = time.perf_counter()
        counts = _resolve_counts(args)
        results, evaluations, extra_inputs, code, numbers = _COMMANDS[
            args.command
        ](args, counts)
        report = _make_report(
            args.command, counts, args, results, evaluations,
            time.perf_counter() - start, extra_inputs,
        )
        text = _render(report, numbers if args.plain else None)
    # an ExpressionSyntaxError is a ValueError
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # an EvaluationError is an IntegrationError
    except (IntegrationError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
