"""The fixed call lists of the three workloads, with inputs from a seed.

Each workload is a fixed list of call slots. A slot fixes the command,
the bin count, the scheme, the prior and whether --moment is passed;
the seed fills in the counts, moment indices and Monte Carlo seeds.
The cost of a call depends on its slot far more than on its counts,
so run times stay comparable across seeds while the values checked
change with them.

A few calls are the same for every seed because they are documented
cases: the criterion-6 corner [10]*5 at 32 nodes, the all-threes
compare that takes the oracle 3.4e6 evaluations, the half-integer
compare whose oracle cannot converge under a lowered budget (a
cheap stand-in for the minute-long default-budget compare of [10]*5),
and a two-bin moments call with counts of order 1e5.
"""

import random
from dataclasses import dataclass, field

import reference as ref

WORKLOADS = {
    "grid": (
        "integrate --scheme gauss at n=4-5 (k=32 integer, k=64 "
        "half-integer counts), three priors, half the calls with "
        "--moment: spherical map, Jacobian, reduction and expressions"
    ),
    "mc": (
        "integrate --scheme mc --samples 1000000 at n=5-8, prior 1: the "
        "shared map and reduction without the axis rule or expressions"
    ),
    "crosscheck": (
        "compare, integrate --scheme oracle and moments: nested oracle, "
        "closed forms, process start and the CLI layer"
    ),
}

PRIOR_FLAT = "1"
PRIOR_POLY = "(1+p2^2)*(2-p1)"
PRIOR_EXP = "exp(-2*p1)*(1+p2^2)"

MC_SAMPLES = 1_000_000
ORACLE_TOL = "1e-10"  # the oracle's default rel_tol, as in criterion 4
LOW_BUDGET = "2000000"


@dataclass
class Call:
    """One CLI invocation: arguments after ``simplexquad``, extra
    environment, and what the checker needs to know about it."""

    argv: list
    env: dict = field(default_factory=dict)
    command: str = ""
    scheme: str = ""
    counts: list = field(default_factory=list)
    prior: str = PRIOR_FLAT
    moment: list = None
    nodes: int = 32

    def label(self):
        return " ".join(self.argv) + "".join(
            f" [{k}={v}]" for k, v in sorted(self.env.items())
        )


def _fmt(counts):
    return ",".join(str(c) for c in counts)


def integrate_call(counts, scheme, prior=PRIOR_FLAT, moment=None, nodes=32,
               extra=()):
    argv = ["integrate", "--counts", _fmt(counts), "--scheme", scheme]
    if prior != PRIOR_FLAT:
        argv += ["--prior", prior]
    if scheme == "gauss" and nodes != 32:
        argv += ["--nodes", str(nodes)]
    if moment:
        argv += ["--moment", ",".join(str(i) for i in moment)]
    argv += list(extra)
    return Call(argv, command="integrate", scheme=scheme,
                counts=ref.counts_of(_fmt(counts)), prior=prior,
                moment=moment, nodes=nodes)


def compare_call(counts, nodes=32, env=None):
    argv = ["compare", "--counts", _fmt(counts)]
    if nodes != 32:
        argv += ["--nodes", str(nodes)]
    return Call(argv, env=dict(env or {}), command="compare",
                counts=ref.counts_of(_fmt(counts)), nodes=nodes)


def moments_call(counts, moment=None):
    argv = ["moments", "--counts", _fmt(counts)]
    if moment:
        argv += ["--moment", ",".join(str(i) for i in moment)]
    return Call(argv, command="moments", counts=ref.counts_of(_fmt(counts)),
                moment=moment)


def _ints(rng, n, hi):
    return [rng.randint(0, hi) for _ in range(n)]


def _half_integers(rng, n):
    # at least one genuinely fractional entry
    counts = [rng.randint(0, 8) / 2 for _ in range(n)]
    if all(c == int(c) for c in counts):
        counts[rng.randrange(n)] += 0.5
    return [int(c) if c == int(c) else c for c in counts]


def _indices(rng, n, k):
    return sorted(rng.randint(1, n) for _ in range(k))


def _grid(rng):
    # 4 calls at n=5, 4 at n=4 with k=32, 3 at n=4 with k=64, so the
    # median call falls inside the k=64 group, not at a gap in cost
    g = "gauss"
    return [
        integrate_call([10] * 5, g),
        integrate_call(_ints(rng, 5, 10), g, moment=_indices(rng, 5, 1)),
        integrate_call(_ints(rng, 5, 10), g, PRIOR_POLY),
        integrate_call(_ints(rng, 5, 10), g, PRIOR_EXP, moment=_indices(rng, 5, 2)),
        integrate_call(_ints(rng, 4, 10), g, moment=_indices(rng, 4, 1)),
        integrate_call(_ints(rng, 4, 10), g, PRIOR_POLY, moment=_indices(rng, 4, 2)),
        integrate_call(_ints(rng, 4, 10), g, PRIOR_EXP, moment=_indices(rng, 4, 1)),
        integrate_call(_ints(rng, 4, 10), g, PRIOR_EXP),
        integrate_call(_half_integers(rng, 4), g, nodes=64),
        integrate_call(_half_integers(rng, 4), g, PRIOR_POLY, nodes=64),
        integrate_call(_half_integers(rng, 4), g, PRIOR_EXP, nodes=64),
    ]


def _mc(rng):
    # cost grows with n; two calls below n=7 and two above it put the
    # median call inside the n=7 group
    calls = []
    for n in (5, 6, 7, 7, 7, 8, 8):
        seed = str(rng.randrange(2 ** 31))
        calls.append(integrate_call(
            _ints(rng, n, 10), "mc",
            extra=["--samples", str(MC_SAMPLES), "--seed", seed],
        ))
    return calls


def _large_counts(rng, n):
    # log-uniform over 1 .. 1e6
    return [int(round(10 ** rng.uniform(0.0, 6.0))) for _ in range(n)]


def _crosscheck(rng):
    # seven compare and oracle calls that can cost seconds and 24
    # moments calls that cost about a process start each. The median
    # call falls well inside the moments group for every seed, not at
    # its edge, where a seed's cheapest compare would decide it. The
    # moments calls are spread between the slow ones, so the median
    # samples the whole pass, not one stretch of it.
    oracle = ["--tol", ORACLE_TOL]
    slow = [
        compare_call([3] * 5),
        compare_call(_ints(rng, 5, 3)),
        compare_call(_ints(rng, 4, 6)),
        compare_call(_ints(rng, 3, 10)),
        compare_call([0.5, 2, 1.5, 3], nodes=64,
                     env={"SIMPLEXQUAD_EVAL_BUDGET": LOW_BUDGET}),
        integrate_call([1, 1, 1, 1], "oracle", PRIOR_EXP, extra=oracle),
        integrate_call(_ints(rng, 3, 4), "oracle", PRIOR_EXP,
                       moment=_indices(rng, 3, 1), extra=oracle),
    ]
    quick = [moments_call([100000, 300000])]
    for i in range(23):
        n = 2 + i % 7  # 2 to 8 bins
        counts = _large_counts(rng, n)
        moment = _indices(rng, n, 1 + i % 2) if i % 3 else None
        quick.append(moments_call(counts, moment=moment))
    calls = []
    for i, call in enumerate(slow):
        calls.append(call)
        calls += quick[i::len(slow)]
    return calls


_BUILDERS = {"grid": _grid, "mc": _mc, "crosscheck": _crosscheck}


def calls_for(workload, seed):
    """The workload's call list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)
