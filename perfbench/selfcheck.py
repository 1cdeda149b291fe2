"""Self-checks of the benchmark harness.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Smoke: for every workload in BENCHMARK.json and both trace modes,
   run one call for one pass and assert that the last line of stdout is
   the result object, carrying exactly the metrics BENCHMARK.json names
   for that mode, each with its unit.
2. Checker: run real calls, confirm that their reports pass (up to
   the documented misses of checks.py), and that
   the same reports are rejected after a deliberate perturbation
   (log_value + 1e-6, a mean off by one part in 1e12) or with a wrong
   exit code.
3. Inputs: the same seed gives the same call list; another seed
   gives another.

Exits 0 when every check passes and 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent


def _smoke(spec, problems):
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--smoke"],
                capture_output=True, text=True, timeout=170,
            )
            where = f"smoke {name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(
                    f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['correct']=} "
                                f"{result['attempted']=}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics or units differ from "
                                f"BENCHMARK.json: {sorted(set(want) ^ set(got))}, "
                                f"{[k for k in want if got.get(k) != want[k]]}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append(f"{where}: {k} is {v['value']!r}")
            print(f"checked: {where}: {len(got)} metrics", flush=True)


def _perturbed(stdout, path, change):
    report = json.loads(stdout)
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return json.dumps(report)


def _checker(root, problems):
    def shift(value):
        return value + 1e-6

    def scale(value):
        return value * (1 + 1e-12)

    cases = [
        (workloads.integrate_call([2, 0, 3, 1], "gauss", workloads.PRIOR_EXP,
                                  moment=[1]), ("results", "log_value"), shift),
        (workloads.compare_call([1, 2, 0]), ("results", "log_grid"), shift),
        (workloads.moments_call([3, 1, 4]), ("results", "mean", 1), scale),
    ]
    for call, path, change in cases:
        expects = checks.expectations(call)
        out = run.spawn(run.cli_argv(call), run.child_env(root, call.env),
                        root)
        label = call.label()
        # documented misses (small-count skewness already loses digits)
        # are allowed; nothing else is
        if checks.check(call, expects, out.code, out.stdout).unexpected:
            problems.append(f"checker rejects a good report: {label}")
        bad = _perturbed(out.stdout, path, change)
        verdict = checks.check(call, expects, out.code, bad)
        if not verdict.unexpected:
            problems.append(f"checker accepts {'.'.join(map(str, path))} "
                            f"perturbed: {label}")
        for code in (2, 3, 4):
            if not checks.check(call, expects, code, out.stdout).unexpected:
                problems.append(f"checker accepts exit code {code}: {label}")
        print(f"checked: checker on {label}", flush=True)


def _inputs(problems):
    for name in workloads.WORKLOADS:
        first = [c.label() for c in workloads.calls_for(name, 7)]
        again = [c.label() for c in workloads.calls_for(name, 7)]
        other = [c.label() for c in workloads.calls_for(name, 8)]
        if first != again:
            problems.append(f"{name}: seed 7 gives two different call lists")
        if first == other:
            problems.append(f"{name}: seeds 7 and 8 give the same call list")
    print("checked: inputs follow the seed", flush=True)


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    _inputs(problems)
    _checker(root, problems)
    _smoke(spec, problems)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("all self-checks passed" if not problems else
          f"{len(problems)} self-checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
