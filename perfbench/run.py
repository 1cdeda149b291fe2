"""Benchmark of the simplexquad command line, end to end and per layer.

Run from the root of a checkout (the directory that holds ``src/``):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 32 --trace 0

The seed generates the workload's fixed list of CLI calls (see
workloads.py). Every call's output is checked against references the
benchmark computes itself (reference.py, checks.py).

--trace 0 runs each call as ``python -m simplexquad ...`` in a fresh
process, one at a time from this single process (a closed loop with
one caller). It goes round the list, call after call, until the next
call would end after --seconds, so a run lasts about --seconds whatever
a pass costs; the first pass always completes. It prints the
end-to-end metrics:

  setup_s      median wall time of a fresh interpreter that imports
               simplexquad.cli and exits, started before every third
               call
  run_s        wall time of one pass over the call list: the sum over
               calls of each call's median over its repeats
  call_p50_s   median wall time of one call, process start included
  peak_rss_mb  largest peak RSS of any one call, from its own rusage

--trace 1 drives ``simplexquad.cli.main`` in-process over the same
list, alternating untraced passes with traced ones (tracer.py), and
prints the per-layer metrics, the accuracy of the outputs and the
tracer's own overhead. The spans of its last traced pass are written
to .bench_build/spans/<workload>-seed<seed>.jsonl.

Children get OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS
set to 1, so the load never exceeds one core for the program.

Both modes check every output. The accuracy of a run, max_rel_err
(largest relative deviation of any checked output from its reference)
and fail_frac (calls that failed a check, over calls attempted), is
printed in the record of every run and reported as the per-layer
metrics accuracy.max_rel_err and accuracy.fail_frac of a traced run.
In the result, ``failed`` counts the calls that failed beyond the
program's documented misses (see checks.py), and ``correct`` is true
when there are none.

Everything before the last line of stdout is a human-readable record
of the run; the last line is the JSON result.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import workloads
from tracer import Tracer, layer_metrics, summarize, write_spans

CHILD_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_EVERY_CALLS = 3
SPANS_DIR = Path(".bench_build") / "spans"
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "call_p50_s": "s",
    "peak_rss_mb": "MB",
}
_SUFFIX_UNITS = {
    "calls": "count",
    "points": "count",
    "evals": "count",
    "failed": "count",
    "wasted_evals": "count",
    "self_s": "s",
    "ns_per_point": "ns",
    "ns_per_eval": "ns",
    "bytes_computed": "B",
    "useful_frac": "fraction",
    "fail_frac": "fraction",
    "overhead_frac": "fraction",
    "max_rel_err": "ratio",
}


def layer_unit(name):
    return _SUFFIX_UNITS[name.rsplit(".", 1)[-1]]


def _say(line=""):
    print(line, flush=True)


def child_env(root, extra):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SIMPLEXQUAD_")}
    env["PYTHONPATH"] = str(root / "src")
    env.update(CHILD_THREADS)
    env.update(extra)
    return env


class Spawned:
    __slots__ = ("code", "stdout", "stderr", "wall_s", "rss_mb")


def spawn(argv, env, cwd):
    """Run one child to completion; wall time and its own peak RSS."""
    result = Spawned()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    try:
        # the CLI writes at most a few lines to stderr, so reading the
        # two pipes one after the other cannot block the child
        result.stdout = proc.stdout.read().decode()
        result.stderr = proc.stderr.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        result.wall_s = time.perf_counter() - start
        proc.returncode = result.code = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:  # interrupted, e.g. by the run limit
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    result.rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
    return result


def cli_argv(call):
    return [sys.executable, "-m", "simplexquad", *call.argv]


def _import_argv():
    return [sys.executable, "-c", "import simplexquad.cli"]


def _git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref_file = root / ".git" / text[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        return text[5:]
    return text


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record_conditions(root, args, calls):
    _say(f"# workload {args.workload} (seed {args.seed}): "
         f"{workloads.WORKLOADS[args.workload]}")
    _say(f"# {len(calls)} calls per pass; closed loop, one caller, one "
         f"call at a time from one process")
    _say(f"# machine: nproc {os.cpu_count()}, cpu {_cpu_model()}, "
         f"python {platform.python_version()}, "
         f"numpy {metadata.version('numpy')}, commit {_git_commit(root)}")
    _say("# children: "
         + " ".join(f"{k}={v}" for k, v in CHILD_THREADS.items()))


def _accuracy(verdicts):
    failed = sum(v.failed for v in verdicts)
    return (max(v.max_rel_err for v in verdicts), failed / len(verdicts))


def _report_calls(calls, verdicts, extra):
    for call, verdict, note in zip(calls, verdicts, extra):
        status = "ok"
        if verdict.failed:
            status = "FAIL" if verdict.unexpected else "known-miss"
        _say(f"#   {note} max_rel_err {verdict.max_rel_err:9.2e} "
             f"{status:10s} {call.label()}")
        for reason in verdict.reasons:
            _say(f"#       {reason}")


def run_cli(root, calls, expects, seconds):
    """Untraced: fresh processes; returns the end-to-end metrics."""
    import_env = child_env(root, {})
    setup = []

    def set_up():
        started = spawn(_import_argv(), import_env, root)
        if started.code != 0:
            raise SystemExit(
                f"importing simplexquad.cli failed:\n{started.stderr}")
        setup.append(started.wall_s)

    set_up()  # compiles the bytecode
    setup.clear()
    repeats = [[] for _ in calls]  # per call, one result per pass
    start = time.perf_counter()
    for index in itertools.count():
        slot = index % len(calls)
        if index >= len(calls):
            # stop where the next call, at its first-pass time, would
            # end past the deadline
            next_s = repeats[slot][0].wall_s
            if time.perf_counter() - start + next_s > seconds:
                break
        # set-up starts are spread over the run, so a slow moment of the
        # machine weighs no more on setup_s than on the calls
        if index % SETUP_EVERY_CALLS == 0:
            set_up()
        repeats[slot].append(spawn(cli_argv(calls[slot]),
                                   child_env(root, calls[slot].env), root))
    elapsed = time.perf_counter() - start

    checked = [[checks.check(c, e, r.code, r.stdout) for r in slot]
               for c, e, slot in zip(calls, expects, repeats)]
    verdicts = [v for slot in checked for v in slot]
    first = [slot[0] for slot in repeats]
    first_verdicts = [slot[0] for slot in checked]
    _say("# first pass, per call (wall s, peak RSS MB):")
    _report_calls(calls, first_verdicts,
                  [f"{r.wall_s:6.3f} s {r.rss_mb:6.1f} MB" for r in first])
    reported = sum(json.loads(r.stdout)["diagnostics"]["evaluations"]
                   for r, v in zip(first, first_verdicts) if not v.unexpected)
    _say(f"# evaluations the CLI reports for the first pass: {reported} "
         "(failed oracle runs are not included; a traced run counts them)")
    walls = [r.wall_s for slot in repeats for r in slot]
    _say(f"# {len(walls)} calls in {elapsed:.3f} s: "
         f"{len(walls) / len(calls):.2f} passes over the list")
    max_rel_err, fail_frac = _accuracy(verdicts)
    _say(f"# accuracy: max_rel_err {max_rel_err:.3e}, fail_frac "
         f"{fail_frac:.4f} ({sum(v.failed for v in verdicts)} of "
         f"{len(verdicts)} calls, documented misses included)")
    metrics = {
        "setup_s": statistics.median(setup),
        # each call's median over its repeats, summed: one slow call in
        # one pass does not move it
        "run_s": sum(statistics.median(r.wall_s for r in slot)
                     for slot in repeats),
        "call_p50_s": statistics.median(walls),
        "peak_rss_mb": max(r.rss_mb for slot in repeats for r in slot),
    }
    _say(f"# call_p50_s over {len(walls)} calls; setup_s over "
         f"{len(setup)} starts")
    return metrics, verdicts, END_TO_END_UNITS


def _call_in_process(main, call):
    saved = {k: os.environ.get(k) for k in call.env}
    os.environ.update(call.env)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(call.argv)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, out.getvalue()


def run_traced(root, calls, expects, seconds, spans_path):
    """In-process: untraced and traced passes in turn; per-layer metrics."""
    for key in [k for k in os.environ if k.startswith("SIMPLEXQUAD_")]:
        del os.environ[key]
    os.environ.update(CHILD_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(root / "src"))
    from simplexquad import cli, quadrature

    tracer = Tracer(cli, quadrature)

    def one_pass(traced):
        outputs = []
        if traced:
            tracer.spans = []
            tracer.install()
        pass_start = time.perf_counter()
        try:
            main = tracer.main if traced else cli.main
            for index, call in enumerate(calls):
                tracer.call_id = index
                outputs.append(_call_in_process(main, call))
        finally:
            tracer.restore()
        wall = time.perf_counter() - pass_start
        return wall, [checks.check(c, e, code, out)
                      for c, e, (code, out) in zip(calls, expects, outputs)]

    # the first pass fills caches and the allocator; it is checked but
    # not timed against the others
    start = time.perf_counter()
    warm_wall, verdicts = one_pass(False)
    walls = {False: [], True: []}
    layers = []
    traced = True
    while True:
        wall, pass_verdicts = one_pass(traced)
        verdicts += pass_verdicts
        walls[traced].append(wall)
        if traced:
            layers.append(layer_metrics(summarize(tracer.spans)))
        done = walls[True] and walls[False]
        if done and time.perf_counter() - start + wall > seconds:
            break
        traced = not traced

    write_spans(tracer.spans, spans_path)
    _say(f"# spans of the last traced pass: {spans_path}")
    _say(f"# in-process passes: warm-up {warm_wall:.3f} s; untraced "
         + ", ".join(f"{w:.3f} s" for w in walls[False]) + "; traced "
         + ", ".join(f"{w:.3f} s" for w in walls[True]))
    _report_calls(calls, verdicts[:len(calls)], ["" for _ in calls])
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    max_rel_err, fail_frac = _accuracy(verdicts)
    metrics["accuracy.max_rel_err"] = max_rel_err
    metrics["accuracy.fail_frac"] = fail_frac
    metrics["trace.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    return metrics, verdicts, {name: layer_unit(name) for name in metrics}


def _out_of_time(signum, frame):
    raise SystemExit(f"error: the run took longer than {RUN_LIMIT_S} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one call and one pass, to check the plumbing")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)

    root = Path.cwd()
    if not (root / "src" / "simplexquad" / "cli.py").is_file():
        print(f"error: no src/simplexquad under {root}; run from the root "
              "of a simplexquad checkout", file=sys.stderr)
        return 2

    calls = workloads.calls_for(args.workload, args.seed)
    if args.smoke:
        calls = calls[:1]
    expects = [checks.expectations(c) for c in calls]
    record_conditions(root, args, calls)
    seconds = 0.0 if args.smoke else args.seconds
    if args.trace:
        spans_path = (root / SPANS_DIR
                      / f"{args.workload}-seed{args.seed}.jsonl")
        metrics, verdicts, units = run_traced(root, calls, expects, seconds,
                                              spans_path)
    else:
        metrics, verdicts, units = run_cli(root, calls, expects, seconds)

    for name, value in metrics.items():
        _say(f"# {name} = {value:.6g} {units[name]}")
    unexpected = sum(v.unexpected for v in verdicts)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(verdicts),
        "failed": unexpected,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
