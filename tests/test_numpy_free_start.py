"""The closed forms start without numpy, dataclasses or the nested
oracle, and the numerical names still trace.

Each test runs in a fresh interpreter, because this process has long
imported numpy. The package resolves its names on first access and the
command line binds numpy and the numerical routes on the first
integrate or compare, so moments, --help and input errors never import
numpy. perfbench/tracer.py patches those lazily bound names with
setattr; a binding that overwrote its wrappers would silently leave
their layers empty.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import simplexquad

SRC = Path(simplexquad.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_fresh(script):
    env = dict(os.environ)
    env.pop("SIMPLEXQUAD_EVAL_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(PERFBENCH), env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


NUMPY_FREE_STEPS = r'''
import contextlib, io, json, sys

steps = []

def step(name, action):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = action()
        except SystemExit as exc:
            code = exc.code
    steps.append({"step": name, "code": code, "numpy": "numpy" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules,
                  "decimal": "decimal" in sys.modules,
                  "oracle": "simplexquad.oracle" in sys.modules,
                  "stdout": out.getvalue(), "stderr": err.getvalue()})

step("import simplexquad", lambda: __import__("simplexquad") and 0)
step("import simplexquad.cli", lambda: __import__("simplexquad.cli") and 0)
from simplexquad import cli
step("moments", lambda: cli.main(["moments", "--counts", "2,0,1"]))
step("moments --moment", lambda: cli.main(
    ["moments", "--counts", "2,0,1", "--moment", "1,1"]))
step("moments --help", lambda: cli.main(["moments", "--help"]))
step("malformed --counts", lambda: cli.main(["moments", "--counts", "1,x"]))
step("integrate", lambda: cli.main(["integrate", "--counts", "2,0,1"]))
print(json.dumps(steps))
'''


def test_closed_forms_and_input_errors_leave_numpy_unloaded():
    steps = {s["step"]: s for s in run_fresh(NUMPY_FREE_STEPS)}
    for name in ("import simplexquad", "import simplexquad.cli", "moments",
                 "moments --moment", "moments --help", "malformed --counts"):
        assert not steps[name]["numpy"], name
        # nor dataclasses, which would pull in inspect, ast, dis and
        # tokenize on every start, nor decimal (fractions imports it)
        assert not steps[name]["dataclasses"], name
        assert not steps[name]["decimal"], name
        # the oracle is a leaf that only quadrature imports
        assert not steps[name]["oracle"], name
    assert steps["moments"]["code"] == 0
    assert json.loads(steps["moments"]["stdout"])["results"]["mean"] == [
        0.5, 1 / 6, 1 / 3]
    moment = json.loads(steps["moments --moment"]["stdout"])["results"]["moment"]
    assert moment["value"] == 12 / 42  # E[p1^2] = 3 * 4 / (6 * 7)
    assert steps["moments --help"]["code"] == 0
    assert "--moment" in steps["moments --help"]["stdout"]
    assert steps["malformed --counts"]["code"] == 2
    assert "comma-separated" in steps["malformed --counts"]["stderr"]
    # the first integrate loads numpy and gives its usual report:
    # int p1^2 p3 over the simplex is 2! 0! 1! / 5! = 1/60
    integrate = steps["integrate"]
    assert integrate["numpy"]
    # numpy does not load dataclasses, and no record of ours needs it
    assert not integrate["dataclasses"]
    assert integrate["code"] == 0, integrate["stderr"]
    report = json.loads(integrate["stdout"])
    assert abs(report["results"]["value"] * 60.0 - 1.0) < 1e-12
    # the flat prior is no prior: two 32-node axis sums
    assert report["diagnostics"]["evaluations"] == 2 * 32


SPEC_NAMES = r'''
import json, sys
import simplexquad

names = ("DEFAULT_EVAL_BUDGET", "BUDGET_ENV_VAR", "IntegrationError",
         "QuadratureSpec", "resolve_eval_budget")
values = [getattr(simplexquad, name) for name in names]
loaded = {"numpy": "numpy" in sys.modules,
          "dataclasses": "dataclasses" in sys.modules,
          "oracle": "simplexquad.oracle" in sys.modules}
from simplexquad import quadrature, spec
print(json.dumps({
    "loaded": loaded,
    "spec": [value is getattr(spec, name) for name, value in zip(names, values)],
    "quadrature": [value is getattr(quadrature, name)
                   for name, value in zip(names, values)],
}))
'''


def test_the_names_quadrature_takes_from_spec_leave_numpy_unloaded():
    # quadrature re-exports them, but the package reads them from spec
    got = run_fresh(SPEC_NAMES)
    assert got["loaded"] == {"numpy": False, "dataclasses": False, "oracle": False}
    assert got["spec"] == got["quadrature"] == [True] * 5


TRACED_BEFORE_ANY_COMMAND = r'''
import contextlib, io, json, sys
from simplexquad import cli, quadrature
import tracer

lazy = ("np", "parse", "evaluate_batch", "integrate_simplex_log",
        "integrate_separable", "nested_oracle", "power_log_integrand")
unbound = [name for name in lazy if name in vars(cli)]
t = tracer.Tracer(cli, quadrature)
originals = [(module, name, getattr(module, name))
             for module, name, _, _ in t._patches]
t.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            t.main(["integrate", "--counts", "1,2,1",
                    "--prior", "exp(-2*p1)*(1+p2^2)"]),
            t.main(["compare", "--counts", "1,2"]),
        ]
finally:
    t.restore()
totals = tracer.summarize(t.spans)
print(json.dumps({
    "bound_before": unbound,
    "codes": codes,
    "calls": {name: s["calls"] for name, s in totals.items()},
    "restored": all(getattr(module, name) is original
                    for module, name, original in originals),
    "real": [cli.integrate_simplex_log is quadrature.integrate_simplex_log,
             cli.nested_oracle is quadrature.nested_oracle],
}))
'''


def test_a_tracer_built_before_any_command_sees_the_lazy_names():
    got = run_fresh(TRACED_BEFORE_ANY_COMMAND)
    # the tracer itself makes cli bind them, through its getattr
    assert got["bound_before"] == []
    assert got["codes"] == [0, 0]
    for name in ("quadrature.integrate_simplex_log",
                 "expressions.evaluate_batch", "quadrature.nested_oracle",
                 "quadrature.log_integrand"):
        assert got["calls"].get(name, 0) >= 1, name
    assert got["restored"]
    assert got["real"] == [True, True]
