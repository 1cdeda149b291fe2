"""The benchmark's tracer finds its layers by name in the program.

perfbench/tracer.py looks names up in simplexquad.cli and
simplexquad.quadrature with getattr and swaps wrappers in for the
length of a traced pass. A renamed or dropped name, or a changed
signature, would otherwise show only in the slow harness self-check
(python3 perfbench/selfcheck.py).
"""

import json
import sys
from pathlib import Path

import pytest

from simplexquad import cli, quadrature

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    return tracer


def test_install_and_restore_swap_every_traced_name(tracer_module):
    tracer = tracer_module.Tracer(cli, quadrature)
    originals = [(module, name, getattr(module, name))
                 for module, name, _, _ in tracer._patches]
    assert originals
    tracer.install()
    try:
        for module, name, original in originals:
            assert getattr(module, name) is not original
    finally:
        tracer.restore()
    for module, name, original in originals:
        assert getattr(module, name) is original


def test_a_traced_call_reaches_the_oracle_layers(tracer_module, capsys):
    # compare at n = 2 runs every route, the nested oracle included,
    # through the wrapped names in a fraction of a second
    tracer = tracer_module.Tracer(cli, quadrature)
    tracer.install()
    try:
        code = tracer.main(["compare", "--counts", "1,2"])
    finally:
        tracer.restore()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["results"]["log_oracle"] is not None
    totals = tracer_module.summarize(tracer.spans)
    for name in ("cli.main", "quadrature.nested_oracle",
                 "oracle.nested_simplex_integral", "quadrature.log_integrand"):
        assert totals[name]["calls"] >= 1, name
    assert totals["oracle.nested_simplex_integral"]["evals"] > 0


def test_a_failed_oracle_counts_its_budget_as_wasted(tracer_module, capsys,
                                                     monkeypatch):
    # the tracer reads the budget from the max_evaluations keyword
    monkeypatch.setenv(quadrature.BUDGET_ENV_VAR, "500")
    tracer = tracer_module.Tracer(cli, quadrature)
    tracer.install()
    try:
        code = tracer.main(["compare", "--counts", "0.5,1.5,2.5", "--nodes", "16"])
    finally:
        tracer.restore()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["results"]["log_oracle"] is None
    oracle = tracer_module.summarize(tracer.spans)["oracle.nested_simplex_integral"]
    assert oracle["failed"] == 1
    assert oracle["wasted"] == 500
