"""Tests of the benchmark itself: the tracer, the checks and the smoke runs.

Run from the repository root with ``python -m pytest -q bench``.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def fakepkg(monkeypatch):
    """A package whose module ``a`` binds ``b.inner`` by name, like the
    package's ``from .geom import strict_feasible``."""
    core = types.ModuleType("fakepkg.core")

    class DomainError(Exception):
        pass

    core.DomainError = DomainError
    b = types.ModuleType("fakepkg.b")

    def inner(fail=False):
        time.sleep(0.03)
        if fail:
            raise DomainError("boom")

    b.inner = inner
    a = types.ModuleType("fakepkg.a")
    a.inner = inner

    def outer(fail=False):
        time.sleep(0.02)
        a.inner()
        a.inner(fail)

    a.outer = outer
    for name, mod in (("fakepkg", types.ModuleType("fakepkg")), ("fakepkg.core", core),
                      ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return types.SimpleNamespace(a=a, b=b, inner=inner, outer=outer, DomainError=DomainError)


def fake_tracer():
    targets = [("b.inner", "b", "inner"), ("a.outer", "a", "outer"), ("a.gone", "a", "no_such")]
    return Tracer(targets, scopes=("a.outer",), package="fakepkg")


def test_tracer_counts_calls_and_self_time(fakepkg):
    with fake_tracer() as tracer:
        assert fakepkg.a.inner is not fakepkg.inner  # rebound where it is used
        assert fakepkg.b.inner is fakepkg.a.inner
        fakepkg.a.outer()
    outer, inner = tracer.get("a.outer"), tracer.get("b.inner")
    assert (outer.calls, inner.calls) == (1, 2)
    assert tracer.scoped == {("a.outer", "b.inner"): 2}
    assert inner.self_s >= 0.06
    assert 0.02 <= outer.self_s < 0.05
    assert outer.total_s >= outer.self_s + inner.self_s - 1e-6
    assert tracer.get("a.gone").calls == 0


def test_tracer_restores_originals(fakepkg):
    tracer = fake_tracer()
    with tracer:
        pass
    assert fakepkg.a.inner is fakepkg.inner and fakepkg.b.inner is fakepkg.inner
    assert fakepkg.a.outer is fakepkg.outer

    from tropstiefel import arrangement, geom, linspace, subdivision

    original, method = geom.strict_feasible, geom.Polyhedron.__dict__["affine_dimension"]
    with Tracer(run.TARGETS):
        assert arrangement.strict_feasible is not original
        assert arrangement.strict_feasible is linspace.strict_feasible is subdivision.strict_feasible
        assert geom.Polyhedron.__dict__["affine_dimension"] is not method
    for mod in (geom, arrangement, linspace, subdivision):
        assert mod.strict_feasible is original
    assert geom.Polyhedron.__dict__["affine_dimension"] is method


def test_tracer_counts_a_domain_error_once(fakepkg):
    with fake_tracer() as tracer:
        with pytest.raises(fakepkg.DomainError):
            fakepkg.a.outer(fail=True)
    assert tracer.errors == {"b": 1}
    assert tracer.get("a.outer").calls == 1


def test_tracer_on_the_package_attributes_checks():
    from tropstiefel import arrangement, core

    A = core.TropMatrix([[0, 1, 3], [2, 0, 1]])
    with Tracer(run.TARGETS, scopes=(run.COVECTORS,), sizes={run.COVECTORS: len}) as tracer:
        tc = arrangement.enumerate_covectors(A, budget=4999)
    checks = tracer.get(run.CHECKS)
    assert tracer.get(run.COVECTORS).size == len(tc) > 0
    assert 0 < tracer.scoped[(run.COVECTORS, run.CHECKS)] <= checks.calls


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_runs_pass(workload, trace):
    result, lines = run.run_workload(workload, seed=3, seconds=20, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    names = [name for name, _ in (run.PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    if trace:
        assert result["metrics"]["trace.ops_per_s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failed_check_counts_as_failed_op(monkeypatch):
    def wrong(out):
        raise workloads.VerifyError("planted")

    monkeypatch.setattr(workloads, "check_svg", wrong)
    result, lines = run.run_workload("geometry", seed=3, seconds=20, trace=False, smoke=True)
    assert 0 < result["failed"] < result["attempted"] and not result["correct"]
    assert any("planted" in line for line in lines)


def test_checks_reject_wrong_outputs():
    E = [[0, 1, 3], [2, 0, 1]]
    check = workloads.check_covectors(E, [[0, 5], [0, -5]])
    with pytest.raises(workloads.VerifyError):
        check(json.dumps([{"covector": [[1], [1], [1]], "dim": 1}]))
    with pytest.raises(workloads.VerifyError):
        workloads.check_svg("<svg><line></svg>")
    with pytest.raises(workloads.VerifyError):
        workloads.check_answer("in_L", True)('{"in_L": false}')


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "minors", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
