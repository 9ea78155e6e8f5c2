"""Self-tests of the benchmark, on its smoke sizes (about half a minute):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec[section]}
    for workload in [w["name"] for w in spec["workloads"]]:
        result = _last_json(_run("--smoke", "--workload", workload, "--trace", str(trace)))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected, workload


def test_scaled_time_removes_probe_time_and_divides_by_speed():
    import run
    ref = run.PROBE_REF_S
    # 2 s of wall time with three samples: two at half speed, one at full speed
    probe = [[100.1, 2 * ref], [100.5, 2 * ref], [101.5, ref]]
    ex = run.Execution(0, 2.0, 0.0, 100.0, {"probe": probe})
    wall_less_probe = 2.0 - 5 * ref
    assert run.scaled_s(ex) == pytest.approx(wall_less_probe * (0.5 + 0.5 + 1.0) / 3)
    # up to t = 101.0 only the two half-speed samples count
    assert run.scaled_s(ex, 101.0) == pytest.approx((1.0 - 4 * ref) * 0.5)
    assert run.scaled_s(run.Execution(1, 2.0, 0.0, 100.0, None)) == 2.0


def test_wrappers_are_removed_after_a_traced_run():
    bindings = tracer.SPAN_WRAPS + tracer.AGGREGATE_WRAPS
    originals = [getattr(importlib.import_module(m), a) for m, a, _ in bindings]
    t = tracer.Tracer()
    t.install()
    assert all(getattr(importlib.import_module(m), a) is not o
               for (m, a, _), o in zip(bindings, originals))
    assert t.uninstall()
    assert all(getattr(importlib.import_module(m), a) is o
               for (m, a, _), o in zip(bindings, originals))


def test_traced_smoke_run_restores_and_accounts_for_wall_time():
    _last_json(_run("--smoke", "--workload", "polytope", "--trace", "1"))
    out = json.loads((HERE / "_work" / "results" / "polytope-seed7-trace1-smoke.json").read_text())
    assert out["correct"] and not out["problems"]
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    for route in ("dykstra", "dykstra-ball", "pdhg", "pdhg-ball"):
        assert metrics[f"solver.{route}.calls"] > 0
    wall = [s["wall_s"] for s in out["samples"] if s["trace"]][0]
    assert sum(v for _, v in out["breakdown"]) == pytest.approx(wall)
    assert metrics["trace.uncovered_s"] >= 0


def test_refuses_to_run_without_the_program():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "polytope",
                           "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
