"""The benchmark record's aggregation and schema check, on synthetic results;
nothing here runs the benchmark."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = bench_record.load_spec()
NAMES = [m["name"] for m in SPEC["end_to_end"]]


def results(run_s, correct=True):
    """A results file as perfbench/run.py writes it, trimmed to what is read."""
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["run_s"]["value"] = run_s
    return {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics,
            "environment": {"nproc": 2, "cpu": "cpu", "python": "3.11", "numpy": "2",
                            "platform": "linux"}}


def pairs(parent, change, workload="school-ridge", seed=7):
    return [{"workload": workload, "seed": seed, "first": ("parent", "change")[k % 2],
             "parent": results(a), "change": results(b)}
            for k, (a, b) in enumerate(zip(parent, change))]


def a_record(groups):
    sha = "0123456789abcdef0123456789abcdef01234567"
    return {"schema": bench_record.SCHEMA, "benchmark": "perfbench/run.py --trace 0",
            "seconds": SPEC["run_seconds"], "seeds": [7, 1009],
            "machine": {k: "x" for k in ("nproc", "cpu", "python", "numpy", "platform")},
            "parent": {"rev": "HEAD~1", "sha": sha},
            "change": {"sha": sha, "uncommitted_changes": False},
            "results": bench_record.aggregate(groups, SPEC)}


def test_aggregate_medians_quartiles_and_wins():
    parent = [2.0, 2.1, 1.9, 2.2, 2.0, 2.05, 1.95, 2.3, 2.0, 2.1]
    change = [1.3, 1.2, 1.25, 1.3, 2.1, 1.2, 1.3, 1.25, 1.2, 2.1]
    [row] = bench_record.aggregate(pairs(parent, change), SPEC)
    assert (row["workload"], row["seed"], row["pairs"]) == ("school-ridge", 7, 10)
    assert row["first"] == ["parent", "change"] * 5
    assert row["correct"] == {"parent": 10, "change": 10}
    assert list(row["metrics"]) == NAMES
    run_s = row["metrics"]["run_s"]
    assert run_s["parent"]["median"] == pytest.approx(2.025)
    assert run_s["parent"]["q1"] <= run_s["parent"]["median"] <= run_s["parent"]["q3"]
    assert run_s["change"]["values"] == change
    assert run_s["wins"] == {"parent": 1, "change": 8}  # one pair lost, one tied
    assert run_s["gain"] is False  # 8 of 10 is short of nine tenths
    assert run_s["regression"] is False
    assert row["metrics"]["setup_s"]["wins"] == {"parent": 0, "change": 0}  # all ties
    run_s = bench_record.aggregate(pairs(parent, [1.3] * 10), SPEC)[0]["metrics"]["run_s"]
    assert run_s["wins"]["change"] == 10 and run_s["gain"] is True
    run_s = bench_record.aggregate(pairs(parent, [3.0] * 10), SPEC)[0]["metrics"]["run_s"]
    assert run_s["regression"] is True and run_s["relative_change"] > 0.25


def test_aggregate_groups_by_workload_and_seed():
    groups = pairs([2.0], [1.0]) + pairs([1.0], [1.0], seed=1009) \
        + pairs([1.0], [1.1], workload="polytope") + pairs([3.0], [1.0])
    rows = bench_record.aggregate(groups, SPEC)
    assert [(r["workload"], r["seed"], r["pairs"]) for r in rows] == [
        ("school-ridge", 7, 2), ("school-ridge", 1009, 1), ("polytope", 7, 1)]
    assert rows[2]["metrics"]["run_s"]["wins"] == {"parent": 1, "change": 0}


def test_a_record_passes_the_schema_check(tmp_path):
    record = a_record(pairs([2.0] * 3, [1.0] * 3) + pairs([2.0] * 3, [1.0] * 3, seed=1009))
    assert bench_record.validate(record, SPEC) == []
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(record))
    assert bench_record.main(["--check", str(path)]) == 0


@pytest.mark.parametrize("damage, message", [
    (lambda r: r.pop("machine"), "no 'machine' object"),
    (lambda r: r["parent"].update(sha="abc"), "parent has no full git sha"),
    (lambda r: r.update(results=[]), "no results"),
    (lambda r: r["results"][0]["metrics"].pop("read_s"), "metrics are not"),
    (lambda r: r["results"][0]["metrics"]["run_s"]["parent"].update(q1=9.0),
     "quartiles out of order"),
    (lambda r: r["results"][0]["metrics"]["run_s"]["change"]["values"].pop(),
     "not one value per pair"),
    (lambda r: r["results"][0]["metrics"]["run_s"]["wins"].update(change=4),
     "win counts do not fit the pairs"),
    (lambda r: r["results"].append(r["results"][0]), "appear twice"),
])
def test_a_damaged_record_fails_the_schema_check(tmp_path, capsys, damage, message):
    record = copy.deepcopy(a_record(pairs([2.0] * 3, [1.0] * 3)))
    damage(record)
    assert any(message in p for p in bench_record.validate(record, SPEC))
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(record))
    assert bench_record.main(["--check", str(path)]) == 1
    assert message in capsys.readouterr().err
