#!/usr/bin/env python3
"""Record the benchmark for a change against its parent, as BENCH_<n>.json.

    python3 scripts/bench_record.py --parent REV --pairs 10 --out BENCH_6.json
    python3 scripts/bench_record.py --check BENCH_*.json

The first form runs the unchanged ``perfbench/run.py --trace 0``, at the run
length ``BENCHMARK.json`` sets, on every workload at the default and held-out
seeds, in pairs: one run on an export of git revision REV (``git archive``,
in a temporary directory) and one on this checkout, alternating which side
runs first. It reads the results file each run writes under
``perfbench/_work/results/`` and records, per workload, seed and side, the
median and quartiles of every end-to-end metric that ``BENCHMARK.json``
names, how many pairs each side won, the machine, the Python and numpy
versions and both git revisions.

The second form checks committed records against the schema that
`validate` spells out, and runs nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 1
SEEDS = (7, 1009)  # perfbench's default and held-out seeds
SIDES = ("parent", "change")
STATS = ("median", "q1", "q3", "values")


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> dict:
    """Median and inclusive quartiles; one value is all three."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": list(values)}


def aggregate(pairs: list[dict], spec: dict) -> list[dict]:
    """Per (workload, seed), in order of first appearance: each end-to-end
    metric's statistics per side, the pairs each side won (ties count for
    neither) and whether the change's median is a gain by the benchmark's
    rule (at least nine tenths of the pairs won, by more than the parent's
    interquartile range) or worse than the parent's by more than the bound.

    Each pair is {"workload", "seed", "first": "parent" | "change", "parent":
    results, "change": results}, where results is what ``perfbench/run.py``
    writes: at least "correct", "attempted", "failed" and "metrics", a map of
    metric name to {"value", "unit"}."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for pair in pairs:
        groups.setdefault((pair["workload"], pair["seed"]), []).append(pair)
    out = []
    for (workload, seed), group in groups.items():
        metrics = {}
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            values = {side: [p[side]["metrics"][name]["value"] for p in group] for side in SIDES}
            won = {side: 0 for side in SIDES}
            for a, b in zip(values["parent"], values["change"]):
                if a != b:
                    won["change" if (b < a) == lower else "parent"] += 1
            stats = {side: quartiles(values[side]) for side in SIDES}
            parent, change = stats["parent"]["median"], stats["change"]["median"]
            worse_by = (change - parent if lower else parent - change) / abs(parent) \
                if parent else 0.0
            iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
            metrics[name] = {
                "unit": group[0]["change"]["metrics"][name]["unit"],
                "better": m["better"], "bound": m["bound"], **stats, "wins": won,
                "relative_change": (change - parent) / parent if parent else 0.0,
                "gain": won["change"] >= 0.9 * len(group) and abs(change - parent) > iqr,
                "regression": worse_by > m["bound"],
            }
        out.append({
            "workload": workload, "seed": seed, "pairs": len(group),
            "first": [p["first"] for p in group],
            "correct": {side: sum(bool(p[side]["correct"]) for p in group) for side in SIDES},
            "failed_solves": {side: sum(p[side]["failed"] for p in group) for side in SIDES},
            "attempted_solves": {side: sum(p[side]["attempted"] for p in group)
                                 for side in SIDES},
            "metrics": metrics,
        })
    return out


def validate(record, spec: dict) -> list[str]:
    """Every way `record` departs from the schema; empty when it conforms."""
    problems = []

    def need(cond, message):
        if not cond:
            problems.append(message)
        return cond

    if not need(isinstance(record, dict), "not a JSON object"):
        return problems
    need(record.get("schema") == SCHEMA, f"schema is not {SCHEMA}")
    need(isinstance(record.get("seconds"), (int, float)), "no run length 'seconds'")
    for key in ("machine", "parent", "change"):
        need(isinstance(record.get(key), dict), f"no '{key}' object")
    for key in ("nproc", "cpu", "python", "numpy", "platform"):
        need(key in record.get("machine", {}), f"machine lacks '{key}'")
    for side in SIDES:
        sha = record.get(side, {}).get("sha")
        need(isinstance(sha, str) and len(sha) == 40, f"{side} has no full git sha")
    results = record.get("results")
    if not need(isinstance(results, list) and results, "no results"):
        return problems
    names = [m["name"] for m in spec["end_to_end"]]
    for r in results:
        where = f"{r.get('workload')} seed {r.get('seed')}"
        n = r.get("pairs")
        need(type(n) is int and n >= 1, f"{where}: no pair count")
        metrics = r.get("metrics", {})
        need(list(metrics) == names, f"{where}: metrics are not {names}")
        for name, m in metrics.items():
            at = f"{where} {name}"
            for side in SIDES:
                s = m.get(side, {})
                if need(all(isinstance(s.get(k), (int, float)) for k in STATS[:3])
                        and isinstance(s.get("values"), list), f"{at}: {side} lacks statistics"):
                    need(s["q1"] <= s["median"] <= s["q3"], f"{at}: {side} quartiles out of order")
                    need(len(s["values"]) == n, f"{at}: {side} has not one value per pair")
            wins = m.get("wins", {})
            need(set(wins) == set(SIDES) and sum(wins.values()) <= (n or 0),
                 f"{at}: win counts do not fit the pairs")
            for key in ("gain", "regression"):
                need(isinstance(m.get(key), bool), f"{at}: no '{key}' flag")
    seen = [(r.get("workload"), r.get("seed")) for r in results]
    need(len(set(seen)) == len(seen), "a workload and seed appear twice")
    return problems


# -------------------------------------------------------------- running it

def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed tree of `rev` under `dest`; it leaves no worktree to
    clean up when a run is killed."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} failed:\n{proc.stderr}")
    path = root / "perfbench" / "_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def record(spec: dict, parent_rev: str, pairs: int) -> dict:
    """Run the pairs at BENCHMARK.json's run length and aggregate them."""
    seconds = spec["run_seconds"]
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    runs = []
    environment = None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        export(parent_rev, roots["parent"])
        for k in range(pairs):
            for workload in (w["name"] for w in spec["workloads"]):
                for seed in SEEDS:
                    order = SIDES if k % 2 == 0 else SIDES[::-1]
                    pair = {"workload": workload, "seed": seed, "first": order[0]}
                    for side in order:
                        pair[side] = bench(roots[side], workload, seed, seconds)
                        run_s = pair[side]["metrics"]["run_s"]["value"]
                        print(f"pair {k + 1}/{pairs} {workload} seed {seed} {side}: "
                              f"run_s {run_s:.4g} correct {pair[side]['correct']}",
                              file=sys.stderr, flush=True)
                    environment = environment or pair["change"]["environment"]
                    runs.append(pair)
    return {
        "schema": SCHEMA,
        "benchmark": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "seeds": list(SEEDS),
        "machine": {key: environment[key]
                    for key in ("nproc", "cpu", "python", "numpy", "platform")},
        "parent": {"rev": parent_rev, "sha": git("rev-parse", f"{parent_rev}^{{commit}}")},
        "change": {"sha": git("rev-parse", "HEAD"), "uncommitted_changes": dirty},
        "results": aggregate(runs, spec),
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", nargs="+", metavar="RECORD",
                        help="validate these records against the schema; run nothing")
    parser.add_argument("--parent", help="git revision to compare this checkout against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.check:
        bad = 0
        for path in args.check:
            try:
                problems = validate(json.loads(Path(path).read_text(encoding="utf-8")), spec)
            except (OSError, ValueError) as exc:
                problems = [str(exc)]
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
            bad += bool(problems)
        return 1 if bad else 0
    if not args.parent or not args.out or args.pairs < 1:
        parser.error("--parent, --out and a positive --pairs are needed outside --check")
    rec = record(spec, args.parent, args.pairs)
    problems = validate(rec, spec)
    args.out.write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"{args.out}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
