"""Benchmark of the confit fit-adjust loop, end to end and per layer.

    python3 perfbench/run.py --workload school-ridge --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny sizes

Each execution of a workload is its own process (``worker.py``), timed from
spawn to exit, followed by the read-back a user would do: ``confit plotdata``
on every history file and one ``confit compare``.  Executions repeat until
``--seconds`` of them have been measured (at least three), and every figure
is the median over the executions.

The times are in reference seconds.  The cores of a shared host run the same
code up to about 1.5 times slower for seconds or minutes at a time, which
moved whole runs by a quarter; so each untraced process carries the speed
probe of ``worker.py``, and its wall time, less the probe's own time, is
multiplied by the mean over its samples of ``PROBE_REF_S / sample``: the
time the execution would take on a core that runs the probe slice in
``PROBE_REF_S``.  The raw wall times are kept in the results file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced executions and reports the per-layer metrics of the
traced ones, the tracing overhead (traced minus untraced wall time) and the
part of the traced wall time that no span covers.

Every execution is checked: exit code 0, artifacts byte-identical to the
first execution's (traced ones included), and, on the first, every adjusted
target a member of its constraint set at the driver's tolerance 1e-6.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (adjustment solves) and ``metrics``; a fuller
results file, with the machine, the versions, the git revision and the route
and branch counts, goes to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

DEFAULT_SEED = 7
HELDOUT_SEED = 1009
MIN_EXECUTIONS = 3
MEMBER_TOL = 1e-6
DEADLINE_S = 150.0  # no execution starts later than this; runs must end within 180 s
KILL_S = 170.0
PROBE_REF_S = 400e-6  # probe slice time that defines the reference second (worker.py)
ROUTES = ("dykstra", "dykstra-ball", "pdhg", "pdhg-ball", "pdhg-blend")

COMPARE = {
    "school-gbt": ("history_affine_extension_mse_a0.5.jsonl",) * 2,
    "school-ridge": ("history_affine_extension_mse_a0.5.jsonl",
                     "history_moving_targets_mse_a0.5.jsonl"),
    "polytope": ("history_affine_extension_mse_a0.5.jsonl",
                 "history_moving_targets_mse_a0.5.jsonl"),
}
WORKLOADS = tuple(COMPARE)
SMOKE_RUN = {"alphas": [0.5], "folds": 2, "iterations": 3, "algorithms": ["affine_extension"]}

T_START = time.monotonic()


# ----------------------------------------------------------------- processes

@dataclasses.dataclass
class Execution:
    rc: int
    wall_s: float
    rss_mb: float
    t_spawn: float
    report: dict | None


def _spawn(worker_args: list[str], report: Path, trace: int, log: Path) -> Execution:
    """Run worker.py once; wall time from spawn to exit, peak RSS of that child."""
    cmd = [sys.executable, "-E", "-s", str(HERE / "worker.py"), "--trace", str(trace),
           "--report", str(report), *worker_args]
    report.unlink(missing_ok=True)
    with open(log, "ab") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(KILL_S - (t_spawn - T_START), 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(report.read_text(encoding="utf-8")) if report.exists() else None
    return Execution(proc.returncode, wall, usage.ru_maxrss / 1024.0, t_spawn, data)


class Workload:
    """One workload at one seed: how to run it, read it back and check it."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        self.name, self.seed, self.smoke, self.work = name, seed, smoke, work
        self.out = work / "out"
        self.log = work / "stderr.log"
        if name == "polytope":
            import polytope
            self.files = polytope.history_files()
            self.planned = polytope.planned_solves(smoke)
            self.config = None
        else:
            self.config = HERE / "configs" / f"{name}.yaml"
            if smoke:
                self.config = self._smoke_config()
            from confit.experiment import history_filename
            run = self._load_config().run
            self.files = [history_filename(algorithm, run.loss.kind, alpha)
                          for algorithm in run.algorithms for alpha in run.alphas]
            self.planned = len(self.files) * run.folds * (run.iterations - 1)

    def _smoke_config(self) -> Path:
        import yaml
        doc = yaml.safe_load(self.config.read_text(encoding="utf-8"))
        doc["dataset"]["path"] = str(ROOT / "data" / "school.csv")
        doc["run"].update(SMOKE_RUN)
        path = self.work / f"{self.name}-smoke.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        return path

    def _load_config(self):
        from confit.config import load_config
        cfg = load_config(self.config)
        return dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, seed=self.seed))

    def execute(self, trace: int) -> Execution:
        shutil.rmtree(self.out, ignore_errors=True)
        if self.config is None:
            args = ["polytope", "--seed", str(self.seed), "--out", str(self.out)]
            args += ["--smoke"] if self.smoke else []
        else:
            args = ["cli", "run", "--config", str(self.config), "--out", str(self.out),
                    "--jobs", "1", "--seed", str(self.seed)]
        return _spawn(args, self.work / "report.json", trace, self.log)

    def read_back(self, trace: int) -> list[Execution]:
        runs = [_spawn(["cli", "plotdata", str(self.out / f)],
                       self.work / f"read{i}.json", trace, self.log)
                for i, f in enumerate(self.files)]
        a, b = (self.files[0],) * 2 if self.smoke else COMPARE[self.name]
        runs.append(_spawn(["cli", "compare", str(self.out / a), str(self.out / b)],
                           self.work / "compare.json", trace, self.log))
        return runs

    def digest(self) -> dict[str, str]:
        if not self.out.is_dir():
            return {}
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.out.iterdir())}

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir()) if self.out.is_dir() else 0

    def constraint_sets(self):
        if self.config is None:
            import polytope
            return [cs for _, cs, _ in polytope.make_instances(self.seed, self.smoke)]
        from confit.experiment import build_constraints, prepare_folds
        cfg = self._load_config()
        return [build_constraints(cfg, fold.train) for fold in prepare_folds(cfg)]

    def check(self) -> dict:
        """Membership of every adjusted target, and route/branch counts."""
        from confit.constraints import is_member
        from confit.experiment import load_history_file
        sets = self.constraint_sets()
        routes, branches = Counter(), Counter()
        steps = failed = outside = 0
        for name in self.files:
            _, histories = load_history_file(self.out / name)
            for cs, history in zip(sets, histories, strict=True):
                for record in history.records:
                    steps += 1
                    routes[record.solver_method] += 1
                    branches[record.branch] += 1
                    failed += (not record.solver_converged) or record.fallback
                    outside += not is_member(cs, record.z, MEMBER_TOL)
        return {"steps": steps, "failed_solves": failed, "targets_outside": outside,
                "routes": dict(sorted(routes.items())),
                "branches": dict(sorted(branches.items()))}


# ------------------------------------------------------------------- metrics

def probe_s(ex: Execution) -> float:
    """Time the speed probe itself took in an untraced execution."""
    return sum(d for _, d in (ex.report or {}).get("probe", ()))


def scaled_s(ex: Execution, end: float | None = None) -> float:
    """Reference seconds from spawn to `end` (default: exit): the wall time
    less the probe's own time, times the mean of PROBE_REF_S / sample over
    the probe samples taken in that span.  Without samples (a failed
    execution, which makes the run not correct) it is the plain wall time."""
    end = ex.t_spawn + ex.wall_s if end is None else end
    samples = [d for t, d in (ex.report or {}).get("probe", ()) if t < end]
    if not samples:
        return end - ex.t_spawn
    speed = statistics.fmean(PROBE_REF_S / d for d in samples)
    return (end - ex.t_spawn - sum(samples)) * speed


def _median(values):
    return statistics.median(values) if values else 0.0


def _durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def layer_metrics(ex: Execution, reads: list[Execution], history_bytes: int) -> dict:
    """Per-layer figures of one traced execution (its spans and its read-back)."""
    spans, totals = ex.report["spans"], ex.report["totals"]

    def total(name):
        return sum(_durations(spans, name))

    def self_time(name):
        return sum(s["end"] - s["start"] - s["child_s"] for s in spans if s["name"] == name)

    fits = _durations(spans, "learners.fit")
    tasks = _durations(spans, "driver.task")
    prox = totals.get("losses.prox", {"calls": 0, "s": 0.0})
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m = {
        "cli.import_s": total("cli.import"),
        "config.load_s": total("config.load") + total("config.validate"),
        "data.load_s": total("data.load"),
        "data.encode_s": total("data.encode"),
        "data.normalize_s": total("data.normalize"),
        "data.split_s": self_time("data.prepare"),
        "constraints.build_s": total("constraints.build"),
        "constraints.member_calls": len(_durations(spans, "constraints.member")),
        "constraints.member_s": total("constraints.member"),
        "learners.fit_calls": len(fits),
        "learners.fit_s": sum(fits),
        "learners.fit_s_p50": _median(fits),
        "learners.predict_s": total("learners.predict"),
    }
    for route in ROUTES:
        solves = [s for s in spans if s["name"] == f"solver.{route}"]
        seconds = sum(s["end"] - s["start"] for s in solves)
        iters = [s["attrs"]["iters"] for s in solves]
        m[f"solver.{route}.calls"] = len(solves)
        m[f"solver.{route}.s"] = seconds
        m[f"solver.{route}.iters_total"] = sum(iters)
        m[f"solver.{route}.iters_max"] = max(iters, default=0)
        m[f"solver.{route}.us_per_iter"] = 1e6 * seconds / sum(iters) if sum(iters) else 0.0
        m[f"solver.{route}.nonconverged"] = sum(not s["attrs"]["converged"] for s in solves)
    m["solver.already-feasible.calls"] = len(_durations(spans, "solver.already-feasible"))
    m["solver.degenerate-ball.calls"] = len(_durations(spans, "solver.degenerate-ball"))
    m["solver.probe_s"] = total("solver.probe")
    m["losses.prox_calls"] = prox["calls"]
    m["losses.prox_s"] = prox["s"]
    m["driver.task_s_p50"] = _median(tasks)
    m["driver.task_s_max"] = max(tasks, default=0.0)
    m["driver.self_s"] = self_time("driver.task")
    m["metrics.calls"] = len(_durations(spans, "metrics"))
    m["metrics.s"] = total("metrics")
    m["experiment.write_s"] = total("experiment.write")
    m["experiment.read_s"] = sum(sum(_durations(r.report["spans"], "experiment.read"))
                                 for r in reads)
    m["experiment.self_s"] = self_time("experiment.run")
    m["experiment.history_bytes"] = history_bytes
    m["trace.uncovered_s"] = ex.wall_s - roots
    return m


def breakdown(ex: Execution) -> list[tuple[str, float]]:
    """Self time per span name, the prox aggregate and the uncovered rest;
    the parts add up to the execution's wall time."""
    parts = Counter()
    for s in ex.report["spans"]:
        parts[s["name"]] += s["end"] - s["start"] - s["child_s"]
    for name, agg in ex.report["totals"].items():
        parts[name] += agg["s"]
    roots = sum(s["end"] - s["start"] for s in ex.report["spans"] if s["parent"] is None)
    parts["(no span: interpreter start-up, exit, glue)"] = ex.wall_s - roots
    return sorted(parts.items(), key=lambda kv: -kv[1])


# ------------------------------------------------------------------- the run

def environment() -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "git_sha": git_sha()}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(wl: Workload, seconds: float, trace: int, min_runs: int) -> dict:
    """Repeat executions (alternating untraced/traced when tracing) until
    `seconds` are measured; check each one."""
    runs = []
    reference = None
    problems = []
    measured = 0.0
    cycle = 0.0
    while True:
        modes = [r["trace"] for r in runs]
        enough = (len(runs) >= min_runs and measured + cycle / 2 >= seconds
                  and (not trace or 1 in modes))
        elapsed = time.monotonic() - T_START
        if enough or (runs and elapsed + cycle > DEADLINE_S):
            break
        mode = trace and len(runs) % 2
        ex = wl.execute(mode)
        digest = wl.digest()
        artifact_bytes = wl.artifact_bytes()
        reads = wl.read_back(mode)
        run = {"trace": mode, "ex": ex, "reads": reads, "artifact_bytes": artifact_bytes,
               "read_wall_s": sum(r.wall_s for r in reads)}
        if reference is None:
            reference = digest
            try:
                run["check"] = wl.check() if ex.rc == 0 else None
            except Exception as exc:  # a broken output is a failed check, not a crash
                problems.append(f"output check raised {exc!r}")
                run["check"] = None
        ok = ex.rc == 0 and ex.report is not None and ex.report["restored"]
        ok = ok and all(r.rc == 0 for r in reads) and digest == reference and bool(digest)
        # an untraced process too short for one probe sample cannot be scaled
        ok = ok and (mode or all(e.report and e.report["probe"] for e in (ex, *reads)))
        if ex.report is not None and ex.report.get("t_first_fit") is None:
            ok = False
            problems.append("no learner fit seen")
        if not ok:
            stderr = wl.log.read_text(errors="replace").strip().splitlines()[-3:]
            problems.append(f"execution {len(runs)} (trace {mode}) failed: rc {ex.rc}, "
                            f"reads {[r.rc for r in reads]}, same bytes {digest == reference}, "
                            f"stderr {stderr}")
        run["ok"] = ok
        if ok:
            run["history_bytes"] = sum((wl.out / f).stat().st_size for f in wl.files)
        runs.append(run)
        cycle = ex.wall_s + run["read_wall_s"]
        measured += cycle
    first = runs[0].get("check")
    if first is None:
        problems.append("first execution failed; outputs not checked")
    else:
        if first["targets_outside"]:
            problems.append(f"{first['targets_outside']} adjusted targets outside the set")
        if first["steps"] != wl.planned:
            problems.append(f"{first['steps']} adjustment steps, {wl.planned} planned")
    return {"runs": runs, "check": first, "problems": problems}


def summarize(wl: Workload, result: dict, trace: int) -> tuple[dict, int, int]:
    runs, check = result["runs"], result["check"]
    failed_per_ok = check["failed_solves"] if check else wl.planned
    attempted = wl.planned * len(runs)
    failed = sum(failed_per_ok if r["ok"] else wl.planned for r in runs)
    plain = [r for r in runs if not r["trace"] and r["ok"]] or [r for r in runs if not r["trace"]]
    if not trace:
        ex = [r["ex"] for r in plain]
        metrics = {
            "run_s": ("s", _median([scaled_s(e) for e in ex])),
            "setup_s": ("s", _median([scaled_s(e, e.report["t_first_fit"]) for e in ex
                                      if e.report and e.report.get("t_first_fit")])),
            "read_s": ("s", _median([sum(scaled_s(e) for e in r["reads"]) for r in plain])),
            "peak_rss_mb": ("MB", _median([e.rss_mb for e in ex])),
            "artifact_bytes": ("bytes", _median([r["artifact_bytes"] for r in plain])),
            "solve_ok_frac": ("fraction", 1.0 - failed / attempted),
        }
        return metrics, attempted, failed
    traced = [r for r in runs if r["trace"] and r["ok"]]
    per_run = [layer_metrics(r["ex"], r["reads"], r["history_bytes"]) for r in traced]
    # median_low picks one execution's figure, so counts stay whole numbers
    metrics = {name: statistics.median_low([p[name] for p in per_run])
               for name in (per_run[0] if per_run else {})}
    metrics["trace.overhead_s"] = (_median([r["ex"].wall_s for r in traced])
                                   - _median([r["ex"].wall_s - probe_s(r["ex"]) for r in plain]))
    counts = check or {"steps": 0, "branches": {}}
    metrics["driver.steps"] = counts["steps"]
    metrics["driver.branch.feasible"] = counts["branches"].get("feasible", 0)
    metrics["driver.branch.infeasible"] = counts["branches"].get("infeasible", 0)
    return {name: (_unit(name), value) for name, value in metrics.items()}, attempted, failed


def _unit(name: str) -> str:
    if name.endswith("us_per_iter"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_s") or name.endswith(".s") or "_s_" in name:
        return "s"
    return "count"


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one execution; without --workload, all workloads")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required outside --smoke")
    return args


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(name, seed, smoke, work)
    result = measure(wl, 0.0 if smoke else seconds, trace, 1 if smoke else MIN_EXECUTIONS)
    metrics, attempted, failed = summarize(wl, result, trace)
    correct = not result["problems"] and all(r["ok"] for r in result["runs"])
    traced = [r for r in result["runs"] if r["trace"] and r["ok"]]
    out = {
        "workload": name, "seed": seed, "trace": trace, "smoke": smoke, "seconds": seconds,
        "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        "environment": environment(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": result["problems"], "check": result["check"],
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
        "samples": [_sample(r) for r in result["runs"]],
        "breakdown": breakdown(traced[0]["ex"]) if traced else None,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(out, indent=1), encoding="utf-8")
    shutil.rmtree(wl.out, ignore_errors=True)
    return out


def _sample(run: dict) -> dict:
    """One execution's raw wall times and, when untraced and ok, its reference
    seconds and mean probe speed."""
    ex = run["ex"]
    first_fit = ex.report.get("t_first_fit") if ex.report else None
    out = {"trace": run["trace"], "ok": run["ok"], "wall_s": ex.wall_s,
           "read_wall_s": run["read_wall_s"], "peak_rss_mb": ex.rss_mb,
           "setup_wall_s": first_fit - ex.t_spawn if first_fit else None}
    if run["ok"] and not run["trace"]:
        out.update(run_s=scaled_s(ex), read_s=sum(scaled_s(e) for e in run["reads"]),
                   speed=scaled_s(ex) / (ex.wall_s - probe_s(ex)))
    return out


def report(out: dict):
    print(f"# {out['workload']} seed {out['seed']} trace {out['trace']}: "
          f"{len(out['samples'])} executions, correct {out['correct']}, "
          f"solves {out['attempted']} attempted / {out['failed']} failed")
    for problem in out["problems"]:
        print(f"#   problem: {problem}")
    if out["check"]:
        print(f"#   routes {out['check']['routes']}  branches {out['check']['branches']}")
    for name, m in out["metrics"].items():
        print(f"#   {name:34s} {m['value']:.6g} {m['unit']}")
    if out["breakdown"]:
        wall = sum(v for _, v in out["breakdown"])
        print(f"#   traced wall time {wall:.3f} s, self time by span:")
        for name, value in out["breakdown"]:
            print(f"#     {name:44s} {value:9.4f} s {100 * value / wall:5.1f}%")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so a killed run also stops its child
    args = parse(argv)
    src = ROOT / "src"
    missing = [p for p in (src / "confit" / "__init__.py", ROOT / "data" / "school.csv")
               if not p.is_file()]
    if missing:
        print(f"run.py: missing {', '.join(map(str, missing))}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    subprocess.run([sys.executable, "-E", "-s", "-m", "compileall", "-q", str(src), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)
    names = [args.workload] if args.workload else list(WORKLOADS)
    outs = [run_one(name, args.seed, args.seconds, args.trace, args.smoke) for name in names]
    for out in outs:
        report(out)
    last = outs[-1] if len(outs) == 1 else {
        "correct": all(o["correct"] for o in outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "metrics": {f"{o['workload']}/{k}": v for o in outs for k, v in o["metrics"].items()}}
    print(json.dumps({"correct": last["correct"], "attempted": last["attempted"],
                      "failed": last["failed"], "metrics": last["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
