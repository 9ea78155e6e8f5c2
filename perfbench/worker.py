"""One timed confit execution, run as its own process by ``run.py``.

    python3 perfbench/worker.py --trace 0|1 --report PATH cli ARGS...
    python3 perfbench/worker.py --trace 0|1 --report PATH polytope --seed N --out DIR [--smoke]

``cli`` runs ``confit.cli.main(ARGS)``, exactly what the ``confit`` command
does; ``polytope`` runs the synthetic polytope workload of ``polytope.py``.
confit is imported from this checkout's ``src/`` and nowhere else.

With ``--trace 1`` the layer wrappers of ``tracer.py`` are installed after the
import and removed before exit.  With ``--trace 0`` only one wrapper is used:
a one-shot hook that notes when the driver first calls the learner (the end of
set-up) and puts the original back on that first call.

With ``--trace 0`` a speed probe (``SpeedProbe``) also runs from the start
of ``main`` to exit: every 20 ms of wall time a timer signal runs a fixed
slice of work and notes how long it took.  The cores of a shared host change
speed from second to second (another tenant's load on the same core), and
the probe samples that speed while the program runs; ``run.py`` scales the
wall time by it.

The report, written once at exit, holds the exit code, the monotonic time of
the first learner fit (comparable with the parent's clock), the probe samples
and, when traced, every span.
"""

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROBE_INTERVAL_S = 0.02


class SpeedProbe:
    """Times a fixed slice of work on every SIGALRM of a 20 ms interval timer.

    The slice mixes what confit spends its time on: a pure-Python loop,
    ``json.dumps`` of small records (the history writer's core) and small
    numpy vector operations (the solver's).  Of several probes tried, this
    mix tracked the host's slow phases best on all three workloads: the
    wall time of repeated identical executions moved with it at a slope of
    1.0-1.25, and scaling by it cut their spread by 3-5x.

    The handler runs between bytecodes of the main thread, so a long numpy
    call delays a sample rather than being cut; interrupted system calls are
    retried by Python.  Samples are (monotonic start, duration) pairs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _work(self):
        s = 0
        for i in range(1000):
            s += i * i
        json.dumps(self._records)
        for _ in range(5):
            z = self._np.clip(self._x - 0.3, 0.0, 1.0)
            float((self._a @ z).max())

    def _sample(self, signum, frame):
        t = time.monotonic()
        self._work()
        self.samples.append((t, time.monotonic() - t))

    def start(self):
        import numpy as np
        self._np = np
        self._x = np.linspace(0.0, 1.0, 400)
        self._a = np.cos(np.arange(8000.0)).reshape(20, 400)
        self._records = [{"step": i, "z": [0.5 * i, i + 1.5]} for i in range(100)]
        for _ in range(3):  # first calls pay one-time costs; keep them out of the samples
            self._work()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("args", nargs=argparse.REMAINDER)
    p_poly = sub.add_parser("polytope")
    p_poly.add_argument("--seed", type=int, required=True)
    p_poly.add_argument("--out", required=True)
    p_poly.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def _hook_first_fit(driver, marks):
    original = driver.fit

    def first_fit(*args, **kwargs):
        marks["first_fit"] = time.monotonic()
        driver.fit = original
        return original(*args, **kwargs)

    driver.fit = first_fit
    return original


def main(argv=None) -> int:
    args = _parse(argv)
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    try:
        return _main(args, probe)
    finally:
        probe.stop()


def _main(args, probe: SpeedProbe) -> int:
    src = ROOT / "src"
    if not (src / "confit" / "__init__.py").is_file():
        print(f"worker: no confit package under {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(src))
    t_import = time.monotonic()
    import confit.cli
    import confit.driver
    t_imported = time.monotonic()
    if not Path(confit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"worker: imported confit from {confit.__file__}, not {src}", file=sys.stderr)
        return 3

    from tracer import NullTracer, Tracer
    marks = {}
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.record("cli.import", t_import, t_imported)
        tracer.install()
    else:
        original_fit = _hook_first_fit(confit.driver, marks)
    try:
        if args.mode == "cli":
            rc = confit.cli.main(args.args)
        else:
            import polytope
            polytope.run_workload(args.seed, Path(args.out), tracer, smoke=args.smoke)
            rc = 0
    finally:
        if args.trace:
            restored = tracer.uninstall()
        else:
            confit.driver.fit = original_fit
            restored = True
    probe.stop()
    report = {"rc": rc, "t_first_fit": marks.get("first_fit"), "restored": restored,
              "probe": probe.samples}
    if args.trace:
        report.update(tracer.dump())
        fits = [s["start"] for s in report["spans"] if s["name"] == "learners.fit"]
        report["t_first_fit"] = min(fits) if fits else None
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return rc if restored else 4


if __name__ == "__main__":
    sys.exit(main())
