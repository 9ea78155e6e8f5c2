"""In-memory spans recorded around the calls into each confit layer.

The tracer replaces module attributes with timing wrappers at the binding the
caller looks up (``confit.driver.fit`` rather than ``confit.learners.fit``,
because the driver imports the name directly), records one span per call, and
puts every attribute back on ``uninstall``.  Nothing under ``src/`` changes.

Solver calls are named after the route the report names
(``solver.pdhg-ball`` and so on).  ``confit.solver.project`` is wrapped so that
``lipschitz_probe`` calls are seen, but it records nothing while another
solver wrapper is running: ``project_ball_intersection`` calls it internally, and
counting both would double the time.

The loss prox maps run once per solver iteration, millions of times per run,
so they are not kept as spans: their calls and time are summed per name and
the time is charged to the enclosing span as covered child time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

clock = time.monotonic

# (module, attribute, span name); the name "solver" means "named by route".
SPAN_WRAPS = (
    ("confit.cli", "load_config", "config.load"),
    ("confit.cli", "run_experiment", "experiment.run"),
    ("confit.cli", "load_history_file", "experiment.read"),
    ("confit.experiment", "validate_dataset_columns", "config.validate"),
    ("confit.experiment", "prepare_folds", "data.prepare"),
    ("confit.experiment", "load_csv", "data.load"),
    ("confit.experiment", "ordinal_encode", "data.encode"),
    ("confit.experiment", "normalize", "data.normalize"),
    ("confit.experiment", "apply_normalization", "data.normalize"),
    ("confit.experiment", "build_constraints", "constraints.build"),
    ("confit.experiment", "run", "driver.task"),
    ("confit.experiment", "write_history_file", "experiment.write"),
    ("confit.experiment", "summarize_folds", "metrics"),
    ("confit.driver", "run", "driver.task"),
    ("confit.driver", "fit", "learners.fit"),
    ("confit.driver", "predict", "learners.predict"),
    ("confit.driver", "project", "solver"),
    ("confit.driver", "project_ball_intersection", "solver"),
    ("confit.driver", "project_blend", "solver"),
    ("confit.driver", "is_member", "constraints.member"),
    ("confit.driver", "r_squared", "metrics"),
    ("confit.driver", "didi_value", "metrics"),
    ("confit.solver", "project", "solver"),
)

AGGREGATE_WRAPS = (
    ("confit.solver", "prox_unit", "losses.prox"),
    ("confit.solver", "prox_pair", "losses.prox"),
    ("confit.solver", "project_ball", "losses.prox"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0
        self.attrs = None

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "child_s": self.child_s, "attrs": self.attrs}


class Tracer:
    """Records spans in memory; `dump` hands them out once at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.totals: dict[str, list] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._solving = False

    def _open(self, name) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, clock(), self.stack[-1] if self.stack else None))
        self.stack.append(index)
        return index

    def _close(self, index):
        span = self.spans[index]
        span.end = clock()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def record(self, name, start, end):
        """Add a finished root span timed by the caller."""
        span = Span(name, start, None)
        span.end = end
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _span_wrapper(self, fn, name):
        if name != "solver":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(index)
            return wrapper

        @functools.wraps(fn)
        def solver_wrapper(*args, **kwargs):
            if self._solving:
                return fn(*args, **kwargs)
            self._solving = True
            index = self._open("solver.?")
            try:
                report = fn(*args, **kwargs)
                span = self.spans[index]
                span.name = f"solver.{report.method}"
                span.attrs = {"iters": report.iterations, "converged": report.converged}
                return report
            finally:
                self._close(index)
                self._solving = False
        return solver_wrapper

    def _aggregate_wrapper(self, fn, name):
        total = self.totals.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                total[0] += 1
                total[1] += dt
                if stack:
                    spans[stack[-1]].child_s += dt
        return wrapper

    def install(self):
        """Wrap every listed binding; raises if one is missing, so a renamed
        entry point stops the benchmark instead of going unmeasured."""
        for wraps, make in ((SPAN_WRAPS, self._span_wrapper),
                            (AGGREGATE_WRAPS, self._aggregate_wrapper)):
            for module_name, attr, name in wraps:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(original, name))

    def uninstall(self) -> bool:
        """Put every original back; True when each binding is the original again."""
        saved, self._saved = self._saved, []
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        return all(getattr(module, attr) is original for module, attr, original in saved)

    def dump(self) -> dict:
        return {"spans": [s.as_dict() for s in self.spans],
                "totals": {k: {"calls": v[0], "s": v[1]} for k, v in self.totals.items()}}


class NullTracer:
    """Tracing off: spans the benchmark opens itself cost a no-op context."""

    def span(self, name):
        return contextlib.nullcontext()
