"""The iteration driver: initial training, the feasible/infeasible target
adjustment branch, retraining, and per-iteration diagnostics.

Two algorithms share the loop and differ only in its infeasible branch:

* affine extension: when the current prediction violates the constraints, the
  blend (1-alpha)*y + alpha*yhat is projected onto the feasible set;
* moving targets: the infeasible adjustment instead minimizes
  loss(z, y) + (1/alpha_m) * loss(z, yhat) over the set.

When the prediction already satisfies the constraints, both move the target
toward y inside a loss-ball of radius beta around the prediction.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Iterable, Iterator, get_type_hints

import numpy as np

from .constraints import (DEFAULT_MEMBER_TOL, ConstraintSet, didi_given, didi_groups,
                          didi_value, is_member)
from .data import Dataset
from .errors import DataError
from .learners import LearnerSpec, fit, predict
from .losses import LossSpec, loss_norm
from .metrics import r_squared, r_squared_given, total_sum_of_squares
# r_squared and didi_value stay bound here for the wrappers of perfbench/tracer.py;
# a run's gauges take their parts through _Metrics
from .solver import (DEFAULT_OPTIONS, ProjectionProblem, SolverOptions,
                     SolverReport, project, project_ball_intersection,
                     project_blend)

ALGORITHMS = ("affine_extension", "moving_targets")

log = logging.getLogger("confit")


def check_run(alphas, beta: float, iterations: int, algorithms) -> None:
    """The range checks of a run, shared by `RunConfig` (one alpha, one
    algorithm) and the config's run block. Each message starts with the run
    block's field it rejects."""
    if not alphas:
        raise ValueError("alphas: expected a nonempty list of numbers")
    for i, a in enumerate(alphas):
        if not 0 <= a < 1:
            raise ValueError(f"alphas[{i}]: expected a number in [0, 1), got {a!r}")
        if a == 0 and "moving_targets" in algorithms:
            raise ValueError(f"alphas[{i}]: moving_targets needs alpha in (0, 1), got {a!r}")
    if not beta >= 0:
        raise ValueError(f"beta: must be nonnegative, got {beta}")
    if iterations < 1:
        raise ValueError(f"iterations: must be at least 1, got {iterations}")
    if not algorithms or not set(algorithms) <= set(ALGORITHMS):
        raise ValueError(f"algorithms: expected a nonempty list from {ALGORITHMS}, "
                         f"got {list(algorithms)}")
    # one task set and one history file per alpha and algorithm: no repeats
    for name, values in (("alphas", alphas), ("algorithms", algorithms)):
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"{name}[{i}]: {v!r} repeats {name}[{values.index(v)}]")


@dataclass(frozen=True)
class RunConfig:
    alpha: float
    constraints: ConstraintSet
    beta: float = 0.1
    iterations: int = 30
    loss: LossSpec = LossSpec("mse")
    learner: LearnerSpec = LearnerSpec("ridge")
    algorithm: str = "affine_extension"
    early_stop: bool = False
    stop_tol: float = 1e-8
    solver: SolverOptions = DEFAULT_OPTIONS
    seed: int = 0

    def __post_init__(self):
        check_run((self.alpha,), self.beta, self.iterations, (self.algorithm,))


@dataclass(frozen=True)
class ContractionVerdict:
    verdict: str  # "guaranteed" | "not-guaranteed"
    alpha_bound: float | None
    lipschitz_constant: float | None
    note: str


def check_contraction_condition(loss: LossSpec, alpha: float) -> ContractionVerdict:
    """Whether the iteration is a certified contraction at this alpha: the
    squared loss contracts for alpha < 1, the absolute loss for alpha < 1/4,
    and no constant is established for the Huber loss."""
    if loss.kind == "mse":
        ok = alpha < 1.0
        return ContractionVerdict("guaranteed" if ok else "not-guaranteed", 1.0, 1.0,
                                  "Euclidean projections onto convex sets are nonexpansive")
    if loss.kind == "mae":
        ok = alpha < 0.25
        return ContractionVerdict("guaranteed" if ok else "not-guaranteed", 0.25, 2.0,
                                  "L1 projections onto convex sets are 2-Lipschitz")
    return ContractionVerdict("not-guaranteed", None, None,
                              "no Lipschitz constant is established for the huber projection")


def run_verdict(learner: LearnerSpec, loss: LossSpec, alpha: float) -> ContractionVerdict:
    """The verdict a run records. The contraction result of the source paper
    (arXiv:2201.06529) composes the constraint-enforcement step, whose
    Lipschitz constant `check_contraction_condition` certifies, with a learning
    step it assumes nonexpansive. Ridge is, at any ridge_lambda >= 0: its fit
    maps the target through a symmetric hat matrix with eigenvalues in [0, 1].
    Boosted trees are not known to be, so a gbt run is not guaranteed."""
    verdict = check_contraction_condition(loss, alpha)
    if learner.kind == "ridge":
        return verdict
    return replace(verdict, verdict="not-guaranteed",
                   note=f"the {learner.kind} learner is not known to be nonexpansive")


def alpha_convert(alpha_a: float) -> float:
    """Map the blend parameter to the equivalent combined-objective weight via
    alpha_a * (alpha_m + 1) = 1.

    The input is interpreted at its printed decimal precision so that table
    values convert exactly (0.1 -> 9, 0.5 -> 1, 0.9 -> 1/9).
    """
    from fractions import Fraction  # here, not at the top: only moving targets needs it

    if not 0 < alpha_a <= 1:
        raise ValueError(f"alpha_a must be in (0, 1], got {alpha_a}")
    return float(1 / Fraction(str(alpha_a)) - 1)


@dataclass
class InitialRecord:
    r2_train: float
    r2_test: float
    c_train: float
    c_test: float
    yhat: np.ndarray


@dataclass
class IterationRecord:
    i: int
    branch: str
    z: np.ndarray
    yhat: np.ndarray
    yhat_next: np.ndarray
    r2_train: float
    r2_test: float
    c_train: float
    c_test: float
    residual: float
    contraction: float
    solver_method: str
    solver_iterations: int
    solver_converged: bool
    solver_primal: float
    solver_dual: float
    fallback: bool = False


@dataclass
class IterationHistory:
    algorithm: str
    alpha: float
    beta: float
    iterations: int
    loss: LossSpec
    learner: LearnerSpec
    seed: int
    norm: str
    verdict: ContractionVerdict
    initial: InitialRecord
    records: list[IterationRecord] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def branch_counts(self) -> dict[str, int]:
        counts = {"infeasible": 0, "feasible": 0}
        for r in self.records:
            counts[r.branch] += 1
        return counts

    def series(self, name: str) -> np.ndarray:
        """Per-iteration curve; metric series include the initial prediction
        at index 0, the residual series covers adjustment steps only."""
        if name == "residual":
            return np.array([r.residual for r in self.records])
        if name == "contraction":
            return np.array([r.contraction for r in self.records])
        first = getattr(self.initial, name)
        return np.array([first] + [getattr(r, name) for r in self.records])

    def to_records(self) -> list[dict]:
        """The history as records: one meta record, one initial record,
        then one record per adjustment step, all without their prediction
        vectors, which `vectors` yields."""
        meta = {"type": "meta", **encode_fields(self, exclude=("initial", "records")),
                "branch_counts": self.branch_counts}
        return [meta, {"type": "initial", "i": 0, **encode_fields(self.initial, exclude=("yhat",))},
                *({"type": "iteration", **encode_fields(r, exclude=("z", "yhat", "yhat_next"))}
                  for r in self.records)]

    def vectors(self) -> Iterator[np.ndarray]:
        """The prediction vectors left out of `to_records`, in file order: the
        initial `yhat`, then each step's `z` and `yhat_next`. A step's `yhat`
        is not among them: it is the previous step's `yhat_next`."""
        yield self.initial.yhat
        for r in self.records:
            yield r.z
            yield r.yhat_next

    def set_vectors(self, vectors: Iterable[np.ndarray]) -> None:
        """Inverse of `vectors`. A step's `yhat` is the previous step's
        `yhat_next` array itself, not a copy."""
        take = iter(vectors)
        previous = self.initial.yhat = next(take)
        for r in self.records:
            r.yhat, r.z, r.yhat_next = previous, next(take), next(take)
            previous = r.yhat_next

    @classmethod
    def from_records(cls, records: list[dict],
                     vectors: Iterable[np.ndarray] | None = None) -> "IterationHistory":
        """Inverse of `to_records`; malformed records raise DataError. The
        arrays come from `vectors` through `set_vectors`, or are None."""
        if len(records) < 2 or records[0].get("type") != "meta" \
                or records[1].get("type") != "initial":
            raise DataError("history stream must start with a meta record "
                            "and then an initial record")
        initial = decode_fields(InitialRecord, records[1], yhat=None)
        steps = []
        for rec in records[2:]:
            if rec.get("type") != "iteration":
                raise DataError(f"unexpected record type {rec.get('type')!r}")
            steps.append(decode_fields(IterationRecord, rec, yhat=None, z=None, yhat_next=None))
        history = decode_fields(cls, records[0], initial=initial, records=steps)
        if vectors is not None:
            history.set_vectors(vectors)
        return history


def encode_fields(obj, exclude=()) -> dict:
    """A dataclass as a JSON-ready dict: its fields in declaration order, arrays
    as lists, NaN as None, tuples as lists and nested dataclasses as dicts.
    `exclude` is a tuple of field names."""
    return {name: _encode(getattr(obj, name)) for name in _encoding_plan(type(obj), exclude)}


@functools.cache
def _encoding_plan(cls, exclude: tuple) -> tuple:
    return tuple(f.name for f in fields(cls) if f.name not in exclude)


def _encode(value):
    if isinstance(value, float):
        return None if value != value else value
    if isinstance(value, (int, str)):  # bool is an int
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if is_dataclass(value):
        return encode_fields(value)
    return value


def decode_fields(cls, data, **given):
    """Inverse of `encode_fields`: each field of `cls` is read from `data` and
    converted by its declared type, except those passed in `given`. A None in
    a float field becomes NaN; a missing field or a value of the wrong type
    raises DataError. Keys of `data` that are not fields are ignored."""
    values = dict(given)
    for name, convert in _decoding_plan(cls):
        if name in values:
            continue
        if name not in data:
            raise DataError(f"{cls.__name__}: missing field {name!r}")
        try:
            values[name] = convert(data[name])
        except (TypeError, ValueError) as exc:
            raise DataError(f"{cls.__name__}.{name}: {exc}") from None
    return cls(**values)


@functools.cache
def _decoding_plan(cls) -> tuple:
    hints = get_type_hints(cls)
    return tuple((f.name, _converter(hints[f.name])) for f in fields(cls))


def _converter(hint):
    if hint is np.ndarray:
        return lambda v: np.array(_checked(v, list), dtype=float)
    if is_dataclass(hint):
        return lambda v: decode_fields(hint, v)
    if hint is float:
        return lambda v: float("nan") if v is None else _checked(v, (int, float))
    if hint in (int, bool, str):
        return lambda v: _checked(v, hint)
    return lambda v: v


def _checked(value, kind):
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"unexpected value of type {type(value).__name__}")
    return value


def _safe_ss_tot(y) -> float:
    """The total sum of squares of the target y, or NaN where `r_squared`
    raises (a one-point or constant target), so every R^2 against y reads
    NaN."""
    try:
        return total_sum_of_squares(y)
    except ValueError:
        return float("nan")


class _Metrics:
    """The gauges of one run, as `r_squared` and `didi_value` compute them.
    What the targets and groups alone fix is computed once: each target's
    total sum of squares, the checked groups and the training target's DIDI.
    `of` computes the rest for each pair of predictions."""

    def __init__(self, train: Dataset, test: Dataset):
        self.y_train, self.y_test = train.y, test.y
        self.ss_train, self.ss_test = _safe_ss_tot(train.y), _safe_ss_tot(test.y)
        self.train_groups = didi_groups(train.protected, train.n)
        self.train_didi = didi_given(train.y, self.train_groups)
        self.test_groups = didi_groups(test.protected, test.n) \
            if test.protected and self.train_didi > 0 else None

    def ratios(self, yhat_train, yhat_test) -> tuple[float, float]:
        if not self.train_didi > 0:
            return float("nan"), float("nan")
        c_train = didi_given(yhat_train, self.train_groups) / self.train_didi
        c_test = (didi_given(yhat_test, self.test_groups) / self.train_didi
                  if self.test_groups is not None else float("nan"))
        return c_train, c_test

    def of(self, yhat_train, yhat_test) -> dict[str, float]:
        """A record's R^2 and DIDI-ratio fields for these predictions."""
        c_train, c_test = self.ratios(yhat_train, yhat_test)
        return {"r2_train": r_squared_given(self.y_train, self.ss_train, yhat_train),
                "r2_test": r_squared_given(self.y_test, self.ss_test, yhat_test),
                "c_train": c_train, "c_test": c_test}


def run(config: RunConfig, train: Dataset, test: Dataset) -> IterationHistory:
    """One run of the loop. On the infeasible branch the affine extension
    projects the blend (1-alpha)*y + alpha*yhat, and moving targets minimizes
    loss(z, y) + (1/alpha_m) * loss(z, yhat) with alpha_m = alpha_convert(alpha)."""
    cs = config.constraints
    if cs.n != train.n:
        raise ValueError(f"constraint set is over {cs.n} outputs but train has {train.n} rows")
    blended = config.algorithm == "affine_extension"
    weight = None if blended else 1.0 / alpha_convert(config.alpha)
    loss = config.loss

    # each prediction is held once: a step's `yhat` is the previous step's
    # `yhat_next` (the initial `yhat` for step 1), and its `z` is the solver's
    # solution, a fresh array; nothing writes into them
    reuse = {}  # what the refits of train.x share, such as the ridge factor
    model = fit(config.learner, train.x, train.y, loss, reuse)
    gauges = _Metrics(train, test)  # after the first fit, which ends a run's set-up
    yhat = model.train_prediction
    yhat_test = predict(model, test.x)
    history = IterationHistory(
        algorithm=config.algorithm, alpha=config.alpha, beta=config.beta,
        iterations=config.iterations, loss=loss, learner=config.learner,
        seed=config.seed, norm="l1" if loss.kind == "mae" else "l2",
        verdict=run_verdict(config.learner, loss, config.alpha),
        initial=InitialRecord(**gauges.of(yhat, yhat_test), yhat=yhat),
    )

    warm_master = None
    warm_ball = None
    prev_residual = None
    for i in range(1, config.iterations):
        fallback = False
        if not is_member(cs, yhat, DEFAULT_MEMBER_TOL):
            branch = "infeasible"
            if blended:
                anchor = (1.0 - config.alpha) * train.y + config.alpha * yhat
                report = project(ProjectionProblem(loss, anchor, cs), config.solver, warm_master)
            else:
                report = project_blend(loss, train.y, yhat, weight, cs, config.solver,
                                       warm_master)
            warm_master = report.state
        else:
            branch = "feasible"
            report = project_ball_intersection(
                loss, train.y, yhat, config.beta, cs, config.solver, warm_ball)
            warm_ball = report.state
            if not report.converged or not is_member(cs, report.solution,
                                                     10 * DEFAULT_MEMBER_TOL):
                # numerically empty ball/set intersection: the center is the
                # one point known feasible
                report = SolverReport(yhat.copy(), report.primal_residual,
                                      report.dual_residual, report.iterations,
                                      False, report.method)
                fallback = True
        if not report.converged and not fallback:
            log.warning("iteration %d: the %s solve stopped unconverged after %d iterations "
                        "(primal residual %.3g, dual residual %.3g); the refit uses its "
                        "last iterate", i, report.method, report.iterations,
                        report.primal_residual, report.dual_residual)

        z = report.solution
        model = fit(config.learner, train.x, z, loss, reuse)
        yhat_next = model.train_prediction
        yhat_test = predict(model, test.x)
        residual = loss_norm(loss, yhat_next - yhat)
        contraction = residual / prev_residual if prev_residual else float("nan")
        history.records.append(IterationRecord(
            i=i, branch=branch, z=z, yhat=yhat, yhat_next=yhat_next,
            **gauges.of(yhat_next, yhat_test), residual=residual, contraction=contraction,
            solver_method=report.method, solver_iterations=report.iterations,
            solver_converged=report.converged, solver_primal=report.primal_residual,
            solver_dual=report.dual_residual, fallback=fallback))
        yhat = yhat_next
        prev_residual = residual if residual > 0 else prev_residual
        if config.early_stop and residual < config.stop_tol:
            history.stopped_early = True
            break
    return history
