"""The iteration drivers: initial training, the feasible/infeasible target
adjustment branch, retraining, and per-iteration diagnostics.

Two algorithms share the loop:

* affine extension: when the current prediction violates the constraints, the
  blend (1-alpha)*y + alpha*yhat is projected onto the feasible set;
* moving targets: the infeasible adjustment instead minimizes
  loss(z, y) + (1/alpha_m) * loss(z, yhat) over the set.

When the prediction already satisfies the constraints, both move the target
toward y inside a loss-ball of radius beta around the prediction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .constraints import ConstraintSet, didi_value, is_member
from .data import Dataset
from .errors import ConfitError
from .learners import LearnerSpec, fit, predict
from .losses import LossSpec, loss_norm
from .metrics import r_squared
from .solver import (DEFAULT_OPTIONS, ProjectionProblem, SolverOptions,
                     SolverReport, project, project_ball_intersection,
                     project_blend)

ALGORITHMS = ("affine_extension", "moving_targets")

log = logging.getLogger("confit")

ConstraintSource = Union[ConstraintSet, Callable[[Dataset], ConstraintSet]]


@dataclass(frozen=True)
class RunConfig:
    alpha: float
    constraints: ConstraintSource
    beta: float = 0.1
    iterations: int = 30
    loss: LossSpec = LossSpec("mse")
    learner: LearnerSpec = LearnerSpec("ridge")
    algorithm: str = "affine_extension"
    membership_tol: float = 1e-6
    early_stop: bool = False
    stop_tol: float = 1e-8
    fail_hard: bool = False
    solver: SolverOptions = DEFAULT_OPTIONS
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


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


def alpha_convert(alpha_a: float) -> float:
    """Map the blend parameter to the equivalent combined-objective weight via
    alpha_a * (alpha_m + 1) = 1.

    The input is interpreted at its printed decimal precision so that table
    values convert exactly (0.1 -> 9, 0.5 -> 1, 0.9 -> 1/9).
    """
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

    def final_prediction(self) -> np.ndarray:
        return self.records[-1].yhat_next if self.records else self.initial.yhat

    def to_records(self) -> list[dict]:
        meta = {
            "type": "meta",
            "algorithm": self.algorithm,
            "alpha": self.alpha,
            "beta": self.beta,
            "iterations": self.iterations,
            "loss": {"kind": self.loss.kind, "huber_m": self.loss.huber_m},
            "learner": {
                "kind": self.learner.kind,
                "ridge_lambda": self.learner.ridge_lambda,
                "n_trees": self.learner.n_trees,
                "max_depth": self.learner.max_depth,
                "learning_rate": self.learner.learning_rate,
                "min_samples_leaf": self.learner.min_samples_leaf,
                "seed": self.learner.seed,
            },
            "seed": self.seed,
            "norm": self.norm,
            "verdict": {
                "verdict": self.verdict.verdict,
                "alpha_bound": self.verdict.alpha_bound,
                "lipschitz_constant": self.verdict.lipschitz_constant,
                "note": self.verdict.note,
            },
            "stopped_early": self.stopped_early,
            "branch_counts": self.branch_counts,
        }
        initial = {
            "type": "initial",
            "i": 0,
            "r2_train": _none_if_nan(self.initial.r2_train),
            "r2_test": _none_if_nan(self.initial.r2_test),
            "c_train": _none_if_nan(self.initial.c_train),
            "c_test": _none_if_nan(self.initial.c_test),
            "yhat": self.initial.yhat.tolist(),
        }
        out = [meta, initial]
        for r in self.records:
            out.append({
                "type": "iteration",
                "i": r.i,
                "branch": r.branch,
                "z": r.z.tolist(),
                "yhat": r.yhat.tolist(),
                "yhat_next": r.yhat_next.tolist(),
                "r2_train": _none_if_nan(r.r2_train),
                "r2_test": _none_if_nan(r.r2_test),
                "c_train": _none_if_nan(r.c_train),
                "c_test": _none_if_nan(r.c_test),
                "residual": r.residual,
                "contraction": _none_if_nan(r.contraction),
                "solver_method": r.solver_method,
                "solver_iterations": r.solver_iterations,
                "solver_converged": r.solver_converged,
                "solver_primal": r.solver_primal,
                "solver_dual": r.solver_dual,
                "fallback": r.fallback,
            })
        return out

    @classmethod
    def from_records(cls, records: list[dict]) -> "IterationHistory":
        meta = records[0]
        if meta.get("type") != "meta":
            raise ConfitError("history stream must start with a meta record")
        initial_rec = records[1]
        if initial_rec.get("type") != "initial":
            raise ConfitError("history stream must carry an initial record")
        loss = LossSpec(meta["loss"]["kind"], meta["loss"]["huber_m"])
        learner = LearnerSpec(**meta["learner"])
        verdict = ContractionVerdict(**meta["verdict"])
        initial = InitialRecord(
            r2_train=_nan_if_none(initial_rec["r2_train"]),
            r2_test=_nan_if_none(initial_rec["r2_test"]),
            c_train=_nan_if_none(initial_rec["c_train"]),
            c_test=_nan_if_none(initial_rec["c_test"]),
            yhat=np.array(initial_rec["yhat"]))
        history = cls(algorithm=meta["algorithm"], alpha=meta["alpha"], beta=meta["beta"],
                      iterations=meta["iterations"], loss=loss, learner=learner,
                      seed=meta["seed"], norm=meta["norm"], verdict=verdict,
                      initial=initial, stopped_early=meta["stopped_early"])
        for rec in records[2:]:
            if rec.get("type") != "iteration":
                raise ConfitError(f"unexpected record type {rec.get('type')!r}")
            history.records.append(IterationRecord(
                i=rec["i"], branch=rec["branch"], z=np.array(rec["z"]),
                yhat=np.array(rec["yhat"]), yhat_next=np.array(rec["yhat_next"]),
                r2_train=_nan_if_none(rec["r2_train"]), r2_test=_nan_if_none(rec["r2_test"]),
                c_train=_nan_if_none(rec["c_train"]), c_test=_nan_if_none(rec["c_test"]),
                residual=rec["residual"], contraction=_nan_if_none(rec["contraction"]),
                solver_method=rec["solver_method"],
                solver_iterations=rec["solver_iterations"],
                solver_converged=rec["solver_converged"],
                solver_primal=rec["solver_primal"], solver_dual=rec["solver_dual"],
                fallback=rec["fallback"]))
        return history


def _none_if_nan(value: float):
    return None if isinstance(value, float) and np.isnan(value) else value


def _nan_if_none(value) -> float:
    return float("nan") if value is None else value


def _resolve_constraints(source: ConstraintSource, train: Dataset) -> ConstraintSet:
    if isinstance(source, ConstraintSet):
        return source
    return source(train)


def _safe_r2(y_true, y_pred) -> float:
    try:
        return r_squared(y_true, y_pred)
    except ValueError:
        return float("nan")


class _Metrics:
    def __init__(self, train: Dataset, test: Dataset):
        self.train = train
        self.test = test
        self.train_didi = didi_value(train.y, train.protected) if train.protected else 0.0
        self.test_ok = bool(test.protected) and self.train_didi > 0

    def ratios(self, yhat_train, yhat_test) -> tuple[float, float]:
        if self.train_didi <= 0:
            return float("nan"), float("nan")
        c_train = didi_value(yhat_train, self.train.protected) / self.train_didi
        c_test = (didi_value(yhat_test, self.test.protected) / self.train_didi
                  if self.test_ok else float("nan"))
        return c_train, c_test


def run_affine_extension(config: RunConfig, train: Dataset, test: Dataset) -> IterationHistory:
    """The blend-and-project iteration."""
    if config.algorithm != "affine_extension":
        raise ValueError(f"config.algorithm is {config.algorithm!r}")

    def master(cs, yhat, warm) -> SolverReport:
        blend = (1.0 - config.alpha) * train.y + config.alpha * yhat
        return project(ProjectionProblem(config.loss, blend, cs), config.solver, warm)

    return _run_loop(config, train, test, master)


def run_moving_targets(config: RunConfig, train: Dataset, test: Dataset) -> IterationHistory:
    """The combined-objective baseline: the infeasible adjustment minimizes
    loss(z, y) + (1/alpha_m) * loss(z, yhat) with alpha_m = 1/alpha - 1."""
    if config.algorithm != "moving_targets":
        raise ValueError(f"config.algorithm is {config.algorithm!r}")
    if config.alpha <= 0:
        raise ValueError("moving targets needs alpha in (0, 1)")
    alpha_m = alpha_convert(config.alpha)
    weight = 1.0 / alpha_m if alpha_m > 0 else float("inf")
    if not np.isfinite(weight):
        raise ValueError("alpha = 1 gives an infinite prediction weight")

    def master(cs, yhat, warm) -> SolverReport:
        return project_blend(config.loss, train.y, yhat, weight, cs, config.solver, warm)

    return _run_loop(config, train, test, master)


def run(config: RunConfig, train: Dataset, test: Dataset) -> IterationHistory:
    if config.algorithm == "affine_extension":
        return run_affine_extension(config, train, test)
    return run_moving_targets(config, train, test)


def _run_loop(config: RunConfig, train: Dataset, test: Dataset, master) -> IterationHistory:
    cs = _resolve_constraints(config.constraints, train)
    if cs.n != train.n:
        raise ValueError(f"constraint set is over {cs.n} outputs but train has {train.n} rows")
    loss = config.loss
    gauges = _Metrics(train, test)

    model = fit(config.learner, train.x, train.y, loss)
    yhat = model.train_prediction.copy()
    yhat_test = predict(model, test.x)
    c_train, c_test = gauges.ratios(yhat, yhat_test)
    history = IterationHistory(
        algorithm=config.algorithm, alpha=config.alpha, beta=config.beta,
        iterations=config.iterations, loss=loss, learner=config.learner,
        seed=config.seed, norm="l1" if loss.kind == "mae" else "l2",
        verdict=check_contraction_condition(loss, config.alpha),
        initial=InitialRecord(
            r2_train=_safe_r2(train.y, yhat), r2_test=_safe_r2(test.y, yhat_test),
            c_train=c_train, c_test=c_test, yhat=yhat.copy()),
    )

    warm_master = None
    warm_ball = None
    prev_residual = None
    for i in range(1, config.iterations):
        fallback = False
        if not is_member(cs, yhat, config.membership_tol):
            branch = "infeasible"
            report = master(cs, yhat, warm_master)
            warm_master = report.state
        else:
            branch = "feasible"
            if config.beta == 0.0:
                report = SolverReport(yhat.copy(), 0.0, 0.0, 0, True, "degenerate-ball")
            else:
                report = project_ball_intersection(
                    loss, train.y, yhat, config.beta, cs, config.solver, warm_ball)
                warm_ball = report.state
                if not report.converged or not is_member(cs, report.solution,
                                                         10 * config.membership_tol):
                    # numerically empty ball/set intersection: the center is the
                    # one point known feasible
                    report = SolverReport(yhat.copy(), report.primal_residual,
                                          report.dual_residual, report.iterations,
                                          False, report.method)
                    fallback = True
        if not report.converged and not fallback:
            if config.fail_hard:
                raise ConfitError(f"adjustment solve failed to converge at iteration {i}")
            log.warning("iteration %d: the %s solve stopped unconverged after %d iterations "
                        "(primal residual %.3g, dual residual %.3g); the refit uses its "
                        "last iterate", i, report.method, report.iterations,
                        report.primal_residual, report.dual_residual)

        z = report.solution
        model = fit(config.learner, train.x, z, loss)
        yhat_next = model.train_prediction
        yhat_test = predict(model, test.x)
        residual = loss_norm(loss, yhat_next - yhat)
        contraction = residual / prev_residual if prev_residual else float("nan")
        c_train, c_test = gauges.ratios(yhat_next, yhat_test)
        history.records.append(IterationRecord(
            i=i, branch=branch, z=z.copy(), yhat=yhat.copy(), yhat_next=yhat_next.copy(),
            r2_train=_safe_r2(train.y, yhat_next), r2_test=_safe_r2(test.y, yhat_test),
            c_train=c_train, c_test=c_test, residual=residual, contraction=contraction,
            solver_method=report.method, solver_iterations=report.iterations,
            solver_converged=report.converged, solver_primal=report.primal_residual,
            solver_dual=report.dual_residual, fallback=fallback))
        yhat = yhat_next.copy()
        prev_residual = residual if residual > 0 else prev_residual
        if config.early_stop and residual < config.stop_tol:
            history.stopped_early = True
            break
    return history
