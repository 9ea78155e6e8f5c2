import dataclasses
import logging
from dataclasses import replace

import numpy as np
import pytest

from confit.constraints import (build_box, build_didi_constraints, didi_epsilon,
                                from_inequalities, intersect, is_member)
from confit.data import Dataset, ProtectedSpec
from confit import driver
from confit.driver import (IterationHistory, RunConfig, alpha_convert,
                           check_contraction_condition, run, run_verdict)
from confit.learners import LearnerSpec
from confit.losses import LossSpec, MSE, MAE
from confit.solver import ProjectionProblem, SolverOptions, project
from test_acceptance import make_instance

RIDGE0 = LearnerSpec("ridge", ridge_lambda=0.0)
TIGHT = SolverOptions(tolerance=1e-10, max_iterations=200000)


def make_dataset(rng, n=12, d=3):
    x = rng.uniform(0, 1, (n, d))
    w = rng.standard_normal(d) * 0.3
    y = np.clip(x @ w + 0.4 + 0.05 * rng.standard_normal(n), 0, 1)
    return Dataset(x, y, [f"f{j}" for j in range(d)], [(0.0, 1.0)] * d, "t", (0.0, 1.0))


def tight_polytope(rng, n, m=8):
    a = rng.standard_normal((m, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = a @ np.full(n, 0.5) + rng.uniform(0.01, 0.08, m)
    return from_inequalities(a, b, n, lower=np.zeros(n), upper=np.ones(n))


def test_alpha_convert_table_values_exact():
    assert alpha_convert(0.1) == 9.0
    assert alpha_convert(0.5) == 1.0
    assert alpha_convert(0.9) == 1 / 9
    with pytest.raises(ValueError):
        alpha_convert(0.0)
    with pytest.raises(ValueError):
        alpha_convert(1.5)


def test_contraction_verdicts():
    assert check_contraction_condition(MSE, 0.9).verdict == "guaranteed"
    assert check_contraction_condition(MSE, 0.999).verdict == "guaranteed"
    assert check_contraction_condition(MAE, 0.5).verdict == "not-guaranteed"
    assert check_contraction_condition(MAE, 0.2).verdict == "guaranteed"
    v = check_contraction_condition(LossSpec("huber"), 0.1)
    assert v.verdict == "not-guaranteed" and v.lipschitz_constant is None


@pytest.mark.parametrize("loss, alpha", [(MSE, 0.5), (MAE, 0.2), (MAE, 0.9)])
def test_run_verdict_guarantees_ridge_runs_only(loss, alpha):
    assert run_verdict(RIDGE0, loss, alpha) == check_contraction_condition(loss, alpha)
    gbt = run_verdict(LearnerSpec("gbt"), loss, alpha)
    assert gbt.verdict == "not-guaranteed" and "gbt learner" in gbt.note
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, n=10)
    config = RunConfig(alpha=alpha, constraints=build_box(0.0, 1.0, 10), iterations=2,
                       loss=loss, learner=LearnerSpec("gbt", n_trees=2, min_samples_leaf=2))
    assert run(config, ds, ds).verdict == gbt


@pytest.mark.parametrize("algorithm", ["affine_extension", "moving_targets"])
def test_each_prediction_is_held_once(algorithm):
    # a step's yhat is the previous step's yhat_next array, not a copy of it
    rng = np.random.default_rng(0)
    ds = make_dataset(rng, n=10)
    config = RunConfig(alpha=0.5, constraints=tight_polytope(rng, 10), beta=0.05,
                       iterations=8, loss=MSE, learner=RIDGE0, algorithm=algorithm)
    history = run(config, ds, ds)
    steps = history.records
    assert steps[0].yhat is history.initial.yhat
    assert all(s.yhat is r.yhat_next for r, s in zip(steps, steps[1:]))


def _ndarrays(*objs):
    """Every array in `objs`, looking into dicts, sequences and dataclasses."""
    out = []
    for obj in objs:
        if isinstance(obj, np.ndarray):
            out.append(obj)
        elif isinstance(obj, dict):
            out += _ndarrays(*obj.values())
        elif isinstance(obj, (list, tuple)):
            out += _ndarrays(*obj)
        elif dataclasses.is_dataclass(obj):
            out += _ndarrays(*(getattr(obj, f.name) for f in dataclasses.fields(obj)))
    return out


def _box_around_y(ds):
    # the blend of y and a prediction near it is inside, the prediction is not
    return from_inequalities(np.zeros((0, ds.n)), np.zeros(0), ds.n,
                             lower=ds.y - 0.02, upper=ds.y + 0.02)


# route -> run settings whose every step takes it
_ROUTE_RUNS = {
    "dykstra": dict(loss=MSE),
    "dykstra-ball": dict(loss=MSE, constraints=lambda ds: build_box(-10.0, 10.0, ds.n)),
    "pdhg": dict(loss=MAE),
    "pdhg-ball": dict(loss=MAE, constraints=lambda ds: build_box(-10.0, 10.0, ds.n)),
    "pdhg-blend": dict(loss=MSE, algorithm="moving_targets"),
    "already-feasible": dict(loss=MSE, alpha=0.1, constraints=_box_around_y),
    "degenerate-ball": dict(loss=MSE, beta=0.0,
                            constraints=lambda ds: build_box(-10.0, 10.0, ds.n)),
    "fallback": dict(loss=MAE, solver=SolverOptions(max_iterations=1),
                     constraints=lambda ds: build_box(-10.0, 10.0, ds.n)),
}


@pytest.mark.parametrize("route", sorted(_ROUTE_RUNS))
def test_each_z_is_an_array_of_its_own(route, monkeypatch):
    # a step keeps the solver's solution as its z, uncopied: on every route
    # it must share no memory with the data, a solver input or warm state,
    # or another record's arrays
    settings = dict(_ROUTE_RUNS[route])
    rng = np.random.default_rng(0)
    ds = make_dataset(rng, n=10)
    build = settings.pop("constraints", lambda ds: tight_polytope(rng, ds.n))
    config = RunConfig(**{"alpha": 0.5, "beta": 0.05, "iterations": 6, "learner": RIDGE0,
                          "constraints": build(ds), **settings})
    seen = []
    for name in ("project", "project_ball_intersection", "project_blend"):
        def recorded(*args, _solve=getattr(driver, name), **kwargs):
            report = _solve(*args, **kwargs)
            seen.extend(_ndarrays(args, kwargs, report.state))
            return report
        monkeypatch.setattr(driver, name, recorded)
    history = run(config, ds, ds)
    steps = history.records
    if route == "fallback":
        assert any(r.fallback for r in steps)
    else:
        assert all(r.solver_method == route and not r.fallback for r in steps)
    held = seen + _ndarrays(ds, history.initial) + [a for r in steps for a in (r.yhat, r.yhat_next)]
    for r in steps:
        others = held + [s.z for s in steps if s is not r]
        assert not any(np.shares_memory(r.z, a) for a in others), (route, r.i)


def test_branch_matches_membership():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng, n=10)
    cs = tight_polytope(rng, 10)
    config = RunConfig(alpha=0.5, constraints=cs, beta=0.05, iterations=12,
                       loss=MSE, learner=RIDGE0)
    history = run(config, ds, ds)
    assert history.records, "no iterations recorded"
    for rec in history.records:
        assert rec.branch == ("feasible" if is_member(cs, rec.yhat, 1e-6) else "infeasible")


def test_beta_zero_feasible_start_is_fixed_point():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng, n=10)
    # huge box: the initial prediction is feasible, beta=0 freezes it
    cs = build_box(-10.0, 10.0, 10)
    config = RunConfig(alpha=0.5, constraints=cs, beta=0.0, iterations=5,
                       loss=MSE, learner=RIDGE0)
    history = run(config, ds, ds)
    first = history.records[0]
    assert first.branch == "feasible"
    assert (first.solver_method, first.solver_iterations, first.solver_converged,
            first.fallback) == ("degenerate-ball", 0, True, False)
    assert np.array_equal(first.z, first.yhat) and first.z is not first.yhat
    assert first.residual <= 1e-10  # ridge refit reproduces its own prediction
    assert all(r.residual <= 1e-9 for r in history.records)


def test_alpha_zero_projects_ideal_target_every_iteration():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng, n=10)
    cs = tight_polytope(rng, 10)
    config = RunConfig(alpha=0.0, constraints=cs, beta=0.05, iterations=8,
                       loss=MSE, learner=RIDGE0, solver=TIGHT)
    history = run(config, ds, ds)
    zs = [r.z for r in history.records if r.branch == "infeasible"]
    assert len(zs) >= 2
    want = project(ProjectionProblem(MSE, ds.y, cs), TIGHT).solution
    for z in zs:
        assert np.allclose(z, want, atol=1e-7)


def test_two_algorithms_equivalent_under_mse():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng, n=10)
    cs = tight_polytope(rng, 10)
    common = dict(constraints=cs, beta=0.05, iterations=10, loss=MSE,
                  learner=RIDGE0, solver=TIGHT)
    ha = run(RunConfig(alpha=0.5, algorithm="affine_extension", **common), ds, ds)
    hm = run(RunConfig(alpha=0.5, algorithm="moving_targets", **common), ds, ds)
    assert len(ha.records) == len(hm.records)
    for ra, rm in zip(ha.records, hm.records):
        assert np.max(np.abs(ra.z - rm.z)) < 1e-6


def test_mae_algorithms_differ():
    # constraints whose mae projection of the blend differs from the
    # combined-objective minimizer: a thin diagonal strip in 2-D
    x = np.array([[0.1, 0.3], [0.8, 0.6]])
    y = np.array([0.9, 0.1])
    ds = Dataset(x, y, ["a", "b"], [(0.0, 1.0)] * 2, "t", (0.0, 1.0))
    cs = intersect(build_box(0.0, 1.0, 2),
                   from_inequalities(np.array([[1.0, 1.0], [-1.0, -1.0]]),
                                     np.array([0.55, -0.45]), 2))
    common = dict(constraints=cs, beta=0.02, iterations=6, loss=MAE,
                  learner=LearnerSpec("ridge", ridge_lambda=0.05), solver=TIGHT)
    ha = run(RunConfig(alpha=0.5, algorithm="affine_extension", **common), ds, ds)
    hm = run(RunConfig(alpha=0.5, algorithm="moving_targets", **common), ds, ds)
    gaps = [np.max(np.abs(ra.z - rm.z)) for ra, rm in zip(ha.records, hm.records)]
    assert max(gaps) > 1e-3


def test_contraction_ridge_mse():
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, n=10)
    cs = tight_polytope(rng, 10)
    config = RunConfig(alpha=0.9, constraints=cs, beta=0.0, iterations=200,
                       loss=MSE, learner=RIDGE0, solver=SolverOptions(1e-12, 400000),
                       early_stop=True, stop_tol=1e-8)
    history = run(config, ds, ds)
    residuals = history.series("residual")
    assert residuals[-1] < 1e-7
    ratios = residuals[1:] / residuals[:-1]
    tail = ratios[-10:]
    assert np.all(tail <= 0.9 + 0.05)
    assert history.stopped_early


def test_didi_constraints_bring_the_train_ratio_down():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (12, 2))
    y = np.clip(rng.uniform(0, 1, 12) + np.where(np.arange(12) < 6, 0.3, -0.3), 0, 1)
    protected = (ProtectedSpec(0, {0: np.arange(6), 1: np.arange(6, 12)}),)
    ds = Dataset(x, y, ["a", "b"], [(0.0, 1.0)] * 2, "t", (0.0, 1.0), protected=protected)
    cs = intersect(build_didi_constraints(protected, didi_epsilon(y, protected, 0.2), 12),
                   build_box(0.0, 1.0, 12))
    config = RunConfig(alpha=0.5, constraints=cs, beta=0.05, iterations=8,
                       loss=MSE, learner=LearnerSpec("gbt", n_trees=10, max_depth=2))
    history = run(config, ds, ds)
    assert np.isfinite(history.series("c_train")).all()
    # constrained targets do bring the train-side ratio down
    assert history.records[-1].c_train < history.initial.c_train


def test_history_deterministic():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng, n=10)
    cs = tight_polytope(rng, 10)
    config = RunConfig(alpha=0.5, constraints=cs, beta=0.05, iterations=8,
                       loss=MSE, learner=RIDGE0)
    a = run(config, ds, ds)
    b = run(config, ds, ds)
    assert a.to_records() == b.to_records()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.vectors(), b.vectors(),
                                                          strict=True))


def test_history_round_trip():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng, n=10)
    cs = tight_polytope(rng, 10)
    config = RunConfig(alpha=0.1, constraints=cs, beta=0.05, iterations=6,
                       loss=LossSpec("huber", 0.1), learner=RIDGE0)
    history = run(config, ds, ds)
    records = history.to_records()
    back = IterationHistory.from_records(records, vectors=history.vectors())
    assert back.to_records() == records
    assert all(x is y for x, y in zip(back.vectors(), history.vectors(), strict=True))


def test_series_lengths_and_norm():
    rng = np.random.default_rng(8)
    ds = make_dataset(rng, n=10)
    cs = tight_polytope(rng, 10)
    config = RunConfig(alpha=0.5, constraints=cs, beta=0.05, iterations=7, loss=MAE,
                       learner=RIDGE0)
    h = run(config, ds, ds)
    assert h.norm == "l1"
    assert len(h.records) == 6  # iterations - 1 adjustment steps
    assert h.series("r2_train").shape == (7,)
    assert h.series("residual").shape == (6,)
    assert np.isnan(h.series("contraction")[0])


def test_run_config_validation():
    cs = build_box(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        RunConfig(alpha=1.0, constraints=cs)
    with pytest.raises(ValueError):
        RunConfig(alpha=0.5, constraints=cs, beta=-0.1)
    with pytest.raises(ValueError):
        RunConfig(alpha=0.5, constraints=cs, algorithm="teleport")
    with pytest.raises(ValueError, match="moving_targets needs alpha in"):
        RunConfig(alpha=0.0, constraints=cs, algorithm="moving_targets")
    RunConfig(alpha=0.0, constraints=cs, algorithm="affine_extension")


def test_unconverged_solve_logs_one_warning(caplog):
    rng = np.random.default_rng(21)
    ds = make_dataset(rng, n=10)
    cs = tight_polytope(rng, 10)
    config = RunConfig(alpha=0.5, constraints=cs, beta=0.05, iterations=6, loss=MAE,
                       learner=RIDGE0, solver=SolverOptions(tolerance=1e-12, max_iterations=1))
    with caplog.at_level(logging.WARNING, logger="confit"):
        history = run(config, ds, ds)
    unconverged = [r for r in history.records if not r.solver_converged and not r.fallback]
    assert unconverged
    warnings = [r for r in caplog.records if r.name == "confit"]
    assert len(warnings) == len(unconverged)
    for rec, warning in zip(unconverged, warnings):
        message = warning.getMessage()
        assert warning.levelno == logging.WARNING
        assert message.startswith(f"iteration {rec.i}: the {rec.solver_method} solve")
        assert f"primal residual {rec.solver_primal:.3g}" in message
        assert f"dual residual {rec.solver_dual:.3g}" in message
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="confit"):
        run(replace(config, solver=TIGHT), ds, ds)
    assert not caplog.records


def test_default_solver_converges_on_every_mae_blend_solve(caplog):
    # before restarts and the primal weight, 12 of these 28 pdhg-blend
    # solves stopped at the default 20,000-iteration cap
    ds, cs = make_instance(np.random.default_rng(0), 10)
    config = RunConfig(alpha=0.9, constraints=cs, beta=0.05, loss=MAE,
                       algorithm="moving_targets")
    with caplog.at_level(logging.WARNING, logger="confit"):
        history = run(config, ds, ds)
    blend = [r for r in history.records if r.solver_method == "pdhg-blend"]
    assert len(blend) == 28
    assert all(r.solver_converged for r in blend)
    assert not caplog.records


def test_settled_feasible_steps_end_after_one_pdhg_step():
    # the protected group is a feature, so a ridge refit keeps the group means
    # of its target and the loop stays on the feasible branch. The first ball
    # solve ends at its first 10-iteration check, polished onto its optimum;
    # once settled, each one resumes at its answer and stops after its first
    # step
    rng = np.random.default_rng(0)
    n = 40
    x = rng.uniform(0, 1, (n, 3))
    x[:, 0] = (x[:, 0] > 0.5).astype(float)
    y = np.clip(x @ np.array([0.5, 0.2, -0.1]) + 0.1 + 0.05 * rng.standard_normal(n), 0, 1)
    protected = (ProtectedSpec(0, {0: np.flatnonzero(x[:, 0] == 0),
                                   1: np.flatnonzero(x[:, 0] == 1)}),)
    ds = Dataset(x, y, ["g", "b", "c"], [(0.0, 1.0)] * 3, "t", (0.0, 1.0), protected)
    cs = intersect(build_didi_constraints(protected, didi_epsilon(y, protected, 0.2), n),
                   build_box(0.0, 1.0, n))
    config = RunConfig(alpha=0.5, constraints=cs, beta=0.05, iterations=30, loss=MSE,
                       learner=RIDGE0)
    history = run(config, ds, ds)
    assert len(history.records) == 29
    feasible = [r for r in history.records if r.branch == "feasible"]
    assert len(feasible) >= 25
    first, settled = feasible[0], feasible[1:]
    assert first.solver_method == "pdhg-ball" and first.solver_iterations == 10
    assert all(r.solver_method == "pdhg-ball" and r.solver_converged and not r.fallback
               and r.solver_iterations == 1 for r in settled)
    assert all(is_member(cs, r.z, 1e-6) for r in history.records)


def test_gauges_are_built_after_the_first_fit(monkeypatch):
    # a run's set-up ends at its first fit; the gauges' once-per-run parts
    # come after it, once
    events = []
    real_fit, real_metrics = driver.fit, driver._Metrics

    def fit(*args, **kwargs):
        events.append("fit")
        return real_fit(*args, **kwargs)

    class Metrics(real_metrics):
        def __init__(self, *args):
            events.append("gauges")
            super().__init__(*args)

    monkeypatch.setattr(driver, "fit", fit)
    monkeypatch.setattr(driver, "_Metrics", Metrics)
    rng = np.random.default_rng(3)
    ds = make_dataset(rng)
    config = RunConfig(alpha=0.5, constraints=tight_polytope(rng, ds.n), iterations=4,
                       learner=RIDGE0)
    run(config, ds, ds)
    assert events == ["fit", "gauges", "fit", "fit", "fit"]
