"""The ``polytope`` workload: small synthetic polytopes solved on every route.

The base instances are drawn as in acceptance criterion 1
(``tests/test_acceptance.py::make_instance``): the box [0, 1]^n with n = 50
for k % 4 == 0 and 10 otherwise, 5-20 random unit rows and ridge data with
2-6 features, with the generator seeds (4000 + k) and row margins (0.05-0.4
around the centre) of criterion 4.  At these margins some instances' fits are
already feasible, so the feasible branch and both ball routes run too.

The workload seed permutes the coordinates and the rows of every instance,
which gives the program new inputs of the same difficulty.  A fresh draw of
the geometry per seed would not: over 48 random instances of this shape the
time per instance had a coefficient of variation near 1 (2-vCPU Xeon VM), so
the total of a few instances moves by tens of percent from seed to seed.

Each instance runs the ridge learner with both algorithms, mse at alphas 0.1,
0.5 and 0.9 and mae at 0.2, beta 0.05, with the solver settings of the
acceptance criteria, and an mse and an mae ``lipschitz_probe`` on the
unpermuted polytope (the probe draws its own anchors, so permuting the set
alone would change the problem).  Histories are written in the experiment
format, one file per (algorithm, loss, alpha) with the instances as folds.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import confit.constraints as constraints
import confit.driver as driver
import confit.experiment as experiment
import confit.solver as solver
from confit.config import ConstraintBlock, DatasetBlock, ExperimentConfig, RunBlock
from confit.data import Dataset
from confit.learners import LearnerSpec
from confit.losses import LossSpec

INSTANCES = 4
ITERATIONS = 8
PROBE_SAMPLES = 2
SMOKE = {"instances": 1, "iterations": 3}
BETA = 0.05
LEARNER = LearnerSpec("ridge", ridge_lambda=0.0)
ALGORITHMS = ("affine_extension", "moving_targets")
SWEEP = ((LossSpec("mse"), (0.1, 0.5, 0.9)), (LossSpec("mae"), (0.2,)))
OPTIONS = {"mse": solver.SolverOptions(tolerance=1e-10, max_iterations=300000),
           "mae": solver.SolverOptions(tolerance=1e-9, max_iterations=300000)}


def _base_instance(k: int):
    rng = np.random.default_rng(4000 + k)
    n = 50 if k % 4 == 0 else 10
    d = int(rng.integers(2, 7))
    m = int(rng.integers(5, 21))
    x = rng.uniform(0, 1, (n, d))
    y = rng.uniform(0, 1, n)
    a = rng.standard_normal((m, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = a @ np.full(n, 0.5) + rng.uniform(0.05, 0.4, size=m)
    return x, y, a, b


def _constraint_set(a, b):
    n = a.shape[1]
    return constraints.from_inequalities(a, b, n, lower=np.zeros(n), upper=np.ones(n))


def make_instances(seed: int, smoke: bool = False):
    """[(dataset, constraint set, unpermuted constraint set)] for this seed."""
    count = SMOKE["instances"] if smoke else INSTANCES
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        x, y, a, b = _base_instance(k)
        cols = rng.permutation(y.size)
        rows = rng.permutation(b.size)
        d = x.shape[1]
        ds = Dataset(x[cols], y[cols], [f"f{j}" for j in range(d)], [(0.0, 1.0)] * d,
                     "y", (0.0, 1.0))
        out.append((ds, _constraint_set(a[rows][:, cols], b[rows]), _constraint_set(a, b)))
    return out


def history_files() -> list[str]:
    return [experiment.history_filename(algorithm, loss.kind, alpha)
            for loss, alphas in SWEEP for alpha in alphas for algorithm in ALGORITHMS]


def planned_solves(smoke: bool = False) -> int:
    count = SMOKE["instances"] if smoke else INSTANCES
    iterations = SMOKE["iterations"] if smoke else ITERATIONS
    runs = sum(len(alphas) for _, alphas in SWEEP) * len(ALGORITHMS)
    return count * runs * (iterations - 1)


def _config(loss: LossSpec, alphas, iterations: int, folds: int, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetBlock(path="polytope", target="y"),
        constraint=ConstraintBlock(fraction=None, epsilon=None, box=(0.0, 1.0)),
        run=RunBlock(loss=loss, alphas=tuple(alphas), beta=BETA, iterations=iterations,
                     learner=LEARNER, algorithms=ALGORITHMS, folds=folds, seed=seed))


def run_workload(seed: int, out: Path, tracer, smoke: bool = False) -> None:
    """Run every instance and write the histories under `out`.  Calls go
    through module attributes so that the tracer's wrappers see them."""
    iterations = SMOKE["iterations"] if smoke else ITERATIONS
    with tracer.span("constraints.build"):
        instances = make_instances(seed, smoke)
    histories = {}
    for k, (ds, cs, base_cs) in enumerate(instances):
        for loss, alphas in SWEEP:
            for alpha in alphas:
                for algorithm in ALGORITHMS:
                    config = driver.RunConfig(
                        alpha=alpha, constraints=cs, beta=BETA, iterations=iterations,
                        loss=loss, learner=LEARNER, algorithm=algorithm,
                        solver=OPTIONS[loss.kind], seed=seed)
                    histories.setdefault((algorithm, loss, alpha), []).append(
                        driver.run(config, ds, ds))
            with tracer.span("solver.probe"):
                solver.lipschitz_probe(loss, base_cs, samples=PROBE_SAMPLES, seed=k,
                                       opts=OPTIONS[loss.kind])
    out.mkdir(parents=True, exist_ok=True)
    for (algorithm, loss, alpha), group in histories.items():
        cfg = _config(loss, [alpha], iterations, len(group), seed)
        experiment.write_history_file(out / experiment.history_filename(algorithm, loss.kind, alpha),
                                      cfg, algorithm, alpha, group)
