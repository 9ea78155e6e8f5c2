"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured quantities.  Run with `pytest -s tests/test_acceptance.py` to see the
lines; every tolerance is pinned here.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from confit.constraints import (build_box, build_didi_constraints,
                                from_inequalities, intersect, is_member)
from confit.data import Dataset, ProtectedSpec
from confit.driver import RunConfig, alpha_convert, check_contraction_condition, run
from confit.learners import LearnerSpec
from confit.losses import LossSpec, MSE, MAE, pointwise
from confit.solver import (ProjectionProblem, SolverOptions, lipschitz_probe,
                           project, project_ball_intersection)
from confit.cli import main as cli_main
from confit.constraints import didi_value
from oracles import didi_brute, grid_search

RIDGE0 = LearnerSpec("ridge", ridge_lambda=0.0)
HUBER = LossSpec("huber", huber_m=0.1)
REPO = Path(__file__).resolve().parents[1]


def make_instance(rng, n, d=None, m=None, margin=(0.01, 0.1)):
    """Random regression instance with a tight polytopal constraint set."""
    d = d if d is not None else int(rng.integers(2, 7))
    m = m if m is not None else int(rng.integers(5, 21))
    x = rng.uniform(0, 1, (n, d))
    y = rng.uniform(0, 1, n)
    ds = Dataset(x, y, [f"f{j}" for j in range(d)], [(0.0, 1.0)] * d, "t", (0.0, 1.0))
    a = rng.standard_normal((m, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = a @ np.full(n, 0.5) + rng.uniform(*margin, size=m)
    cs = from_inequalities(a, b, n, lower=np.zeros(n), upper=np.ones(n))
    return ds, cs


def test_criterion_1_equivalence_of_the_two_algorithms_mse():
    """20 random instances x 3 alphas: per-iteration adjusted targets of the
    blend-and-project run and the combined-objective run agree to 1e-6."""
    t0 = time.time()
    solver = SolverOptions(tolerance=1e-10, max_iterations=300000)
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        n = 50 if k % 4 == 0 else 10
        ds, cs = make_instance(rng, n)
        for alpha in (0.1, 0.5, 0.9):
            common = dict(constraints=cs, beta=0.05, iterations=30, loss=MSE,
                          learner=RIDGE0, solver=solver)
            ha = run(RunConfig(alpha=alpha, algorithm="affine_extension", **common), ds, ds)
            hm = run(RunConfig(alpha=alpha, algorithm="moving_targets", **common), ds, ds)
            assert len(ha.records) == len(hm.records) == 29
            for ra, rm in zip(ha.records, hm.records):
                gap = float(np.max(np.abs(ra.z - rm.z)))
                worst = max(worst, gap)
                assert gap <= 1e-6, f"instance {k} alpha {alpha} iter {ra.i}: gap {gap:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.0f}s (budget 120s)"
    print(f"\nACCEPTANCE 1 (equivalence for mse): PASS - worst per-iteration gap "
          f"{worst:.2e} <= 1e-6 over 20 instances x 3 alphas, {elapsed:.0f}s")


def test_criterion_2_contraction_with_exact_affine_range():
    """Ridge without regularization gives an exact affine range projection; the
    residual must contract at rate <= alpha + 0.05 and reach a fixed point."""
    solver = SolverOptions(tolerance=1e-12, max_iterations=400000)
    details = []
    for alpha in (0.5, 0.9):
        for k in range(5):
            rng = np.random.default_rng(2000 + k)
            ds, cs = make_instance(rng, 10)
            config = RunConfig(alpha=alpha, constraints=cs, beta=0.0, iterations=200,
                               loss=MSE, learner=RIDGE0, solver=solver,
                               early_stop=True, stop_tol=1e-8)
            history = run(config, ds, ds)
            resid = history.series("residual")
            assert resid[-1] < 1e-7, f"no fixed point: final residual {resid[-1]:.2e}"
            assert len(resid) <= 200
            ratios = resid[1:] / resid[:-1]
            tail = ratios[-10:]
            assert np.all(tail <= alpha + 0.05), \
                f"alpha {alpha} instance {k}: tail ratio {tail.max():.3f}"
            assert np.all(np.diff(resid[-10:]) <= 0), "residual tail not monotone"
            details.append(f"alpha={alpha} k={k}: final={resid[-1]:.1e} "
                           f"ratio={tail.max():.3f}")
    print("\nACCEPTANCE 2 (contraction, mse): PASS - " + "; ".join(details[:2]) +
          f" ... ({len(details)} runs, bound alpha+0.05 held in all)")


def test_criterion_3_mae_bound_sufficient_not_necessary():
    """alpha = 0.2 sits inside the certified region for the absolute loss: at
    least 18/20 instances must converge. alpha = 0.9 is outside: behaviour is
    recorded, only the diagnostic verdict is asserted."""
    solver = SolverOptions(tolerance=1e-9, max_iterations=300000)
    converged = 0
    for k in range(20):
        rng = np.random.default_rng(3000 + k)
        n = 50 if k % 5 == 0 else 10
        ds, cs = make_instance(rng, n)
        config = RunConfig(alpha=0.2, constraints=cs, beta=0.0, iterations=300,
                           loss=MAE, learner=RIDGE0, solver=solver,
                           early_stop=True, stop_tol=9e-6)
        history = run(config, ds, ds)
        resid = history.series("residual")
        if resid.min() < 1e-5:
            converged += 1
    assert converged >= 18, f"only {converged}/20 converged at alpha=0.2"
    assert check_contraction_condition(MAE, 0.2).verdict == "guaranteed"

    # alpha = 0.9: outside the bound; observe without asserting convergence
    outcomes = []
    for k in range(5):
        rng = np.random.default_rng(3100 + k)
        ds, cs = make_instance(rng, 10)
        config = RunConfig(alpha=0.9, constraints=cs, beta=0.0, iterations=60,
                           loss=MAE, learner=RIDGE0, solver=solver,
                           early_stop=True, stop_tol=9e-6)
        history = run(config, ds, ds)
        outcomes.append("converged" if history.series("residual").min() < 1e-5
                        else "not-converged")
    verdict = check_contraction_condition(MAE, 0.9)
    assert verdict.verdict == "not-guaranteed"
    print(f"\nACCEPTANCE 3 (mae bound): PASS - {converged}/20 converged at alpha=0.2; "
          f"alpha=0.9 observed {outcomes} with verdict '{verdict.verdict}'")


def test_criterion_4_projection_lipschitz_probes():
    """Sampled Lipschitz estimates: <= 1 + 1e-6 for the Euclidean projection,
    <= 2 + 1e-3 for the L1 projection."""
    t0 = time.time()
    worst_mse = 0.0
    worst_mae = 0.0
    opts_mse = SolverOptions(tolerance=1e-10, max_iterations=200000)
    opts_mae = SolverOptions(tolerance=1e-9, max_iterations=300000)
    for k in range(20):
        rng = np.random.default_rng(4000 + k)
        n = int(rng.integers(5, 13))
        m = int(rng.integers(5, 21))
        a = rng.standard_normal((m, n))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = a @ np.full(n, 0.5) + rng.uniform(0.05, 0.4, m)
        cs = from_inequalities(a, b, n, lower=np.zeros(n), upper=np.ones(n))
        worst_mse = max(worst_mse, lipschitz_probe(MSE, cs, samples=10, seed=k, opts=opts_mse))
        worst_mae = max(worst_mae, lipschitz_probe(MAE, cs, samples=10, seed=k, opts=opts_mae))
    elapsed = time.time() - t0
    assert worst_mse <= 1.0 + 1e-6, f"mse probe {worst_mse}"
    assert worst_mae <= 2.0 + 1e-3, f"mae probe {worst_mae}"
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.0f}s (budget 60s)"
    print(f"\nACCEPTANCE 4 (lipschitz probes): PASS - K(mse)={worst_mse:.8f} <= 1+1e-6, "
          f"K(mae)={worst_mae:.5f} <= 2+1e-3 over 20 polytopes x 10 pairs, {elapsed:.0f}s")


def test_criterion_5_solver_matches_grid_oracle():
    """30 two-dimensional problems across all losses, boxes plus up to four
    halfspaces, with and without the trust ball: the solver lands within 2e-3
    per coordinate of the 1e-3-grid optimal face."""
    solver = SolverOptions(tolerance=1e-9, max_iterations=300000)
    losses = (MSE, MAE, HUBER)
    checked = 0
    for k in range(30):
        rng = np.random.default_rng(5000 + k)
        spec = losses[k % 3]
        cs = build_box(0.0, 1.0, 2)
        n_half = int(rng.integers(0, 5))
        if n_half:
            a = rng.standard_normal((n_half, 2))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b = a @ np.full(2, 0.5) + rng.uniform(0.05, 0.4, n_half)
            cs = intersect(cs, from_inequalities(a, b, 2))
        anchor = rng.uniform(-0.5, 1.5, 2)
        ball = None
        if k % 2 == 1:
            center = cs.feasible_point.copy()
            beta = float(rng.uniform(0.01, 0.1))
            ball = (center, beta)

        def objective(pts):
            return pointwise(spec, pts - anchor[None, :]).sum(axis=1)

        def feasible(pts):
            # no auxiliaries here, so the raw rows can be evaluated in bulk
            ok = np.all((pts >= cs.lower[None, :] - 1e-12)
                        & (pts <= cs.upper[None, :] + 1e-12), axis=1)
            if cs.m_ineq:
                ok &= np.all(pts @ cs.a_ineq.T <= cs.b_ineq[None, :] + 1e-12, axis=1)
            if ball is not None:
                ok &= pointwise(spec, pts - ball[0][None, :]).mean(axis=1) <= ball[1] + 1e-12
            return ok

        _, optimal = grid_search(objective, feasible, 2, lo=0.0, hi=1.0, step=1e-3)
        if ball is None:
            rep = project(ProjectionProblem(spec, anchor, cs), solver)
        else:
            rep = project_ball_intersection(spec, anchor, ball[0], ball[1], cs, solver)
        gap = np.abs(optimal - rep.solution[None, :]).max(axis=1).min()
        assert gap <= 2e-3, f"instance {k} ({spec.kind}, ball={ball is not None}): gap {gap:.2e}"
        checked += 1
    print(f"\nACCEPTANCE 5 (solver vs grid oracle): PASS - {checked} instances within "
          f"2e-3 per coordinate")


def test_criterion_6_didi_value_and_encoding():
    """The index matches an independently coded brute force to 1e-12, and the
    linearized encoding's membership answer matches the index threshold."""
    rng = np.random.default_rng(6000)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        n_feat = int(rng.integers(1, 3))
        specs = []
        for f in range(n_feat):
            ngroups = int(rng.integers(2, 5))
            labels = rng.integers(0, ngroups, n)
            labels[:ngroups] = np.arange(ngroups)
            specs.append(ProtectedSpec(f, {g: np.flatnonzero(labels == g)
                                           for g in range(ngroups)}))
        z = rng.uniform(-1, 2, n)
        groupings = [[s.groups[v] for v in s.group_values()] for s in specs]
        assert didi_value(z, tuple(specs)) == pytest.approx(
            didi_brute(z, groupings), abs=1e-12)

    n = 14
    labels = rng.integers(0, 3, n)
    labels[:3] = np.arange(3)
    protected = (ProtectedSpec(0, {g: np.flatnonzero(labels == g) for g in range(3)}),)
    eps = 0.12
    cs = build_didi_constraints(protected, eps, n)
    agree = 0
    for _ in range(500):
        z = rng.uniform(-0.5, 1.5, n)
        value = didi_value(z, protected)
        if abs(value - eps) < 1e-6:
            agree += 1  # knife-edge cases are consistent by construction
            continue
        assert is_member(cs, z, tol=1e-6) == (value <= eps + 1e-6)
        agree += 1
    assert agree == 500
    print("\nACCEPTANCE 6 (didi correctness): PASS - 100 brute-force matches at 1e-12, "
          "500 membership/threshold agreements")


@pytest.fixture(scope="module")
def school_run(tmp_path_factory):
    """The desk-scale dataset experiment shared by criteria 7 and 8."""
    out_a = tmp_path_factory.mktemp("school_a")
    out_b = tmp_path_factory.mktemp("school_b")
    cfg = REPO / "configs" / "school.yaml"
    t0 = time.time()
    assert cli_main(["run", "--config", str(cfg), "--out", str(out_a), "--jobs", "2"]) == 0
    first = time.time() - t0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out_b), "--jobs", "2"]) == 0
    return out_a, out_b, first


def _fold_means(summary_path: Path):
    rows = [line.split(",") for line in
            Path(summary_path).read_text().strip().split("\n")[1:]]
    means = {}
    for cells in rows:
        if cells[3] == "mean":
            means[float(cells[1])] = {"r2_train": float(cells[4]), "r2_test": float(cells[5]),
                                      "c_train": float(cells[6]), "c_test": float(cells[7])}
    return means


def test_criterion_7_trade_off_trend_on_school_data(school_run):
    """Five-fold cross-validated runs at alpha in {0.1, 0.5, 0.9}: the
    constraint ratio falls with alpha while the fit quality falls too."""
    out_a, _, elapsed = school_run
    assert elapsed < 900.0, f"criterion 7 run took {elapsed:.0f}s (budget 900s)"
    means = _fold_means(out_a / "summary.csv")
    alphas = sorted(means)
    assert alphas == [0.1, 0.5, 0.9]
    c = [means[a]["c_train"] for a in alphas]
    r2 = [means[a]["r2_train"] for a in alphas]
    assert c[0] > c[1] > c[2], f"constraint ratio not decreasing in alpha: {c}"
    assert r2[0] > r2[1] > r2[2], f"fit quality not decreasing in alpha: {r2}"
    print(f"\nACCEPTANCE 7 (trade-off trend): PASS - alpha {alphas}: "
          f"C {['%.3f' % v for v in c]} decreasing, R2 {['%.3f' % v for v in r2]} "
          f"decreasing ({elapsed:.0f}s)")


def test_criterion_8_byte_identical_reruns(school_run):
    out_a, out_b, _ = school_run
    files_a = sorted(p for p in out_a.iterdir())
    files_b = sorted(p for p in out_b.iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs between reruns"
    print(f"\nACCEPTANCE 8 (determinism): PASS - {len(files_a)} artifact files "
          f"byte-identical across two executions")


def test_criterion_9_alpha_conversion_values():
    assert alpha_convert(0.1) == 9.0
    assert alpha_convert(0.5) == 1.0
    assert alpha_convert(0.9) == 1 / 9
    print("\nACCEPTANCE 9 (alpha conversion): PASS - 0.1 -> 9, 0.5 -> 1, "
          "0.9 -> 1/9, all exact")
