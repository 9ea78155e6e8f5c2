import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import confit.constraints as constraints
import confit.solver as solver
from confit.constraints import (build_box, build_didi_constraints,
                                from_inequalities, intersect, is_member)
from confit.data import Dataset, ProtectedSpec
from confit.driver import RunConfig, run
from confit.learners import LearnerSpec
from confit.losses import LossSpec, MSE, MAE, loss_value, pointwise, project_ball
from confit.solver import (ProjectionProblem, SolverOptions, lipschitz_probe,
                           project, project_ball_intersection, project_blend)
from oracles import (ball_multiplier_bisection, dykstra_reference, grid_search,
                     mse_ball_box_oracle, pdhg_reference, pdhg_unrestarted_reference)

HUBER = LossSpec("huber", huber_m=0.1)
ALL = (MSE, MAE, HUBER)
TIGHT = SolverOptions(tolerance=1e-9, max_iterations=100000)


def random_polytope(rng, n, m, margin=(0.05, 0.45), equalities=0):
    a = rng.standard_normal((m, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = a @ np.full(n, 0.5) + rng.uniform(*margin, size=m)
    a_eq = rng.standard_normal((equalities, n))
    return from_inequalities(a, b, n, a_eq=a_eq, b_eq=a_eq @ np.full(n, 0.5),
                             lower=np.zeros(n), upper=np.ones(n))


def box2(lo=0.0, hi=1.0):
    return build_box(lo, hi, 2)


def test_halfspace_projection_analytic():
    cs = from_inequalities(np.array([[1.0, 0.0]]), np.array([0.5]), 2)
    rep = project(ProjectionProblem(MSE, np.array([1.0, 0.0]), cs), TIGHT)
    assert rep.converged
    assert np.allclose(rep.solution, [0.5, 0.0], atol=1e-9)


def test_already_feasible_returns_anchor():
    cs = box2()
    anchor = np.array([0.25, 0.75])
    rep = project(ProjectionProblem(MAE, anchor, cs), TIGHT)
    assert rep.converged and rep.iterations == 0
    assert np.array_equal(rep.solution, anchor)
    assert loss_value(MAE, rep.solution, anchor) == 0.0


def test_hyperplane_equality_projection():
    cs = from_inequalities(np.zeros((0, 2)), np.zeros(0), 2,
                           a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    rep = project(ProjectionProblem(MSE, np.array([1.0, 1.0]), cs), TIGHT)
    assert np.allclose(rep.solution, [0.5, 0.5], atol=1e-9)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind)
def test_projection_idempotent(spec):
    rng = np.random.default_rng(0)
    for trial in range(5):
        cs = random_polytope(rng, 6, 8)
        anchor = rng.uniform(-0.5, 1.5, 6)
        first = project(ProjectionProblem(spec, anchor, cs), TIGHT)
        again = project(ProjectionProblem(spec, first.solution, cs), TIGHT)
        assert np.allclose(again.solution, first.solution, atol=2e-9 * 10)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind)
def test_solution_is_member(spec):
    rng = np.random.default_rng(1)
    for trial in range(5):
        cs = random_polytope(rng, 8, 10)
        anchor = rng.uniform(-0.5, 1.5, 8)
        rep = project(ProjectionProblem(spec, anchor, cs), TIGHT)
        assert rep.converged
        assert is_member(cs, rep.solution, tol=1e-6)


def test_pdhg_and_dykstra_routes_agree_on_mse():
    # mse with no auxiliaries goes through Dykstra; forcing the generic route
    # via a blend with weight 0 must land on the same point
    rng = np.random.default_rng(2)
    for _ in range(5):
        cs = random_polytope(rng, 7, 9)
        anchor = rng.uniform(-0.5, 1.5, 7)
        d = project(ProjectionProblem(MSE, anchor, cs), TIGHT)
        p = project_blend(MSE, anchor, np.zeros(7), 0.0, cs, TIGHT)
        assert d.method == "dykstra" and p.method == "pdhg-blend"
        assert np.allclose(d.solution, p.solution, atol=1e-7)


def grid_oracle_check(spec, anchor, cs, ball=None, step=1e-3, tol=2e-3):
    def objective(pts):
        return pointwise(spec, pts - anchor[None, :]).sum(axis=1)

    def feasible(pts):
        # the 2-D oracle sets carry no auxiliaries: evaluate rows in bulk
        ok = np.all((pts >= cs.lower[None, :] - 1e-12)
                    & (pts <= cs.upper[None, :] + 1e-12), axis=1)
        if cs.a_ineq.shape[0]:
            ok &= np.all(pts @ cs.a_ineq.T <= cs.b_ineq[None, :] + 1e-12, axis=1)
        if ball is not None:
            center, beta = ball
            ok &= pointwise(spec, pts - center[None, :]).mean(axis=1) <= beta + 1e-12
        return ok

    _, optimal = grid_search(objective, feasible, 2, step=step)
    if ball is None:
        rep = project(ProjectionProblem(spec, anchor, cs), TIGHT)
    else:
        rep = project_ball_intersection(spec, anchor, ball[0], ball[1], cs, TIGHT)
    gaps = np.abs(optimal - rep.solution[None, :]).max(axis=1)
    assert gaps.min() <= tol, f"solution {rep.solution} not within {tol} of the optimal face"
    return rep, optimal


def test_grid_oracle_mse_box_halfspace():
    cs = intersect(box2(), from_inequalities(np.array([[1.0, 1.0]]), np.array([0.8]), 2))
    grid_oracle_check(MSE, np.array([0.9, 0.7]), cs)


def test_grid_oracle_mae_degenerate_face():
    # every point of the segment z1+z2 = 0.5 inside the box is optimal here;
    # the solver may return any point of that face
    cs = intersect(box2(), from_inequalities(np.array([[1.0, 1.0]]), np.array([0.5]), 2))
    rep, optimal = grid_oracle_check(MAE, np.array([1.0, 1.0]), cs)
    assert len(optimal) > 10  # non-singleton argmin face reported by the oracle
    assert rep.solution.sum() == pytest.approx(0.5, abs=1e-6)


def test_grid_oracle_huber_box():
    grid_oracle_check(HUBER, np.array([1.4, -0.2]), box2())


def test_grid_oracle_three_dimensional():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = a @ np.full(3, 0.5) + rng.uniform(0.05, 0.3, 3)
    cs = intersect(build_box(0.0, 1.0, 3), from_inequalities(a, b, 3))
    for spec in ALL:
        anchor = rng.uniform(-0.3, 1.3, 3)

        def objective(pts):
            return pointwise(spec, pts - anchor[None, :]).sum(axis=1)

        def feasible(pts):
            ok = np.all((pts >= -1e-12) & (pts <= 1 + 1e-12), axis=1)
            ok &= np.all(pts @ a.T <= b[None, :] + 1e-12, axis=1)
            return ok

        _, optimal = grid_search(objective, feasible, 3, step=1e-2)
        rep = project(ProjectionProblem(spec, anchor, cs), TIGHT)
        gap = np.abs(optimal - rep.solution[None, :]).max(axis=1).min()
        assert gap <= 2e-2, f"{spec.kind}: gap {gap:.3e}"


def test_grid_oracle_with_ball():
    cs = box2()
    center = np.array([0.2, 0.2])
    grid_oracle_check(MSE, np.array([1.0, 1.0]), cs, ball=(center, 0.05))
    grid_oracle_check(MAE, np.array([1.0, 1.0]), cs, ball=(center, 0.1))


def test_ball_beta_zero_returns_center():
    cs = box2()
    center = np.array([0.3, 0.4])
    rep = project_ball_intersection(MSE, np.array([1.0, 1.0]), center, 0.0, cs, TIGHT)
    assert np.array_equal(rep.solution, center)
    assert rep.converged and rep.method == "degenerate-ball"


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind)
def test_ball_inactive_matches_plain_projection(spec):
    rng = np.random.default_rng(3)
    cs = random_polytope(rng, 5, 6)
    anchor = rng.uniform(-0.5, 1.5, 5)
    plain = project(ProjectionProblem(spec, anchor, cs), TIGHT)
    center = cs.feasible_point
    beta = loss_value(spec, plain.solution, center) + 0.05
    balled = project_ball_intersection(spec, anchor, center, beta, cs, TIGHT)
    assert np.allclose(balled.solution, plain.solution, atol=1e-6)
    infinite = project_ball_intersection(spec, anchor, center, np.inf, cs, TIGHT)
    assert np.allclose(infinite.solution, plain.solution, atol=1e-9)


def test_mse_ball_matches_bisection_oracle():
    rng = np.random.default_rng(4)
    cs = box2()
    for _ in range(5):
        anchor = rng.uniform(0.5, 1.5, 2)
        center = rng.uniform(0.1, 0.4, 2)
        beta = float(rng.uniform(0.01, 0.08))
        rep = project_ball_intersection(MSE, anchor, center, beta, cs, TIGHT)
        want = mse_ball_box_oracle(anchor, center, beta)
        assert np.allclose(rep.solution, want, atol=1e-6)
        if loss_value(MSE, project(ProjectionProblem(MSE, anchor, cs), TIGHT).solution,
                      center) > beta:
            assert loss_value(MSE, rep.solution, center) == pytest.approx(beta, abs=1e-8)


def test_projection_with_aux_feasible_anchor_shortcut():
    protected = (ProtectedSpec(0, {0: np.array([0]), 1: np.array([1])}),)
    cs = build_didi_constraints(protected, 0.5, 2)
    anchor = np.array([0.6, 0.4])  # |z0 - z1| = 0.2 <= 0.5: already feasible
    rep = project(ProjectionProblem(MSE, anchor, cs), TIGHT)
    assert rep.method == "already-feasible"
    assert np.array_equal(rep.solution, anchor)


def test_didi_aux_projection_analytic():
    # groups {0} and {1}: the index is |z0 - z1|, so projecting (1, 0) onto
    # {index <= eps} lands at (0.5 + eps/2, 0.5 - eps/2)
    protected = (ProtectedSpec(0, {0: np.array([0]), 1: np.array([1])}),)
    eps = 0.2
    cs = build_didi_constraints(protected, eps, 2)
    rep = project(ProjectionProblem(MSE, np.array([1.0, 0.0]), cs),
                  SolverOptions(tolerance=1e-10, max_iterations=200000))
    assert rep.converged
    assert np.allclose(rep.solution, [0.5 + eps / 2, 0.5 - eps / 2], atol=1e-6)


def test_mse_projection_nonexpansive_sampled():
    rng = np.random.default_rng(5)
    for _ in range(3):
        cs = random_polytope(rng, 8, 10)
        k = lipschitz_probe(MSE, cs, samples=10, seed=int(rng.integers(1 << 31)), opts=TIGHT)
        assert k <= 1.0 + 1e-6


def test_lipschitz_probe_validates_samples():
    cs = box2()
    with pytest.raises(ValueError):
        lipschitz_probe(MSE, cs, samples=0, seed=0)


def test_nonconvergence_reported_not_raised():
    rng = np.random.default_rng(6)
    cs = random_polytope(rng, 10, 12)
    rep = project(ProjectionProblem(MAE, rng.uniform(-0.5, 1.5, 10), cs),
                  SolverOptions(tolerance=1e-12, max_iterations=3))
    assert not rep.converged


def test_warm_start_reaches_same_solution():
    rng = np.random.default_rng(7)
    protected = (ProtectedSpec(0, {0: np.arange(5), 1: np.arange(5, 10)}),)
    cs = intersect(build_didi_constraints(protected, 0.05, 10), build_box(0.0, 1.0, 10))
    anchor = rng.uniform(0, 1, 10)
    anchor[:5] += 0.4
    anchor = np.clip(anchor, 0, 1)
    cold = project(ProjectionProblem(MAE, anchor, cs), TIGHT)
    drift = np.clip(anchor + 0.01, 0, 1)
    warm = project(ProjectionProblem(MAE, drift, cs), TIGHT, warm=cold.state)
    cold2 = project(ProjectionProblem(MAE, drift, cs), TIGHT)
    # the mae argmin can be a face, so compare objective value, not the point
    assert warm.converged and cold2.converged
    assert is_member(cs, warm.solution, tol=1e-6)
    obj_warm = loss_value(MAE, warm.solution, drift)
    obj_cold = loss_value(MAE, cold2.solution, drift)
    assert obj_warm == pytest.approx(obj_cold, abs=1e-7)
    assert warm.iterations <= cold2.iterations


def test_dimension_checks():
    cs = box2()
    with pytest.raises(ValueError):
        ProjectionProblem(MSE, np.zeros(3), cs)
    with pytest.raises(ValueError):
        ProjectionProblem(MSE, np.zeros(2), cs, trust=(np.zeros(3), 0.1))
    with pytest.raises(ValueError):
        ProjectionProblem(MSE, np.zeros(2), cs, trust=(np.zeros(2), -0.1))


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind)
def test_a_nan_trust_radius_is_rejected(spec):
    # NaN fails every comparison: tested as `beta < 0` it passed, and the
    # anchor came back as `already-feasible`
    with pytest.raises(ValueError, match="trust radius must be nonnegative"):
        project_ball_intersection(spec, np.array([1.0, 0.0, 1.0]), np.full(3, 0.5), float("nan"),
                                  build_box(0.0, 1.0, 3))


BALL_OPTS = SolverOptions(tolerance=1e-10, max_iterations=300000)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([10, 50]),
       scale=st.sampled_from([0.2, 0.6, 0.95, 1.05, 2.0]))
def test_mse_ball_dykstra_matches_bisection_oracle(seed, n, scale):
    # a polytope shaped like acceptance criterion 1's; beta is `scale` times
    # the threshold at which the ball turns active
    rng = np.random.default_rng(seed)
    cs = random_polytope(rng, n, int(rng.integers(5, 21)), margin=(0.01, 0.1))
    anchor = rng.uniform(0, 1, n)
    center = project(ProjectionProblem(MSE, rng.uniform(-0.5, 1.5, n), cs), BALL_OPTS).solution
    geom = solver._geometry(cs)

    def inner(v):
        return dykstra_reference(geom, v, BALL_OPTS.tolerance, BALL_OPTS.max_iterations)[0]

    beta = scale * loss_value(MSE, inner(anchor), center)
    want, _ = ball_multiplier_bisection(inner, anchor, center, beta, BALL_OPTS.tolerance)
    rep = project_ball_intersection(MSE, anchor, center, beta, cs, BALL_OPTS)
    assert rep.method == "dykstra-ball" and rep.converged and rep.state is None
    assert is_member(cs, rep.solution, tol=1e-6)
    assert loss_value(MSE, rep.solution, center) <= beta + BALL_OPTS.tolerance
    assert np.max(np.abs(rep.solution - want)) <= 1e-8


def test_empty_ball_intersection_reports_the_loss_unit_excess():
    # the center lies 1e-3 outside the box, so no point of the box is within
    # beta = 1e-9 of it: the solve ends at the box, and its residual is the
    # ball's excess in loss units, mean((z - center)^2) - beta
    n, beta = 20, 1e-9
    center = np.full(n, 0.5)
    center[0] = 1.0 + 1e-3
    rep = project_ball_intersection(MSE, np.full(n, 0.2), center, beta, build_box(0.0, 1.0, n))
    excess = loss_value(MSE, rep.solution, center) - beta
    assert rep.method == "dykstra-ball" and rep.state is None
    assert rep.primal_residual == pytest.approx(excess, rel=1e-9)
    assert 4e-8 < excess < solver.DEFAULT_OPTIONS.tolerance and rep.converged
    assert rep.iterations <= 5
    assert rep.solution[0] <= 1.0


def test_dykstra_matches_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    for trial in range(12):
        n = int(rng.integers(2, 30))
        a = rng.standard_normal((int(rng.integers(0, 12)), n))
        b = a @ np.full(n, 0.5) + rng.uniform(0.0, 0.3, a.shape[0])
        a_eq = rng.standard_normal((trial % 3, n))
        cs = from_inequalities(a, b, n, a_eq=a_eq, b_eq=a_eq @ np.full(n, 0.5),
                               lower=np.zeros(n), upper=np.ones(n))
        geom = solver._geometry(cs)
        v = rng.uniform(-1.0, 2.0, n)
        for tol, sweeps in ((1e-10, 100000), (1e-3, 100000), (1e-10, 3)):
            got = solver._dykstra(geom, v, tol, sweeps)
            want = dykstra_reference(geom, v, tol, sweeps)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def _pdhg_cases():
    """(route, constraints, solve(opts, warm, shift), objective(z, shift),
    ball) per primal-dual route and loss: the anchor is shifted by `shift`
    (clipped to [-1, 2]), and `ball` is None or (loss, center, beta)."""
    rng = np.random.default_rng(9)
    poly = random_polytope(rng, 8, 10)
    anchor = rng.uniform(-0.5, 1.5, 8)
    center = poly.feasible_point
    protected = (ProtectedSpec(0, {0: np.arange(5), 1: np.arange(5, 10)}),)
    didi = intersect(build_didi_constraints(protected, 0.05, 10), build_box(0.0, 1.0, 10))
    y = np.clip(rng.uniform(0, 1, 10) + np.repeat([0.4, 0.0], 5), 0, 1)
    didi_center = np.full(10, 0.5)
    level = intersect(poly, from_inequalities(np.zeros((0, 8)), np.zeros(0), 8,
                                              a_eq=np.ones((1, 8)), b_eq=[3.5]))

    def shifted(target, shift):
        return np.clip(target + shift, -1, 2)

    def plain(spec, cs, target):
        return ("pdhg", cs, lambda opts, warm, shift: project(
            ProjectionProblem(spec, shifted(target, shift), cs), opts, warm),
            lambda z, shift: loss_value(spec, z, shifted(target, shift)), None)

    def ball(spec, cs, target, mid, beta):
        return ("pdhg-ball", cs, lambda opts, warm, shift: project_ball_intersection(
            spec, shifted(target, shift), mid, beta, cs, opts, warm),
            lambda z, shift: loss_value(spec, z, shifted(target, shift)), (spec, mid, beta))

    def blend(spec, cs, target, prediction):
        return ("pdhg-blend", cs, lambda opts, warm, shift: project_blend(
            spec, shifted(target, shift), prediction, 0.5, cs, opts, warm),
            lambda z, shift: loss_value(spec, z, shifted(target, shift))
            + 0.5 * loss_value(spec, z, prediction), None)

    return [
        pytest.param(*plain(MAE, poly, anchor), id="pdhg-mae"),
        pytest.param(*plain(HUBER, poly, anchor), id="pdhg-huber"),
        pytest.param(*plain(MSE, didi, y), id="pdhg-mse-didi"),
        pytest.param(*plain(MAE, level, anchor - 0.6), id="pdhg-mae-equality"),
        pytest.param(*ball(MAE, poly, anchor, center, 0.02), id="pdhg-ball-mae"),
        pytest.param(*ball(MSE, didi, y, didi_center, 0.01), id="pdhg-ball-mse-didi"),
        pytest.param(*blend(MAE, poly, anchor, center), id="pdhg-blend-mae"),
        pytest.param(*blend(MSE, didi, y, didi_center), id="pdhg-blend-mse-didi"),
    ]


def _same_report(got, want):
    assert got.method == want.method
    assert np.array_equal(got.solution, want.solution)
    assert (got.iterations, got.primal_residual, got.dual_residual, got.converged) == \
        (want.iterations, want.primal_residual, want.dual_residual, want.converged)
    for key in ("x", "y", "yb"):
        assert (got.state[key] is None) == (want.state[key] is None)
        if got.state[key] is not None:
            assert np.array_equal(got.state[key], want.state[key])
    assert got.state["omega"] == want.state["omega"]


PDHG_CONVERGING = SolverOptions(tolerance=1e-9, max_iterations=4000)
PDHG_OPTIONS = pytest.mark.parametrize(
    "opts", [PDHG_CONVERGING, SolverOptions(tolerance=1e-12, max_iterations=137)],
    ids=["converging", "capped"])


@PDHG_OPTIONS
@pytest.mark.parametrize("route,cs,solve,objective,ball", _pdhg_cases())
def test_pdhg_matches_reference_bit_for_bit(route, cs, solve, objective, ball, opts,
                                            monkeypatch):
    # cold, then warm-started from the cold state on a drifted anchor, then
    # resumed from the warm state on the same anchor (converging: one step)
    cold = solve(opts, None, 0.0)
    warm = solve(opts, cold.state, 0.01)
    again = solve(opts, warm.state, 0.01)
    assert cold.method == warm.method == again.method == route
    if warm.converged:
        assert again.iterations == 1

    _patched_pdhg(monkeypatch, polished=True)
    cold_ref = solve(opts, None, 0.0)
    _same_report(cold, cold_ref)
    warm_ref = solve(opts, cold_ref.state, 0.01)
    _same_report(warm, warm_ref)
    _same_report(again, solve(opts, warm_ref.state, 0.01))
    # the second algorithm returns the stepped point at the resumed exit: it
    # ends at the same step with the same residuals, within tolerance
    _patched_pdhg(monkeypatch, polished=True, stepped_exit=True)
    stepped = solve(opts, warm_ref.state, 0.01)
    assert (stepped.iterations, stepped.primal_residual, stepped.dual_residual,
            stepped.converged) == (again.iterations, again.primal_residual,
                                   again.dual_residual, again.converged)
    assert np.max(np.abs(stepped.solution - again.solution)) <= opts.tolerance


@PDHG_OPTIONS
@pytest.mark.parametrize("route,cs,solve,objective,ball", _pdhg_cases())
def test_pdhg_matches_reference_at_tolerance(route, cs, solve, objective, ball, opts,
                                             monkeypatch):
    # cold, then warm-started from the cold state on a drifted anchor; a
    # solve that stopped at the cap is finished from its state
    cold = solve(opts, None, 0.0)
    warm = solve(opts, cold.state, 0.01)
    assert cold.method == warm.method == route
    finished = [(shift, rep if rep.converged else solve(PDHG_CONVERGING, rep.state, shift))
                for shift, rep in ((0.0, cold), (0.01, warm))]
    for shift, rep in finished:
        assert rep.converged
        # the state holds the solution: resuming it is quicker than reaching it
        again = solve(PDHG_CONVERGING, rep.state, shift)
        assert again.converged and (again.iterations == 1 or again.iterations < rep.iterations)

    def reference(geom, prox_z, tol, max_iter, state=None, ball=None, anchor_start=None,
                  objective=None):
        return pdhg_unrestarted_reference(geom, prox_z, tol, max_iter, state, ball,
                                          anchor_start, project_ball)

    # the oracle runs to 1e-12, where its own objective error on these cases
    # is at most 1.1e-12, well under the abs 1e-8 below (up to 1.3e-9 at 1e-9)
    monkeypatch.setattr(solver, "_pdhg", reference)
    for shift, rep in finished:
        want = solve(SolverOptions(tolerance=1e-12, max_iterations=100000), None, shift)
        assert want.converged
        assert is_member(cs, rep.solution, tol=1e-8)
        if ball is not None:
            spec, center, beta = ball
            assert loss_value(spec, rep.solution, center) <= beta + 1e-8
        # the mae argmin can be a face, so compare objective values, not points
        assert objective(rep.solution, shift) == pytest.approx(
            objective(want.solution, shift), abs=1e-8)


def _workload_instance(k):
    """Instance k of the benchmark's polytope workload, unpermuted: ridge
    data of 2-6 features, and 5-20 unit rows 0.05-0.4 outside the centre of
    the [0, 1] box, in 50 dimensions for k = 0 and 10 otherwise."""
    rng = np.random.default_rng(4000 + k)
    n = 50 if k % 4 == 0 else 10
    d, m = int(rng.integers(2, 7)), int(rng.integers(5, 21))
    x, y = rng.uniform(0, 1, (n, d)), rng.uniform(0, 1, n)
    a = rng.standard_normal((m, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = a @ np.full(n, 0.5) + rng.uniform(0.05, 0.4, m)
    return (Dataset(x, y, [f"f{j}" for j in range(d)], [(0.0, 1.0)] * d, "y", (0.0, 1.0)),
            from_inequalities(a, b, n, lower=np.zeros(n), upper=np.ones(n)))


def test_restarts_end_the_heavy_tail_of_mae_solves(monkeypatch):
    # the slowest mae solve of the benchmark's polytope probes: 26,580
    # iterations under the earlier rebalanced PDHG, 1,770 with restarts,
    # 240 once the restarted iterate is polished onto its vertex, with the
    # bits of the polished oracle
    _, cs = _workload_instance(0)
    anchor = np.random.default_rng(0).uniform(-0.5, 1.5, (3, 50))[2]
    opts = SolverOptions(tolerance=1e-9, max_iterations=5000)
    rep = project(ProjectionProblem(MAE, anchor, cs), opts)
    assert rep.method == "pdhg" and rep.converged
    assert rep.iterations <= 300
    _patched_pdhg(monkeypatch, polished=True)
    _same_report(rep, project(ProjectionProblem(MAE, anchor, cs), opts))


def test_face_polish_ends_the_heavy_tail_of_mae_ball_solves(monkeypatch):
    # the polytope workload's mae runs: ridge, alpha 0.2, beta 0.05, 8
    # iterations. Instances 0-2 take the feasible branch, by `pdhg-ball`.
    # Their slowest solve took 280 iterations with no polish inside the
    # ball; polished onto the face it takes 20, and the slowest now takes
    # 40. The oracle's polish gives the same steps, bit for bit
    def run_instances():
        return [run(RunConfig(alpha=0.2, constraints=cs, beta=0.05, iterations=8, loss=MAE,
                              learner=LearnerSpec("ridge", ridge_lambda=0.0),
                              solver=SolverOptions(tolerance=1e-9, max_iterations=300000)),
                    ds, ds).records
                for ds, cs in map(_workload_instance, range(3))]

    runs = run_instances()
    steps = [r for records in runs for r in records]
    assert {r.solver_method for r in steps} == {"pdhg-ball"}
    assert all(r.solver_converged for r in steps)
    assert max(r.solver_iterations for r in steps) <= 60
    _patched_pdhg(monkeypatch, polished=True)
    for records, want in zip(runs, run_instances()):
        assert [r.solver_iterations for r in records] == [r.solver_iterations for r in want]
        for got, ref in zip(records, want):
            assert np.array_equal(got.z, ref.z)


def _patched_pdhg(monkeypatch, polished, stepped_exit=False):
    """Route the primal-dual solves through `pdhg_reference`: the polished
    iteration, or the restarted one alone, with its resumed exit or the
    stepped one."""
    def reference(geom, prox_z, tol, max_iter, state=None, ball=None, anchor_start=None,
                  objective=None):
        return pdhg_reference(geom, prox_z, tol, max_iter, state, ball, anchor_start,
                              project_ball, objective if polished else None, stepped_exit)

    monkeypatch.setattr(solver, "_pdhg", reference)


def _route_solve(spec, route, cs, prediction, weight, beta=None):
    """solve(target, warm, opts=TIGHT) on a primal-dual route; the ball of
    `pdhg-ball` is centred on the set's feasible point."""
    if route == "pdhg":
        return lambda target, warm, opts=TIGHT: project(
            ProjectionProblem(spec, target, cs), opts, warm)
    if route == "pdhg-ball":
        return lambda target, warm, opts=TIGHT: project_ball_intersection(
            spec, target, cs.feasible_point, beta, cs, opts, warm)
    return lambda target, warm, opts=TIGHT: project_blend(
        spec, target, prediction, weight, cs, opts, warm)


def _with_didi(cs, n):
    """`cs` with a DIDI block over two groups: auxiliary columns, free and
    with zero slope, which put mse solves on the primal-dual routes."""
    groups = {0: np.arange(n // 2), 1: np.arange(n // 2, n)}
    return intersect(cs, build_didi_constraints((ProtectedSpec(0, groups),), 0.05, n))


def _check_polished_solves(solve, objective, cs, route, anchor, drifted):
    """Solve cold, then warm from the polished cold state on a drifted
    anchor, and check both against the oracles: bit for bit against the
    polished one, and against the unpolished one, which runs the same
    iteration without the polish exit and so can only take longer, at 1e-9
    for the iterations and at 1e-11 for the objective. Returns the two
    reports."""
    cold = solve(anchor, None)
    warm = solve(drifted, cold.state)
    with pytest.MonkeyPatch.context() as patch:
        _patched_pdhg(patch, polished=True)
        cold_ref = solve(anchor, None)
        _same_report(cold, cold_ref)
        _same_report(warm, solve(drifted, cold_ref.state))
        _patched_pdhg(patch, polished=False)
        unpolished = [(solve(anchor, None, opts), solve(drifted, cold.state, opts))
                      for opts in (TIGHT, SolverOptions(tolerance=1e-11, max_iterations=100000))]
    for target, rep, want, finer in zip((anchor, drifted), (cold, warm), *unpolished):
        assert rep.method == want.method == route
        assert rep.converged and want.converged and finer.converged
        assert is_member(cs, rep.solution, tol=1e-8)
        assert objective(rep.solution, target) == pytest.approx(
            objective(finer.solution, target), abs=1e-8)
        assert rep.iterations <= want.iterations
    return cold, warm


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(1, 8),
       route=st.sampled_from(["pdhg", "pdhg-blend"]), equalities=st.integers(0, 1),
       didi=st.booleans(), weight=st.sampled_from([0.5, 1.0, 3.0]))
@example(seed=127532060, n=2, m=5, route="pdhg-blend", equalities=1, didi=False, weight=3.0)
def test_polished_mae_solves_match_the_unpolished_oracle(seed, n, m, route, equalities, didi,
                                                         weight):
    # the unpolished oracle's answers at 1e-11 check the objective: at 1e-9
    # its point can miss a row by 1.6e-9 and undercut the vertex by 1.2e-8
    # (the explicit example)
    rng = np.random.default_rng(seed)
    cs = random_polytope(rng, n, m, equalities=equalities)
    if didi:
        cs = _with_didi(cs, n)
    anchor = rng.uniform(-0.5, 1.5, n)
    anchor[0] = -0.5  # outside the box, so never already feasible
    drifted = np.clip(anchor + rng.uniform(-0.05, 0.05, n), -1, 2)
    prediction = rng.uniform(0, 1, n)
    solve = _route_solve(MAE, route, cs, prediction, weight)

    def objective(z, target):
        value = loss_value(MAE, z, target)
        return value if route == "pdhg" else value + weight * loss_value(MAE, z, prediction)

    _check_polished_solves(solve, objective, cs, route, anchor, drifted)


@pytest.mark.parametrize("route,spec", [
    pytest.param("pdhg", MAE, id="pdhg"),
    pytest.param("pdhg-blend", MAE, id="pdhg-blend"),
    pytest.param("pdhg-ball", MAE, id="pdhg-ball-mae"),
    pytest.param("pdhg", MSE, id="pdhg-mse-didi"),
    pytest.param("pdhg-ball", MSE, id="pdhg-ball-mse-didi"),
    pytest.param("pdhg-blend", MSE, id="pdhg-blend-mse-didi")])
def test_a_singular_active_set_leaves_the_solve_unpolished(route, spec, monkeypatch):
    # every row twice: the two copies always carry the same multiplier, so
    # an active set holds both or neither, and the matrix it solves with is
    # singular.
    # mse takes the primal-dual routes with a DIDI block. The ball is
    # tight: half the loss from its center to the plain projection
    rng = np.random.default_rng(23)
    a = rng.standard_normal((4, 6))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = a @ np.full(6, 0.5) + rng.uniform(0.05, 0.45, 4)
    cs = from_inequalities(np.vstack([a, a]), np.concatenate([b, b]), 6,
                           lower=np.zeros(6), upper=np.ones(6))
    anchor = rng.uniform(-0.5, 1.5, 6)
    if spec is MSE:
        cs = _with_didi(cs, 6)
    beta = 0.5 * loss_value(spec, project(ProjectionProblem(spec, anchor, cs), TIGHT).solution,
                            cs.feasible_point)
    solve = _route_solve(spec, route, cs, rng.uniform(0, 1, 6), 0.5, beta)
    singular = []
    linalg_solve = np.linalg.solve

    def counting(basis, rhs):
        try:
            return linalg_solve(basis, rhs)
        except np.linalg.LinAlgError:
            singular.append(basis.shape)
            raise

    monkeypatch.setattr(np.linalg, "solve", counting)
    got = solve(anchor, None)
    assert got.method == route and got.converged and singular
    _patched_pdhg(monkeypatch, polished=False)
    _same_report(got, solve(anchor, None))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(1, 8),
       route=st.sampled_from(["pdhg", "pdhg-ball", "pdhg-blend"]), equalities=st.integers(0, 1),
       radius=st.sampled_from([0.25, 0.5, 2.0]), weight=st.sampled_from([0.5, 1.0, 3.0]))
def test_polished_mse_solves_match_the_unpolished_oracle(seed, n, m, route, equalities, radius,
                                                         weight):
    # as for mae, on sets with a DIDI block. The ball's beta is `radius`
    # times the loss from its center to the plain projection: under 1 the
    # ball is tight at the answer, over 1 it is slack
    rng = np.random.default_rng(seed)
    cs = _with_didi(random_polytope(rng, n, m, equalities=equalities), n)
    anchor = rng.uniform(-0.5, 1.5, n)
    anchor[0] = -0.5  # outside the box, so never already feasible
    drifted = np.clip(anchor + rng.uniform(-0.05, 0.05, n), -1, 2)
    prediction = rng.uniform(0, 1, n)
    center = cs.feasible_point
    beta = radius * loss_value(MSE, project(ProjectionProblem(MSE, anchor, cs), TIGHT).solution,
                               center)
    solve = _route_solve(MSE, route, cs, prediction, weight, beta)

    def objective(z, target):
        value = loss_value(MSE, z, target)
        return value + weight * loss_value(MSE, z, prediction) if route == "pdhg-blend" else value

    for rep in _check_polished_solves(solve, objective, cs, route, anchor, drifted):
        if route == "pdhg-ball":
            assert loss_value(MSE, rep.solution, center) <= beta + 1e-8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(1, 8),
       equalities=st.integers(0, 1), didi=st.booleans(), radius=st.sampled_from([0.25, 0.5, 2.0]))
@example(seed=665058576, n=6, m=2, equalities=1, didi=True, radius=2.0)
def test_polished_mae_ball_solves_match_the_unpolished_oracle(seed, n, m, equalities, didi,
                                                              radius):
    # as for mse: beta is `radius` times the loss from the ball's center to
    # the plain projection, so the ball is tight or slack at the answer. In
    # the explicit example a nearly singular Gram matrix would put the
    # polished point near 1e17 (test_numerically_singular_polish_is_dropped)
    solve, cs, beta, anchor, drifted = _mae_ball_case(seed, n, m, equalities, didi, radius)
    center = cs.feasible_point
    for rep in _check_polished_solves(solve, lambda z, target: loss_value(MAE, z, target), cs,
                                      "pdhg-ball", anchor, drifted):
        assert loss_value(MAE, rep.solution, center) <= beta + 1e-8


def test_numerically_singular_polish_is_dropped(monkeypatch):
    # in the explicit example above, a Gram solve of the polish returns a
    # finite point near 1e17 that misses its right-hand side; the polish
    # drops it as singular, so no step is taken from it
    seen = []

    def spy(spec, v, *args):
        seen.append(float(np.abs(v).max()))
        return project_ball(spec, v, *args)

    monkeypatch.setattr(solver, "project_ball", spy)
    solve, cs, beta, anchor, drifted = _mae_ball_case(665058576, 6, 2, 1, True, 2.0)
    cold = solve(anchor, None)
    warm = solve(drifted, cold.state)
    assert cold.converged and warm.converged
    assert seen and max(seen) < 1e3


def _mae_ball_case(seed, n, m, equalities, didi, radius):
    """A generated mae-ball problem, its `pdhg-ball` solve and its beta,
    anchor and drifted anchor."""
    rng = np.random.default_rng(seed)
    cs = random_polytope(rng, n, m, equalities=equalities)
    if didi:
        cs = _with_didi(cs, n)
    anchor = rng.uniform(-0.5, 1.5, n)
    anchor[0] = -0.5  # outside the box, so never already feasible
    drifted = np.clip(anchor + rng.uniform(-0.05, 0.05, n), -1, 2)
    center = cs.feasible_point
    beta = radius * loss_value(MAE, project(ProjectionProblem(MAE, anchor, cs), TIGHT).solution,
                               center)
    return _route_solve(MAE, "pdhg-ball", cs, None, None, beta), cs, beta, anchor, drifted


PDHG_ROUTES = [("pdhg", MAE), ("pdhg", HUBER), ("pdhg-ball", MAE), ("pdhg-ball", HUBER),
               ("pdhg-blend", MSE), ("pdhg-blend", MAE), ("pdhg-blend", HUBER)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(1, 8),
       route=st.sampled_from(PDHG_ROUTES), beta=st.sampled_from([0.005, 0.02, 0.1]),
       weight=st.sampled_from([0.1, 1.0, 9.0]))
def test_pdhg_routes_return_members_and_are_idempotent(seed, n, m, route, beta, weight):
    # re-projecting a solution must return it: as the anchor of a plain or
    # ball projection, and as both anchors of a blend
    route, spec = route
    rng = np.random.default_rng(seed)
    cs = random_polytope(rng, n, m)
    anchor = rng.uniform(-0.5, 1.5, n)
    anchor[0] = -0.5  # outside the box, so never already feasible
    center = cs.feasible_point
    if route == "pdhg":
        def solve(target, prediction):
            return project(ProjectionProblem(spec, target, cs), TIGHT)
    elif route == "pdhg-ball":
        def solve(target, prediction):
            return project_ball_intersection(spec, target, center, beta, cs, TIGHT)
    else:
        def solve(target, prediction):
            return project_blend(spec, target, prediction, weight, cs, TIGHT)
    rep = solve(anchor, rng.uniform(0, 1, n))
    assert rep.method == route and rep.converged
    assert is_member(cs, rep.solution, tol=1e-8)
    if route == "pdhg-ball":
        assert loss_value(spec, rep.solution, center) <= beta + 1e-8
    again = solve(rep.solution, rep.solution)
    assert again.converged
    assert np.max(np.abs(again.solution - rep.solution)) <= 1e-7


def _solve(spec, cs, beta):
    """The projection under `spec` onto `cs`, inside the ball of radius `beta`
    around its feasible point unless `beta` is None, at TIGHT. Under mse it
    is a `dykstra` or `dykstra-ball` solve."""
    if beta is None:
        return lambda target: project(ProjectionProblem(spec, target, cs), TIGHT)
    return lambda target: project_ball_intersection(spec, target, cs.feasible_point, beta,
                                                    cs, TIGHT)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(1, 8),
       beta=st.sampled_from([None, 0.005, 0.02, 0.1]))
def test_dykstra_routes_return_members_and_are_idempotent(seed, n, m, beta):
    rng = np.random.default_rng(seed)
    cs = random_polytope(rng, n, m)
    anchor = rng.uniform(-0.5, 1.5, n)
    anchor[0] = -0.5  # outside the box, so never already feasible
    solve = _solve(MSE, cs, beta)
    rep = solve(anchor)
    assert rep.method == ("dykstra" if beta is None else "dykstra-ball")
    assert rep.converged and rep.state is None
    assert is_member(cs, rep.solution, tol=1e-8)
    if beta is not None:
        assert loss_value(MSE, rep.solution, cs.feasible_point) <= beta + 1e-8
    again = solve(rep.solution)
    assert again.converged
    assert np.max(np.abs(again.solution - rep.solution)) <= 1e-7


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(1, 8),
       equalities=st.integers(0, 1), spec=st.sampled_from([MSE, MAE]),
       beta=st.sampled_from([None, 0.005, 0.02, 0.1]))
def test_projection_is_lipschitz(seed, n, m, equalities, spec, beta):
    # with or without the ball the set is convex: the mse projection is
    # Euclidean, so nonexpansive, and the mae projection is at most
    # 2-Lipschitz in the L1 norm
    order, bound = (2, 1.0) if spec is MSE else (1, 2.0)
    rng = np.random.default_rng(seed)
    cs = random_polytope(rng, n, m, equalities=equalities)
    x1, x2 = rng.uniform(-0.5, 1.5, (2, n))
    solve = _solve(spec, cs, beta)
    p1, p2 = solve(x1), solve(x2)
    assert p1.converged and p2.converged
    assert np.linalg.norm(p1.solution - p2.solution, order) <= \
        bound * np.linalg.norm(x1 - x2, order) + 1e-8


def test_geometry_built_once_per_constraint_set(monkeypatch):
    # certified sets get their geometry from the certificate; a box is not
    # certified, so its geometry is built on the first solve
    built = []
    original = constraints._Geometry

    def counting(cs):
        built.append(original(cs))
        return built[-1]

    monkeypatch.setattr(constraints, "_Geometry", counting)
    rng = np.random.default_rng(10)
    cs = random_polytope(rng, 6, 8)
    for spec in ALL:
        lipschitz_probe(spec, cs, samples=3, seed=1)
        project_blend(spec, rng.uniform(0, 1, 6), rng.uniform(0, 1, 6), 1.0, cs)
        project_ball_intersection(spec, rng.uniform(0, 1, 6), cs.feasible_point, 0.01, cs)
    assert built == [constraints._geometry(cs)]
    other = random_polytope(rng, 6, 8)
    project(ProjectionProblem(MAE, rng.uniform(-1, 2, 6), other))
    assert len(built) == 2 and built[1] is constraints._geometry(other)
    box = build_box(0.0, 1.0, 6)
    project(ProjectionProblem(MAE, rng.uniform(-1, 2, 6), box))
    project(ProjectionProblem(MSE, rng.uniform(-1, 2, 6), box))
    assert len(built) == 3 and built[2] is constraints._geometry(box)
