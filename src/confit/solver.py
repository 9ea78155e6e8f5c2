"""Solvers for the two adjustment subproblems: minimize a loss toward an
anchor over a ConstraintSet, optionally inside a loss-ball around a feasible
center.

Three routes, picked automatically:

* squared loss, no auxiliaries, no ball: cyclic projections with Dykstra
  corrections onto bounds and individual rows (the projection is Euclidean);
* squared loss, no auxiliaries, ball: a safeguarded secant search (Illinois
  regula falsi, bisection when a step leaves the bracket) on the ball
  multiplier, each evaluation an inner Dykstra projection of the reweighted
  anchor;
* everything else (absolute/Huber losses, auxiliary variables, combined
  two-anchor objectives): a restarted primal-dual (PDHG) iteration whose
  primal step is the closed-form loss prox and whose dual blocks are one
  multiplier per linear row plus an optional loss-ball block. Following PDLP
  (Applegate et al., NeurIPS 2021; Applegate, Hinder, Lu & Lubin, Math.
  Programming 2023), it restarts from the better of the current iterate and
  the average since the last restart, judged by the fixed-point residual,
  and at each restart it moves the primal weight omega that splits the step
  into tau = eta/omega and sigma = eta*omega.

The prepared constraint geometry (stacked unit rows, rescaled auxiliaries and
the operator norm) and the Dykstra sweep live in `confit.constraints`, which
certifies constraint sets with them; the geometry is built once per
ConstraintSet and kept on it.

Warm starts carry the primal/dual iterates and the primal weight between
consecutive solves (sound for the primal-dual route; Dykstra corrections are
never reused because they are tied to the projected point) and the ball
multiplier between consecutive ball solves. A primal-dual solve that resumes
a warm state checks the residual of its first step, and ends there when the
state already solves the new problem, as it does once the fit-adjust loop
has settled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, _dykstra, _geometry, _Geometry
from .losses import LossSpec, loss_norm, loss_value, project_ball, prox_pair, prox_unit


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-7
    max_iterations: int = 20000
    warm_start: bool = True

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance: must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations: must be at least 1, got {self.max_iterations}")


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class ProjectionProblem:
    loss: LossSpec
    anchor: np.ndarray
    constraints: ConstraintSet
    trust: tuple[np.ndarray, float] | None = None  # (center, beta in loss units)

    def __post_init__(self):
        if np.asarray(self.anchor).shape != (self.constraints.n,):
            raise ValueError(
                f"anchor has shape {np.asarray(self.anchor).shape}, expected ({self.constraints.n},)")
        if self.trust is not None:
            center, beta = self.trust
            if np.asarray(center).shape != (self.constraints.n,):
                raise ValueError("trust center dimension does not match constraints")
            if beta < 0:
                raise ValueError(f"trust radius must be nonnegative, got {beta}")


@dataclass
class SolverReport:
    solution: np.ndarray
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool
    method: str
    state: dict | None = None


# PDLP's restart rules and primal-weight smoothing (Applegate et al. 2021)
RESTART_SUFFICIENT = 0.2
RESTART_NECESSARY = 0.8
RESTART_ARTIFICIAL = 0.36
PRIMAL_WEIGHT_SMOOTHING = 0.5
STEP_FRACTION = 0.95  # eta = STEP_FRACTION / ||K||, K the rows plus the ball block


def _pdhg(geom: _Geometry, prox_z, tol: float, max_iter: int, state=None,
          ball=None, anchor_start=None):
    """Restarted primal-dual iteration: primal prox on z (identity on aux),
    per-row dual ascent, optional loss-ball dual block, with the steps
    tau = eta/omega and sigma = eta*omega of the primal weight omega.

    Every 10 iterations the fixed-point residual of the iterate is compared
    with that of one step from the average of the iterates since the last
    restart. The better of the two is the candidate, and the iteration
    restarts there when its residual has fallen to RESTART_SUFFICIENT of the
    one at the last restart, to RESTART_NECESSARY of it while rising from
    the previous candidate's, or when the restart is RESTART_ARTIFICIAL of
    all iterations old. A restart moves log(omega) part of the way to the
    log-ratio of the dual to the primal movement since the last restart.

    A solve that resumes a warm `state` also computes the residual of its
    first step, and returns that step when both parts are within `tol`. The
    check touches no restart bookkeeping, so a solve that goes on runs
    exactly as it would without it. Cold starts skip it: they never start at
    their answer.
    """
    n, width, m = geom.n, geom.width, geom.m
    a, b, y_floor, lower, upper = geom.a, geom.b, geom.y_floor, geom.lower, geom.upper
    at = a.T
    norm2 = geom.op_norm ** 2 + (1.0 if ball is not None else 0.0)
    eta = STEP_FRACTION / np.sqrt(max(norm2, 1e-12))
    omega = 1.0
    resumed = state is not None and state.get("kind") == "pdhg" and state["x"].size == width \
        and state["y"].size == m and (ball is None) == (state["yb"] is None)
    if resumed:
        x, y, yb, omega = state["x"], state["y"], state["yb"], state["omega"]
    else:
        x = np.zeros(width)
        if anchor_start is not None:
            x[:n] = np.clip(anchor_start, lower[:n], upper[:n])
        y = np.zeros(m)
        yb = np.zeros(n) if ball is not None else None
    if ball is not None:
        center, beta, spec = ball

    def step(x, y, yb):
        """One PDHG step from (x, y, yb); returns new arrays."""
        grad = at @ y
        if ball is not None:
            grad[:n] += yb
        xn = x - tau * grad
        if width > n:
            xn[:n] = prox_z(xn[:n], tau)
        else:
            xn = prox_z(xn, tau)
        np.minimum(np.maximum(xn, lower, out=xn), upper, out=xn)
        x_relaxed = 2.0 * xn - x
        yn = a @ x_relaxed
        yn -= b
        yn *= sig
        yn += y
        np.maximum(yn, y_floor, out=yn)
        if ball is None:
            return xn, yn, None
        t2 = yb + sig * x_relaxed[:n]
        return xn, yn, t2 - sig * project_ball(spec, t2 / sig, center, beta)

    def residual(x0, y0, yb0, x1, y1, yb1):
        """The primal and dual parts of P (z0 - z1), with P the PDHG metric:
        for z1 the step from z0, a KKT residual of z1, root mean square."""
        dx = x0 - x1
        dy = y0 - y1
        p = dx / tau - at @ dy
        d = dy / sig - a @ dx
        dd = float(d @ d)
        if ball is not None:
            dyb = yb0 - yb1
            p[:n] -= dyb
            d = dyb / sig - dx[:n]
            dd += float(d @ d)
        return (math.sqrt(float(p @ p) / width),
                math.sqrt(dd / max(m + (n if ball is not None else 0), 1)))

    tau, sig = eta / omega, eta * omega
    x0, y0, yb0 = x, y, yb  # the last restart point
    x_sum, y_sum = np.zeros(width), np.zeros(m)
    yb_sum = np.zeros(n) if ball is not None else None
    since = 0  # iterations since the last restart
    r_restart = r_last = np.inf
    it = 0
    pri = dua = np.inf
    for it in range(1, max_iter + 1):
        x_old, y_old, yb_old = x, y, yb
        x, y, yb = step(x, y, yb)
        since += 1
        x_sum += x
        y_sum += y
        if ball is not None:
            yb_sum += yb
        checked = it % 10 == 0 or it == max_iter
        if not (checked or it == 1 and resumed):
            continue
        pri, dua = residual(x_old, y_old, yb_old, x, y, yb)
        if pri <= tol and dua <= tol:
            break
        if not checked:
            continue  # a resumed solve's first step is checked for the exit only
        xa, ya = x_sum / since, y_sum / since
        yba = yb_sum / since if ball is not None else None
        avg = step(xa, ya, yba)
        pa, da = residual(xa, ya, yba, *avg)
        r_cand, r_avg = math.hypot(pri, dua), math.hypot(pa, da)
        averaged = r_avg < r_cand
        if averaged:
            r_cand = r_avg
            if pa <= tol and da <= tol:
                (x, y, yb), pri, dua = avg, pa, da
                break
        if not (r_cand <= RESTART_SUFFICIENT * r_restart
                or RESTART_NECESSARY * r_restart >= r_cand > r_last
                or since >= RESTART_ARTIFICIAL * it):
            r_last = r_cand
            continue
        if averaged:
            (x, y, yb), pri, dua = avg, pa, da
        # how far the primal and the dual parts moved since the last restart
        dx = float(np.linalg.norm(x - x0))
        dy = math.sqrt(float((y - y0) @ (y - y0))
                       + (float((yb - yb0) @ (yb - yb0)) if ball is not None else 0.0))
        if dx > 1e-10 and dy > 1e-10:
            omega = math.exp(PRIMAL_WEIGHT_SMOOTHING * math.log(dy / dx)
                             + (1.0 - PRIMAL_WEIGHT_SMOOTHING) * math.log(omega))
            tau, sig = eta / omega, eta * omega
        x0, y0, yb0 = x, y, yb
        x_sum, y_sum = np.zeros(width), np.zeros(m)
        yb_sum = np.zeros(n) if ball is not None else None
        since = 0
        r_restart, r_last = r_cand, np.inf
    return x, pri, dua, it, {"kind": "pdhg", "x": x, "y": y, "yb": yb, "omega": omega}


def _finish(geom: _Geometry, x: np.ndarray) -> np.ndarray:
    """Strip auxiliaries (undoing their scaling is unnecessary: they are not returned)."""
    return x[:geom.n].copy()


def project(problem: ProjectionProblem, opts: SolverOptions = DEFAULT_OPTIONS,
            warm: dict | None = None) -> SolverReport:
    """Minimize loss(z, anchor) over the constraint set (within the trust ball
    if one is present)."""
    cs = problem.constraints
    loss = problem.loss
    anchor = np.asarray(problem.anchor, dtype=float)
    geom = _geometry(cs)
    trust = problem.trust
    if trust is not None:
        center, beta = np.asarray(trust[0], dtype=float), float(trust[1])
        if beta == 0.0:
            # the ball degenerates to its center, which the caller guarantees feasible
            return SolverReport(center.copy(), 0.0, 0.0, 0, True, "degenerate-ball")
        if not np.isfinite(beta):
            trust = None
    if warm is not None and not opts.warm_start:
        warm = None

    if trust is None:
        extended = cs.extend(anchor)
        if cs.n_aux:
            extended = np.concatenate([anchor, extended[cs.n:] / geom.aux_scale])
        if geom.violation(extended) <= 1e-15:
            return SolverReport(anchor.copy(), 0.0, 0.0, 0, True, "already-feasible")
        if loss.kind == "mse" and cs.n_aux == 0:
            x, sweeps, viol, change = _dykstra(geom, anchor, opts.tolerance, opts.max_iterations)
            converged = viol <= opts.tolerance and change <= opts.tolerance
            return SolverReport(_finish(geom, x), viol, change, sweeps, converged, "dykstra")
        x, pri, dua, it, state = _pdhg(
            geom, lambda v, t: prox_unit(loss, t, v, anchor),
            opts.tolerance, opts.max_iterations, state=warm, anchor_start=anchor)
        return SolverReport(_finish(geom, x), pri, dua, it,
                            pri <= opts.tolerance and dua <= opts.tolerance, "pdhg", state)

    if loss.kind == "mse" and cs.n_aux == 0:
        return _ball_multiplier_mse(geom, anchor, center, beta, opts, warm)
    x, pri, dua, it, state = _pdhg(
        geom, lambda v, t: prox_unit(loss, t, v, anchor),
        opts.tolerance, opts.max_iterations, state=warm,
        ball=(center, beta, loss), anchor_start=center)
    return SolverReport(_finish(geom, x), pri, dua, it,
                        pri <= opts.tolerance and dua <= opts.tolerance, "pdhg-ball", state)


def project_ball_intersection(loss: LossSpec, anchor, center, beta: float,
                              constraints: ConstraintSet,
                              opts: SolverOptions = DEFAULT_OPTIONS,
                              warm: dict | None = None) -> SolverReport:
    """Minimize loss(z, anchor) over {z in C : loss(z, center) <= beta}."""
    problem = ProjectionProblem(loss, np.asarray(anchor, dtype=float), constraints,
                                trust=(np.asarray(center, dtype=float), beta))
    return project(problem, opts, warm)


def _ball_multiplier_mse(geom: _Geometry, anchor, center, beta, opts, warm):
    """Squared loss + Euclidean ball. With the ball active, the solution is
    z(nu), the plain projection of (anchor + nu*center)/(1 + nu), at the root
    of phi(nu) = loss(z(nu), center) - beta, which decreases in nu.

    The search keeps a bracket phi(nu_lo) > 0 >= phi(nu_hi), found by
    growing nu_hi from the previous solve's multiplier, and shrinks it by
    Illinois regula falsi steps (a secant through the two ends, halving the
    value kept at an end that survives twice in a row), with bisection
    whenever the secant point leaves the bracket. It stops once the bracket
    is 1e-12 wide relative to nu_hi (the bisection it replaces stopped
    there) or z(nu_hi) meets the ball's boundary to 1e-15 * beta. It returns
    z(nu_hi), so the solution never leaves the ball.
    """
    mse = LossSpec("mse")
    tol = opts.tolerance
    total = 0

    def inner(nu):
        nonlocal total
        blend = (anchor + nu * center) / (1.0 + nu)
        x, sweeps, viol, change = _dykstra(geom, blend, tol, opts.max_iterations)
        total += sweeps
        return x, viol, change, loss_value(mse, x, center)

    x, viol, change, value = inner(0.0)
    if value <= beta + tol:
        converged = viol <= tol and change <= tol
        return SolverReport(_finish(geom, x), viol, change, total, converged, "dykstra-ball")
    nu_lo, phi_lo = 0.0, value - beta
    nu_hi = 1.0 if warm is None or warm.get("kind") != "ball-nu" else max(warm["nu"], 1e-6)
    x, viol, change, value = inner(nu_hi)
    while value > beta and nu_hi <= 1e14:
        # phi is decreasing and mostly convex, so the secant through the last
        # two points crosses 0 short of the root: step twice as far, and at
        # most to four times nu_hi
        phi = value - beta
        grow = 4.0 * nu_hi
        if phi < phi_lo:
            grow = min(grow, nu_hi + 2.0 * phi * (nu_hi - nu_lo) / (phi_lo - phi))
        nu_lo, phi_lo, nu_hi = nu_hi, phi, grow
        x, viol, change, value = inner(nu_hi)
    gap_hi = phi_hi = value - beta  # phi_lo and phi_hi may be halved; gap_hi stays exact
    kept = 0  # +1: the last step moved nu_hi, -1: it moved nu_lo
    for _ in range(200):
        if gap_hi >= -1e-15 * beta or nu_hi - nu_lo <= 1e-12 * (1.0 + nu_hi):
            break
        nu = nu_hi - phi_hi * (nu_hi - nu_lo) / (phi_hi - phi_lo)
        if not nu_lo < nu < nu_hi:
            nu = 0.5 * (nu_lo + nu_hi)
        x_nu, viol_nu, change_nu, value = inner(nu)
        if value > beta:
            nu_lo, phi_lo = nu, value - beta
            if kept < 0:
                phi_hi *= 0.5
            kept = -1
        else:
            nu_hi, gap_hi = nu, value - beta
            phi_hi = gap_hi
            x, viol, change = x_nu, viol_nu, change_nu
            if kept > 0:
                phi_lo *= 0.5
            kept = 1
    ball_gap = max(gap_hi, 0.0)
    converged = viol <= tol and change <= tol and ball_gap <= tol
    return SolverReport(_finish(geom, x), max(viol, ball_gap), change, total,
                        converged, "dykstra-ball", {"kind": "ball-nu", "nu": nu_hi})


def project_blend(loss: LossSpec, target, prediction, weight: float,
                  constraints: ConstraintSet, opts: SolverOptions = DEFAULT_OPTIONS,
                  warm: dict | None = None) -> SolverReport:
    """Minimize loss(z, target) + weight * loss(z, prediction) over the set.

    The combined objective is handled by a dedicated two-anchor prox, not by
    reduction to a single projection, so this route stays independent of
    `project` even when the two are mathematically equivalent.
    """
    target = np.asarray(target, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if target.shape != (constraints.n,) or prediction.shape != (constraints.n,):
        raise ValueError("target/prediction dimension does not match constraints")
    if weight < 0:
        raise ValueError(f"weight must be nonnegative, got {weight}")
    if warm is not None and not opts.warm_start:
        warm = None
    geom = _geometry(constraints)
    x, pri, dua, it, state = _pdhg(
        geom, lambda v, t: prox_pair(loss, t, v, target, prediction, weight),
        opts.tolerance, opts.max_iterations, state=warm, anchor_start=target)
    return SolverReport(_finish(geom, x), pri, dua, it,
                        pri <= opts.tolerance and dua <= opts.tolerance, "pdhg-blend", state)


PROBE_SPAN = (-0.5, 1.5)  # lipschitz_probe draws its sample points from this range


def lipschitz_probe(loss: LossSpec, constraints: ConstraintSet, samples: int,
                    seed: int, opts: SolverOptions = DEFAULT_OPTIONS) -> float:
    """Sampled lower bound on the Lipschitz constant of the projection onto the
    set, in the loss-matched norm (L2 for mse, L1 for mae/huber)."""
    if samples < 1:
        raise ValueError("need at least one sample pair")
    rng = np.random.default_rng(seed)
    n = constraints.n
    worst = 0.0
    for _ in range(samples):
        x1 = rng.uniform(PROBE_SPAN[0], PROBE_SPAN[1], n)
        x2 = rng.uniform(PROBE_SPAN[0], PROBE_SPAN[1], n)
        gap = loss_norm(loss, x1 - x2)
        if gap < 1e-12:
            continue  # degenerate pair: the ratio is undefined
        p1 = project(ProjectionProblem(loss, x1, constraints), opts).solution
        p2 = project(ProjectionProblem(loss, x2, constraints), opts).solution
        worst = max(worst, loss_norm(loss, p1 - p2) / gap)
    return worst
