"""Solvers for the two adjustment subproblems: minimize a loss toward an
anchor over a ConstraintSet, optionally inside a loss-ball around a feasible
center.

Two routes, picked automatically:

* squared loss, no auxiliaries: cyclic projections with Dykstra corrections
  onto the trust ball, if there is one, the bounds and the individual rows
  (the projection is Euclidean, and the ball {mean((z - center)^2) <= beta}
  is a Euclidean ball of radius sqrt(n * beta));
* everything else (absolute/Huber losses, auxiliary variables, combined
  two-anchor objectives): a restarted primal-dual (PDHG) iteration whose
  primal step is the closed-form loss prox and whose dual blocks are one
  multiplier per linear row plus an optional loss-ball block. Following PDLP
  (Applegate et al., NeurIPS 2021; Applegate, Hinder, Lu & Lubin, Math.
  Programming 2023), it restarts from the better of the current iterate and
  the average since the last restart, judged by the fixed-point residual,
  and at each restart it moves the primal weight omega that splits the step
  into tau = eta/omega and sigma = eta*omega. Every 10 iterations, where the
  objective is mae or mse (plain, blended or in its ball), the iteration
  also tries OSQP's polish (Stellato et al., Math. Programming Computation
  2020): it holds the coordinates on a bound (and, for mae, on a kink or,
  inside the ball, at the center), takes the equality rows and the rows
  with a positive multiplier as tight, and computes the optimum on that
  active set directly. The mae objective is piecewise linear and its
  optimum a face of the active set, a vertex when that set is square: the
  free coordinates move to the nearest point of the face, and one small
  solve with the same Gram matrix gives the multipliers. Inside the ball
  the face has one more row, the ball's, signed by its multiplier's sign
  on the coordinates off the center. The mse objective is a quadratic: one
  small linear solve for the multipliers and the free auxiliaries, and
  inside the ball a scalar quadratic for the ball's multiplier. The solve
  ends at one step from that point if the step passes the usual residual
  test, and goes on unchanged otherwise.

The prepared constraint geometry (stacked unit rows, rescaled auxiliaries and
the operator norm) and the Dykstra sweep live in `confit.constraints`, which
certifies constraint sets with them; the geometry is built once per
ConstraintSet and kept on it.

Warm starts carry the primal/dual iterates and the primal weight between
consecutive solves. They are sound for the primal-dual route only: Dykstra
corrections are tied to the projected point, so the Dykstra routes return
no state. A primal-dual solve that resumes a warm state checks the residual
of its first step, and ends there when the state already solves the new
problem, as it does once the fit-adjust loop has settled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, _dykstra, _geometry, _Geometry
from .losses import LossSpec, loss_norm, project_ball, prox_pair, prox_unit


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
            if not beta >= 0:
                raise ValueError(f"trust radius must be nonnegative, got {beta}")


@dataclass
class SolverReport:
    solution: np.ndarray  # a fresh array on every route, shared with no input or state
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


def _solve(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """np.linalg.solve(g, r), with a LinAlgError also where g is numerically
    singular: where the solution is not finite, or where its residual
    |g sol - r| exceeds |r|, the residual of the zero vector, far above what
    rounding leaves on a solvable system."""
    sol = np.linalg.solve(g, r)
    if not (np.isfinite(sol).all() and np.linalg.norm(g @ sol - r) <= np.linalg.norm(r)):
        raise np.linalg.LinAlgError("numerically singular matrix")
    return sol


def _pdhg(geom: _Geometry, prox_z, tol: float, max_iter: int, state=None,
          ball=None, anchor_start=None, objective=None):
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
    first step, and returns that step when both parts are within `tol`,
    before any restart bookkeeping. The check changes none of it, so a solve
    that goes on runs exactly as it would without it. Cold starts skip it:
    they never start at their answer.

    `objective`, when given, describes the loss for the polish: ("mae",
    ((anchor, weight), ...)) for sum_j weight_j * |z - anchor_j|, which is
    piecewise linear, or ("mse", (q, c)) for c * |z - q|^2; `ball`, if any,
    is the ball of the same loss. Every 10-iteration check then first tries
    to polish the iterate onto the optimum of its active set (`polish`). A
    polished point that fails the exit test leaves the iteration as it was.
    """
    n, width, m = geom.n, geom.width, geom.m
    a, b, y_floor, lower, upper = geom.a, geom.b, geom.y_floor, geom.lower, geom.upper
    at = a.T
    norm2 = geom.op_norm ** 2 + (1.0 if ball is not None else 0.0)
    eta = STEP_FRACTION / math.sqrt(max(norm2, 1e-12))
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

    def polish(x, y, yb):
        """The optimum that the active set of (x, y, yb) names, and one step
        from it, with that step's residual, if the step passes the exit test.

        A coordinate on a bound is held, and so, under mae, is one on a kink
        (the prox sets both exactly); the rest, auxiliaries among them, are
        free. The active rows are the equalities and the rows with a
        positive multiplier.

        Under mae the objective is linear on the free coordinates, with slope
        g, so its optimum on the active set is a face, or a vertex when the
        rows are as many as the free coordinates. Inside the mae ball, whose
        multiplier is lambda = max |yb|, a coordinate with |yb| < lambda is
        held at the center. When lambda > 0 the free z, of sign s = sign(yb),
        add the ball row s^T z = n beta - (the held z's L1 distance from the
        center) + s^T center. With B the active rows and that row, the free
        x move to the nearest point of the face, x - B^T (B B^T)^-1 (B x - r),
        and (B B^T) mu = -B g gives the multipliers: y on the rows, and
        yb = mu_ball sign(z - center), but -(g + A^T y) at the coordinates
        held at the center.

        Under mse, the free z are p - A_z^T yh and the free auxiliaries,
        with zero curvature, have A_u^T yh = 0, which with the active rows
        is one square system in (yh, u) per target p: p = q without a ball.
        With the ball, p = s q + (1 - s) center, so the point is affine in
        s, and s is the root of the quadratic that puts it on the ball, or 1
        when the ball is slack there; its multiplier is lambda = c (1 - s) /
        s. Then y = 2 (c + lambda) yh and yb = 2 lambda (z - center).

        The other multipliers are 0. An active set whose system is singular,
        exactly or numerically (`_solve`), names no point: None."""
        kind, data = objective
        fixed = (x == lower) | (x == upper)
        xp, yp, ybp = x.copy(), np.zeros(m), None
        if kind == "mae":
            for anchor, _ in data:
                fixed[:n] |= x[:n] == anchor
            if ball is not None:
                lam = float(np.max(np.abs(yb)))
                # the ball projection leaves |yb| = lambda off the center up to rounding
                centered = np.abs(yb) < (1.0 - 1e-9) * lam
                fixed[:n] |= centered
                xp[:n][centered] = center[centered]
        held, free = np.flatnonzero(fixed), np.flatnonzero(~fixed)
        active = np.flatnonzero(y > y_floor)
        rhs = b[active] - a[np.ix_(active, held)] @ xp[held]
        try:
            if kind == "mae":
                slope = np.zeros(width)
                for anchor, weight in data:
                    slope[:n] += weight * np.sign(xp[:n] - anchor)
                basis = a[np.ix_(active, free)]
                if ball is not None and lam > 0.0:
                    zf, hz = free[free < n], held[held < n]
                    signs = np.zeros(free.size)
                    signs[:zf.size] = np.sign(yb[zf])
                    basis = np.vstack([basis, signs])
                    rhs = np.append(rhs, n * beta - float(np.abs(xp[hz] - center[hz]).sum())
                                    + float(signs[:zf.size] @ center[zf]))
                sol = _solve(basis @ basis.T, np.column_stack(
                    [basis @ xp[free] - rhs, -(basis @ slope[free])]))
                xp[free] -= basis.T @ sol[:, 0]
                yp[active] = sol[:active.size, 1]
                if ball is not None:
                    mu_ball = sol[-1, 1] if lam > 0.0 else 0.0
                    ybp = mu_ball * np.sign(xp[:n] - center)
                    ybp[centered] = -(slope[:n] + at[:n] @ yp)[centered]
            else:
                q, c = data
                zf, uf = free[free < n], free[free >= n]
                a_z, a_u = a[np.ix_(active, zf)], a[np.ix_(active, uf)]
                p = q[zf, None] if ball is None else np.column_stack([q[zf], center[zf]])
                kkt = np.block([[-(a_z @ a_z.T), a_u], [a_u.T, np.zeros((uf.size, uf.size))]])
                sol = _solve(kkt, np.vstack([rhs[:, None] - a_z @ p,
                                             np.zeros((uf.size, p.shape[1]))]))
                yh, u = sol[:active.size], sol[active.size:]
                z = p - a_z.T @ yh
                s = 1.0
                if ball is not None:
                    hz = held[held < n]
                    outside = float((x[hz] - center[hz]) @ (x[hz] - center[hz])) - n * beta
                    d0, d1 = z[:, 1] - center[zf], z[:, 0] - z[:, 1]
                    # |d0 + s d1|^2 + outside = a2 s^2 + 2 b1 s + c0, with a root in
                    # (0, 1) when the ball cuts the segment
                    a2, b1, c0 = float(d1 @ d1), float(d0 @ d1), float(d0 @ d0) + outside
                    if a2 + 2.0 * b1 + c0 > 0.0:
                        if not c0 < 0.0:
                            return None
                        s = -c0 / (b1 + math.sqrt(b1 * b1 - a2 * c0))
                    z, u, yh = (s * v[:, 0] + (1.0 - s) * v[:, 1] for v in (z, u, yh))
                    xp[zf] = z
                    ybp = 2.0 * (c * (1.0 - s) / s) * (xp[:n] - center)
                else:
                    xp[zf] = z[:, 0]
                    u, yh = u[:, 0], yh[:, 0]
                xp[uf] = u
                yp[active] = 2.0 * (c / s) * yh
        except np.linalg.LinAlgError:
            return None  # a singular active set, exactly or numerically
        stepped = step(xp, yp, ybp)
        pri, dua = residual(xp, yp, ybp, *stepped)
        return (stepped, pri, dua) if pri <= tol and dua <= tol else None

    tau, sig = eta / omega, eta * omega
    x0, y0, yb0 = x, y, yb  # the last restart point
    since = 0  # iterations since the last restart, whose iterates the sums add up
    r_restart = r_last = np.inf
    it = 0
    pri = dua = np.inf
    for it in range(1, max_iter + 1):
        x_old, y_old, yb_old = x, y, yb
        x, y, yb = step(x, y, yb)
        checked = it % 10 == 0 or it == max_iter
        if checked or it == 1 and resumed:  # a resumed solve's first step, for the exit only
            pri, dua = residual(x_old, y_old, yb_old, x, y, yb)
            if pri <= tol and dua <= tol:
                break
        if since == 0:  # allocated here, so a resumed solve that ends at step 1 makes none
            x_sum, y_sum = np.zeros(width), np.zeros(m)
            yb_sum = np.zeros(n) if ball is not None else None
        since += 1
        x_sum += x
        y_sum += y
        if ball is not None:
            yb_sum += yb
        if not checked:
            continue
        polished = None if objective is None else polish(x, y, yb)
        if polished is not None:
            (x, y, yb), pri, dua = polished
            break
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
        since = 0
        r_restart, r_last = r_cand, np.inf
    return x, pri, dua, it, {"kind": "pdhg", "x": x, "y": y, "yb": yb, "omega": omega}


def project(problem: ProjectionProblem, opts: SolverOptions = DEFAULT_OPTIONS,
            warm: dict | None = None) -> SolverReport:
    """Minimize loss(z, anchor) over the constraint set (within the trust ball
    if one is present)."""
    cs = problem.constraints
    loss = problem.loss
    anchor = np.asarray(problem.anchor, dtype=float)
    geom = _geometry(cs)
    ball = None
    if problem.trust is not None:
        center, beta = np.asarray(problem.trust[0], dtype=float), float(problem.trust[1])
        if beta == 0.0:
            # the ball degenerates to its center, which the caller guarantees feasible
            return SolverReport(center.copy(), 0.0, 0.0, 0, True, "degenerate-ball")
        if np.isfinite(beta):
            ball = (center, beta)
    if ball is None:
        # the anchor with its analytic auxiliaries, in the solver's scaling
        extended = np.concatenate([anchor, np.abs(cs.aux_abs @ anchor) / geom.aux_scale])
        if geom.violation(extended) <= 1e-15:
            return SolverReport(anchor.copy(), 0.0, 0.0, 0, True, "already-feasible")
    suffix = "" if ball is None else "-ball"
    if loss.kind == "mse" and cs.n_aux == 0:
        x, sweeps, viol, change = _dykstra(geom, anchor, opts.tolerance,
                                           opts.max_iterations, ball)
        converged = viol <= opts.tolerance and change <= opts.tolerance
        return SolverReport(x[:cs.n].copy(), viol, change, sweeps, converged, "dykstra" + suffix)
    x, pri, dua, it, state = _pdhg(
        geom, lambda v, t: prox_unit(loss, t, v, anchor),
        opts.tolerance, opts.max_iterations, state=warm if opts.warm_start else None,
        ball=None if ball is None else (*ball, loss),
        anchor_start=anchor if ball is None else center,
        objective=("mse", (anchor, 1.0)) if loss.kind == "mse"
        else ("mae", ((anchor, 1.0),)) if loss.kind == "mae" else None)
    return SolverReport(x[:cs.n].copy(), pri, dua, it,
                        pri <= opts.tolerance and dua <= opts.tolerance, "pdhg" + suffix, state)


def project_ball_intersection(loss: LossSpec, anchor, center, beta: float,
                              constraints: ConstraintSet,
                              opts: SolverOptions = DEFAULT_OPTIONS,
                              warm: dict | None = None) -> SolverReport:
    """Minimize loss(z, anchor) over {z in C : loss(z, center) <= beta}."""
    problem = ProjectionProblem(loss, np.asarray(anchor, dtype=float), constraints,
                                trust=(np.asarray(center, dtype=float), beta))
    return project(problem, opts, warm)


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
    geom = _geometry(constraints)
    x, pri, dua, it, state = _pdhg(
        geom, lambda v, t: prox_pair(loss, t, v, target, prediction, weight),
        opts.tolerance, opts.max_iterations, state=warm if opts.warm_start else None,
        anchor_start=target,
        objective=("mae", ((target, 1.0), (prediction, weight))) if loss.kind == "mae"
        else ("mse", ((target + weight * prediction) / (1.0 + weight), 1.0 + weight))
        if loss.kind == "mse" else None)
    return SolverReport(x[:constraints.n].copy(), pri, dua, it,
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
