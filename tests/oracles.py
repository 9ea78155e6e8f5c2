"""Independent oracles used by the test suite.

Everything here is deliberately written from scratch (loops, grids, generic
1-D searches) and never calls into the package, so a test that compares the
package against an oracle is a genuine two-route check. Where an oracle needs
a package routine (an inner projection, a prox map), the test passes it in,
and only the part under test is independent.
"""

import dataclasses
import math

import numpy as np


def golden_section(f, lo, hi, iters=120):
    """Minimize a strictly convex scalar function on [lo, hi].

    Plain golden-section search stalls at ~sqrt(eps) around a smooth minimum
    (function values become indistinguishable), so the bracket it produces is
    refined by bisecting the sign of a central-difference derivative, which
    resolves the minimizer to ~1e-9.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a < 1e-5:
            break

    def sign_bisect(a, b, h):
        # bisect on the sign of f(m+h)-f(m-h); stop once the difference drops
        # below float noise (then m is already within ~h-free precision of the
        # smooth minimizer)
        for _ in range(80):
            m = 0.5 * (a + b)
            fp, fm = f(m + h), f(m - h)
            if abs(fp - fm) <= 8 * np.finfo(float).eps * max(abs(fp), abs(fm), 1.0):
                return m, m
            if fp - fm > 0:
                b = m
            else:
                a = m
        return a, b

    # wide-step pass nails smooth minima; narrow-step pass nails kinks
    a, b = sign_bisect(a - 2e-5, b + 2e-5, 1e-6)
    mid = 0.5 * (a + b)
    a, b = sign_bisect(mid - 3e-6, mid + 3e-6, 1e-10)
    return 0.5 * (a + b)


def didi_brute(z, groupings):
    """Sum over protected features of per-group |overall mean - group mean|.

    `groupings` is a list of lists of row-index arrays (one list per feature).
    """
    z = np.asarray(z, dtype=float)
    overall = sum(z) / len(z)
    total = 0.0
    for groups in groupings:
        for rows in groups:
            acc = 0.0
            for r in rows:
                acc += z[r]
            total += abs(overall - acc / len(rows))
    return total


def violation_reference(lower, upper, a_ineq, b_ineq, a_eq, b_eq, x):
    """The membership measure as first written, with the inequality and the
    equality rows kept apart: the worst bound, inequality or equality
    violation of x (0 inside the set)."""
    worst = max(
        float(np.max(lower - x, initial=0.0)),
        float(np.max(x - upper, initial=0.0)),
    )
    if a_ineq.shape[0]:
        worst = max(worst, float(np.max(a_ineq @ x - b_ineq)))
    if a_eq.shape[0]:
        worst = max(worst, float(np.max(np.abs(a_eq @ x - b_eq))))
    return worst


def grid_search(objective, feasible, dim, step, lo=0.0, hi=1.0, slack=None):
    """Exhaustive search over the grid of `step` on [lo, hi]^dim: returns
    (best_value, array of near-optimal grid points).

    `objective(Z)` and `feasible(Z)` act on an (m, dim) array of candidate points.
    Points within `slack` of the minimum are all returned so that argmin faces
    (non-unique minimizers) can be handled by the caller.  Default slack is
    one step of the steepest loss seen on the grid.
    """
    ax = np.arange(lo, hi + 0.5 * step, step)
    pts = np.stack(np.meshgrid(*[ax] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    mask = feasible(pts)
    pts = pts[mask]
    if pts.size == 0:
        raise ValueError("no feasible grid points")
    vals = objective(pts)
    best = vals.min()
    if slack is None:
        spread = vals.max() - best
        slack = max(4.0 * step * spread, 1e-12)
    return best, pts[vals <= best + slack]


def mse_ball_box_oracle(anchor, center, beta, lo=0.0, hi=1.0, iters=200):
    """min ||z-anchor||^2 over the box, subject to mean((z-center)^2) <= beta.

    Lagrangian bisection on the ball multiplier; the inner solve for a box
    constraint set is an analytic clip of the weighted center.
    """
    anchor = np.asarray(anchor, dtype=float)
    center = np.asarray(center, dtype=float)
    n = anchor.size

    def inner(nu):
        return np.clip((anchor + nu * center) / (1.0 + nu), lo, hi)

    def ball(z):
        return np.mean((z - center) ** 2)

    z0 = inner(0.0)
    if ball(z0) <= beta:
        return z0
    nu_lo, nu_hi = 0.0, 1.0
    while ball(inner(nu_hi)) > beta:
        nu_hi *= 2.0
        if nu_hi > 1e14:
            break
    for _ in range(iters):
        mid = 0.5 * (nu_lo + nu_hi)
        if ball(inner(mid)) > beta:
            nu_lo = mid
        else:
            nu_hi = mid
    return inner(nu_hi)


def ball_multiplier_bisection(project, anchor, center, beta, tol):
    """min ||z - anchor||^2 over a convex set, subject to mean((z - center)^2) <= beta.

    `project(v)` is the Euclidean projection onto the set. The ball is
    inactive when the plain projection of the anchor lies within beta + tol;
    otherwise the ball multiplier nu is bracketed by growing it fourfold from
    1, then bisected to a relative width of 1e-12, and the projection of
    (anchor + nu*center)/(1 + nu) at the upper end is returned.
    Returns (z, nu), with nu None when the ball is inactive.
    """
    anchor = np.asarray(anchor, dtype=float)
    center = np.asarray(center, dtype=float)

    def inner(nu):
        return project((anchor + nu * center) / (1.0 + nu))

    def ball(z):
        return np.mean((z - center) ** 2)

    z0 = inner(0.0)
    if ball(z0) <= beta + tol:
        return z0, None
    nu_lo, nu_hi = 0.0, 1.0
    while ball(inner(nu_hi)) > beta:
        nu_lo = nu_hi
        nu_hi *= 4.0
        if nu_hi > 1e14:
            break
    for _ in range(200):
        if nu_hi - nu_lo <= 1e-12 * (1.0 + nu_hi):
            break
        mid = 0.5 * (nu_lo + nu_hi)
        if ball(inner(mid)) > beta:
            nu_lo = mid
        else:
            nu_hi = mid
    return inner(nu_hi), nu_hi


def huber_ball_bisection(v, center, beta, m):
    """Euclidean projection of v onto {z : mean huber_m(z - center) <= beta}.

    The solution is the huber prox toward the center at the multiplier nu of
    the sublevel constraint. nu is bracketed by doubling it from 1 (up to
    1e15) until the prox lies inside, then bisected 200 times, and the prox at
    the upper end is returned."""
    v = np.asarray(v, dtype=float)
    center = np.asarray(center, dtype=float)
    d = v - center
    target = v.size * beta

    def huber(x):
        ax = np.abs(x)
        return np.where(ax <= m, x * x, 2.0 * m * ax - m * m)

    def prox(nu):
        inside = np.abs(d) <= m * (1.0 + 2.0 * nu)
        return center + np.where(inside, d / (1.0 + 2.0 * nu), d - 2.0 * nu * m * np.sign(d))

    def excess(nu):
        return float(huber(prox(nu) - center).sum()) - target

    if float(huber(d).sum()) <= target:
        return v.copy()
    nu_lo, nu_hi = 0.0, 1.0
    while excess(nu_hi) > 0:
        nu_hi *= 2.0
        if nu_hi > 1e15:
            break
    for _ in range(200):
        nu_mid = 0.5 * (nu_lo + nu_hi)
        if excess(nu_mid) > 0:
            nu_lo = nu_mid
        else:
            nu_hi = nu_mid
    return prox(nu_hi)


def huber_location_bisection(residual, m, steps=80):
    """argmin_c sum huber(residual_i - c), by bisecting the sign of the
    derivative sum 2*clip(residual_i - c, -m, m) over [min, max]."""
    residual = np.asarray(residual, dtype=float)
    lo, hi = float(residual.min()), float(residual.max())
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if (2.0 * np.clip(residual - mid, -m, m)).sum() > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dykstra_reference(geom, v, tol, max_sweeps):
    """Cyclic Dykstra projection as first written, before its sweep was
    trimmed: the bounds, then each row of `geom` in turn (inequalities first,
    `m_ineq` of them), every row keeping a dense correction vector.
    Returns (x, sweeps, violation, last change)."""
    eq_mask = np.arange(geom.m) >= geom.m_ineq

    def violation(x):
        worst = max(float(np.max(geom.lower - x, initial=0.0)),
                    float(np.max(x - geom.upper, initial=0.0)))
        if geom.m:
            resid = geom.a @ x - geom.b
            worst = max(worst, float(np.max(resid[~eq_mask], initial=0.0)))
            if eq_mask.any():
                worst = max(worst, float(np.max(np.abs(resid[eq_mask]), initial=0.0)))
        return worst

    x = v.copy()
    p_bounds = np.zeros_like(v)
    p_rows = np.zeros((geom.m, v.size))
    sweeps = 0
    change = np.inf
    for sweep in range(max_sweeps):
        x_prev = x.copy()
        w = x + p_bounds
        x = np.clip(w, geom.lower, geom.upper)
        p_bounds = w - x
        for i in range(geom.m):
            w = x + p_rows[i]
            resid = geom.a[i] @ w - geom.b[i]
            if eq_mask[i] or resid > 0.0:
                x = w - resid * geom.a[i]
            else:
                x = w
            p_rows[i] = w - x
        sweeps = sweep + 1
        change = float(np.max(np.abs(x - x_prev)))
        if violation(x) <= tol and change <= tol:
            break
    return x, sweeps, violation(x), change


def pdhg_unrestarted_reference(geom, prox_z, tol, max_iter, state=None, ball=None,
                               anchor_start=None, project_ball=None):
    """The primal-dual iteration without restarts: primal prox on z (identity
    on aux), per-row dual ascent with the inequality multipliers clipped at 0
    through a mask, an optional loss-ball dual block, and tau/sigma rebalanced
    every 50 iterations. A second algorithm for the same projection, so its
    converged answer checks the restarted one's.

    `geom` carries the prepared rows (`a`, `b`, inequalities first, `m_ineq`
    of them), the bounds, `n`, `width`, `m` and `op_norm`; `ball` is
    (center, beta, spec), and `project_ball(spec, v, center, beta)` projects
    onto it.
    """
    n, width, m = geom.n, geom.width, geom.m
    eq_mask = np.arange(m) >= geom.m_ineq
    norm2 = geom.op_norm ** 2 + (1.0 if ball is not None else 0.0)
    nk = np.sqrt(max(norm2, 1e-12))
    tau = 1.0 / nk
    sig = 1.0 / nk
    x = None
    resumed = state is not None and state.get("kind") == "pdhg" and state.get("x") is not None \
        and state["x"].size == width and state["y"].size == m \
        and (ball is None) == (state.get("yb") is None)
    if resumed:
        x = state["x"].copy()
        y = state["y"].copy()
        yb = state["yb"].copy() if state.get("yb") is not None else None
        tau = state.get("tau", tau)
        sig = state.get("sig", sig)
    if x is None:
        x = np.zeros(width)
        if anchor_start is not None:
            x[:n] = np.clip(anchor_start, geom.lower[:n], geom.upper[:n])
        y = np.zeros(m)
        yb = np.zeros(n) if ball is not None else None
    it = 0
    pri = dua = np.inf
    for it in range(1, max_iter + 1):
        x_old = x
        grad = geom.a.T @ y if m else np.zeros(width)
        if ball is not None:
            grad[:n] += yb
        v = x - tau * grad
        xn = v.copy()
        xn[:n] = prox_z(v[:n], tau)
        np.clip(xn, geom.lower, geom.upper, out=xn)
        x_relaxed = 2.0 * xn - x
        y_old = y
        if m:
            y = y + sig * (geom.a @ x_relaxed - geom.b)
            free = eq_mask
            if not free.all():
                y[~free] = np.maximum(y[~free], 0.0)
        if ball is not None:
            yb_old = yb
            t2 = yb + sig * x_relaxed[:n]
            center, beta, spec = ball
            yb = t2 - sig * project_ball(spec, t2 / sig, center, beta)
        x = xn
        if it % 10 == 0 or it == max_iter:
            p = (x_old - x) / tau - (geom.a.T @ (y_old - y) if m else 0.0)
            if ball is not None:
                p = p.copy()
                p[:n] -= yb_old - yb
            d_parts = []
            if m:
                d_parts.append((y_old - y) / sig - geom.a @ (x_old - x))
            if ball is not None:
                d_parts.append((yb_old - yb) / sig - (x_old - x)[:n])
            dvec = np.concatenate(d_parts) if d_parts else np.zeros(1)
            pri = float(np.linalg.norm(p) / np.sqrt(width))
            dua = float(np.linalg.norm(dvec) / np.sqrt(max(dvec.size, 1)))
            if pri <= tol and dua <= tol:
                break
            if it % 50 == 0 and pri > 0 and dua > 0:
                ratio = pri / dua
                if ratio > 10.0:
                    tau *= 2.0
                    sig /= 2.0
                elif ratio < 0.1:
                    tau /= 2.0
                    sig *= 2.0
    state_out = {"kind": "pdhg", "x": x.copy(), "y": y.copy(),
                 "yb": None if yb is None else yb.copy(), "tau": tau, "sig": sig}
    return x, pri, dua, it, state_out


def pdhg_reference(geom, prox_z, tol, max_iter, state=None, ball=None, anchor_start=None,
                   project_ball=None, objective=None, stepped_exit=False):
    """The restarted primal-dual iteration written out plainly: fresh arrays
    every step, the inequality multipliers clipped at 0 through a mask, and
    the restart rules of Applegate et al. (2021) spelled out with their
    constants: every 10 iterations, compare the fixed-point residual of the
    iterate with that of one step from the average since the last restart,
    and restart from the better one on sufficient decay (0.2), necessary
    decay (0.8) with no progress, or when the restart is 0.36 of all
    iterations old; each restart moves log(omega) half way to log(dual /
    primal movement). Steps are tau = eta/omega, sigma = eta*omega with
    eta = 0.95/||K||. A solve that resumes a state also checks the residual
    of its first step, and stops there when it is within tol, with the
    resumed point as its answer and state: that point passed the test too.
    With `stepped_exit` it returns the stepped point there instead, the
    second algorithm, which checks the first one's answers at tolerance.

    With an `objective`, each 10-iteration check first polishes the iterate,
    as OSQP does (Stellato et al. 2020): coordinates on a bound are held, the
    equality rows and the rows with a positive multiplier are taken as
    tight, and the optimum of the objective on that active set is computed
    directly. ("mae", ((anchor, weight), ...)) is the piecewise-linear
    objective sum_j weight_j * |z - anchor_j|: coordinates on an anchor are
    held too, and so, inside the mae ball, are those whose ball multiplier
    is below the largest one in size, at the center. The rest move to the
    nearest point of the face that the tight rows cut out, with one more row
    when the ball's largest multiplier is positive: the free coordinates'
    distances from the center, signed by their ball multipliers, sum to the
    L1 radius that the held ones leave. The Gram matrix of those rows gives
    that point and the multipliers that balance the slope there; at the
    center the ball's multiplier balances it. ("mse", (q, c)) is
    c * |z - q|^2: the free coordinates minimize it on the tight rows,
    inside the mse `ball` if there is one, where its multiplier lambda >= 0
    is the root of the ball's equation, or 0 when the ball is slack. The
    solve stops at one step from the polished point when the step's
    residual is within tol. Without an `objective` this is the restarted
    iteration alone, the oracle that the polished answers are checked
    against at tolerance.

    Arguments are those of `pdhg_unrestarted_reference`; the state carries
    omega in place of tau and sigma.
    """
    n, width, m = geom.n, geom.width, geom.m
    eq_mask = np.arange(m) >= geom.m_ineq
    norm2 = geom.op_norm ** 2 + (1.0 if ball is not None else 0.0)
    eta = 0.95 / np.sqrt(max(norm2, 1e-12))
    omega = 1.0
    x = None
    resumed = state is not None and state.get("kind") == "pdhg" and state.get("x") is not None \
        and state["x"].size == width and state["y"].size == m \
        and (ball is None) == (state.get("yb") is None)
    if resumed:
        x = state["x"].copy()
        y = state["y"].copy()
        yb = state["yb"].copy() if state.get("yb") is not None else None
        omega = state["omega"]
    if x is None:
        x = np.zeros(width)
        if anchor_start is not None:
            x[:n] = np.clip(anchor_start, geom.lower[:n], geom.upper[:n])
        y = np.zeros(m)
        yb = np.zeros(n) if ball is not None else None

    def step(x, y, yb, tau, sig):
        grad = geom.a.T @ y if m else np.zeros(width)
        if ball is not None:
            grad[:n] += yb
        v = x - tau * grad
        xn = v.copy()
        xn[:n] = prox_z(v[:n], tau)
        np.clip(xn, geom.lower, geom.upper, out=xn)
        x_relaxed = 2.0 * xn - x
        yn = y.copy()
        if m:
            yn = y + sig * (geom.a @ x_relaxed - geom.b)
            yn[~eq_mask] = np.maximum(yn[~eq_mask], 0.0)
        ybn = None
        if ball is not None:
            t2 = yb + sig * x_relaxed[:n]
            center, beta, spec = ball
            ybn = t2 - sig * project_ball(spec, t2 / sig, center, beta)
        return xn, yn, ybn

    def residual(z0, z1, tau, sig):
        (x0, y0, yb0), (x1, y1, yb1) = z0, z1
        p = (x0 - x1) / tau - geom.a.T @ (y0 - y1)
        d = (y0 - y1) / sig - geom.a @ (x0 - x1)
        dd = float(d @ d)
        count = m
        if ball is not None:
            p[:n] -= yb0 - yb1
            d_ball = (yb0 - yb1) / sig - (x0 - x1)[:n]
            dd += float(d_ball @ d_ball)
            count += n
        return math.sqrt(float(p @ p) / width), math.sqrt(dd / max(count, 1))

    def face(x, yb, lam, held, free, tight, rhs, kinks, centered):
        # the objective's slope at each coordinate, 0 on an auxiliary
        slope = np.array([sum(weight * np.sign(x[k] - anchor[k]) for anchor, weight in kinks)
                          if k < n else 0.0 for k in range(width)])
        basis = geom.a[np.ix_(tight, free)]
        if lam > 0.0:
            # the ball row: the free z off the center, signed by their multiplier
            center, beta, _ = ball
            z_free = [k for k in free if k < n]
            z_held = [k for k in held if k < n]
            signs = np.array([np.sign(yb[k]) if k < n else 0.0 for k in free])
            basis = np.vstack([basis, signs])
            rhs = np.append(rhs, n * beta - float(np.abs(x[z_held] - center[z_held]).sum())
                            + float(signs[:len(z_free)] @ center[z_free]))
        # the nearest point of the face to x, and the multipliers that
        # balance the slope there, from one Gram matrix
        gram = basis @ basis.T
        solution = np.linalg.solve(gram, np.column_stack([basis @ x[free] - rhs,
                                                          -(basis @ slope[free])]))
        x_face = x.copy()
        x_face[free] -= basis.T @ solution[:, 0]
        y_face = np.zeros(m)
        y_face[tight] = solution[:len(tight), 1]
        if ball is None:
            return x_face, y_face, None
        mu_ball = solution[-1, 1] if lam > 0.0 else 0.0
        yb_face = mu_ball * np.sign(x_face[:n] - ball[0])
        # at the center, the ball's multiplier balances the slope and the rows
        balance = -(slope[:n] + geom.a.T[:n] @ y_face)
        yb_face[centered] = balance[centered]
        return x_face, y_face, yb_face

    def quadratic_optimum(x, held, free, tight, rhs, q, c):
        # the free z are p - A_z^T yh and the free auxiliaries u satisfy
        # A_u^T yh = 0; with the tight rows as equalities this is one square
        # system per target p, solved for q and, with a ball, its center
        z_free = [k for k in free if k < n]
        aux_free = [k for k in free if k >= n]
        rows, size = len(tight), len(tight) + len(aux_free)
        a_z = geom.a[np.ix_(tight, z_free)]
        a_u = geom.a[np.ix_(tight, aux_free)]
        targets = np.column_stack([q[z_free]] + ([ball[0][z_free]] if ball is not None else []))
        kkt = np.zeros((size, size))
        kkt[:rows, :rows] = -(a_z @ a_z.T)
        kkt[:rows, rows:] = a_u
        kkt[rows:, :rows] = a_u.T
        right = np.zeros((size, targets.shape[1]))
        right[:rows] = rhs[:, None] - a_z @ targets
        solution = np.linalg.solve(kkt, right)
        yh, u = solution[:rows], solution[rows:]
        z_at = targets - a_z.T @ yh  # the free z at each target
        s = 1.0  # the weight of q in the target p = s q + (1 - s) center
        yb_opt = None
        if ball is not None:
            center, beta, _ = ball
            z_held = [k for k in held if k < n]
            outside = float((x[z_held] - center[z_held]) @ (x[z_held] - center[z_held])) - n * beta
            from_center = z_at[:, 1] - center[z_free]
            along = z_at[:, 0] - z_at[:, 1]
            # the ball's excess at weight s is a2 s^2 + 2 b1 s + c0
            a2 = float(along @ along)
            b1 = float(from_center @ along)
            c0 = float(from_center @ from_center) + outside
            if a2 + 2.0 * b1 + c0 > 0.0:  # outside the ball at s = 1
                if not c0 < 0.0:
                    return None  # outside it at s = 0 too
                s = -c0 / (b1 + math.sqrt(b1 * b1 - a2 * c0))  # the root in (0, 1)
        x_opt = x.copy()
        y_opt = np.zeros(m)
        if ball is None:
            x_opt[z_free] = z_at[:, 0]
            x_opt[aux_free] = u[:, 0]
            y_opt[tight] = 2.0 * (c / s) * yh[:, 0]
        else:
            x_opt[z_free] = s * z_at[:, 0] + (1.0 - s) * z_at[:, 1]
            x_opt[aux_free] = s * u[:, 0] + (1.0 - s) * u[:, 1]
            y_opt[tight] = 2.0 * (c / s) * (s * yh[:, 0] + (1.0 - s) * yh[:, 1])
            lam = c * (1.0 - s) / s  # the ball multiplier
            yb_opt = 2.0 * lam * (x_opt[:n] - center)
        return x_opt, y_opt, yb_opt

    def polish(z, tau, sig):
        x, y, yb = z
        kind, data = objective
        x = x.copy()
        lam = max(abs(v) for v in yb) if kind == "mae" and ball is not None else 0.0
        held, free, centered = [], [], []
        for k in range(width):
            on_kink = kind == "mae" and k < n and any(x[k] == anchor[k] for anchor, _ in data)
            on_bound = x[k] == geom.lower[k] or x[k] == geom.upper[k]
            # inside the mae ball, |yb_k| below its largest value, up to
            # rounding, puts coordinate k at the center
            at_center = kind == "mae" and ball is not None and k < n \
                and abs(yb[k]) < (1.0 - 1e-9) * lam
            if at_center:
                x[k] = ball[0][k]
                centered.append(k)
            (held if on_kink or on_bound or at_center else free).append(k)
        tight = [i for i in range(m) if eq_mask[i] or y[i] > 0.0]
        rhs = geom.b[tight] - geom.a[np.ix_(tight, held)] @ x[held]
        try:
            z_opt = face(x, yb, lam, held, free, tight, rhs, data, centered) if kind == "mae" \
                else quadratic_optimum(x, held, free, tight, rhs, *data)
        except np.linalg.LinAlgError:
            return None
        if z_opt is None:
            return None
        z_next = step(*z_opt, tau, sig)
        pri, dua = residual(z_opt, z_next, tau, sig)
        return (z_next, pri, dua) if pri <= tol and dua <= tol else None

    z = (x, y, yb)
    tau, sig = eta / omega, eta * omega
    z_restart = z
    sums = [np.zeros(width), np.zeros(m), np.zeros(n) if ball is not None else None]
    since = 0  # iterations since the last restart
    r_restart = r_last = np.inf
    it = 0
    pri = dua = np.inf
    for it in range(1, max_iter + 1):
        z_old = z
        z = step(*z, tau, sig)
        since += 1
        for k in range(3 if ball is not None else 2):
            sums[k] += z[k]
        if it == 1 and resumed:
            pri, dua = residual(z_old, z, tau, sig)
            if pri <= tol and dua <= tol:
                if not stepped_exit:
                    z = z_old
                break
        if it % 10 and it != max_iter:
            continue
        pri, dua = residual(z_old, z, tau, sig)
        if pri <= tol and dua <= tol:
            break
        polished = polish(z, tau, sig) if objective is not None else None
        if polished is not None:
            z, pri, dua = polished
            break
        z_avg = tuple(None if total is None else total / since for total in sums)
        z_avg_step = step(*z_avg, tau, sig)
        pa, da = residual(z_avg, z_avg_step, tau, sig)
        r_cand = math.hypot(pri, dua)
        averaged = math.hypot(pa, da) < r_cand
        if averaged:
            r_cand = math.hypot(pa, da)
            if pa <= tol and da <= tol:
                z, pri, dua = z_avg_step, pa, da
                break
        restart = (r_cand <= 0.2 * r_restart
                   or (r_cand <= 0.8 * r_restart and r_cand > r_last)
                   or since >= 0.36 * it)
        if not restart:
            r_last = r_cand
            continue
        if averaged:
            z, pri, dua = z_avg_step, pa, da
        moved_x = float(np.linalg.norm(z[0] - z_restart[0]))
        moved_y2 = float((z[1] - z_restart[1]) @ (z[1] - z_restart[1]))
        if ball is not None:
            moved_y2 += float((z[2] - z_restart[2]) @ (z[2] - z_restart[2]))
        moved_y = math.sqrt(moved_y2)
        if moved_x > 1e-10 and moved_y > 1e-10:
            omega = math.exp(0.5 * math.log(moved_y / moved_x) + 0.5 * math.log(omega))
            tau, sig = eta / omega, eta * omega
        z_restart = z
        sums = [np.zeros(width), np.zeros(m), np.zeros(n) if ball is not None else None]
        since = 0
        r_restart, r_last = r_cand, np.inf
    x, y, yb = z
    state_out = {"kind": "pdhg", "x": x.copy(), "y": y.copy(),
                 "yb": None if yb is None else yb.copy(), "omega": omega}
    return x, pri, dua, it, state_out


def hat_matrix(x):
    """Orthogonal projector onto the column space of [1 x]."""
    g = np.column_stack([np.ones(x.shape[0]), x])
    return g @ np.linalg.solve(g.T @ g, g.T)


def best_stump_brute(x_col, target):
    """Enumerate every threshold of one feature; return (threshold, mse) of the best
    split by within-group mean prediction.  Ties broken toward the lower threshold."""
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    best_mse, best_thr = np.inf, None
    for j in range(1, len(xs)):
        if xs[j] == xs[j - 1]:
            continue
        thr = 0.5 * (xs[j] + xs[j - 1])
        left = x_col <= thr
        pred = np.where(left, target[left].mean(), target[~left].mean())
        mse = np.mean((pred - target) ** 2)
        if mse < best_mse - 1e-15:
            best_mse, best_thr = mse, thr
    return best_thr, best_mse


def sorted_scan_tree(x, grad_target, residual, leaf_value, max_depth, min_leaf):
    """Exact greedy regression tree found by a stable sort of every feature at
    every node, scanning each boundary between distinct values in turn.

    A split maximizes the squared-error gain on `grad_target`, with at least
    `min_leaf` rows on each side and the threshold midway between the two
    values at the boundary, or the lower value where that midpoint of two
    adjacent floats rounds up to the higher one. A node splits when its best gain exceeds 1e-12;
    gains within a relative 1e-12 of the best are tied, and the tie goes
    to the lowest feature, then the lowest threshold. A leaf holds
    `leaf_value(residual[rows])` with `rows` ascending.

    Returns nested tuples: ("leaf", value, rows) or
    ("split", feature, threshold, left, right).
    """
    n, d = x.shape

    def best_split(idx):
        gi = grad_target[idx]
        ni = idx.size
        if ni < 2 * min_leaf:
            return None
        tot = gi.sum()
        base = tot * tot / ni
        candidates = []  # in feature order, then threshold order
        for f in range(d):
            xv = x[idx, f]
            order = np.argsort(xv, kind="stable")
            xs = xv[order]
            cs = np.cumsum(gi[order])
            for j in range(ni - 1):
                nl = j + 1
                if xs[j] == xs[j + 1] or nl < min_leaf or ni - nl < min_leaf:
                    continue
                gain = cs[j] * cs[j] / nl + (tot - cs[j]) ** 2 / (ni - nl) - base
                mid = 0.5 * (xs[j] + xs[j + 1])
                candidates.append((gain, f, mid if mid < xs[j + 1] else xs[j]))
        best = max((c[0] for c in candidates), default=-np.inf)
        if best <= 1e-12:
            return None
        return next((f, thr) for gain, f, thr in candidates if gain >= best - 1e-12 * best)

    def build(idx, depth):
        split = best_split(idx) if depth < max_depth else None
        if split is None:
            return ("leaf", leaf_value(residual[idx]), tuple(idx))
        f, thr = split
        mask = x[idx, f] <= thr
        return ("split", f, thr, build(idx[mask], depth + 1), build(idx[~mask], depth + 1))

    return build(np.arange(n), 0)


def per_column_normalization(columns, rows, target, reference=None):
    """[0,1] scaling one column at a time, each cell through `float`: by the
    column's own (min, max), or, given `reference` (the (min, max) of every
    column in table order), by those ranges and clipped into [0, 1]. A
    constant range maps to 0.0. Returns x, y, the feature ranges and the
    target range."""
    grid = np.empty((len(rows), len(columns)))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            grid[i, j] = float(cell)
    scaled, ranges = [], []
    for j in range(len(columns)):
        values = grid[:, j]
        if reference is None:
            lo, hi = float(values.min()), float(values.max())
        else:
            lo, hi = reference[j]
        if hi == lo:
            scaled.append(np.zeros_like(values))
        elif reference is None:
            scaled.append((values - lo) / (hi - lo))
        else:
            scaled.append(np.clip((values - lo) / (hi - lo), 0.0, 1.0))
        ranges.append((lo, hi))
    tgt = columns.index(target)
    features = [j for j in range(len(columns)) if j != tgt]
    x = np.empty((len(rows), len(features)))
    for out_j, j in enumerate(features):
        x[:, out_j] = scaled[j]
    return x, scaled[tgt], [ranges[j] for j in features], ranges[tgt]


def full_normalization_folds(full, folds):
    """(train, test) row subsets of the dataset `full`, normalized over every
    row, for each test fold in `folds`: each subset keeps the rows' values
    and ranges, and each protected feature is grouped again on the subset by
    its rounded raw value."""
    out = []
    for test_rows in folds:
        train_rows = np.setdiff1d(np.arange(full.x.shape[0]), test_rows)
        out.append((_row_subset(full, train_rows), _row_subset(full, test_rows)))
    return out


def _row_subset(ds, rows):
    x = ds.x[rows]
    specs = []
    for spec in ds.protected:
        lo, hi = ds.feature_ranges[spec.feature_index]
        codes = np.rint(x[:, spec.feature_index] * (hi - lo) + lo).astype(int)
        groups = {int(v): np.flatnonzero(codes == v) for v in sorted(set(codes.tolist()))}
        specs.append(dataclasses.replace(spec, groups=groups))
    return dataclasses.replace(ds, x=x, y=ds.y[rows], protected=tuple(specs))


def tree_apply(tree, x):
    """Each row's leaf value in one fitted gbt tree: the rows walk down the
    tree together, one level per step (`x[:, feature] <= threshold` goes
    left)."""
    idx = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        leafy = tree.feature[idx] < 0
        if leafy.all():
            return tree.value[idx]
        live = ~leafy
        nodes = idx[live]
        go_left = x[live, tree.feature[nodes]] <= tree.threshold[nodes]
        idx[live] = np.where(go_left, tree.left[nodes], tree.right[nodes])


def predict_tree_by_tree(model, x):
    """The fitted gbt `model`'s prediction, one tree at a time: the learning
    rate times each tree's `tree_apply`, added to the base in tree order."""
    out = np.full(x.shape[0], model.init)
    for tree in model.trees:
        out += model.spec.learning_rate * tree_apply(tree, x)
    return out


def training_curve(model, x, loss_of):
    """Training loss after each boosting round of the fitted gbt `model`: each
    round's prediction is rebuilt from the model's trees (their `tree_apply`,
    scaled by the learning rate), and `loss_of` gives a prediction's loss."""
    current = np.full(x.shape[0], model.init)
    losses = []
    for tree in model.trees:
        current = current + model.spec.learning_rate * tree_apply(tree, x)
        losses.append(loss_of(current))
    return np.array(losses)


def mean_std_two_pass(values):
    """Population mean/std computed the pedestrian way."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / n
    return mean, var ** 0.5


def huber_pair_prox_bisection(t, v, a1, a2, w2, m, steps=100):
    """argmin_z t*[h(z - a1) + w2*h(z - a2)] + 0.5*(z - v)^2 elementwise, for
    the Huber function h with threshold m, by bisecting the sign of the
    derivative t*[h'(z - a1) + w2*h'(z - a2)] + (z - v), h'(x) =
    2*clip(x, -m, m), on a bracket padded by the largest slope step."""
    v, a1, a2 = (np.asarray(a, dtype=float) for a in (v, a1, a2))
    pad = t * (1.0 + w2) * 2.0 * m + 1.0
    lo = np.minimum(np.minimum(a1, a2), v) - pad
    hi = np.maximum(np.maximum(a1, a2), v) + pad

    def dphi(z):
        return (2.0 * t * (np.clip(z - a1, -m, m) + w2 * np.clip(z - a2, -m, m))
                + (z - v))

    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        pos = dphi(mid) > 0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    return 0.5 * (lo + hi)


def mae_pair_prox_reference(t, v, a1, a2, w2):
    """argmin_z t*[|z - a1| + w2*|z - a2|] + 0.5*(z - v)^2 elementwise: the
    stationary point left of both anchors, right of both or between them,
    whichever lies in its piece, and otherwise the kink of lower objective."""
    v, a1, a2 = (np.asarray(a, dtype=float) for a in (v, a1, a2))
    lam1 = t * np.ones_like(v)
    lam2 = t * w2 * np.ones_like(v)
    lo = np.minimum(a1, a2)
    hi = np.maximum(a1, a2)
    lam_lo = np.where(a1 <= a2, lam1, lam2)
    lam_hi = np.where(a1 <= a2, lam2, lam1)
    below = v + lam1 + lam2
    above = v - lam1 - lam2
    middle = v - lam_lo + lam_hi

    def obj(z):
        return lam1 * np.abs(z - a1) + lam2 * np.abs(z - a2) + 0.5 * (z - v) ** 2

    at_kink = np.where(obj(lo) <= obj(hi), lo, hi)
    return np.where(below < lo, below,
                    np.where(above > hi, above,
                             np.where((middle > lo) & (middle < hi), middle, at_kink)))


def didi_by_mean(z, protected):
    """The disparate-impact index with every mean taken by ndarray.mean:
    groups in increasing order of their value, as the package sums them."""
    z = np.asarray(z, dtype=float)
    overall = z.mean()
    total = 0.0
    for spec in protected:
        for value in sorted(spec.groups):
            total += abs(overall - z[spec.groups[value]].mean())
    return float(total)


def r_squared_by_mean(y_true, y_pred):
    """1 - SS_res/SS_tot with ndarray.mean and ndarray.sum."""
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    return 1.0 - float(((y_true - y_pred) ** 2).sum()) / ss_tot


def mean_loss_by_mean(pointwise, z, y):
    """np.mean of the pointwise losses `pointwise(z - y)`."""
    return float(np.mean(pointwise(z - y)))


def worst_violation_by_max(lower, upper, a, b, m_ineq, x):
    """The worst violation of x on bounds and stacked rows (the first m_ineq
    of them inequalities, the rest equalities), each part taken by np.max."""
    worst = max(float(np.max(lower - x, initial=0.0)), float(np.max(x - upper, initial=0.0)))
    if a.shape[0]:
        resid = a @ x - b
        worst = max(worst, float(np.max(resid[:m_ineq], initial=0.0)))
        if a.shape[0] > m_ineq:
            worst = max(worst, float(np.max(np.abs(resid[m_ineq:]))))
    return worst


def bin_features_by_unique(x):
    """Per-column bins by np.unique: codes[i, f] = f * width + the rank of
    x[i, f] among column f's distinct values, which values[f] lists, padded
    with +inf up to the widest column."""
    n, d = x.shape
    distinct = [np.unique(x[:, f]) for f in range(d)]
    width = max((u.size for u in distinct), default=0)
    values = np.full((d, width), np.inf)
    codes = np.empty((n, d), dtype=np.int64)
    for f, u in enumerate(distinct):
        values[f, :u.size] = u
        codes[:, f] = np.searchsorted(u, x[:, f]) + f * width
    return codes, values


def every_step_run(config, train, test, pkg):
    """The fit-adjust loop with every step computed: membership, the solve
    (warm-started from the last solve of the same branch), the refit, the
    test prediction and the gauges, whatever the step's input. `pkg` is
    `confit.driver`, whose bindings supply those routines. Returns the
    initial record and the step records."""
    cs, loss = config.constraints, config.loss
    weight = None if config.algorithm == "affine_extension" \
        else 1.0 / pkg.alpha_convert(config.alpha)
    reuse = {}
    model = pkg.fit(config.learner, train.x, train.y, loss, reuse)
    gauges = pkg._Metrics(train, test)
    yhat = model.train_prediction
    initial = pkg.InitialRecord(**gauges.of(yhat, pkg.predict(model, test.x)), yhat=yhat)
    records, warm, prev_residual = [], {"infeasible": None, "feasible": None}, None
    for i in range(1, config.iterations):
        fallback = False
        if not pkg.is_member(cs, yhat, pkg.DEFAULT_MEMBER_TOL):
            branch = "infeasible"
            if weight is None:
                anchor = (1.0 - config.alpha) * train.y + config.alpha * yhat
                report = pkg.project(pkg.ProjectionProblem(loss, anchor, cs), config.solver,
                                     warm[branch])
            else:
                report = pkg.project_blend(loss, train.y, yhat, weight, cs, config.solver,
                                           warm[branch])
            warm[branch] = report.state
        else:
            branch = "feasible"
            report = pkg.project_ball_intersection(loss, train.y, yhat, config.beta, cs,
                                                   config.solver, warm[branch])
            warm[branch] = report.state
            if not report.converged or not pkg.is_member(cs, report.solution,
                                                         10 * pkg.DEFAULT_MEMBER_TOL):
                report = dataclasses.replace(report, solution=yhat.copy(), converged=False)
                fallback = True
        model = pkg.fit(config.learner, train.x, report.solution, loss, reuse)
        yhat_next = model.train_prediction
        residual = pkg.loss_norm(loss, yhat_next - yhat)
        records.append(pkg.IterationRecord(
            i=i, branch=branch, z=report.solution, yhat=yhat, yhat_next=yhat_next,
            **gauges.of(yhat_next, pkg.predict(model, test.x)), residual=residual,
            contraction=residual / prev_residual if prev_residual else float("nan"),
            solver_method=report.method, solver_iterations=report.iterations,
            solver_converged=report.converged, solver_primal=report.primal_residual,
            solver_dual=report.dual_residual, fallback=fallback))
        yhat = yhat_next
        prev_residual = residual if residual > 0 else prev_residual
        if config.early_stop and residual < config.stop_tol:
            break
    return initial, records
