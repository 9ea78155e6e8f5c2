"""Convex feasible sets as bounds + linear rows, and the group-fairness
(disparate-impact) constraint encoding.

A ConstraintSet lives in the extended space (z, u) where u are auxiliary
variables that linearize absolute values.  Every constructor certifies
nonemptiness by exhibiting one feasible point: a candidate that is a member,
or else the cyclic Dykstra projection of the bound midpoint onto the set,
which stops early on a Farkas certificate that the set is empty. The
prepared geometry, the Dykstra sweep and the violation measure that
membership and the solvers share live here too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleConstraintsError
from .losses import MSE, loss_value, project_ball

DEFAULT_MEMBER_TOL = 1e-6


@dataclass(frozen=True)
class ConstraintSet:
    """Bounds and unit-normalized linear rows over (z, aux).

    `aux_abs` holds the analytic value of each auxiliary: aux_j = |aux_abs[j] @ z|,
    which is the minimal-aux completion of any z (each aux appears only in its
    two defining rows with coefficient -1 and in budget rows with positive sign).
    """

    n: int
    n_aux: int
    lower: np.ndarray
    upper: np.ndarray
    a_ineq: np.ndarray
    b_ineq: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    aux_abs: np.ndarray
    provenance: str
    feasible_point: np.ndarray

    @property
    def width(self) -> int:
        return self.n + self.n_aux

    def extend(self, z: np.ndarray) -> np.ndarray:
        """Append the analytic auxiliary values to z."""
        z = np.asarray(z, dtype=float)
        if self.n_aux == 0:
            return z
        return np.concatenate([z, np.abs(self.aux_abs @ z)])


def didi_value(z: np.ndarray, protected) -> float:
    """Sum over protected features and group values of
    |mean(z) - mean(z over the group)|: the composition of `didi_groups`,
    which depends on the groups alone, and `didi_given`."""
    z = np.asarray(z, dtype=float)
    return didi_given(z, didi_groups(protected, z.size))


def didi_groups(protected, n: int) -> tuple:
    """The rows and size of every group of every protected feature, in the
    order `didi_value` sums them, checked once to be non-empty and within
    rows 0 to n - 1."""
    groups = []
    for spec in protected:
        for value in spec.group_values():
            rows = spec.groups[value]
            if rows.size == 0:
                raise ValueError(f"empty group {value} in protected feature {spec.feature_index}")
            if np.maximum.reduce(rows) >= n or np.minimum.reduce(rows) < 0:
                raise ValueError("group row index out of range")
            groups.append((rows, rows.size))
    return tuple(groups)


def didi_given(z: np.ndarray, groups) -> float:
    """`didi_value` of the float array z over groups from `didi_groups`."""
    overall = np.add.reduce(z, axis=None) / z.size  # the bits of .mean()
    total = 0.0
    for rows, size in groups:
        total += abs(overall - np.add.reduce(z[rows], axis=None) / size)
    return float(total)


def _normalize_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if a.size == 0:
        return a, b
    norms = np.linalg.norm(a, axis=1)
    if (norms == 0).any():
        raise ValueError("constraint row with all-zero coefficients")
    return a / norms[:, None], b / norms


class _Geometry:
    """Constraint data prepared for the solvers: bounds plus one matrix of
    unit-normalized rows (the inequality rows first, then the equalities),
    with auxiliary columns rescaled to match the magnitude of their companion
    z coefficients.

    The set's own unit rows and bounds are kept next to the rescaled ones
    (the same rows when there are no auxiliaries) for membership tests.
    """

    def __init__(self, cs: ConstraintSet):
        self.n = cs.n
        self.n_aux = cs.n_aux
        self.width = cs.width
        a, b = _stacked_rows(cs)
        self.m_ineq = cs.a_ineq.shape[0]
        self.unit_a, self.unit_b = a, b
        self.set_lower, self.set_upper = cs.lower, cs.upper
        self.aux_scale = np.ones(cs.n_aux)
        lower = cs.lower.astype(float).copy()
        upper = cs.upper.astype(float).copy()
        if cs.n_aux and a.shape[0]:
            a = a.copy()
            for j in range(cs.n_aux):
                col = a[:, cs.n + j]
                hit = np.flatnonzero(col)
                if hit.size == 0:
                    continue
                znorm = np.linalg.norm(a[hit, :cs.n], axis=1)
                good = znorm > 1e-14
                if good.any():
                    self.aux_scale[j] = float(np.exp(np.mean(
                        np.log(znorm[good] / np.abs(col[hit][good])))))
            a[:, cs.n:] *= self.aux_scale[None, :]
            with np.errstate(invalid="ignore"):
                lower[cs.n:] = lower[cs.n:] / self.aux_scale
                upper[cs.n:] = upper[cs.n:] / self.aux_scale
            norms = np.linalg.norm(a, axis=1)
            a = a / norms[:, None]
            b = b / norms
        self.a = a
        self.b = b
        self.lower = lower
        self.upper = upper
        self.m = a.shape[0]
        # floor of the row multipliers: 0 on inequalities, none on equalities
        self.y_floor = np.where(np.arange(self.m) < self.m_ineq, 0.0, -np.inf)
        # (row, rhs, is equality) for the Dykstra sweep
        self.rows = [(a[i], b[i], i >= self.m_ineq) for i in range(self.m)]

    @functools.cached_property
    def op_norm(self) -> float:
        """||a||_2 by power iteration; only the primal-dual route reads it."""
        if self.m == 0:
            return 0.0
        v = np.full(self.width, 1.0 / np.sqrt(self.width))
        nv = 1.0
        for _ in range(40):
            v = self.a.T @ (self.a @ v)
            nv = float(np.linalg.norm(v))
            if nv == 0:
                return 0.0
            v /= nv
        return float(np.sqrt(nv))

    def violation(self, x: np.ndarray) -> float:
        """Worst violation of x in the solver's (rescaled) coordinates."""
        return _worst_violation(self.lower, self.upper, self.a, self.b, self.m_ineq, x)

    def member_violation(self, x: np.ndarray) -> float:
        """Worst violation of x, z completed with its analytic auxiliaries,
        on the set's own unit rows and bounds."""
        return _worst_violation(self.set_lower, self.set_upper, self.unit_a, self.unit_b,
                                self.m_ineq, x)


def _stacked_rows(cs: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """The set's unit rows in one matrix, inequalities first, and their
    right-hand sides."""
    rows = [cs.a_ineq, cs.a_eq]
    a = np.vstack([r for r in rows if r.shape[0]]) if any(r.shape[0] for r in rows) \
        else np.zeros((0, cs.width))
    return a, np.concatenate([cs.b_ineq, cs.b_eq])


def _worst_violation(lower, upper, a, b, m_ineq, x) -> float:
    """The largest amount by which x leaves a bound, exceeds an inequality row
    (the first m_ineq rows of a) or misses an equality row; 0 inside the set."""
    top = np.maximum.reduce  # np.max without its Python wrapper
    worst = max(float(top(lower - x, initial=0.0)), float(top(x - upper, initial=0.0)))
    if a.shape[0]:
        resid = a @ x - b
        worst = max(worst, float(top(resid[:m_ineq], initial=0.0)))
        if a.shape[0] > m_ineq:
            worst = max(worst, float(top(np.abs(resid[m_ineq:]))))
    return worst


def _geometry(cs: ConstraintSet) -> _Geometry:
    """The prepared geometry of `cs`, built on first use and kept on the set
    (a ConstraintSet is frozen, so it cannot go stale)."""
    geom = cs.__dict__.get("_geometry")
    if geom is None:
        geom = cs.__dict__["_geometry"] = _Geometry(cs)
    return geom


def _dykstra(geom: _Geometry, v: np.ndarray, tol: float, max_sweeps: int, ball=None):
    """Euclidean projection onto bounds ∩ rows via cyclic Dykstra corrections,
    and onto the trust ball mean((x - center)^2) <= beta, first in each
    sweep, when `ball` is (center, beta); the ball's violation counts in loss
    units. The sweeps end once the point moves by at most `tol` with its
    violation within `tol`, or, without a ball, once it moves by at most
    `tol` and the sweep proves the set empty (`_proves_empty`).

    A row whose last step left the point unchanged has a zero correction; it
    is held as None, so the next sweep skips adding it. That gives the same
    bits as adding it: x + 0.0 differs from x only where x is -0.0, and x
    holds no -0.0 unless a bound is -0.0.
    """
    def violation(x):
        worst = geom.violation(x)
        return worst if ball is None else max(worst, loss_value(MSE, x, ball[0]) - ball[1])

    x = v.copy()
    p_ball = p_bounds = np.zeros_like(v)
    p_rows = [None] * geom.m
    sweeps = 0
    change = np.inf
    for sweep in range(max_sweeps):
        x_prev, before = x, (p_bounds, list(p_rows))
        if ball is not None:
            w = x + p_ball
            x = project_ball(MSE, w, *ball)
            p_ball = w - x
        w = x + p_bounds
        x = w.clip(geom.lower, geom.upper)
        p_bounds = w - x
        for i, (a_i, b_i, eq) in enumerate(geom.rows):
            p_i = p_rows[i]
            w = x if p_i is None else x + p_i
            resid = a_i @ w - b_i
            if eq or resid > 0.0:
                x = w - resid * a_i
                p_rows[i] = w - x
            else:
                x = w
                p_rows[i] = None
        sweeps = sweep + 1
        change = float(np.abs(x - x_prev).max())
        if change <= tol and (violation(x) <= tol or ball is None
                              and _proves_empty(geom, before, p_bounds, p_rows, x, change)):
            break
    return x, sweeps, violation(x), change


def _proves_empty(geom: _Geometry, before, p_bounds, p_rows, x, change) -> bool:
    """Whether one sweep's correction increments prove bounds ∩ rows empty
    (Farkas): each lies in its set's barrier cone (a nonnegative multiple of
    an inequality row, no growth towards an infinite bound), and their support
    values sum to s < 0. They sum to minus the point's move, so every member z
    has s >= -change * ||z||_1: s must rule out all within l1 norm
    1e6 * (1 + ||x||_1)."""
    mu = np.array([(0.0 if p is None else float(p @ a)) - (0.0 if q is None else float(q @ a))
                   for (a, _, _), p, q in zip(geom.rows, p_rows, before[1])])
    if (mu[:geom.m_ineq] < 0.0).any():
        return False
    d = p_bounds - before[0]
    with np.errstate(invalid="ignore"):  # 0 * inf in the branch np.where drops
        box = np.where(d > 0.0, d * geom.upper, np.where(d < 0.0, d * geom.lower, 0.0))
    s = float(box.sum()) + float(mu @ geom.b)
    return s < -1e6 * change * (1.0 + float(np.abs(x).sum()))


def _certify(n, n_aux, lower, upper, a_ineq, b_ineq, a_eq, b_eq, aux_abs,
             provenance, candidates=()) -> ConstraintSet:
    """The set with a certified feasible point: the first candidate that is
    a member, checked on the stacked unit rows and bounds alone, else the
    Dykstra projection of the bound midpoint. Only that projection needs the
    prepared geometry, which then goes with the returned set; a set certified
    by a candidate builds its geometry on first use.

    Without a member, the InfeasibleConstraintsError says whether the sweeps
    proved the set empty (`_proves_empty`) or ended at their cap of 5,000;
    a thin feasible set can end there too."""
    made = ConstraintSet(n, n_aux, lower, upper, a_ineq, b_ineq, a_eq, b_eq,
                         aux_abs, provenance, np.empty(0))
    a, b = _stacked_rows(made)
    for cand in candidates:
        point = np.asarray(cand, dtype=float)
        if _worst_violation(lower, upper, a, b, a_ineq.shape[0], made.extend(point)) <= 1e-9:
            return replace(made, feasible_point=point.copy())
    geom = _Geometry(made)
    mid_lo = np.where(np.isfinite(geom.lower), geom.lower, -1.0)
    mid_hi = np.where(np.isfinite(geom.upper), geom.upper, 1.0)
    point, sweeps, violation, _ = _dykstra(geom, 0.5 * (mid_lo + mid_hi), 1e-10, 5000)
    point = point[:n]
    worst = geom.member_violation(made.extend(point))
    if worst > 1e-9:
        # before the cap, the sweeps end on a violation above tol only on a proof
        if sweeps < 5000 and violation > 1e-10:
            raise InfeasibleConstraintsError(
                f"infeasible constraint set ({provenance}): proved empty after {sweeps} sweeps")
        raise InfeasibleConstraintsError(
            f"constraint set ({provenance}) not certified: no member found in {sweeps} "
            f"sweeps (worst violation {worst:.3g})")
    certified = replace(made, feasible_point=point.copy())
    certified.__dict__["_geometry"] = geom
    return certified


def build_box(lower: float, upper: float, n: int) -> ConstraintSet:
    """Box constraints lower <= z_i <= upper on all n coordinates."""
    if lower > upper:
        raise ValueError(f"box lower bound {lower} exceeds upper bound {upper}")
    lo = np.full(n, float(lower))
    hi = np.full(n, float(upper))
    empty_rows = np.zeros((0, n))
    empty_b = np.zeros(0)
    mid = np.full(n, 0.5 * (lower + upper))
    return ConstraintSet(n, 0, lo, hi, empty_rows, empty_b, empty_rows, empty_b,
                         np.zeros((0, n)), "box", mid)


def build_didi_constraints(protected, epsilon: float, n: int) -> ConstraintSet:
    """Linearize the disparate-impact bound with one auxiliary u per
    (feature, group value):

        u >= +-(mean(z) - group_mean(z))   and   sum u <= epsilon

    Feasible z are exactly those with didi_value(z) <= epsilon.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    deviation_rows = []
    for rows, size in didi_groups(protected, n):
        c = np.full(n, 1.0 / n)
        c[rows] -= 1.0 / size
        deviation_rows.append(c)
    n_aux = len(deviation_rows)
    width = n + n_aux
    a_rows, b_vals = [], []
    for j, c in enumerate(deviation_rows):
        for sgn in (1.0, -1.0):
            row = np.zeros(width)
            row[:n] = sgn * c
            row[n + j] = -1.0
            a_rows.append(row)
            b_vals.append(0.0)
    budget = np.zeros(width)
    budget[n:] = 1.0
    a_rows.append(budget)
    b_vals.append(float(epsilon))
    a_ineq, b_ineq = _normalize_rows(np.array(a_rows), np.array(b_vals))
    lower = np.concatenate([np.full(n, -np.inf), np.full(n_aux, -np.inf)])
    upper = np.full(width, np.inf)
    aux_abs = np.array(deviation_rows) if n_aux else np.zeros((0, n))
    empty = np.zeros((0, width))
    # any constant vector has zero index, hence is feasible for every epsilon >= 0
    return _certify(n, n_aux, lower, upper, a_ineq, b_ineq, empty, np.zeros(0),
                    aux_abs, "didi", candidates=[np.full(n, 0.5)])


def from_inequalities(a_ineq, b_ineq, n: int, a_eq=None, b_eq=None,
                      lower=None, upper=None, provenance: str = "custom") -> ConstraintSet:
    """Custom constraint set over z only (no auxiliaries)."""
    a_ineq = np.asarray(a_ineq, dtype=float).reshape(-1, n)
    b_ineq = np.asarray(b_ineq, dtype=float).reshape(-1)
    if a_ineq.shape[0] != b_ineq.size:
        raise ValueError("a_ineq and b_ineq disagree on the number of rows")
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    a_ineq, b_ineq = _normalize_rows(a_ineq, b_ineq)
    a_eq, b_eq = _normalize_rows(a_eq, b_eq)
    lo = np.full(n, -np.inf) if lower is None else np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy()
    hi = np.full(n, np.inf) if upper is None else np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy()
    if (lo > hi).any():
        raise ValueError("lower bound exceeds upper bound")
    return _certify(n, 0, lo, hi, a_ineq, b_ineq, a_eq, b_eq, np.zeros((0, n)), provenance)


def intersect(a: ConstraintSet, b: ConstraintSet) -> ConstraintSet:
    """Stack two constraint sets over shared z coordinates; auxiliaries are
    concatenated and nonemptiness is re-checked."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    n_aux = a.n_aux + b.n_aux
    width = n + n_aux

    def widen(rows, n_aux_own, offset):
        if rows.shape[0] == 0:
            return np.zeros((0, width))
        out = np.zeros((rows.shape[0], width))
        out[:, :n] = rows[:, :n]
        if n_aux_own:
            out[:, n + offset:n + offset + n_aux_own] = rows[:, n:]
        return out

    a_ineq = np.vstack([widen(a.a_ineq, a.n_aux, 0), widen(b.a_ineq, b.n_aux, a.n_aux)])
    b_ineq = np.concatenate([a.b_ineq, b.b_ineq])
    a_eq = np.vstack([widen(a.a_eq, a.n_aux, 0), widen(b.a_eq, b.n_aux, a.n_aux)])
    b_eq = np.concatenate([a.b_eq, b.b_eq])
    lower = np.concatenate([np.maximum(a.lower[:n], b.lower[:n]), a.lower[n:], b.lower[n:]])
    upper = np.concatenate([np.minimum(a.upper[:n], b.upper[:n]), a.upper[n:], b.upper[n:]])
    if (lower > upper).any():
        raise InfeasibleConstraintsError("infeasible constraint set (disjoint bounds)")
    aux_abs = np.vstack([a.aux_abs, b.aux_abs]) if n_aux else np.zeros((0, n))
    provenance = f"{a.provenance}&{b.provenance}"
    candidates = [a.feasible_point, b.feasible_point,
                  0.5 * (a.feasible_point + b.feasible_point)]
    return _certify(n, n_aux, lower, upper, a_ineq, b_ineq, a_eq, b_eq, aux_abs,
                    provenance, candidates=candidates)


def is_member(cs: ConstraintSet, z: np.ndarray, tol: float = DEFAULT_MEMBER_TOL) -> bool:
    """True iff z, completed with its analytic auxiliaries, satisfies every
    constraint within tol."""
    z = np.asarray(z, dtype=float)
    if z.shape != (cs.n,):
        raise ValueError(f"expected a vector of length {cs.n}, got shape {z.shape}")
    return _geometry(cs).member_violation(cs.extend(z)) <= tol


def didi_epsilon(y: np.ndarray, protected, fraction: float) -> float:
    """The bound used in the experiments: a fraction of the training target's index."""
    return fraction * didi_value(y, protected)
