"""Convex feasible sets as bounds + linear rows, and the group-fairness
(disparate-impact) constraint encoding.

A ConstraintSet lives in the extended space (z, u) where u are auxiliary
variables that linearize absolute values.  Every constructor certifies
nonemptiness by exhibiting one feasible point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConstraintsError

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

    @property
    def m_ineq(self) -> int:
        return self.a_ineq.shape[0]

    def extend(self, z: np.ndarray) -> np.ndarray:
        """Append the analytic auxiliary values to z."""
        z = np.asarray(z, dtype=float)
        if self.n_aux == 0:
            return z
        return np.concatenate([z, np.abs(self.aux_abs @ z)])


def didi_value(z: np.ndarray, protected) -> float:
    """Sum over protected features and group values of
    |mean(z) - mean(z over the group)|."""
    z = np.asarray(z, dtype=float)
    overall = z.mean()
    total = 0.0
    for spec in protected:
        for value in spec.group_values():
            rows = spec.groups[value]
            if rows.size == 0:
                raise ValueError(f"empty group {value} in protected feature {spec.feature_index}")
            if rows.max() >= z.size:
                raise ValueError("group row index out of range")
            total += abs(overall - z[rows].mean())
    return float(total)


def _normalize_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if a.size == 0:
        return a, b
    norms = np.linalg.norm(a, axis=1)
    if (norms == 0).any():
        raise ValueError("constraint row with all-zero coefficients")
    return a / norms[:, None], b / norms


def _pocs_feasible(lower, upper, a_ineq, b_ineq, a_eq, b_eq, start,
                   tol=1e-10, max_sweeps=5000):
    """Cyclic projections feasibility probe; returns a point or None."""
    x = np.clip(start, lower, upper)
    m, me = a_ineq.shape[0], a_eq.shape[0]
    for _ in range(max_sweeps):
        np.clip(x, lower, upper, out=x)
        for i in range(me):
            x -= (a_eq[i] @ x - b_eq[i]) * a_eq[i]
        for i in range(m):
            viol = a_ineq[i] @ x - b_ineq[i]
            if viol > 0:
                x -= viol * a_ineq[i]
        worst = max(
            float(np.max(lower - x, initial=0.0)),
            float(np.max(x - upper, initial=0.0)),
            float(np.max(a_ineq @ x - b_ineq, initial=0.0)) if m else 0.0,
            float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0)) if me else 0.0,
        )
        if worst <= tol:
            return x
    return None


def _violation(lower, upper, a_ineq, b_ineq, a_eq, b_eq, x) -> float:
    worst = max(
        float(np.max(lower - x, initial=0.0)),
        float(np.max(x - upper, initial=0.0)),
    )
    if a_ineq.shape[0]:
        worst = max(worst, float(np.max(a_ineq @ x - b_ineq)))
    if a_eq.shape[0]:
        worst = max(worst, float(np.max(np.abs(a_eq @ x - b_eq))))
    return worst


def _certify(n, n_aux, lower, upper, a_ineq, b_ineq, a_eq, b_eq, aux_abs,
             provenance, candidates=()) -> ConstraintSet:
    made = ConstraintSet(n, n_aux, lower, upper, a_ineq, b_ineq, a_eq, b_eq,
                         aux_abs, provenance, np.empty(0))
    for cand in candidates:
        x = made.extend(np.asarray(cand, dtype=float))
        if _violation(lower, upper, a_ineq, b_ineq, a_eq, b_eq, x) <= 1e-9:
            return ConstraintSet(n, n_aux, lower, upper, a_ineq, b_ineq, a_eq,
                                 b_eq, aux_abs, provenance, x[:n].copy())
    mid_lo = np.where(np.isfinite(lower), lower, -1.0)
    mid_hi = np.where(np.isfinite(upper), upper, 1.0)
    start = 0.5 * (mid_lo + mid_hi)
    point = _pocs_feasible(lower, upper, a_ineq, b_ineq, a_eq, b_eq, start)
    if point is None:
        raise InfeasibleConstraintsError(f"infeasible constraint set ({provenance})")
    return ConstraintSet(n, n_aux, lower, upper, a_ineq, b_ineq, a_eq, b_eq,
                         aux_abs, provenance, point[:n].copy())


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
    for spec in protected:
        for value in spec.group_values():
            rows = spec.groups[value]
            if rows.size == 0:
                raise ValueError("empty protected group")
            c = np.full(n, 1.0 / n)
            c[rows] -= 1.0 / rows.size
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
    x = cs.extend(z)
    return _violation(cs.lower, cs.upper, cs.a_ineq, cs.b_ineq, cs.a_eq, cs.b_eq, x) <= tol


def didi_epsilon(y: np.ndarray, protected, fraction: float = 0.2) -> float:
    """The bound used in the experiments: a fraction of the training target's index."""
    return fraction * didi_value(y, protected)
