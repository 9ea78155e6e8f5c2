"""Loss functions (squared, absolute, Huber) and their pointwise proximal maps.

Every target-adjustment subproblem in this package reduces to proximal steps of
one of these losses, so the closed forms here are the computational primitive
of the whole engine.  The mean loss is ``(1/n) * sum g(z_k - y_k)`` with

    g(x) = x^2                      (mse)
    g(x) = |x|                      (mae)
    g(x) = x^2            |x| <= M  (huber)
           2M|x| - M^2    |x| >  M

Solver-facing helpers (`prox_unit`, `prox_pair`, `project_ball`) work with the
unnormalized sum; the public `prox` keeps the 1/n factor so its fixed points
match the mean loss regardless of dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOSS_KINDS = ("mse", "mae", "huber")


@dataclass(frozen=True)
class LossSpec:
    """Loss selector. `huber_m` is the quadratic/linear crossover threshold."""

    kind: str
    huber_m: float = 0.1

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"kind: unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")
        if self.kind == "huber" and not self.huber_m > 0:
            raise ValueError(f"huber_m: the huber threshold must be positive, got {self.huber_m}")


MSE = LossSpec("mse")
MAE = LossSpec("mae")


def pointwise(spec: LossSpec, x: np.ndarray) -> np.ndarray:
    """Elementwise g(x)."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "mse":
        return x * x
    if spec.kind == "mae":
        return np.abs(x)
    m = spec.huber_m
    ax = np.abs(x)
    return np.where(ax <= m, x * x, 2.0 * m * ax - m * m)


def gradient(spec: LossSpec, x: np.ndarray) -> np.ndarray:
    """Elementwise g'(x) (sign(x) for mae, a subgradient choice at 0)."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "mse":
        return 2.0 * x
    if spec.kind == "mae":
        return np.sign(x)
    m = spec.huber_m
    return 2.0 * np.clip(x, -m, m)


def loss_value(spec: LossSpec, z: np.ndarray, y: np.ndarray) -> float:
    """Mean loss (1/n) sum g(z_k - y_k). Symmetric; zero iff z == y."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.shape != y.shape:
        raise ValueError(f"dimension mismatch: {z.shape} vs {y.shape}")
    if z.size == 0:
        raise ValueError("loss of empty vectors is undefined")
    return float(np.add.reduce(pointwise(spec, z - y), axis=None) / z.size)  # as .mean()


def prox_unit(spec: LossSpec, t, v: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """argmin_z t*g(z_k - anchor_k) + 0.5*(z_k - v_k)^2, elementwise.

    `t` may be a scalar or a per-coordinate array.
    """
    v = np.asarray(v, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    if spec.kind == "mse":
        return (v + 2.0 * t * anchor) / (1.0 + 2.0 * t)
    if spec.kind == "mae":
        return _shrink(v - anchor, t, anchor)
    m = spec.huber_m
    w = v - anchor
    thr = m * (1.0 + 2.0 * t)
    quad = w / (1.0 + 2.0 * t)
    lin = w - 2.0 * t * m * np.sign(w)
    return anchor + np.where(np.abs(w) <= thr, quad, lin)


def _shrink(d: np.ndarray, t, anchor: np.ndarray) -> np.ndarray:
    """anchor + sign(d) * max(|d| - t, 0) for a 1-D d, with the bits of that
    expression, signed zeros included, from one new array: copysign gives
    the zero of sign(d) * 0 except where d is -0.0, which v - anchor yields
    only when anchor is +0.0, and anchor + -0.0 == anchor + 0.0 there."""
    out = np.abs(d)
    out -= t
    np.maximum(out, 0.0, out=out)
    np.copysign(out, d, out=out)
    out += anchor
    return out


def prox(spec: LossSpec, t: float, v: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Proximal map of the mean loss toward `anchor`:

        argmin_z (1/n) g(z_k - anchor_k) + (1/(2t)) (z_k - v_k)^2

    The 1/n normalization is folded into the effective step so behaviour does
    not drift with dimension.
    """
    if not t > 0:
        raise ValueError(f"prox step must be positive, got {t}")
    v = np.asarray(v, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    if v.shape != anchor.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {anchor.shape}")
    return prox_unit(spec, t / v.size, v, anchor)


def prox_pair(spec: LossSpec, t, v: np.ndarray, a1: np.ndarray, a2: np.ndarray,
              w2: float) -> np.ndarray:
    """argmin_z t*[g(z-a1_k) + w2*g(z-a2_k)] + 0.5*(z - v_k)^2, elementwise
    over a 1-D `v`.

    Two-anchor prox used by the combined-objective master step.
    """
    v = np.asarray(v, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    if spec.kind == "mse":
        return (v + 2.0 * t * (a1 + w2 * a2)) / (1.0 + 2.0 * t * (1.0 + w2))
    if spec.kind == "mae":
        # piecewise quadratic with kinks at the anchors: the stationary point
        # of an outer piece when it lies in that piece, else the middle
        # piece's stationary point clipped to the kinks
        t2 = t * w2
        lo = np.minimum(a1, a2)
        hi = np.maximum(a1, a2)
        below = v + t + t2
        above = v - t - t2
        middle = np.where(a1 <= a2, v - t + t2, v - t2 + t)
        z = np.clip(middle, lo, hi)
        np.copyto(z, above, where=above > hi)
        np.copyto(z, below, where=below < lo)
        return z
    # huber pair: the derivative t*[g'(z-a1) + w2*g'(z-a2)] + (z - v) is
    # increasing and piecewise linear, with kinks at a1 -+ m and a2 -+ m and
    # slope 1 outside them. The knots locate the piece where it changes sign;
    # on that piece each g' term is 2(z - a) or 2*(-+m), so its root solves
    # one linear equation, to within rounding of the values, not of m
    m = spec.huber_m
    lo, hi = np.minimum(a1, a2), np.maximum(a1, a2)
    knots = np.array([lo - m, np.minimum(lo + m, hi - m), np.maximum(lo + m, hi - m), hi + m])
    dphi = 2.0 * t * (np.clip(knots - a1, -m, m) + w2 * np.clip(knots - a2, -m, m)) \
        + (knots - v)
    np.maximum.accumulate(dphi, axis=0, out=dphi)  # monotone through rounding
    below = np.count_nonzero(dphi <= 0.0, axis=0)  # knots left of the root
    cols = np.arange(v.size)
    left, right = knots[np.maximum(below - 1, 0), cols], knots[np.minimum(below, 3), cols]
    # a point inside that piece: m past the end knot when the root is outside them
    inside = np.where(below == 0, left - m, np.where(below == 4, right + m, 0.5 * (left + right)))
    quad1, quad2 = np.abs(inside - a1) < m, np.abs(inside - a2) < m
    shift = np.where(quad1, a1, -m * np.sign(inside - a1)) \
        + w2 * np.where(quad2, a2, -m * np.sign(inside - a2))
    z = (v + 2.0 * t * shift) / (1.0 + 2.0 * t * (quad1 + w2 * quad2))
    return np.where((below > 0) & (below < 4), np.clip(z, left, right), z)


def project_ball(spec: LossSpec, v: np.ndarray, center: np.ndarray, beta: float) -> np.ndarray:
    """Euclidean projection of v onto the sublevel set {z : loss_value(z, center) <= beta}."""
    v = np.asarray(v, dtype=float)
    center = np.asarray(center, dtype=float)
    if v.shape != center.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {center.shape}")
    if not beta >= 0:
        raise ValueError(f"ball radius must be nonnegative, got {beta}")
    if beta == 0:
        return center.copy()
    n = v.size
    d = v - center
    if spec.kind == "mse":
        q = float(d @ d)
        r2 = n * beta
        if q <= r2:
            return v.copy()
        return center + d * np.sqrt(r2 / q)
    if spec.kind == "mae":
        r = n * beta
        ad = np.abs(d)
        if float(ad.sum()) <= r:
            return v.copy()
        # sort-based L1-ball projection
        ad.sort()
        u = ad[::-1]
        css = np.cumsum(u)
        kept = u * np.arange(1, n + 1) > (css - r)
        kept[0] = True  # r > 0, also where rounding loses r beside a huge |d|
        k = np.flatnonzero(kept)[-1]
        theta = (css[k] - r) / (k + 1.0)
        return _shrink(d, theta, center)
    # huber: the solution is prox_unit(nu) for the multiplier nu > 0 at which
    # excess(nu) = sum g(prox_unit(nu) - center) - n*beta, decreasing, is 0.
    # Coordinate k (|d| sorted ascending) is on g's linear piece, at distance
    # |d_k| - 2*nu*m from the center, until nu reaches its kink (|d_k|/m - 1)/2,
    # and on the quadratic piece, at |d_k|/(1 + 2*nu), after it. Between two
    # kinks, with the coordinates from j on still linear, the excess is
    #     lin[j] - 4 m^2 (n - j) nu + quad[j] / (1 + 2 nu)^2 - target,
    # convex and decreasing, so Newton steps from the piece's left end climb
    # to the root without passing it.
    target = n * beta
    if float(pointwise(spec, d).sum()) <= target:
        return v.copy()
    m = spec.huber_m
    a = np.sort(np.abs(d))
    kinks = (a / m - 1.0) / 2.0
    quad = np.concatenate([[0.0], np.cumsum(a * a)])
    lin = np.concatenate([np.cumsum((2.0 * m * a - m * m)[::-1])[::-1], [0.0]])
    slope = 4.0 * m * m * (n - np.arange(n + 1))

    def excess(nu, j):
        return lin[j] - slope[j] * nu + quad[j] / (1.0 + 2.0 * nu) ** 2 - target

    first = int(np.searchsorted(kinks, 0.0, side="right"))  # the first kink past 0
    js = np.arange(first, n)
    hit = np.flatnonzero(excess(kinks[js], js + 1) <= 0.0)  # coordinate j on its kink
    j = first + int(hit[0]) if hit.size else n
    if j == n:  # every coordinate quadratic at the root: a closed form
        nu = 0.5 * (np.sqrt(quad[n] / target) - 1.0)
    else:
        nu = float(kinks[j - 1]) if j > first else 0.0
        for _ in range(100):
            h = excess(nu, j)
            step = h / (slope[j] + 4.0 * quad[j] / (1.0 + 2.0 * nu) ** 3)
            if h <= 0.0 or step <= 4e-16 * nu:
                break
            nu += step
    return prox_unit(spec, nu, v, center)


def loss_norm(spec: LossSpec, v: np.ndarray) -> float:
    """Norm matched to the loss geometry: L2 for mse/huber, L1 for mae."""
    v = np.asarray(v, dtype=float)
    if spec.kind == "mae":
        return float(np.abs(v).sum())
    return float(np.linalg.norm(v))
