"""Pluggable regression models for the unconstrained training step: a
closed-form ridge (exact affine range projection, the learner the convergence
theory needs) and a from-scratch deterministic gradient-boosted tree ensemble
(the experimental learner).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .losses import LossSpec, gradient, loss_value

LEARNER_KINDS = ("ridge", "gbt")
_TIE_RTOL = 1e-12  # split gains this close to a node's best are tied


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    ridge_lambda: float = 0.0
    n_trees: int = 50
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 5
    seed: int = 0  # reserved for stochastic variants; fitting is exact and needs no RNG

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"kind: unknown learner kind {self.kind!r}; "
                             f"expected one of {LEARNER_KINDS}")
        if not self.ridge_lambda >= 0:
            raise ValueError(f"ridge_lambda: must be nonnegative, got {self.ridge_lambda}")
        for name in ("n_trees", "max_depth", "min_samples_leaf"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be at least 1, got {getattr(self, name)}")
        if not 0 < self.learning_rate <= 1:
            raise ValueError(f"learning_rate: must be in (0, 1], got {self.learning_rate}")


@dataclass
class _Tree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        idx = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            leafy = self.feature[idx] < 0
            if leafy.all():
                return self.value[idx]
            live = ~leafy
            nodes = idx[live]
            go_left = x[live, self.feature[nodes]] <= self.threshold[nodes]
            idx[live] = np.where(go_left, self.left[nodes], self.right[nodes])


@dataclass
class FittedModel:
    spec: LearnerSpec
    loss: LossSpec
    d: int
    theta: np.ndarray | None = None
    init: float = 0.0
    trees: list[_Tree] = field(default_factory=list)
    training_loss: float = 0.0
    train_prediction: np.ndarray | None = None


def fit(spec: LearnerSpec, x: np.ndarray, target: np.ndarray, loss: LossSpec,
        reuse: dict | None = None) -> FittedModel:
    """Fit the learner to `target` on the training matrix `x`.

    `reuse` is a dict that a caller refitting one training matrix keeps for
    it (the matrix must not change meanwhile): a fit stores there what later
    fits of the same matrix reuse, for ridge [1, x] and the Cholesky factor
    of its penalized Gram matrix. Fits give the same bits with or without it.
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.ndim != 2 or target.ndim != 1 or x.shape[0] != target.shape[0]:
        raise ValueError(f"incompatible shapes: x {x.shape}, target {target.shape}")
    if not np.isfinite(x).all():
        raise ValueError("feature matrix contains non-finite entries")
    if spec.kind == "ridge":
        model = _fit_ridge(spec, x, target, loss, {} if reuse is None else reuse)
    else:
        model = _fit_gbt(spec, x, target, loss)
    model.training_loss = loss_value(loss, model.train_prediction, target)
    return model


def predict(model: FittedModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise ValueError(f"expected {model.d} feature columns, got shape {x.shape}")
    if model.spec.kind == "ridge":
        return np.column_stack([np.ones(x.shape[0]), x]) @ model.theta
    out = np.full(x.shape[0], model.init)
    for tree in model.trees:
        out += model.spec.learning_rate * tree.apply(x)
    return out


def _fit_ridge(spec: LearnerSpec, x, target, loss, reuse: dict) -> FittedModel:
    """Exact minimizer of the squared loss plus lambda * ||weights||^2 with an
    unpenalized intercept (documented approximation when the run loss is
    mae/huber). [1, x] and the Cholesky factor of its penalized Gram matrix
    are taken from `reuse`, or built and kept there."""
    key = ("ridge", spec.ridge_lambda)
    if key not in reuse:
        g = np.column_stack([np.ones(x.shape[0]), x])
        gram = g.T @ g
        penalty = np.eye(g.shape[1])
        penalty[0, 0] = 0.0
        m = gram + spec.ridge_lambda * penalty
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError(
                "singular normal equations; set ridge_lambda > 0 or drop collinear features"
            ) from None
        reuse[key] = g, chol
    g, chol = reuse[key]
    rhs = g.T @ target
    theta = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    return FittedModel(spec=spec, loss=loss, d=x.shape[1], theta=theta,
                       train_prediction=g @ theta)


def _leaf_value(loss: LossSpec, residual: np.ndarray) -> float:
    """Loss-optimal constant for one leaf: argmin_c sum g(residual_i - c).

    Using the exact per-leaf line search (not the mean of pseudo-residuals)
    makes the training loss non-increasing for any learning rate in (0, 1].
    """
    if loss.kind == "mse":
        return float(residual.mean())
    if loss.kind == "mae":
        return float(np.median(residual))
    return _huber_location(residual, loss.huber_m)


def _huber_location(residual: np.ndarray, m: float) -> float:
    """Smallest minimizer c of sum huber(r_i - c) over the residuals r.

    The minimizers are the roots of psi(c) = sum clip(r_i - c, -m, m), which
    is continuous, non-increasing and linear between the knots r_i -+ m: with
    L rows at r_i <= c - m, U rows at r_i >= c + m and the rest Q in between,
    psi(c) = m (U - L) + sum_Q r_i - |Q| c. psi is evaluated at every knot to
    find the first knot where it is <= 0; the root is on the segment that ends
    there. If that segment has no row in Q, psi is 0 all along it and its
    left end is the smallest minimizer.
    """
    r = np.sort(residual)
    n = r.size
    knots = np.sort(np.concatenate([r - m, r + m]))
    csum = np.concatenate([[0.0], np.cumsum(r)])
    low = np.searchsorted(r, knots - m, side="right")
    high = np.searchsorted(r, knots + m, side="left")
    psi = m * (n - high - low) + (csum[high] - csum[low]) - knots * (high - low)
    k = max(int(np.argmax(psi <= 0.0)), 1)  # psi > 0 at the first knot
    left, right = knots[k - 1], knots[k]
    mid = 0.5 * (left + right)
    low = int(np.searchsorted(r, mid - m, side="right"))
    high = int(np.searchsorted(r, mid + m, side="left"))
    if high == low:
        return float(left)
    c = (m * (n - high - low) + r[low:high].sum()) / (high - low)
    return float(min(max(c, left), right))


def _bin_features(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin every feature at its sorted distinct values.

    Returns `codes`, where codes[i, f] = f * width + the rank of x[i, f] among
    the distinct values of column f, and `values`, where values[f, b] is the
    b-th distinct value of column f (padded with +inf up to `width`).
    """
    n, d = x.shape
    distinct = [np.unique(x[:, f]) for f in range(d)]
    width = max((u.size for u in distinct), default=0)
    values = np.full((d, width), np.inf)
    codes = np.empty((n, d), dtype=np.int64)
    for f, u in enumerate(distinct):
        values[f, :u.size] = u
        codes[:, f] = np.searchsorted(u, x[:, f]) + f * width
    return codes, values


def _fit_tree(codes, values, x, grad_target, residual, loss, max_depth, min_leaf):
    """Exact greedy regression tree grown level by level: structure chosen by
    squared-error gain on the gradient targets, leaf values by line search on
    the true residuals.

    The split search is a histogram search at the distinct feature values
    (`_bin_features`), so it is exact. For each level, one bincount over the
    key (node, feature, bin) gives every open node's gradient sum and row
    count per bin, and prefix sums along the bins give the gain of every
    split `x[:, f] <= threshold`. A candidate is a non-empty bin of the node
    that has a later non-empty bin; its threshold is the midpoint to that
    next value, and both sides must keep `min_leaf` rows. A node splits when
    its best gain exceeds 1e-12. Gains within a relative `_TIE_RTOL` of the
    node's best are tied, and the tie goes to the lowest feature, then the
    lowest threshold. Each leaf's value is `_leaf_value` of its rows'
    residuals in ascending row order.

    Returns the tree and the leaf (node id) of every row.
    """
    n, d = codes.shape
    width = values.shape[1]
    cells = d * width
    node = np.zeros(n, dtype=np.int64)  # each row's node
    slot = np.zeros(n, dtype=np.int64)  # its node's place among the open nodes; m once closed
    open_ids = np.zeros(1, dtype=np.int64)
    splits = []  # (node ids, features, thresholds) per level, in node order
    done = 0  # splits so far: the j-th split's children are nodes 2j+1 and 2j+2
    weights = np.repeat(grad_target, d)
    rows = np.arange(n)
    for _ in range(max_depth):
        m = open_ids.size
        key = ((slot * cells)[:, None] + codes).ravel()
        gsum = np.bincount(key, weights, (m + 1) * cells)[:m * cells].reshape(m, d, width)
        count = np.bincount(key, minlength=(m + 1) * cells)[:m * cells].reshape(m, d, width)
        ni = np.bincount(slot, minlength=m + 1)[:m, None, None]
        tot = np.bincount(slot, grad_target, m + 1)[:m, None, None]
        sl = np.cumsum(gsum, axis=2)
        nl = np.cumsum(count, axis=2)
        nr = ni - nl
        valid = (count > 0) & (nl >= min_leaf) & (nr >= min_leaf)
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = sl * sl / nl + (tot - sl) ** 2 / nr - tot * tot / ni
        gain = np.where(valid, gain, -np.inf).reshape(m, cells)
        best = gain.max(axis=1, initial=-np.inf)
        k = np.flatnonzero(best > 1e-12)
        if k.size == 0:
            break
        first = np.argmax(gain[k] >= (best[k] - _TIE_RTOL * best[k])[:, None], axis=1)
        f, b = np.divmod(first, width)
        after = np.argmax(nl[k, f] > nl[k, f, b][:, None], axis=1)  # next non-empty bin
        thr = 0.5 * (values[f, b] + values[f, after])
        splits.append((open_ids[k], f, thr))

        rank = np.full(m + 1, -1)
        rank[k] = np.arange(k.size)
        r = rank[slot]  # -1 for rows whose node stays a leaf; np.where drops them
        side = 2 * r + (x[rows, f[r]] > thr[r])
        node = np.where(r >= 0, 1 + 2 * done + side, node)
        slot = np.where(r >= 0, side, 2 * k.size)
        open_ids = 1 + 2 * done + np.arange(2 * k.size)
        done += k.size

    size = 1 + 2 * done
    feature = np.full(size, -1, dtype=np.int64)
    threshold = np.zeros(size)
    left = np.full(size, -1, dtype=np.int64)
    if splits:
        ids, f, thr = map(np.concatenate, zip(*splits))
        feature[ids], threshold[ids], left[ids] = f, thr, 1 + 2 * np.arange(done)
    right = np.where(left < 0, -1, left + 1)
    value = np.zeros(feature.size)
    order = np.argsort(node, kind="stable")
    members = np.split(order, np.cumsum(np.bincount(node, minlength=feature.size))[:-1])
    for leaf in np.flatnonzero(feature < 0):
        value[leaf] = _leaf_value(loss, residual[members[leaf]])
    return _Tree(feature, threshold, left, right, value), node


def _fit_gbt(spec: LearnerSpec, x, target, loss) -> FittedModel:
    codes, values = _bin_features(x)
    current = np.full(x.shape[0], target.mean())
    trees: list[_Tree] = []
    for _ in range(spec.n_trees):
        residual = target - current
        grad_target = 0.5 * gradient(loss, residual) if loss.kind != "mae" else np.sign(residual)
        tree, leaf = _fit_tree(codes, values, x, grad_target, residual, loss,
                               spec.max_depth, spec.min_samples_leaf)
        current = current + spec.learning_rate * tree.value[leaf]
        trees.append(tree)
    return FittedModel(spec=spec, loss=loss, d=x.shape[1], init=float(target.mean()),
                       trees=trees, train_prediction=current)
