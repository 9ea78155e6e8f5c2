"""Pluggable regression models for the unconstrained training step: a
closed-form ridge (exact affine range projection, the learner the convergence
theory needs) and a from-scratch deterministic gradient-boosted tree ensemble
(the experimental learner).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .losses import LossSpec, gradient, loss_value

LEARNER_KINDS = ("ridge", "gbt")
_TIE_RTOL = 1e-12  # split gains this close to a node's best are tied
_KEPT_BYTES = 8 << 20  # the most a `_KeptLevels` holds


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
    fits of the same matrix reuse. For ridge that is [1, x] and the Cholesky
    factor of its penalized Gram matrix, per `ridge_lambda`. For gbt it is
    the bins of x (`_bin_features`), once, and per `min_samples_leaf` the
    candidate splits of every tree level seen so far (`_KeptLevels`). Fits
    give the same bits with or without it.
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.ndim != 2 or target.ndim != 1 or x.shape[0] != target.shape[0]:
        raise ValueError(f"incompatible shapes: x {x.shape}, target {target.shape}")
    if not np.isfinite(x).all():
        raise ValueError("feature matrix contains non-finite entries")
    fit_kind = _fit_ridge if spec.kind == "ridge" else _fit_gbt
    model = fit_kind(spec, x, target, loss, {} if reuse is None else reuse)
    model.training_loss = loss_value(loss, model.train_prediction, target)
    return model


def predict(model: FittedModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise ValueError(f"expected {model.d} feature columns, got shape {x.shape}")
    if model.spec.kind == "ridge":
        return np.column_stack([np.ones(x.shape[0]), x]) @ model.theta
    out = np.full(x.shape[0], model.init)
    if not model.trees:
        return out
    value, leaf = _ensemble_leaves(model.trees, x)
    for step in model.spec.learning_rate * value[leaf]:  # tree by tree, in order
        out += step
    return out


def _ensemble_leaves(trees: list[_Tree], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every tree's leaf for every row, found for all trees at once: the
    trees' nodes are laid end to end, and a (trees x rows) matrix of node
    ids moves one level down per step (`x[:, feature] <= threshold` goes
    left) until every entry is a leaf. Returns the nodes' values and that
    matrix."""
    sizes = [tree.feature.size for tree in trees]
    start = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(start, sizes)
    feature, threshold, left, right, value = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("feature", "threshold", "left", "right", "value"))
    left, right = left + offset, right + offset
    rows = np.arange(x.shape[0])
    idx = np.repeat(start[:, None], rows.size, axis=1)
    while True:
        f = feature[idx]
        live = f >= 0
        if not live.any():
            return value, idx
        go_left = x[rows, f] <= threshold[idx]
        idx = np.where(live, np.where(go_left, left[idx], right[idx]), idx)


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
            raise DataError("singular normal equations; set run.learner.ridge_lambda "
                            "> 0 or drop collinear features") from None
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
        return float(np.add.reduce(residual) / residual.size)  # the bits of .mean()
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
    # distinct values by a sort and a neighbour compare: np.unique would import numpy.ma
    s = np.sort(x, axis=0)
    distinct = [c[np.append(c[:1] == c[:1], c[1:] != c[:-1])] for c in s.T]
    width = max((u.size for u in distinct), default=0)
    values = np.full((d, width), np.inf)
    codes = np.empty((n, d), dtype=np.int64)
    for f, u in enumerate(distinct):
        values[f, :u.size] = u
        codes[:, f] = np.searchsorted(u, x[:, f]) + f * width
    return codes, values


@dataclass
class _KeptLevels:
    """Levels of the trees grown on one training matrix with one `min_leaf`,
    kept for later trees: every level, as each row's node and slot and the
    level's `_candidates`, by the split positions and cells above the level,
    which with the matrix and `min_leaf` are all that a level depends on.
    Levels are kept while their arrays take at most `_KEPT_BYTES`."""
    levels: dict = field(default_factory=dict)
    nbytes: int = 0

    def keep(self, path: tuple, node, slot, found) -> None:
        size = node.nbytes + slot.nbytes + sum(a.nbytes for a in found)
        if self.nbytes + size <= _KEPT_BYTES:
            self.levels[path] = node, slot, found
            self.nbytes += size


def _candidates(key, slot, m, values, min_leaf):
    """The candidate splits of one level's m open nodes, from each row's flat
    key (node, feature, bin) and its node's place `slot` (m for a closed
    node). A candidate is a non-empty bin with `min_leaf` rows on each side;
    its threshold is the midpoint to the next non-empty bin's value, or the
    bin's own value where the midpoint of two adjacent floats rounds up to
    the next one. Returns the candidates' flat cells in ascending order,
    their node, their left, right and node row counts, and their
    thresholds."""
    d, width = values.shape
    cells = d * width
    count = np.bincount(key, minlength=(m + 1) * cells)[:m * cells].reshape(m, d, width)
    ni = np.bincount(slot, minlength=m + 1)[:m]
    nl = count.cumsum(axis=2)
    nr = ni[:, None, None] - nl
    cand = ((count > 0) & (nl >= min_leaf) & (nr >= min_leaf)).ravel().nonzero()[0]
    at = cand // cells
    nonempty = count.ravel().nonzero()[0]  # a candidate's next one is in its node and feature
    flat = values.ravel()
    low = flat[cand % cells]
    high = flat[nonempty[nonempty.searchsorted(cand, side="right")] % cells]
    mid = 0.5 * (low + high)
    return cand, at, nl.ravel()[cand], nr.ravel()[cand], ni[at], np.where(mid < high, mid, low)


def _fit_tree(codes, values, kept, grad_target, residual, loss, max_depth, min_leaf):
    """Exact greedy regression tree grown level by level: structure chosen by
    squared-error gain on the gradient targets, leaf values by line search on
    the true residuals.

    The split search is a histogram search at the distinct feature values
    (`_bin_features`), so it is exact. For each level, bincounts over the key
    (node, feature, bin) give every open node's gradient sum and row count
    per bin, and prefix sums along the bins give the gain of every candidate
    split `x[:, f] <= threshold` (`_candidates`). A node splits when its best
    gain exceeds 1e-12. Gains within a relative `_TIE_RTOL` of the node's
    best are tied, and the tie goes to the lowest feature, then the lowest
    threshold. Rows are routed by their bin codes. Each leaf's value is
    `_leaf_value` of its rows' residuals in ascending row order.

    The levels in `kept` (a `_KeptLevels`) are taken from it, and the ones it
    lacks are added. Returns the tree and the leaf (node id) of every row.
    """
    n, d = codes.shape
    width = values.shape[1]
    cells = d * width
    # each row's node, and that node's place among the open nodes (m once it is closed)
    node = slot = np.zeros(n, dtype=np.int64)
    open_ids = np.zeros(1, dtype=np.int64)
    splits = []  # (node ids, features, thresholds) per level, in node order
    done = 0  # splits so far: the j-th split's children are nodes 2j+1 and 2j+2
    weights = grad_target.repeat(d)
    flat_codes = codes.ravel()
    row_start = np.arange(0, n * d, d)
    path = ()  # the split positions and cells (k, first) of every level above this one
    for depth in range(max_depth):
        m = open_ids.size
        key = (codes + (slot * cells)[:, None]).ravel() if depth else flat_codes
        if path in kept.levels:
            found = kept.levels[path][2]
        else:
            found = _candidates(key, slot, m, values, min_leaf)
            kept.keep(path, node, slot, found)
        cand, at, nl, nr, ni, thr = found
        gsum = np.bincount(key, weights, (m + 1) * cells)[:m * cells].reshape(m, d, width)
        sl = gsum.cumsum(axis=2).ravel()[cand]
        tot = np.bincount(slot, grad_target, m + 1)[at]
        gain = np.empty(m * cells)
        gain.fill(-np.inf)
        gain[cand] = sl * sl / nl + (tot - sl) ** 2 / nr - tot * tot / ni
        gain = gain.reshape(m, cells)
        best = np.maximum.reduce(gain, axis=1, initial=-np.inf)
        k = (best > 1e-12).nonzero()[0]
        if k.size == 0:
            break
        first = (gain[k] >= (best[k] - _TIE_RTOL * best[k])[:, None]).argmax(axis=1)
        f = first // width  # first = f * width + bin, as in `codes`
        splits.append((open_ids[k], f, thr[cand.searchsorted(k * cells + first)]))

        path += (k.tobytes(), first.tobytes())
        if path in kept.levels:
            node, slot = kept.levels[path][:2]
        else:
            rank = np.empty(m + 1, dtype=np.int64)
            rank.fill(-1)
            rank[k] = np.arange(k.size)
            r = rank[slot]  # -1 for rows whose node stays a leaf; np.where drops them
            side = 2 * r + (flat_codes[row_start + f[r]] > first[r])
            node = np.where(r >= 0, 1 + 2 * done + side, node)
            slot = np.where(r >= 0, side, 2 * k.size)
        open_ids = 1 + 2 * done + np.arange(2 * k.size)
        done += k.size

    size = 1 + 2 * done
    feature = np.empty(size, dtype=np.int64)
    feature.fill(-1)
    threshold = np.zeros(size)
    left = feature.copy()
    if splits:
        ids, f, thr = map(np.concatenate, zip(*splits))
        feature[ids], threshold[ids], left[ids] = f, thr, 1 + 2 * np.arange(done)
    right = np.where(left < 0, -1, left + 1)
    value = np.zeros(size)
    by_leaf = residual[_leaf_order(node, size)]
    bounds = [0] + np.bincount(node, minlength=size).cumsum().tolist()
    for leaf in (feature < 0).nonzero()[0].tolist():
        value[leaf] = _leaf_value(loss, by_leaf[bounds[leaf]:bounds[leaf + 1]])
    return _Tree(feature, threshold, left, right, value), node


def _leaf_order(node, size):
    """The rows grouped by node id, ascending within a node: a stable sort of
    the ids in the smallest unsigned type that holds ids below `size`, which
    for 16 bits or less is numpy's radix sort."""
    return node.astype(np.min_scalar_type(size - 1)).argsort(kind="stable")


def _fit_gbt(spec: LearnerSpec, x, target, loss, reuse: dict) -> FittedModel:
    """Boosted trees from the mean of `target`. The bins of x and the kept
    levels for `spec.min_samples_leaf` are taken from `reuse`, or made and
    kept there."""
    if "gbt" not in reuse:
        reuse["gbt"] = _bin_features(x)
    codes, values = reuse["gbt"]
    kept = reuse.setdefault(("gbt", spec.min_samples_leaf), _KeptLevels())
    current = np.full(x.shape[0], target.mean())
    trees: list[_Tree] = []
    for _ in range(spec.n_trees):
        residual = target - current
        grad_target = 0.5 * gradient(loss, residual) if loss.kind != "mae" else np.sign(residual)
        tree, leaf = _fit_tree(codes, values, kept, grad_target, residual, loss,
                               spec.max_depth, spec.min_samples_leaf)
        current = current + spec.learning_rate * tree.value[leaf]
        trees.append(tree)
    return FittedModel(spec=spec, loss=loss, d=x.shape[1], init=float(target.mean()),
                       trees=trees, train_prediction=current)
