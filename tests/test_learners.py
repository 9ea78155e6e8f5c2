import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from confit import learners
from confit.config import load_config
from confit.errors import DataError
from confit.experiment import prepare_folds
from confit.learners import FittedModel, LearnerSpec, _leaf_value, fit, predict
from confit.losses import LossSpec, MSE, MAE, gradient, loss_value
from oracles import (best_stump_brute, bin_features_by_unique, hat_matrix,
                     huber_location_bisection, predict_tree_by_tree, sorted_scan_tree,
                     training_curve)

HUBER = LossSpec("huber")
RIDGE0 = LearnerSpec("ridge", ridge_lambda=0.0)


def linear_data(rng, n=30, d=4, noise=0.0):
    x = rng.uniform(0, 1, (n, d))
    w = rng.standard_normal(d)
    y = x @ w + 0.3 + noise * rng.standard_normal(n)
    return x, y, w


@pytest.mark.parametrize("spec", [RIDGE0, LearnerSpec("gbt", n_trees=3)], ids=["ridge", "gbt"])
def test_refits_sharing_reuse_scan_their_matrix_once(spec, monkeypatch):
    # the first fit of a `reuse` dict checks that x is finite, and records it
    # only when it is: a matrix with NaN raises on every fit
    rng = np.random.default_rng(4)
    x, y, _ = linear_data(rng, n=20, d=3)
    bad = x.copy()
    bad[5, 1] = np.nan
    reuse = {}
    for _ in range(2):
        with pytest.raises(ValueError, match="non-finite"):
            fit(spec, bad, y, MSE, reuse)
    scans = []
    real = np.isfinite
    monkeypatch.setattr(learners.np, "isfinite",
                        lambda a, *args, **kwargs: scans.append(a is x) or real(a, *args, **kwargs))
    reuse = {}
    fit(spec, x, y, MSE, reuse)
    refit = fit(spec, x, 1.0 - y, MSE, reuse)
    assert scans.count(True) == 1
    fresh = fit(spec, x, 1.0 - y, MSE)
    assert scans.count(True) == 2
    assert np.array_equal(refit.train_prediction, fresh.train_prediction)


def test_ridge_recovers_exact_linear_data():
    rng = np.random.default_rng(0)
    x, y, w = linear_data(rng)
    model = fit(RIDGE0, x, y, MSE)
    assert model.training_loss <= 1e-12
    assert np.allclose(model.theta[1:], w, atol=1e-8)
    assert np.allclose(model.theta[0], 0.3, atol=1e-8)
    assert np.allclose(predict(model, x), y, atol=1e-10)


def test_ridge_large_lambda_shrinks_to_intercept():
    rng = np.random.default_rng(1)
    x, y, _ = linear_data(rng)
    model = fit(LearnerSpec("ridge", ridge_lambda=1e12), x, y, MSE)
    assert np.allclose(model.theta[1:], 0.0, atol=1e-6)
    assert model.theta[0] == pytest.approx(y.mean(), abs=1e-6)


def test_ridge_singular_without_lambda_raises():
    x = np.ones((10, 2))  # both columns collinear with the intercept
    y = np.arange(10.0)
    with pytest.raises(DataError, match="ridge_lambda"):
        fit(RIDGE0, x, y, MSE)
    fit(LearnerSpec("ridge", ridge_lambda=1e-3), x, y, MSE)  # regularized succeeds


def test_ridge_refits_of_one_matrix_reuse_its_factor(monkeypatch):
    # refits that share a `reuse` dict factor their matrix once, and give
    # the bits of fits that factor it afresh
    rng = np.random.default_rng(5)
    x, y, _ = linear_data(rng, noise=0.1)
    spec = LearnerSpec("ridge", ridge_lambda=0.3)
    targets = [y + 0.01 * k * rng.standard_normal(y.size) for k in range(6)]
    fresh = [fit(spec, x, target, MSE) for target in targets]
    factored = []
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda m, _orig=np.linalg.cholesky: factored.append(m) or _orig(m))
    reuse = {}
    for target, want in zip(targets, fresh):
        got = fit(spec, x, target, MSE, reuse)
        assert np.array_equal(got.theta, want.theta)
        assert np.array_equal(got.train_prediction, want.train_prediction)
        assert got.training_loss == want.training_loss
    assert len(factored) == 1
    fit(RIDGE0, x, y, MSE, reuse)  # another lambda gets its own factor
    assert len(factored) == 2


def _same_trees(a, b):
    return len(a) == len(b) and all(
        np.array_equal(getattr(s, name), getattr(t, name))
        for s, t in zip(a, b) for name in ("feature", "threshold", "left", "right", "value"))


def test_bins_of_the_school_folds_are_those_of_np_unique():
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "school.yaml")
    for fold in prepare_folds(config):
        codes, values = learners._bin_features(fold.train.x)
        want_codes, want_values = bin_features_by_unique(fold.train.x)
        assert np.array_equal(codes, want_codes)
        assert values.shape == want_values.shape and values.tobytes() == want_values.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 5),
       levels=st.integers(1, 8))
def test_bins_are_those_of_np_unique(seed, n, d, levels):
    # few levels per column, so most values repeat
    x = np.random.default_rng(seed).integers(0, levels, (n, d)) / levels
    codes, values = learners._bin_features(x)
    want_codes, want_values = bin_features_by_unique(x)
    assert np.array_equal(codes, want_codes)
    assert values.shape == want_values.shape and values.tobytes() == want_values.tobytes()


def test_bins_of_signed_zeros_are_those_of_np_unique():
    # 0.0 and -0.0 are one value: either may stand for it, but the codes agree
    x = np.array([[0.0, 1.0], [-0.0, 0.0], [0.5, -0.0], [-0.0, -0.0], [0.0, 2.0]])
    codes, values = learners._bin_features(x)
    want_codes, want_values = bin_features_by_unique(x)
    assert np.array_equal(codes, want_codes)
    assert values.shape == want_values.shape and np.array_equal(values, want_values)


@pytest.mark.parametrize("loss", (MSE, MAE, HUBER), ids=lambda s: s.kind)
def test_gbt_refits_of_one_matrix_reuse_its_bins(loss, monkeypatch):
    # refits that share a `reuse` dict bin their matrix once, and give the
    # bits of fits that bin it afresh
    rng = np.random.default_rng(6)
    x = np.round(rng.uniform(0, 1, (80, 4)), 1)
    y = rng.uniform(0, 1, 80)
    spec = LearnerSpec("gbt", n_trees=12, max_depth=3, min_samples_leaf=4)
    targets = [y + 0.05 * k * rng.standard_normal(y.size) for k in range(6)]
    fresh = [fit(spec, x, target, loss) for target in targets]
    other = dataclasses.replace(spec, min_samples_leaf=2)
    fresh_other = fit(other, x, y, loss)
    binned = []
    monkeypatch.setattr(learners, "_bin_features",
                        lambda m, _orig=learners._bin_features: binned.append(m) or _orig(m))
    reuse = {}
    for target, want in zip(targets, fresh):
        got = fit(spec, x, target, loss, reuse)
        assert _same_trees(got.trees, want.trees)
        assert np.array_equal(got.train_prediction, want.train_prediction)
        assert got.training_loss == want.training_loss
    assert len(binned) == 1
    got = fit(other, x, y, loss, reuse)  # another min_samples_leaf gets its own root entry
    assert () in reuse[("gbt", 2)].levels and reuse[("gbt", 2)] is not reuse[("gbt", 4)]
    assert _same_trees(got.trees, fresh_other.trees)
    assert np.array_equal(got.train_prediction, fresh_other.train_prediction)
    assert len(binned) == 1
    monkeypatch.setattr(learners, "_KEPT_BYTES", 0)  # no level kept: the same bits
    unkept = {}
    assert _same_trees(fit(spec, x, targets[1], loss, unkept).trees, fresh[1].trees)
    assert unkept[("gbt", 4)].levels == {}


def _gbt_refit_problem(seed=7, n=120):
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(0, 1, (n, 5)), 2)
    y = rng.uniform(0, 1, n)
    return x, [y + 0.05 * k * rng.standard_normal(n) for k in range(3)]


@pytest.mark.parametrize("max_depth", (3, 5))
@pytest.mark.parametrize("loss", (MSE, MAE, HUBER), ids=lambda s: s.kind)
def test_gbt_refit_of_a_seen_target_searches_no_level(loss, max_depth, monkeypatch):
    # every level of every tree is kept, so a target fitted before grows the
    # same trees without one candidate search, and gives the same bits
    x, targets = _gbt_refit_problem()
    spec = LearnerSpec("gbt", n_trees=15, max_depth=max_depth, min_samples_leaf=3)
    fresh = [fit(spec, x, target, loss) for target in targets]
    searched = []
    monkeypatch.setattr(learners, "_candidates",
                        lambda *a, _orig=learners._candidates: searched.append(1) or _orig(*a))
    reuse = {}
    for target in targets:
        fit(spec, x, target, loss, reuse)
    assert searched
    kept = reuse[("gbt", 3)]
    assert max(len(path) for path in kept.levels) == 2 * (max_depth - 1)
    searched.clear()
    for target, want in zip(targets, fresh):
        got = fit(spec, x, target, loss, reuse)
        assert _same_trees(got.trees, want.trees)
        assert got.train_prediction.tobytes() == want.train_prediction.tobytes()
        assert got.training_loss == want.training_loss
    assert searched == []


@pytest.mark.parametrize("share", (0.0, 0.3, 0.7, 1.0))
def test_gbt_kept_levels_stay_under_their_cap(share, monkeypatch):
    # a cap at a share of what the fits would keep without one keeps only
    # what fits, and changes no bit of the fits
    x, targets = _gbt_refit_problem(seed=8)
    spec = LearnerSpec("gbt", n_trees=10, max_depth=4, min_samples_leaf=2)
    uncapped = {}
    fresh = [fit(spec, x, target, MAE, uncapped) for target in targets]
    everything = uncapped[("gbt", 2)]
    cap = int(share * everything.nbytes)
    monkeypatch.setattr(learners, "_KEPT_BYTES", cap)
    reuse = {}
    for target, want in zip(targets, fresh):
        got = fit(spec, x, target, MAE, reuse)
        assert _same_trees(got.trees, want.trees)
        assert got.train_prediction.tobytes() == want.train_prediction.tobytes()
        kept = reuse[("gbt", 2)]
        held = sum(node.nbytes + slot.nbytes + sum(a.nbytes for a in found)
                   for node, slot, found in kept.levels.values())
        assert kept.nbytes == held <= cap
    assert (len(kept.levels) == 0) == (share == 0)
    assert (len(kept.levels) == len(everything.levels)) == (share == 1)


@pytest.mark.parametrize("size", (1, 2, 255, 256, 257, 1 << 16, (1 << 16) + 1, 1 << 33))
def test_leaf_order_is_the_stable_int64_argsort(size):
    # the narrow-key sort groups rows as the stable argsort of the int64 ids
    # does, also for ids of 16 bits and more
    rng = np.random.default_rng(size)
    for n in (1, 7, 500):
        node = rng.integers(0, size, n, dtype=np.int64)
        node[rng.integers(0, n, n // 2)] = size - 1  # ties at the largest id
        want = np.argsort(node, kind="stable")
        assert np.array_equal(learners._leaf_order(node, size), want)


def test_ridge_prediction_is_hat_matrix_projection():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, (12, 3))
    h = hat_matrix(x)
    for _ in range(5):
        z = rng.uniform(0, 1, 12)
        model = fit(RIDGE0, x, z, MSE)
        assert np.allclose(model.train_prediction, h @ z, atol=1e-9)


def test_ridge_projection_idempotent_and_linear():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (15, 3))

    def pb(z):
        return fit(RIDGE0, x, z, MSE).train_prediction

    z1, z2 = rng.uniform(0, 1, 15), rng.uniform(0, 1, 15)
    assert np.allclose(pb(pb(z1)), pb(z1), atol=1e-9)
    a, b = 0.4, -1.3
    assert np.allclose(pb(a * z1 + b * z2), a * pb(z1) + b * pb(z2), atol=1e-8)


def test_ridge_is_range_optimal_under_perturbation():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, (20, 3))
    z = rng.uniform(0, 1, 20)
    model = fit(RIDGE0, x, z, MSE)
    base = loss_value(MSE, model.train_prediction, z)
    g = np.column_stack([np.ones(20), x])
    for j in range(4):
        for delta in (1e-3, -1e-3):
            theta = model.theta.copy()
            theta[j] += delta
            assert loss_value(MSE, g @ theta, z) >= base - 1e-15


def test_ridge_positive_lambda_nonexpansive_in_l2():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (25, 4))
    spec = LearnerSpec("ridge", ridge_lambda=0.7)
    for _ in range(20):
        z1, z2 = rng.uniform(-1, 2, 25), rng.uniform(-1, 2, 25)
        p1 = fit(spec, x, z1, MSE).train_prediction
        p2 = fit(spec, x, z2, MSE).train_prediction
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(z1 - z2) + 1e-9


def test_gbt_stump_matches_threshold_enumeration():
    # depth-1, rate-1 tree on a one-feature dataset equals the best brute-force
    # split; training mse equals the within-group variance average
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, (40, 1))
    y = np.where(x[:, 0] <= 0.6, 0.2, 0.8) + 0.01 * rng.standard_normal(40)
    spec = LearnerSpec("gbt", n_trees=1, max_depth=1, learning_rate=1.0, min_samples_leaf=1)
    model = fit(spec, x, y, MSE)
    thr_oracle, mse_oracle = best_stump_brute(x[:, 0], y)
    assert model.trees[0].threshold[0] == pytest.approx(thr_oracle, abs=1e-12)
    assert model.training_loss == pytest.approx(mse_oracle, rel=1e-12)
    left = x[:, 0] <= thr_oracle
    within_group = (np.var(y[left]) * left.sum() + np.var(y[~left]) * (~left).sum()) / 40
    assert model.training_loss == pytest.approx(within_group, rel=1e-12)


def test_gbt_deterministic_bit_for_bit():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, (60, 5))
    y = rng.uniform(0, 1, 60)
    spec = LearnerSpec("gbt", n_trees=10, max_depth=3)
    a = fit(spec, x, y, MAE)
    b = fit(spec, x, y, MAE)
    assert np.array_equal(a.train_prediction, b.train_prediction)
    xq = rng.uniform(0, 1, (9, 5))
    assert np.array_equal(predict(a, xq), predict(b, xq))


def test_predict_reproduces_fit_time_values_bit_for_bit():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (30, 3))
    y = rng.uniform(0, 1, 30)
    for spec in (RIDGE0, LearnerSpec("gbt", n_trees=5)):
        model = fit(spec, x, y, MSE)
        assert np.array_equal(predict(model, x), model.train_prediction)


@pytest.mark.parametrize("loss", (MSE, MAE, HUBER), ids=lambda s: s.kind)
def test_gbt_training_loss_non_increasing(loss):
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, (80, 4))
    y = np.clip(x @ np.array([0.5, -0.2, 0.3, 0.1]) + 0.2 + 0.05 * rng.standard_normal(80), 0, 1)
    model = fit(LearnerSpec("gbt", n_trees=40, max_depth=2), x, y, loss)
    curve = training_curve(model, x, lambda p: loss_value(loss, p, y))
    assert np.all(np.diff(curve) <= 1e-12)


@st.composite
def huber_leaves(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    levels = draw(st.sampled_from([None, 2, 3, 5]))  # few levels: ties and flat minima
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 30.0]))
    r = rng.standard_normal(n) if levels is None else rng.integers(0, levels, n) / 2.0
    return scale * r + draw(st.sampled_from([0.0, -0.5, 4.0])), draw(st.sampled_from([0.01, 0.1, 1.0]))


@settings(max_examples=300, deadline=None)
@given(huber_leaves())
@example((np.array([-1.0, -0.9, 0.1, 1.0]), 0.3))  # flat minimum: all of [-0.6, -0.2]
def test_huber_leaf_value_matches_bisection_oracle(leaf):
    residual, m = leaf
    got = _leaf_value(LossSpec("huber", huber_m=m), residual)
    want = huber_location_bisection(residual, m)
    span = float(residual.max() - residual.min())
    slack = 1e-9 * span + 4 * np.finfo(float).eps * float(np.abs(residual).max())
    if abs(got - want) > slack:
        # the sum is flat at its minimum, where the oracle's rounded derivative
        # sums may stop anywhere: both ends must bound a stretch that no
        # residual comes within m of, and `got` must be its left end
        lo, hi = min(got, want), max(got, want)
        assert not np.any((residual > lo - m + slack) & (residual < hi + m - slack))
        assert got < want
        assert np.any(np.isclose(residual, got - m, rtol=0, atol=slack))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([0.01, 0.1, 0.5]),
       rate=st.sampled_from([0.1, 0.5, 1.0]))
def test_gbt_huber_training_loss_never_increases(seed, m, rate):
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(0, 1, (60, 3)), 1)
    y = rng.uniform(0, 1, 60) + (rng.uniform(0, 1, 60) < 0.1) * 3.0  # a few outliers
    loss = LossSpec("huber", huber_m=m)
    spec = LearnerSpec("gbt", n_trees=15, max_depth=3, learning_rate=rate, min_samples_leaf=2)
    curve = training_curve(fit(spec, x, y, loss), x, lambda p: loss_value(loss, p, y))
    start = loss_value(loss, np.full(60, y.mean()), y)
    assert np.all(np.diff(np.concatenate([[start], curve])) <= 1e-12)


@st.composite
def ensembles_and_rows(draw):
    """A fitted gbt model, cut to its first j trees (0 for an empty ensemble),
    and query rows: training rows, rows with one coordinate set to a split
    threshold, and rows outside the training range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 3))
    x = np.round(rng.uniform(0, 1, (n, d)), draw(st.integers(0, 2)))
    y = draw(st.sampled_from([np.full(n, 0.4), rng.uniform(0, 1, n)]))  # constant: single leaves
    spec = LearnerSpec("gbt", n_trees=draw(st.integers(1, 8)), max_depth=draw(st.integers(1, 4)),
                       learning_rate=draw(st.sampled_from([0.1, 0.7, 1.0])),
                       min_samples_leaf=draw(st.integers(1, 4)))
    model = fit(spec, x, y, draw(st.sampled_from([MSE, MAE, HUBER])))
    model = dataclasses.replace(model, trees=model.trees[:draw(st.integers(0, spec.n_trees))])
    at_threshold = []
    for tree in model.trees:
        for f, thr in zip(tree.feature, tree.threshold):
            if f >= 0:
                row = x[rng.integers(n)].copy()
                row[f] = thr
                at_threshold.append(row)
    rows = [x, np.reshape(at_threshold, (-1, d)), rng.uniform(-2, 3, (5, d))]
    return model, np.vstack(rows)


@settings(max_examples=150, deadline=None)
@given(ensembles_and_rows())
def test_predict_matches_the_tree_by_tree_oracle(case):
    model, rows = case
    assert predict(model, rows).tobytes() == predict_tree_by_tree(model, rows).tobytes()


def test_gbt_base_prediction_is_target_mean():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, (25, 2))
    y = rng.uniform(0, 1, 25)
    model = fit(LearnerSpec("gbt", n_trees=1, max_depth=1), x, y, MSE)
    assert model.init == pytest.approx(y.mean(), abs=0)
    bare = FittedModel(spec=model.spec, loss=model.loss, d=model.d, init=model.init, trees=[])
    assert np.allclose(predict(bare, x), y.mean())


def test_gbt_rate_one_stump_is_two_level():
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 1, (50, 1))
    y = np.where(x[:, 0] <= 0.5, 0.1, 0.9)
    model = fit(LearnerSpec("gbt", n_trees=1, max_depth=1, learning_rate=1.0,
                            min_samples_leaf=1), x, y, MSE)
    assert len(set(np.round(model.train_prediction, 12))) == 2


@pytest.mark.parametrize("loss", (MSE, MAE, HUBER), ids=lambda s: s.kind)
def test_gbt_splits_between_adjacent_floats(loss):
    # the midpoint of these two adjacent floats rounds up to the higher one,
    # which as a threshold would send every row left; the lower one splits
    low = np.nextafter(1.0, 2.0)
    high = np.nextafter(low, 2.0)
    assert 0.5 * (low + high) == high
    x = np.repeat([[low], [high]], 4, axis=0)
    y = np.repeat([0.0, 1.0], 4)
    spec = LearnerSpec("gbt", n_trees=1, max_depth=1, learning_rate=1.0, min_samples_leaf=1)
    model = fit(spec, x, y, loss)
    assert model.trees[0].threshold[0] == low
    assert np.array_equal(model.train_prediction, y)
    assert np.array_equal(predict(model, x), model.train_prediction)
    tree, oracle = _tree_and_oracle(x, y, loss, 1, 1)
    assert tree == oracle


def test_gbt_tied_features_go_to_the_lowest_index():
    # both features put rows 0-2 left and 3-5 right, but feature 1 orders each
    # side in reverse, so the two gains differ only by rounding (here feature
    # 1's rounds higher); the documented tie rule still picks feature 0
    x = np.array([[0.0, 0.3], [0.1, 0.2], [0.2, 0.1], [0.7, 1.0], [0.8, 0.9], [0.9, 0.8]])
    y = np.array([0.06, 0.22, 0.21, 0.81, 0.79, 0.65])
    model = fit(LearnerSpec("gbt", n_trees=1, max_depth=1, learning_rate=1.0,
                            min_samples_leaf=1), x, y, MSE)
    assert model.trees[0].feature[0] == 0
    assert model.trees[0].threshold[0] == 0.5 * (0.2 + 0.7)


def _as_nested(tree, x, rows, node=0):
    """The tree in the oracle's nested form, with the training rows of each leaf."""
    if tree.feature[node] < 0:
        return ("leaf", tree.value[node], tuple(rows))
    f, thr = tree.feature[node], tree.threshold[node]
    go_left = x[rows, f] <= thr
    return ("split", f, thr, _as_nested(tree, x, rows[go_left], tree.left[node]),
            _as_nested(tree, x, rows[~go_left], tree.right[node]))


def _tree_and_oracle(x, y, loss, max_depth, min_leaf):
    """First tree of a fit, and the sorted-scan oracle on the same gradient."""
    spec = LearnerSpec("gbt", n_trees=1, max_depth=max_depth, learning_rate=1.0,
                       min_samples_leaf=min_leaf)
    tree = fit(spec, x, y, loss).trees[0]
    residual = y - y.mean()
    grad_target = np.sign(residual) if loss.kind == "mae" else 0.5 * gradient(loss, residual)
    oracle = sorted_scan_tree(x, grad_target, residual, lambda r: _leaf_value(loss, r),
                              max_depth, min_leaf)
    return _as_nested(tree, x, np.arange(y.size)), oracle


def _leaf_sizes(nested):
    if nested[0] == "leaf":
        return [len(nested[2])]
    return _leaf_sizes(nested[3]) + _leaf_sizes(nested[4])


@st.composite
def tree_problems(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.lists(st.integers(1, 8), min_size=d, max_size=d))  # 1: constant column
    x = np.column_stack([rng.choice(np.round(rng.uniform(0, 1, k), 2), n) for k in distinct])
    levels = draw(st.sampled_from([1, 2, 3, None]))  # 1: constant target, no positive gain
    y = rng.uniform(0, 1, n) if levels is None else rng.integers(0, levels, n) / 4.0
    loss = draw(st.sampled_from([MSE, MAE, HUBER]))
    return x, y, loss, draw(st.integers(1, 4)), draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(tree_problems())
def test_histogram_tree_matches_sorted_scan_oracle(problem):
    # same splits, same training partition, and leaf values bit for bit
    tree, oracle = _tree_and_oracle(*problem)
    assert tree == oracle


@pytest.mark.parametrize("loss", (MSE, MAE, HUBER), ids=lambda s: s.kind)
@pytest.mark.parametrize("case", ["n-below-two-leaves", "leaf-at-min-size", "constant-column",
                                  "no-positive-gain"])
def test_histogram_tree_edge_cases(case, loss):
    ramp = np.arange(12) / 12
    if case == "n-below-two-leaves":  # 7 rows < 2 * min leaf 4: no split
        x, y, min_leaf, sizes = ramp[:7, None], ramp[:7], 4, [7]
    elif case == "leaf-at-min-size":  # the best split 2|10 is barred; 4|8 has min size
        x, y, min_leaf, sizes = ramp[:, None], np.where(ramp < 0.15, 0.0, 1.0), 4, [4, 8]
    elif case == "constant-column":  # column 0 cannot split, column 1 splits 6|6
        x = np.column_stack([np.full(12, 0.5), ramp])
        y, min_leaf, sizes = np.where(ramp < 0.5, 0.2, 0.9), 1, [6, 6]
    else:  # both sides of the only split hold the same targets: zero gain, up to rounding
        x = np.repeat([[0.0], [1.0]], 3, axis=0)
        y, min_leaf, sizes = np.array([0.28, 0.16, 0.97, 0.97, 0.16, 0.28]), 1, [6]
    tree, oracle = _tree_and_oracle(x, y, loss, 1, min_leaf)
    assert tree == oracle
    assert _leaf_sizes(tree) == sizes


def test_spec_validation():
    with pytest.raises(ValueError):
        LearnerSpec("forest")
    with pytest.raises(ValueError):
        LearnerSpec("gbt", learning_rate=0.0)
    with pytest.raises(ValueError):
        LearnerSpec("gbt", n_trees=0)
    with pytest.raises(ValueError):
        LearnerSpec("ridge", ridge_lambda=-1.0)


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, (10, 3))
    model = fit(RIDGE0, x, rng.uniform(0, 1, 10), MSE)
    with pytest.raises(ValueError):
        predict(model, rng.uniform(0, 1, (5, 4)))
