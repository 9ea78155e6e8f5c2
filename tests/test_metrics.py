import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confit.data import Dataset, ProtectedSpec
from confit.constraints import didi_value
from confit.driver import _Metrics
from confit.metrics import r_squared, significance_flag, summarize_folds
from oracles import mean_std_two_pass


def test_r2_perfect_fit():
    y = np.array([0.1, 0.5, 0.9])
    assert r_squared(y, y) == 1.0


def test_r2_mean_predictor_zero():
    y = np.array([0.0, 0.5, 1.0])
    assert r_squared(y, np.full(3, y.mean())) == 0.0


def test_r2_hand_computed():
    assert r_squared(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(-3.0)


def test_r2_reorder_invariance():
    rng = np.random.default_rng(0)
    y, p = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)
    perm = rng.permutation(20)
    assert r_squared(y, p) == pytest.approx(r_squared(y[perm], p[perm]), rel=1e-12)


def test_r2_constant_target_errors():
    with pytest.raises(ValueError, match="undefined"):
        r_squared(np.full(5, 0.3), np.zeros(5))


def test_didi_ratio_basics():
    # the ratio the driver reports: a prediction's index over the training target's
    protected = (ProtectedSpec(0, {0: np.array([0, 1]), 1: np.array([2, 3])}),)
    y_train = np.array([0.9, 0.8, 0.1, 0.2])
    ds = Dataset(np.zeros((4, 1)), y_train, ["g"], [(0.0, 1.0)], "t", (0.0, 1.0), protected)
    gauges = _Metrics(ds, ds)
    assert gauges.ratios(np.full(4, 0.4), y_train) == (0.0, pytest.approx(1.0))
    flat = replace(ds, y=np.full(4, 0.5))  # a zero training index: the ratio is undefined
    assert all(np.isnan(_Metrics(flat, flat).ratios(y_train, y_train)))


def _dataset(y, labels):
    """A one-feature dataset whose protected feature groups the rows by label."""
    protected = (ProtectedSpec(0, {int(v): np.flatnonzero(labels == v)
                                   for v in np.unique(labels)}),) if labels is not None else ()
    return Dataset(np.zeros((y.size, 1)), y, ["g"], [(0.0, 1.0)], "t", (0.0, 1.0), protected)


def _r2_or_nan(y, p):
    try:
        return r_squared(y, p)
    except ValueError:
        return math.nan


def _same(a, b):
    return math.isnan(a) and math.isnan(b) or (a == b and math.copysign(1, a) == math.copysign(1, b))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_held_gauges_give_the_bits_of_r_squared_and_didi_value(data):
    # a run computes each target's SS_tot, the groups and the training DIDI
    # once; each record must still hold the bits of the full functions, NaN
    # where R^2 or the ratio is undefined (one row, a constant target, a
    # zero training index, no protected feature)
    def vector(n, low, high):
        values = st.floats(low, high, allow_nan=False, allow_subnormal=False)
        if data.draw(st.booleans(), "constant"):
            return np.full(n, data.draw(values))
        return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))

    def labels(n):
        # groups of one row are common at these sizes
        return np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))

    n_train, n_test = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    grouped = data.draw(st.booleans(), "grouped")
    train = _dataset(vector(n_train, 0, 1), labels(n_train) if grouped else None)
    test = _dataset(vector(n_test, 0, 1), labels(n_test) if grouped else None)
    gauges = _Metrics(train, test)
    train_didi = didi_value(train.y, train.protected)
    for _ in range(3):
        p_train, p_test = vector(n_train, -1, 2), vector(n_test, -1, 2)
        want = {"r2_train": _r2_or_nan(train.y, p_train), "r2_test": _r2_or_nan(test.y, p_test),
                "c_train": math.nan, "c_test": math.nan}
        if train_didi > 0:
            want["c_train"] = didi_value(p_train, train.protected) / train_didi
            want["c_test"] = didi_value(p_test, test.protected) / train_didi
        got = gauges.of(p_train, p_test)
        assert list(got) == list(want)
        assert all(_same(got[k], want[k]) for k in want), (got, want)


def test_didi_ratio_scale_invariance():
    protected = (ProtectedSpec(0, {0: np.array([0, 1]), 1: np.array([2, 3])}),)
    z = np.array([0.9, 0.6, 0.1, 0.3])
    denom = 0.25
    assert didi_value(3.0 * z, protected) / (3.0 * denom) == pytest.approx(
        didi_value(z, protected) / denom, rel=1e-12)


class _StubHistory:
    def __init__(self, curves, n_records):
        self.curves = curves
        self.records = [None] * n_records

    def series(self, name):
        if name == "residual":
            return np.asarray(self.curves.get("residual", np.zeros(len(self.records))))
        return np.asarray(self.curves[name])


def stub(final_r2, final_c, iters=4):
    base = {
        "r2_train": np.linspace(0.1, final_r2, iters + 1),
        "r2_test": np.linspace(0.1, final_r2 - 0.02, iters + 1),
        "c_train": np.linspace(1.0, final_c, iters + 1),
        "c_test": np.linspace(1.0, final_c + 0.05, iters + 1),
        "residual": np.geomspace(1.0, 1e-3, iters),
    }
    return _StubHistory(base, iters)


def test_summarize_identical_folds_zero_std():
    s = summarize_folds([stub(0.8, 0.2), stub(0.8, 0.2)])
    assert s.fold_count == 2
    assert s.std["r2_train"] == 0.0
    assert s.mean["r2_train"] == pytest.approx(0.8)


def test_summarize_two_point_population_std():
    s = summarize_folds([stub(0.4, 0.2), stub(0.6, 0.2)])
    assert s.mean["r2_train"] == pytest.approx(0.5)
    assert s.std["r2_train"] == pytest.approx(0.1)


def test_summarize_matches_two_pass_oracle():
    rng = np.random.default_rng(1)
    finals = rng.uniform(0, 1, 5)
    s = summarize_folds([stub(v, 0.3) for v in finals])
    mean, std = mean_std_two_pass(finals)
    assert s.mean["r2_train"] == pytest.approx(mean, abs=1e-12)
    assert s.std["r2_train"] == pytest.approx(std, abs=1e-12)


def test_summarize_curves_aligned():
    s = summarize_folds([stub(0.4, 0.2), stub(0.6, 0.4)])
    assert s.curve_mean["r2_train"].shape == (5,)
    assert s.curve_mean["r2_train"][-1] == pytest.approx(0.5)
    assert s.residual_curve_mean.shape == (4,)


def test_summarize_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        summarize_folds([])
    with pytest.raises(ValueError):
        summarize_folds([stub(0.5, 0.5, iters=4), stub(0.5, 0.5, iters=5)])


def test_significance_reported_row():
    assert significance_flag(0.467, 0.019, 0.342, 0.085) == "A-better"


def test_significance_equal_means_comparable():
    assert significance_flag(0.5, 0.0, 0.5, 0.0) == "comparable"
    assert significance_flag(0.5, 0.1, 0.5, 0.2) == "comparable"


def test_significance_boundary_inclusive():
    # values exact in binary so the gap equals the std sum exactly
    assert significance_flag(0.75, 0.125, 0.5, 0.125) == "A-better"


def test_significance_direction():
    # lower-is-better metrics flip the winner
    assert significance_flag(0.2, 0.01, 0.5, 0.01, higher_is_better=False) == "A-better"
    assert significance_flag(0.5, 0.01, 0.2, 0.01, higher_is_better=False) == "M-better"
    assert significance_flag(0.5, 0.01, 0.2, 0.01, higher_is_better=True) == "A-better"
