import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from confit.losses import (LossSpec, MSE, MAE, loss_value, pointwise, prox,
                           prox_pair, project_ball, loss_norm)
from oracles import (golden_section, huber_ball_bisection, huber_pair_prox_bisection,
                     mae_pair_prox_reference)

HUBER = LossSpec("huber", huber_m=0.1)
ALL = (MSE, MAE, HUBER)


def test_loss_values_basic():
    assert loss_value(MSE, np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5
    z = np.array([0.3, 0.7, 0.1])
    assert loss_value(MAE, z, z) == 0.0


def test_huber_pointwise_matches_hand_values():
    # inside the quadratic region and in the linear region, M = 0.1
    assert pointwise(HUBER, np.array([0.05]))[0] == pytest.approx(0.0025, abs=1e-15)
    assert pointwise(HUBER, np.array([0.2]))[0] == pytest.approx(0.03, abs=1e-15)
    assert loss_value(HUBER, np.array([0.05]), np.array([0.0])) == pytest.approx(0.0025)
    assert loss_value(HUBER, np.array([0.2]), np.array([0.0])) == pytest.approx(0.03)


def test_loss_symmetry_random():
    rng = np.random.default_rng(0)
    for spec in ALL:
        for _ in range(50):
            z = rng.uniform(-1, 2, 7)
            y = rng.uniform(-1, 2, 7)
            assert loss_value(spec, z, y) == pytest.approx(loss_value(spec, y, z), abs=0)


def test_mse_equals_scaled_euclidean_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.standard_normal(11)
        y = rng.standard_normal(11)
        assert 11 * loss_value(MSE, z, y) == pytest.approx(np.linalg.norm(z - y) ** 2, rel=1e-12)


def test_huber_continuously_differentiable_at_threshold():
    m = HUBER.huber_m
    h = 1e-7
    for x0 in (m, -m):
        left = (pointwise(HUBER, np.array([x0]))[0] - pointwise(HUBER, np.array([x0 - h]))[0]) / h
        right = (pointwise(HUBER, np.array([x0 + h]))[0] - pointwise(HUBER, np.array([x0]))[0]) / h
        assert left == pytest.approx(right, abs=1e-6)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        loss_value(MSE, np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        prox(MSE, 1.0, np.zeros(3), np.zeros(4))


def test_prox_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        prox(MAE, 0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        prox(MAE, -1.0, np.zeros(2), np.zeros(2))


def test_prox_mae_soft_threshold_kills_small_values():
    # n=1 so the normalized threshold t/n equals 1: |0.4| < 1 -> 0
    out = prox(MAE, 1.0, np.array([0.4]), np.array([0.0]))
    assert out[0] == 0.0


def test_prox_mse_fixed_point_at_anchor():
    v = np.array([0.2, -0.3, 1.4])
    out = prox(MSE, 0.7, v, v)
    assert np.allclose(out, v, atol=1e-15)


def test_prox_huber_pulls_toward_anchor():
    # linear-region pull: lands in [v - 2tM, v)
    t, v = 0.05, 0.5
    out = prox(HUBER, t, np.array([v]), np.array([0.0]))[0]
    assert v - 2 * t * HUBER.huber_m - 1e-12 <= out < v
    # oracle check on the same instance
    tt = t / 1.0
    zo = golden_section(lambda z: pointwise(HUBER, np.array([z]))[0] + (z - v) ** 2 / (2 * tt), -1.0, 2.0)
    assert out == pytest.approx(zo, abs=1e-8)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind)
def test_prox_matches_golden_section_oracle(spec):
    # 1000 random (t, v, anchor) triples per loss; scalar problems so the
    # normalized threshold is t itself
    rng = np.random.default_rng(42)
    for _ in range(1000):
        t = float(rng.uniform(0.01, 3.0))
        v = float(rng.uniform(-1.0, 2.0))
        a = float(rng.uniform(-1.0, 2.0))
        got = prox(spec, t, np.array([v]), np.array([a]))[0]
        span = 2.0 * t + 3.0

        def phi(z):
            return pointwise(spec, np.array([z - a]))[0] + (z - v) ** 2 / (2 * t)

        want = golden_section(phi, min(v, a) - span, max(v, a) + span)
        assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind)
def test_prox_pair_matches_golden_section_oracle(spec):
    rng = np.random.default_rng(7)
    for _ in range(300):
        t = float(rng.uniform(0.01, 2.0))
        w2 = float(rng.uniform(0.05, 20.0))
        v = float(rng.uniform(-1.0, 2.0))
        a1 = float(rng.uniform(-1.0, 2.0))
        a2 = float(rng.uniform(-1.0, 2.0))
        got = prox_pair(spec, t, np.array([v]), np.array([a1]), np.array([a2]), w2)[0]
        span = t * (1 + w2) * 4.0 + 3.0

        def phi(z):
            return (t * (pointwise(spec, np.array([z - a1]))[0]
                         + w2 * pointwise(spec, np.array([z - a2]))[0])
                    + 0.5 * (z - v) ** 2)

        want = golden_section(phi, min(v, a1, a2) - span, max(v, a1, a2) + span, iters=300)
        assert got == pytest.approx(want, abs=1e-7)


def huber_pair(seed, n, m, scale, tie, t, w2):
    rng = np.random.default_rng(seed)
    v, a1, a2 = scale * rng.standard_normal((3, n))
    if tie is not None:
        a2 = a1 + (0.0 if tie == "equal" else 2.0 * m)
    if t == "per-coordinate":
        t = rng.uniform(1e-3, 5.0, n)
    return t, v, a1, a2, w2, m


@st.composite
def huber_pairs(draw):
    return huber_pair(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 40)),
                      draw(st.sampled_from([0.01, 0.1, 1.0])),
                      draw(st.sampled_from([1e-3, 0.1, 1.0, 30.0])),
                      draw(st.sampled_from([None, "equal", "2m apart"])),  # kinks that meet
                      draw(st.sampled_from([1e-3, 0.3, 5.0, "per-coordinate"])),
                      draw(st.sampled_from([0.0, 0.1, 1.0, 9.0])))


@settings(max_examples=300, deadline=None)
@given(huber_pairs())
# values far below m: interpolating between knots m apart was off by 3.2 times the slack
@example(huber_pair(44, 15, 1.0, 1e-3, "equal", 1e-3, 0.0))
def test_huber_pair_prox_matches_bisection_oracle(pair):
    t, v, a1, a2, w2, m = pair
    got = prox_pair(LossSpec("huber", huber_m=m), t, v, a1, a2, w2)
    want = huber_pair_prox_bisection(t, v, a1, a2, w2, m)
    span = np.max([v, a1, a2], axis=0) - np.min([v, a1, a2], axis=0)
    slack = 1e-9 * span + 4 * np.finfo(float).eps * np.max(np.abs([v, a1, a2]), axis=0)
    assert np.all(np.abs(got - want) <= slack)


@st.composite
def mae_pairs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    v, a1, a2 = rng.standard_normal((3, n))
    if draw(st.booleans()):  # on a 0.1 grid, stationary points land on the kinks
        v, a1, a2 = (np.round(10.0 * x) / 10.0 for x in (v, a1, a2))
    if draw(st.booleans()):
        a2 = a1.copy()
    t = draw(st.sampled_from([1e-3, 0.1, 0.3, 1.0, "per-coordinate"]))
    if t == "per-coordinate":
        t = rng.uniform(1e-3, 2.0, n)
    return t, v, a1, a2, draw(st.sampled_from([0.0, 1.0 / 9.0, 1.0, 9.0]))


@settings(max_examples=300, deadline=None)
@given(mae_pairs())
def test_mae_pair_prox_matches_reference_bit_for_bit(pair):
    t, v, a1, a2, w2 = pair
    got = prox_pair(MAE, t, v, a1, a2, w2)
    assert got.tobytes() == mae_pair_prox_reference(t, v, a1, a2, w2).tobytes()


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.kind)
def test_project_ball_properties(spec):
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        c = rng.uniform(0, 1, n)
        v = rng.uniform(-1, 2, n)
        beta = float(rng.uniform(0.001, 0.2))
        z = project_ball(spec, v, c, beta)
        # feasible
        assert loss_value(spec, z, c) <= beta + 1e-9
        # inside stays put
        if loss_value(spec, v, c) <= beta:
            assert np.allclose(z, v)
        else:
            # boundary is active for a projection from outside
            assert loss_value(spec, z, c) == pytest.approx(beta, rel=1e-6, abs=1e-10)
        # no feasible point is closer (sampled certificate)
        for _ in range(20):
            w = c + (rng.uniform(-1, 1, n)) * 0.5
            if loss_value(spec, w, c) <= beta:
                assert np.linalg.norm(z - v) <= np.linalg.norm(w - v) + 1e-7


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       m=st.sampled_from([0.01, 0.1, 0.5]), spread=st.sampled_from([0.01, 0.1, 1.0]),
       beta=st.floats(1e-4, 0.5))
def test_huber_ball_projection_matches_bisection_oracle(seed, n, m, spread, beta):
    rng = np.random.default_rng(seed)
    spec = LossSpec("huber", huber_m=m)
    c = rng.uniform(0, 1, n)
    v = c + spread * rng.standard_normal(n)
    z = project_ball(spec, v, c, beta)
    assert np.max(np.abs(z - huber_ball_bisection(v, c, beta, m))) <= 1e-12
    assert loss_value(spec, z, c) <= beta * (1.0 + 1e-10)


def test_project_ball_beta_zero_returns_center():
    c = np.array([0.2, 0.8])
    for spec in ALL:
        assert np.array_equal(project_ball(spec, np.array([1.0, 1.0]), c, 0.0), c)


def test_loss_norm_kinds():
    v = np.array([3.0, -4.0])
    assert loss_norm(MSE, v) == 5.0
    assert loss_norm(HUBER, v) == 5.0
    assert loss_norm(MAE, v) == 7.0


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        LossSpec("rmse")
    with pytest.raises(ValueError):
        LossSpec("huber", huber_m=0.0)
