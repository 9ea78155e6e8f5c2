"""The means and maxima that the package takes by ufunc reduce
(np.add.reduce / size, np.maximum.reduce) give the bits of ndarray.mean,
ndarray.sum and np.max, at lengths on both sides of numpy's pairwise-summation
block edges (blocks of 128, unrolled by 8)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confit.constraints import _worst_violation, didi_value
from confit.data import ProtectedSpec
from confit.losses import LossSpec, loss_value, pointwise
from confit.metrics import r_squared
from oracles import didi_by_mean, mean_loss_by_mean, r_squared_by_mean, worst_violation_by_max

LENGTHS = st.sampled_from([*range(1, 10), *range(127, 130), *range(500, 521)])
SEEDS = st.integers(0, 2**32 - 1)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def sample(rng, n, strided=False):
    """n values about a drawn offset at a drawn scale, contiguous or as every
    other entry of a longer array."""
    v = rng.uniform(-3, 3) + 10.0 ** rng.integers(-3, 4) * rng.standard_normal(2 * n)
    return v[::2] if strided else v[:n]


def groups_of(rng, n, count, singleton):
    """`count` nonempty groups of range(n) (fewer if n is smaller); with
    `singleton`, group 0 holds row 0 alone."""
    count = min(count, n)
    label = rng.integers(0, count, n)
    label[:count] = np.arange(count)
    if singleton and count > 1:
        label[count:][label[count:] == 0] = 1
    return {g: np.flatnonzero(label == g) for g in range(count)}


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, n=LENGTHS, counts=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       singleton=st.booleans(), strided=st.booleans())
def test_didi_value_has_the_bits_of_mean(seed, n, counts, singleton, strided):
    rng = np.random.default_rng(seed)
    z = sample(rng, n, strided)
    protected = [ProtectedSpec(f, groups_of(rng, n, count, singleton))
                 for f, count in enumerate(counts)]
    assert bits(didi_value(z, protected)) == bits(didi_by_mean(z, protected))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, n=LENGTHS, strided=st.booleans())
def test_r_squared_has_the_bits_of_mean_and_sum(seed, n, strided):
    rng = np.random.default_rng(seed)
    y_true, y_pred = sample(rng, n, strided), sample(rng, n)
    if n < 2:
        with pytest.raises(ValueError, match="at least two points"):
            r_squared(y_true, y_pred)
        return
    assert bits(r_squared(y_true, y_pred)) == bits(r_squared_by_mean(y_true, y_pred))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, n=LENGTHS, strided=st.booleans(),
       spec=st.sampled_from([LossSpec("mse"), LossSpec("mae"), LossSpec("huber", 0.1),
                             LossSpec("huber", 2.0)]))
def test_loss_value_has_the_bits_of_mean(seed, n, strided, spec):
    rng = np.random.default_rng(seed)
    z, y = sample(rng, n, strided), sample(rng, n)
    assert bits(loss_value(spec, z, y)) == bits(
        mean_loss_by_mean(lambda d: pointwise(spec, d), z, y))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, n=LENGTHS, m_ineq=st.integers(0, 4), m_eq=st.integers(0, 3),
       infinite=st.floats(0.0, 1.0))
def test_worst_violation_has_the_bits_of_max(seed, n, m_ineq, m_eq, infinite):
    # bounds about x, some of them infinite, and rows through points near x
    rng = np.random.default_rng(seed)
    x = sample(rng, n)
    lower = x - rng.uniform(-0.1, 1.0, n)
    upper = x + rng.uniform(-0.1, 1.0, n)
    lower[rng.uniform(size=n) < infinite] = -np.inf
    upper[rng.uniform(size=n) < infinite] = np.inf
    a = rng.standard_normal((m_ineq + m_eq, n))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b = a @ x + rng.uniform(-0.1, 0.1, m_ineq + m_eq)
    assert bits(_worst_violation(lower, upper, a, b, m_ineq, x)) == bits(
        worst_violation_by_max(lower, upper, a, b, m_ineq, x))
