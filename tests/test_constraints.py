import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import confit.constraints as constraints
from confit.constraints import (build_box, build_didi_constraints,
                                didi_epsilon, didi_value, from_inequalities,
                                intersect, is_member)
from confit.data import ProtectedSpec
from confit.errors import InfeasibleConstraintsError
from oracles import didi_brute, violation_reference


def spec_of(groups, feature_index=0):
    return ProtectedSpec(feature_index, {k: np.asarray(v, dtype=int) for k, v in groups.items()})


def random_protected(rng, n, n_features=1, max_groups=4):
    specs = []
    for f in range(n_features):
        ngroups = int(rng.integers(2, max_groups + 1))
        labels = rng.integers(0, ngroups, n)
        labels[:ngroups] = np.arange(ngroups)  # every group nonempty
        specs.append(spec_of({g: np.flatnonzero(labels == g) for g in range(ngroups)}, f))
    return tuple(specs)


def test_didi_constant_vector_is_zero():
    protected = (spec_of({0: [0, 1], 1: [2, 3]}),)
    assert didi_value(np.full(4, 0.37), protected) == 0.0


def test_didi_hand_computed():
    protected = (spec_of({0: [0, 2], 1: [1, 3]}),)
    z = np.array([1.0, 0.0, 1.0, 0.0])
    assert didi_value(z, protected) == pytest.approx(1.0, abs=1e-15)


def test_didi_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        protected = random_protected(rng, n, n_features=int(rng.integers(1, 3)))
        z = rng.uniform(-1, 2, n)
        groupings = [[spec.groups[v] for v in spec.group_values()] for spec in protected]
        assert didi_value(z, protected) == pytest.approx(didi_brute(z, groupings), abs=1e-12)


def test_didi_eight_rows_two_features_oracle():
    rng = np.random.default_rng(5)
    protected = random_protected(rng, 8, n_features=2)
    z = rng.uniform(0, 1, 8)
    groupings = [[spec.groups[v] for v in spec.group_values()] for spec in protected]
    assert didi_value(z, protected) == pytest.approx(didi_brute(z, groupings), abs=1e-12)


def test_box_membership():
    box = build_box(0.0, 1.0, 3)
    assert is_member(box, np.array([0.5, 0.5, 0.5]))
    assert not is_member(box, np.array([0.5, 1.2, 0.5]))


def test_degenerate_box_is_single_point():
    box = build_box(0.25, 0.25, 2)
    assert is_member(box, np.array([0.25, 0.25]))
    assert not is_member(box, np.array([0.25, 0.26]))


def test_box_invalid_bounds():
    with pytest.raises(ValueError):
        build_box(1.0, 0.0, 2)


def test_didi_encoding_soundness():
    # membership of the encoding iff didi_value <= eps + tol, on random z
    rng = np.random.default_rng(1)
    n = 12
    protected = random_protected(rng, n, n_features=2)
    eps = 0.15
    cs = build_didi_constraints(protected, eps, n)
    agree = 0
    for _ in range(500):
        z = rng.uniform(-0.5, 1.5, n)
        want = didi_value(z, protected) <= eps + 1e-6
        got = is_member(cs, z, tol=1e-9)
        # the two tolerances differ; skip the knife edge
        if abs(didi_value(z, protected) - eps) < 1e-8:
            continue
        assert got == want
        agree += 1
    assert agree >= 490


def test_didi_group_row_out_of_range_is_a_value_error():
    protected = (spec_of({0: [0, 1], 1: [2, 4]}),)
    with pytest.raises(ValueError, match="group row index out of range"):
        build_didi_constraints(protected, 0.1, 4)


def test_a_negative_group_row_is_a_value_error():
    # numpy would read row -1 from the end, putting row 3 in group 0
    protected = (spec_of({0: [0, -1], 1: [1, 2]}),)
    with pytest.raises(ValueError, match="group row index out of range"):
        didi_value(np.arange(4.0), protected)
    with pytest.raises(ValueError, match="group row index out of range"):
        build_didi_constraints(protected, 0.1, 4)


def test_didi_boundary_z_is_member():
    protected = (spec_of({0: [0, 1], 1: [2, 3]}),)
    z = np.array([1.0, 0.0, 1.0, 0.0])
    # didi(z) == 0 here; build a z with didi exactly eps instead
    z = np.array([0.8, 0.8, 0.2, 0.2])
    val = didi_value(z, protected)
    cs = build_didi_constraints(protected, val, 4)
    assert is_member(cs, z, tol=1e-9)


def test_didi_epsilon_zero_forces_equal_means():
    protected = (spec_of({0: [0], 1: [1]}),)
    cs = build_didi_constraints(protected, 0.0, 2)
    assert is_member(cs, np.array([0.7, 0.7]), tol=1e-9)
    assert not is_member(cs, np.array([0.7, 0.700001]), tol=1e-9)


def test_didi_huge_epsilon_admits_everything_in_unit_box():
    rng = np.random.default_rng(2)
    protected = random_protected(rng, 6)
    cs = build_didi_constraints(protected, 6.0, 6)
    for _ in range(20):
        assert is_member(cs, rng.uniform(0, 1, 6))


def test_didi_with_epsilon_of_y_admits_y():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(4, 20))
        protected = random_protected(rng, n)
        y = rng.uniform(0, 1, n)
        cs = build_didi_constraints(protected, didi_value(y, protected), n)
        assert is_member(cs, y, tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12), n_features=st.integers(1, 2),
       offset=st.sampled_from([0.0]) | st.floats(-1e-5, 1e-5), tol=st.sampled_from([1e-9, 1e-6]))
def test_didi_membership_holds_exactly_when_the_index_is_within_epsilon(seed, n, n_features,
                                                                        offset, tol):
    # the encoding's members are the z with didi_value(z) <= epsilon. At
    # membership tolerance tol it also admits the z past epsilon by up to
    # sqrt(k) * tol, k the auxiliaries: the budget row sum(u) <= epsilon is
    # scaled to unit norm. The 1e-12 covers rounding in the two sums
    rng = np.random.default_rng(seed)
    protected = random_protected(rng, n, n_features=n_features)
    z = rng.uniform(-0.5, 1.5, n)
    value = didi_value(z, protected)
    epsilon = max(value + offset, 0.0)
    cs = build_didi_constraints(protected, epsilon, n)
    margin = np.sqrt(cs.n_aux) * tol + 1e-12
    if value <= epsilon:
        assert is_member(cs, z, tol=tol)
    elif value > epsilon + margin:
        assert not is_member(cs, z, tol=tol)


def test_didi_epsilon_fraction_rule():
    rng = np.random.default_rng(4)
    protected = random_protected(rng, 10)
    y = rng.uniform(0, 1, 10)
    assert didi_epsilon(y, protected, 0.2) == pytest.approx(0.2 * didi_value(y, protected))


def test_intersect_boxes_behaves_like_tight_box():
    a = build_box(0.0, 1.0, 2)
    b = build_box(0.5, 2.0, 2)
    both = intersect(a, b)
    tight = build_box(0.5, 1.0, 2)
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = rng.uniform(-0.5, 2.5, 2)
        assert is_member(both, z) == is_member(tight, z)


def test_intersect_disjoint_boxes_raises():
    with pytest.raises(InfeasibleConstraintsError):
        intersect(build_box(0.0, 0.4, 2), build_box(0.6, 1.0, 2))


def test_intersect_commutative_associative_membership():
    rng = np.random.default_rng(6)
    n = 5
    protected = random_protected(rng, n)
    d = build_didi_constraints(protected, 0.2, n)
    box = build_box(0.0, 1.0, n)
    hs = from_inequalities(np.ones((1, n)), np.array([0.6 * n]), n)
    ab = intersect(d, box)
    ba = intersect(box, d)
    abc = intersect(ab, hs)
    cab = intersect(hs, ab)
    for _ in range(200):
        z = rng.uniform(-0.2, 1.2, n)
        assert is_member(ab, z) == is_member(ba, z)
        assert is_member(abc, z) == is_member(cab, z)


def test_didi_intersect_box_feasible():
    rng = np.random.default_rng(7)
    protected = random_protected(rng, 8)
    cs = intersect(build_didi_constraints(protected, 0.05, 8), build_box(0.0, 1.0, 8))
    assert is_member(cs, np.full(8, 0.5))
    assert is_member(cs, cs.feasible_point)


def test_halfspace_membership():
    # {z : z1 <= 0.5} as a custom set
    cs = from_inequalities(np.array([[1.0, 0.0]]), np.array([0.5]), 2)
    assert is_member(cs, np.array([0.5, 9.0]))
    assert not is_member(cs, np.array([0.51, 0.0]))


def test_feasible_point_certificate():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.standard_normal((6, 4))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = a @ np.full(4, 0.5) + rng.uniform(0.05, 0.3, 6)
        cs = from_inequalities(a, b, 4, lower=np.zeros(4), upper=np.ones(4))
        assert is_member(cs, cs.feasible_point, tol=1e-8)
    # the bound midpoint, where the Dykstra fallback starts, is outside
    # these sets: each holds a point near a corner, with or without
    # equality rows through it
    for trial in range(10):
        inside = rng.uniform(0.05, 0.25, 4)
        a = rng.standard_normal((6, 4))
        a[0] = 1.0  # sum(z) <= sum(inside) + margin < 2
        b = a @ inside + rng.uniform(0.0, 0.05, 6)
        a_eq = rng.standard_normal((trial % 3, 4))
        cs = from_inequalities(a, b, 4, a_eq=a_eq, b_eq=a_eq @ inside,
                               lower=np.zeros(4), upper=np.ones(4))
        assert not is_member(cs, np.full(4, 0.5), tol=1e-8)
        assert is_member(cs, cs.feasible_point, tol=1e-8)
    # a candidate that is a member is kept, though the midpoint is one too
    protected = (spec_of({0: [0, 2, 4], 1: [1, 3, 5]}),)
    didi = build_didi_constraints(protected, 0.05, 6)
    half = from_inequalities(np.eye(6)[:1], np.array([0.9]), 6)
    assert np.array_equal(intersect(didi, half).feasible_point, np.full(6, 0.5))
    # DIDI with auxiliaries intersected with rows that none of the three
    # candidates (either part's point or their average) satisfies
    rows = from_inequalities(np.array([[-1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]]),
                             np.array([-0.8, 0.2]), 6, lower=np.zeros(6), upper=np.ones(6))
    cs = intersect(didi, rows)
    for cand in (didi.feasible_point, rows.feasible_point,
                 0.5 * (didi.feasible_point + rows.feasible_point)):
        assert not is_member(cs, cand, tol=1e-8)
    assert is_member(cs, cs.feasible_point, tol=1e-8)


def _infeasible_didi_and_row():
    # eps = 0 forces equal group means; the row forces z0 - z1 >= 0.1
    didi = build_didi_constraints((spec_of({0: [0], 1: [1]}),), 0.0, 2)
    return intersect(didi, from_inequalities(np.array([[-1.0, 1.0]]), np.array([-0.1]), 2))


@pytest.mark.parametrize("build", [
    lambda: from_inequalities(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]), 2),
    lambda: from_inequalities(np.array([[-1.0, -1.0]]), np.array([-3.0]), 2,
                              lower=np.zeros(2), upper=np.ones(2)),
    lambda: from_inequalities(np.zeros((0, 2)), np.zeros(0), 2,
                              a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]), b_eq=np.array([0.0, 1.0])),
    _infeasible_didi_and_row,
], ids=["contradictory-rows", "rows-exclude-box", "contradictory-equalities", "didi-eps0-row"])
def test_row_level_infeasibility_raises(build, monkeypatch):
    sweeps = []
    dykstra = constraints._dykstra

    def counted(*args, **kwargs):
        out = dykstra(*args, **kwargs)
        sweeps.append(out[1])
        return out

    monkeypatch.setattr(constraints, "_dykstra", counted)
    with pytest.raises(InfeasibleConstraintsError,
                       match=r"infeasible .*: proved empty after \d+ sweeps"):
        build()
    # the certifier stops on a proof of emptiness, far short of its 5,000 sweeps
    assert 0 < sum(sweeps) <= 50


def test_thin_feasible_set_is_reported_as_not_certified():
    # two nearly parallel equalities meet at one point of the box: the set is
    # not empty, but the Dykstra sweeps reach their cap before they reach it
    a_eq = np.array([[1.0, 1.0], [1.0, 1.001]])
    with pytest.raises(InfeasibleConstraintsError) as raised:
        from_inequalities(np.zeros((0, 2)), np.zeros(0), 2, a_eq=a_eq,
                          b_eq=a_eq @ np.array([0.3, 0.6]), lower=np.zeros(2), upper=np.ones(2))
    message = str(raised.value)
    assert message.startswith(
        "constraint set (custom) not certified: no member found in 5000 sweeps")
    assert 1e-9 < float(re.search(r"\(worst violation (\S+)\)$", message).group(1)) < 1e-3
    assert "infeasible" not in message and "proved" not in message


def test_no_early_emptiness_proof_for_a_set_holding_a_point(monkeypatch):
    # half of the rows pass through the known member, so the Dykstra point
    # can stall short of the set; such a stall must not pass for a proof of
    # emptiness. A thin set may still exhaust the certifier's 5,000 sweeps.
    sweeps = []
    dykstra = constraints._dykstra

    def counted(*args, **kwargs):
        out = dykstra(*args, **kwargs)
        sweeps.append(out[1])
        return out

    monkeypatch.setattr(constraints, "_dykstra", counted)
    rng = np.random.default_rng(1)
    for trial in range(140):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 10))
        inside = rng.uniform(0, 1, n)
        a = rng.standard_normal((m, n))
        margin = np.where(rng.uniform(size=m) < 0.5, 0.0, rng.uniform(0, 0.05, m))
        a_eq = rng.standard_normal((trial % 3, n))
        try:
            from_inequalities(a, a @ inside + margin, n, a_eq=a_eq, b_eq=a_eq @ inside,
                              lower=np.zeros(n), upper=np.ones(n))
        except InfeasibleConstraintsError:
            assert sweeps[-1] == 5000, f"set {trial} declared empty after {sweeps[-1]} sweeps"


def _generated_sets(rng):
    """Box, DIDI, custom (with and without equality rows and bounds) and
    intersected sets over one random n."""
    n = int(rng.integers(3, 12))
    inside = np.full(n, rng.uniform(0.2, 0.8))  # constant, so inside every DIDI set
    protected = random_protected(rng, n, n_features=int(rng.integers(1, 3)))
    box = build_box(0.0, 1.0, n)
    didi = build_didi_constraints(protected, float(rng.uniform(0.0, 0.5)), n)
    a = rng.standard_normal((int(rng.integers(1, 6)), n))
    ineq = from_inequalities(a, a @ inside + rng.uniform(0.0, 0.3, a.shape[0]), n)
    a_eq = rng.standard_normal((int(rng.integers(1, 3)), n))
    eq = from_inequalities(a, a @ inside + 0.1, n, a_eq=a_eq, b_eq=a_eq @ inside,
                           lower=np.zeros(n), upper=np.ones(n))
    return n, [box, didi, ineq, eq, intersect(didi, box), intersect(ineq, box),
               intersect(didi, eq), intersect(intersect(didi, box), ineq)]


def test_member_violation_matches_reference():
    # equality rows go through one stacked matvec with the inequality rows,
    # which may sum in another order than a separate one: 1e-14 relative
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, sets = _generated_sets(rng)
        for cs in sets:
            geom = constraints._geometry(cs)
            for _ in range(20):
                x = cs.extend(rng.uniform(-0.5, 1.5, n))
                got = geom.member_violation(x)
                want = violation_reference(cs.lower, cs.upper, cs.a_ineq, cs.b_ineq,
                                           cs.a_eq, cs.b_eq, x)
                if cs.a_eq.shape[0]:
                    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
                else:
                    assert got == want


def test_extend_sets_aux_to_absolute_deviations():
    protected = (spec_of({0: [0, 1], 1: [2, 3]}),)
    cs = build_didi_constraints(protected, 1.0, 4)
    z = np.array([1.0, 0.0, 1.0, 0.0])
    x = cs.extend(z)
    assert x.shape == (4 + 2,)
    assert x[4] == pytest.approx(abs(0.5 - 0.5))
    assert x[5] == pytest.approx(abs(0.5 - 0.5))
    z2 = np.array([0.8, 0.8, 0.2, 0.2])
    x2 = cs.extend(z2)
    assert x2[4] == pytest.approx(0.3)
    assert x2[5] == pytest.approx(0.3)
