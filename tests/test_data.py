import numpy as np
import pytest

from confit.data import (ColumnRoles, Dataset, RawTable, apply_normalization,
                         build_protected, fold_indices, load_csv,
                         normalize, ordinal_encode, shuffled_indices)
from confit.errors import DataError


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


ROLES = ColumnRoles(target="target")


def test_load_csv_basic(tmp_path):
    p = write(tmp_path, "a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
    t = load_csv(p, ROLES)
    assert t.n == 3 and t.d == 3
    assert t.columns == ["a", "b", "target"]
    assert t.dropped_rows == 0


def test_load_csv_drops_row_with_missing_cell(tmp_path):
    p = write(tmp_path, "a,b,target\n1,2,3\n4,5\n7,8,9\n")
    t = load_csv(p, ROLES)
    assert t.n == 2
    assert t.dropped_rows == 1


def test_load_csv_drops_row_with_missing_marker(tmp_path):
    p = write(tmp_path, "a,b,target\n1,NA,3\n4,5,6\n")
    t = load_csv(p, ROLES)
    assert t.n == 1 and t.dropped_rows == 1


def test_load_csv_empty_file_errors(tmp_path):
    p = write(tmp_path, "")
    with pytest.raises(DataError, match="empty table"):
        load_csv(p, ROLES)
    p2 = write(tmp_path, "a,b,target\n", name="t2.csv")
    with pytest.raises(DataError, match="empty table"):
        load_csv(p2, ROLES)


def test_load_csv_overlong_row_errors_with_line_number(tmp_path):
    p = write(tmp_path, "a,b,target\n1,2,3\n1,2,3,4\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(p, ROLES)


def test_load_csv_unknown_declared_column(tmp_path):
    p = write(tmp_path, "a,b,target\n1,2,3\n")
    with pytest.raises(DataError, match="ghost"):
        load_csv(p, ColumnRoles(target="target", drop=("ghost",)))


def test_load_csv_dropped_columns_are_removed(tmp_path):
    p = write(tmp_path, "a,b,target\n1,x,3\n2,y,4\n")
    t = load_csv(p, ColumnRoles(target="target", drop=("b",)))
    assert t.columns == ["a", "target"]
    # missing markers in dropped columns do not drop rows
    p2 = write(tmp_path, "a,b,target\n1,NA,3\n2,y,4\n", name="t2.csv")
    t2 = load_csv(p2, ColumnRoles(target="target", drop=("b",)))
    assert t2.n == 2


def test_ordinal_encode_first_appearance():
    t = RawTable(["s", "target"], [["m", "1"], ["f", "2"], ["m", "3"]])
    enc = ordinal_encode(t, ["s"])
    assert [r[0] for r in enc.rows] == [0, 1, 0]
    assert enc.encodings[0] == {"m": 0, "f": 1}
    # original untouched
    assert t.rows[0][0] == "m"


def test_ordinal_encode_single_value_and_three_values():
    t = RawTable(["s", "target"], [["x", "0"]])
    assert [r[0] for r in ordinal_encode(t, ["s"]).rows] == [0]
    t2 = RawTable(["s", "target"], [["b", "0"], ["a", "0"], ["b", "0"], ["c", "0"]])
    assert [r[0] for r in ordinal_encode(t2, ["s"]).rows] == [0, 1, 0, 2]


def test_ordinal_encode_bijection_property():
    rng = np.random.default_rng(0)
    vals = [str(v) for v in rng.integers(0, 8, 60)]
    t = RawTable(["c", "target"], [[v, "0"] for v in vals])
    enc = ordinal_encode(t, ["c"])
    mapping = enc.encodings[0]
    assert sorted(mapping.values()) == list(range(len(set(vals))))
    assert len(mapping) == len(set(vals))


def test_normalize_affine_map():
    t = RawTable(["a", "target"], [[2, 0], [4, 1], [6, 2]])
    ds = normalize(t, "target")
    assert np.allclose(ds.x[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(ds.y, [0.0, 0.5, 1.0])
    assert ds.feature_ranges[0] == (2.0, 6.0)


def test_normalize_constant_column_maps_to_zero():
    t = RawTable(["a", "target"], [[5, 0], [5, 1]])
    ds = normalize(t, "target")
    assert np.all(ds.x[:, 0] == 0.0)


def test_normalize_idempotent_on_normalized_data():
    t = RawTable(["a", "target"], [[0.0, 0.0], [0.25, 0.5], [1.0, 1.0]])
    ds = normalize(t, "target")
    assert np.allclose(ds.x[:, 0], [0.0, 0.25, 1.0], atol=1e-12)


def test_normalize_non_numeric_cell_names_column_and_row():
    t = RawTable(["a", "target"], [[1, 0], ["oops", 1]])
    with pytest.raises(DataError, match=r"'a'.*row 2|column 'a', row 2"):
        normalize(t, "target")


def test_normalize_inverse_round_trip():
    rng = np.random.default_rng(1)
    vals = rng.uniform(-7, 13, (40, 3))
    t = RawTable(["a", "b", "target"], [list(map(float, row)) for row in vals])
    ds = normalize(t, "target")
    assert np.allclose(ds.feature_column_raw(0), vals[:, 0], atol=1e-9)
    assert np.allclose(ds.feature_column_raw(1), vals[:, 1], atol=1e-9)
    assert np.allclose(ds.target_raw(), vals[:, 2], atol=1e-9)


def test_build_protected_groups():
    t = RawTable(["p", "target"], [[0, 0.1], [1, 0.2], [0, 0.3], [1, 0.4]])
    ds = normalize(t, "target")
    (spec,) = build_protected(ds, [0])
    assert spec.feature_index == 0
    assert np.array_equal(spec.groups[0], [0, 2])
    assert np.array_equal(spec.groups[1], [1, 3])


def test_build_protected_single_group():
    t = RawTable(["p", "target"], [[0, 0.0], [0, 1.0]])
    ds = normalize(t, "target")
    (spec,) = build_protected(ds, [0])
    assert list(spec.groups) == [0]
    assert np.array_equal(spec.groups[0], [0, 1])


def test_build_protected_rejects_continuous_feature():
    rng = np.random.default_rng(2)
    rows = [[float(v), float(i)] for i, v in enumerate(rng.uniform(0, 100, 24))]
    ds = normalize(RawTable(["p", "target"], rows), "target")
    with pytest.raises(DataError, match="continuous"):
        build_protected(ds, [0])


def test_protected_groups_partition_rows():
    rng = np.random.default_rng(3)
    rows = [[int(v), float(i)] for i, v in enumerate(rng.integers(0, 4, 30))]
    ds = normalize(RawTable(["p", "target"], rows), "target")
    (spec,) = build_protected(ds, [0])
    all_rows = np.concatenate([spec.groups[v] for v in spec.group_values()])
    assert sorted(all_rows.tolist()) == list(range(30))
    assert all(spec.groups[v].size > 0 for v in spec.group_values())


def test_kfold_even_split_sizes():
    folds = fold_indices(10, 5, seed=1)
    assert len(folds) == 5
    assert all(test.size == 2 for test in folds)
    assert all(np.setdiff1d(np.arange(10), test).size == 8 for test in folds)


def test_kfold_remainder_rule():
    sizes = sorted((len(f) for f in fold_indices(11, 5, seed=0)), reverse=True)
    assert sizes == [3, 2, 2, 2, 2]


def test_kfold_same_seed_identical():
    a = fold_indices(50, 5, seed=123)
    b = fold_indices(50, 5, seed=123)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = fold_indices(50, 5, seed=124)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_kfold_partition_property():
    folds = fold_indices(37, 4, seed=9)
    union = np.concatenate(folds)
    assert sorted(union.tolist()) == list(range(37))
    for i in range(len(folds)):
        for j in range(i + 1, len(folds)):
            assert np.intersect1d(folds[i], folds[j]).size == 0


def test_kfold_k_greater_than_n_errors():
    with pytest.raises(DataError):
        fold_indices(3, 5, seed=0)


def test_shuffled_indices_deterministic_permutation():
    idx = shuffled_indices(20, seed=7)
    assert sorted(idx.tolist()) == list(range(20))
    assert np.array_equal(idx, shuffled_indices(20, seed=7))


def test_select_regroups_protected():
    t = RawTable(["p", "target"], [[0, 0.1], [1, 0.2], [0, 0.3], [1, 0.4], [0, 0.5]])
    sub = normalize(t.select_rows([0, 1, 2, 4]), "target").with_protected([0])
    (spec,) = sub.protected
    assert np.array_equal(spec.groups[0], [0, 2, 3])
    assert np.array_equal(spec.groups[1], [1])


def test_apply_normalization_uses_reference_ranges_and_clips(tmp_path):
    train = RawTable(["a", "target"], [[0, 0], [10, 10]])
    ref = normalize(train, "target")
    test = RawTable(["a", "target"], [[5, 5], [20, -3]])
    ds = apply_normalization(test, "target", ref)
    assert np.allclose(ds.x[:, 0], [0.5, 1.0])
    assert np.allclose(ds.y, [0.5, 0.0])


def test_dataset_rejects_out_of_range():
    with pytest.raises(DataError):
        Dataset(np.array([[1.5]]), np.array([0.5]), ["a"], [(0, 1)], "t", (0, 1))
