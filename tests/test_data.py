import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confit import data
from confit.data import (ColumnRoles, Dataset, RawTable, apply_normalization,
                         build_protected, fold_indices, load_csv,
                         normalize, ordinal_encode, shuffled_indices)
from confit.errors import DataError
from oracles import per_column_normalization

SCHOOL = Path(__file__).resolve().parents[1] / "data" / "school.csv"


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


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "-Infinity", "+nan"])
def test_non_finite_cell_names_column_and_row(cell):
    t = RawTable(["a", "target"], [[1, "0"], ["2", "1"], [" 3", cell]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"non-finite cell .* column 'target', row 3"):
            normalize(t, "target")
        ref = normalize(RawTable(["a", "target"], [[1, 0], [2, 1]]), "target")
        with pytest.raises(DataError, match=r"column 'target', row 3"):
            apply_normalization(t, "target", ref)


def test_bad_cell_names_its_file_line_past_a_dropped_row(tmp_path):
    t = load_csv(write(tmp_path, "a,target\n1,NA\n2,3\n4,inf\n"), ROLES)
    assert t.n == 2 and t.dropped_rows == 1
    with pytest.raises(DataError, match=r"column 'target', row 2 \(file line 4\)$"):
        normalize(t, "target")
    # a fold keeps the file lines of its rows
    with pytest.raises(DataError, match=r"row 1 \(file line 4\)$"):
        normalize(t.select_rows([1]), "target")
    with pytest.raises(DataError, match=r"column 'a', row 1 \(file line 2\)$"):
        normalize(ordinal_encode(load_csv(write(tmp_path, "a,target\nx,1\n"), ROLES), []),
                  "target")


def test_nan_cell_is_missing_and_its_row_dropped(tmp_path):
    t = load_csv(write(tmp_path, "a,b,target\n1,nan,3\n4,5,6\n7,8,NaN\n9,1,2\n"), ROLES)
    assert t.n == 2 and t.dropped_rows == 2
    assert normalize(t, "target").n == 2


def test_ragged_rows_are_a_data_error():
    with pytest.raises(DataError, match="row 2 has 1 cells but the table has 2 columns"):
        normalize(RawTable(["a", "target"], [[1, 2], [3]]), "target")
    with pytest.raises(DataError, match="cannot read a 0 x 2 table"):
        normalize(RawTable(["a", "target"], []), "target")


def test_range_beyond_the_float_range_is_a_data_error():
    t = RawTable(["a", "target"], [["-1e308", 0], ["1e308", 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="column 'a' spans more than the float range"):
            normalize(t, "target")
        # far outside a finite reference range, a cell clips without a warning
        ref = normalize(RawTable(["a", "target"], [["-1e308", 0], ["0", 1]]), "target")
        ds = apply_normalization(RawTable(["a", "target"], [["1.7e308", 0]]), "target", ref)
    assert ds.x[0, 0] == 1.0


def assert_matches_oracle(ds, oracle):
    x, y, feature_ranges, target_range = oracle
    assert ds.x.shape == x.shape and ds.x.tobytes() == x.tobytes()
    assert ds.y.shape == y.shape and ds.y.tobytes() == y.tobytes()
    assert ds.feature_ranges == feature_ranges and ds.target_range == target_range
    assert ds.x.flags.c_contiguous and ds.y.flags.c_contiguous


def assert_both_match_oracle(table, target, cut):
    """`normalize` on the whole table, and `apply_normalization` of the whole
    table by the ranges of its first `cut` rows, which may be narrower than
    the data's, against the per-column oracle, bit for bit."""
    assert_matches_oracle(normalize(table, target),
                          per_column_normalization(table.columns, table.rows, target))
    head = table.select_rows(range(cut))
    _, _, feature_ranges, target_range = per_column_normalization(
        head.columns, head.rows, target)
    tgt = table.columns.index(target)
    reference = feature_ranges[:tgt] + [target_range] + feature_ranges[tgt:]
    assert_matches_oracle(
        apply_normalization(table, target, normalize(head, target)),
        per_column_normalization(table.columns, table.rows, target, reference))


def test_a_table_parses_its_cells_once(monkeypatch):
    roles = ColumnRoles(target="grade", categorical=(
        "school", "sex", "address", "higher", "famsup", "activities", "internet"))
    table = ordinal_encode(load_csv(SCHOOL, roles), roles.categorical)
    parsed = []
    monkeypatch.setattr(data, "_float_grid",
                        lambda t, _parse=data._float_grid: parsed.append(t) or _parse(t))
    rows = np.arange(3, table.n, 7)
    fresh = table.select_rows(rows)  # the table is not parsed yet: its rows parse their own
    assert table.grid is table.grid and len(parsed) == 1
    sub = table.select_rows(rows)  # ... and now they take their rows of its grid
    assert sub.grid.tobytes() == fresh.grid.tobytes() and len(parsed) == 2
    assert sub.grid.tobytes() == table.grid[rows].tobytes()
    assert "grid" not in ordinal_encode(table, []).__dict__  # `replace` starts clean


@pytest.mark.parametrize("mode", ["train", "full"])
def test_prepare_folds_parses_the_table_once(monkeypatch, mode):
    from confit.config import load_config
    from confit.experiment import prepare_folds
    cfg = load_config(SCHOOL.parents[1] / "configs" / "school.yaml")
    cfg = replace(cfg, run=replace(cfg.run, normalization=mode))
    select = RawTable.select_rows

    def unparsed(table, indices):  # the table of those rows, left to parse its own
        sub = select(table, indices)
        sub.__dict__.pop("grid", None)
        return sub

    monkeypatch.setattr(RawTable, "select_rows", unparsed)
    want = prepare_folds(cfg)
    monkeypatch.setattr(RawTable, "select_rows", select)
    parsed = []
    monkeypatch.setattr(data, "_float_grid",
                        lambda t, _parse=data._float_grid: parsed.append(t) or _parse(t))
    got = prepare_folds(cfg)
    assert len(parsed) == 1
    for fold, ref in zip(got, want, strict=True):
        for ds, ds_ref in ((fold.train, ref.train), (fold.test, ref.test)):
            assert ds.x.tobytes() == ds_ref.x.tobytes() and ds.y.tobytes() == ds_ref.y.tobytes()
            assert (ds.feature_ranges, ds.target_range) == (ds_ref.feature_ranges,
                                                            ds_ref.target_range)


def test_school_normalization_matches_per_column_oracle():
    roles = ColumnRoles(target="grade", categorical=(
        "school", "sex", "address", "higher", "famsup", "activities", "internet"))
    table = ordinal_encode(load_csv(SCHOOL, roles), roles.categorical)
    assert any(type(c) is int for c in table.rows[0]) and any(type(c) is str for c in table.rows[0])
    assert_both_match_oracle(table, "grade", 100)


_NUMBER_CELLS = st.one_of(st.integers(-5, 5), st.integers(-20, 20).map(str),
                          st.floats(-1e6, 1e6, allow_nan=False).map(repr))


@st.composite
def _numeric_tables(draw):
    d, n = draw(st.integers(2, 4)), draw(st.integers(2, 12))
    rows = [[draw(_NUMBER_CELLS) for _ in range(d)] for _ in range(n)]
    for j in range(d):
        if draw(st.booleans()):  # a constant column
            for row in rows:
                row[j] = rows[0][j]
    columns = [f"c{j}" for j in range(d)]
    return RawTable(columns, rows), draw(st.sampled_from(columns)), draw(st.integers(1, n))


@settings(max_examples=150, deadline=None)
@given(_numeric_tables())
def test_normalization_matches_per_column_oracle(case):
    table, target, cut = case
    assert_both_match_oracle(table, target, cut)


_NUMERIC_CSV_CELLS = st.sampled_from(["0", "1", "2.5", "-3", " 4 ", "1e3", "1_0", "\u0661"])
_BAD_CSV_CELLS = st.sampled_from(["x", "yes", "", "NA", "nan", "?", "null", "inf", "-inf",
                                  "1e400", "1e308", "-1e308", "0x10", '"'])


@st.composite
def _csv_files(draw):
    """CSV lines and categorical columns: a header with a target and unique
    names, or one flaw (a duplicate name, no target, an unknown categorical
    column), then rows of numbers, most of the header's length and some
    shorter or longer, with up to three cells replaced by text, blanks,
    missing markers, non-finite or huge numbers or a quote."""
    header = [*draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=3)),
              "target"]
    categorical = draw(st.lists(st.sampled_from(header), unique=True, max_size=1))
    flawed = draw(st.booleans()) and draw(st.booleans())
    flaw = draw(st.sampled_from(["duplicate", "no target", "unknown"])) if flawed else None
    if flaw == "duplicate":
        header.append(f" {header[0]}")  # names are stripped
    elif flaw == "no target":
        header[-1] = "d"
    elif flaw == "unknown":
        categorical.append("x")
    width = st.one_of(st.just(len(header)), st.integers(0, len(header) + 1))
    rows = draw(st.lists(width.flatmap(
        lambda k: st.lists(_NUMERIC_CSV_CELLS, min_size=k, max_size=k)),
        min_size=1, max_size=8))
    for i, j, cell in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 4),
                                              _BAD_CSV_CELLS), max_size=3)):
        row = rows[i % len(rows)]
        if row:
            row[j % len(row)] = cell
    return [header, *rows], tuple(categorical)


@settings(max_examples=200, deadline=None)
@given(_csv_files())
def test_any_csv_gives_a_dataset_or_a_data_error(tmp_path_factory, case):
    lines, categorical = case
    path = tmp_path_factory.getbasetemp() / "property.csv"
    path.write_text("\n".join(",".join(line) for line in lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = load_csv(path, ColumnRoles(target="target", categorical=categorical))
            table = ordinal_encode(table, categorical)
            whole = normalize(table, "target")
            half = apply_normalization(table, "target",
                                       normalize(table.select_rows(range(table.n // 2 + 1)),
                                                 "target"))
        except DataError:
            return
    for ds in (whole, half):
        assert isinstance(ds, Dataset) and ds.n == table.n
        assert np.isfinite(ds.x).all() and 0 <= ds.x.min() and ds.x.max() <= 1
