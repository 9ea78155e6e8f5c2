import copy
import functools
import json
import operator
import os
import re
import subprocess
import sys
import time
import weakref
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import confit
import confit.experiment as experiment
from confit import driver, learners
from confit.cli import main
from confit.config import ExperimentConfig, load_config, resolved_dataset_path
from confit.data import ColumnRoles, fold_indices, load_csv, normalize, ordinal_encode
from confit.errors import ConfigError, DataError
from confit.driver import IterationHistory
from confit.experiment import (_run_task, build_constraints, compare_rows, load_history_file,
                               plotdata_rows, prepare_folds, run_experiment, sidecar_path,
                               write_history_file)
from confit.synth import write_school_csv
from oracles import full_normalization_folds

REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path, csv_path, *, alphas="[0.5]", iterations=4, folds=2,
                 learner="{kind: ridge, ridge_lambda: 0.001}",
                 algorithms="[affine_extension]", name="cfg.yaml", seed=1,
                 out="out"):
    cfg = tmp_path / name
    cfg.write_text(f"""
dataset:
  path: {csv_path}
  target: grade
  protected: [sex]
  categorical: [school, sex, address, higher, famsup, activities, internet]
constraint: {{fraction: 0.2}}
run:
  loss: {{kind: mse}}
  alphas: {alphas}
  beta: 0.1
  iterations: {iterations}
  learner: {learner}
  algorithms: {algorithms}
  folds: {folds}
  seed: {seed}
output: {{directory: {tmp_path / out}}}
""")
    return cfg


@pytest.fixture(scope="module")
def csv_50(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "school50.csv"
    write_school_csv(p, n=50, seed=11)
    return p


def test_validate_config_ok(tmp_path, csv_50):
    cfg = write_config(tmp_path, csv_50)
    assert main(["validate-config", "--config", str(cfg)]) == 0


def test_invalid_config_exit_2_with_field_message(tmp_path, csv_50, capsys):
    cfg = write_config(tmp_path, csv_50, alphas="[1.5]")
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert "run.alphas[0]" in capsys.readouterr().err


@pytest.mark.parametrize("edit,field", [
    ({"alphas": "[0.5, 0.5]"}, "run.alphas[1]"),
    ({"alphas": "[0.1, 0.5, 0.1]"}, "run.alphas[2]"),
    ({"algorithms": "[moving_targets, affine_extension, moving_targets]"},
     "run.algorithms[2]"),
], ids=["alphas", "alphas-apart", "algorithms"])
def test_repeated_alpha_or_algorithm_exit_2(tmp_path, csv_50, capsys, edit, field):
    # a repeat would mix two tasks' folds into one history and count them
    # twice in the summary's mean and std
    cfg = write_config(tmp_path, csv_50, **edit)
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert f"{field}: " in capsys.readouterr().err
    assert main(["run", "--config", str(cfg), "--jobs", "1"]) == 2
    assert not (tmp_path / "out").exists()


def _case(field, unknown=None, **blocks):
    return pytest.param(blocks, field, unknown, id=field + (f"+{unknown}" if unknown else ""))


MALFORMED = [
    _case("run.loss.huber_m", run="{alphas: [0.5], loss: {kind: huber, huber_m: -1}}"),
    _case("run.loss.huber_m", run="{alphas: [0.5], loss: {kind: huber, huber_m: 0}}"),
    _case("run.loss.kind", run="{alphas: [0.5], loss: {kind: hinge}}"),
    _case("constraint.box", constraint="{box: [0, 1]}"),
    _case("constraint.box", constraint="{box: {lower: 1, upper: 0}}"),
    _case("constraint.box.upper", constraint="{box: {upper: high}}"),
    _case("constraint", constraint="[1]"),
    _case("constraint.fraction", constraint="{fraction: true}"),
    pytest.param({"constraint": "{fraction: null}"}, "constraint.fraction", None,
                 id="constraint.fraction+null-without-epsilon"),
    _case("run.alphas[0]", run="{alphas: [1.5]}"),
    pytest.param({"run": "{alphas: [0.0], algorithms: [moving_targets]}"}, "run.alphas[0]",
                 None, id="run.alphas[0]+moving_targets"),
    _case("run.alphas[1]", run="{alphas: [0.5, x]}"),
    _case("run.alphas", run="{alphas: []}"),
    _case("run.alphas", run="{beta: 0.1}"),
    _case("run.folds", run="{alphas: [0.5], folds: 1}"),
    _case("run.algorithms", run="{alphas: [0.5], algorithms: [gradient_descent]}"),
    _case("run.beta", run="{alphas: [0.5], beta: " + "9" * 400 + "}"),
    _case("solver.tolerance", solver="{tolerance: 0}"),
    _case("solver.warm_start", solver="{warm_start: 1}"),
    _case("run.learner.max_depth", run="{alphas: [0.5], learner: {kind: gbt, max_depth: 0}}"),
    _case("config", "extra", extra="1"),
    _case("config", "output_dir", output_dir="elsewhere"),
    _case("dataset", "extra", dataset="{path: data.csv, target: grade, extra: 1}"),
    _case("constraint", "extra", constraint="{extra: 1}"),
    _case("constraint.box", "extra", constraint="{box: {lower: 0, extra: 1}}"),
    _case("run", "extra", run="{alphas: [0.5], extra: 1}"),
    _case("run.loss", "extra", run="{alphas: [0.5], loss: {kind: mse, extra: 1}}"),
    _case("run.learner", "extra", run="{alphas: [0.5], learner: {kind: gbt, extra: 1}}"),
    _case("solver", "extra", solver="{extra: 1}"),
    _case("output", "extra", output="{extra: 1}"),
    pytest.param(None, "config", None, id="config+directory"),
]


@pytest.mark.parametrize("blocks, field, unknown", MALFORMED)
def test_malformed_config_exit_2_names_field(tmp_path, csv_50, capsys, blocks, field, unknown):
    cfg = tmp_path / "bad.yaml"
    if blocks is None:  # a directory given as the config file
        cfg.mkdir()
    else:
        doc = {"dataset": f"{{path: {csv_50}, target: grade, protected: [sex]}}",
               "run": "{alphas: [0.5], learner: {kind: ridge}}", **blocks}
        cfg.write_text("".join(f"{key}: {value}\n" for key, value in doc.items()))
    assert main(["validate-config", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") or err.startswith(f"config error: {field}[")
    if unknown:
        assert repr(unknown) in err


@pytest.mark.parametrize("raw", [b"run: {beta: " + b"9" * 5000 + b"}",
                                 b"dataset: {path: 2020-13-45}", b"run: {beta: !!float x}",
                                 b"run: {seed: \xff}"])
def test_unreadable_yaml_value_exit_2(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(raw)
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert "not valid YAML" in capsys.readouterr().err


FULL_CONFIG = {  # every key of the schema, each with a valid value
    "dataset": {"path": "school.csv", "target": "grade", "protected": ["sex"], "drop": [],
                "categorical": ["sex"]},
    "constraint": {"fraction": 0.2, "epsilon": None, "box": {"lower": 0.0, "upper": 1.0}},
    "run": {"loss": {"kind": "huber", "huber_m": 0.1}, "alphas": [0.1, 0.5], "beta": 0.1,
            "iterations": 30, "learner": {"kind": "gbt", "ridge_lambda": 0.0, "n_trees": 50,
                                          "max_depth": 3, "learning_rate": 0.1,
                                          "min_samples_leaf": 5, "seed": 0},
            "algorithms": ["affine_extension"], "folds": 5, "seed": 7, "normalization": "train"},
    "solver": {"tolerance": 1e-7, "max_iterations": 20000, "warm_start": True},
    "output": {"directory": "out"},
}
_DROP = object()


def _key_paths(node, prefix=()):
    """Every key and list index under `node`, and a stray key in each mapping."""
    if isinstance(node, dict):
        yield prefix + ("stray",)
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.integers(0, 10), st.floats(0, 1),
    st.sampled_from(["mse", "mae", "huber", "ridge", "gbt", "moving_targets", "full"]))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(list(_key_paths(FULL_CONFIG))),
                                st.one_of(st.just(_DROP), _VALUES)), max_size=3))
def test_any_yaml_mapping_gives_config_or_config_error(tmp_path_factory, edits):
    doc = copy.deepcopy(FULL_CONFIG)
    for path, value in edits:  # drop a key or set it to any YAML value
        try:
            parent = functools.reduce(operator.getitem, path[:-1], doc)
            if value is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced a step of the path
    path = tmp_path_factory.getbasetemp() / "property.yaml"
    path.write_text(yaml.safe_dump(doc))
    try:
        cfg = load_config(path)
    except ConfigError:
        assert edits, "the unedited document must load"
        return
    assert isinstance(cfg, ExperimentConfig)
    assert all(type(a) is float and 0 <= a < 1 for a in cfg.run.alphas)


def test_unknown_column_exit_2(tmp_path, csv_50, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"""
dataset: {{path: {csv_50}, target: ghost}}
run: {{alphas: [0.5]}}
""")
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert "ghost" in capsys.readouterr().err


def test_missing_dataset_exit_2_names_path(tmp_path, capsys):
    cfg = write_config(tmp_path, tmp_path / "nowhere.csv")
    assert main(["run", "--config", str(cfg), "--jobs", "1"]) == 2
    assert "nowhere.csv" in capsys.readouterr().err


def _edited_csv(source, target, column, value, rows=(3,)):
    """A copy of the CSV `source` with `value` in `column` of the listed
    1-based data rows (all rows when `rows` is None)."""
    lines = source.read_text().splitlines()
    j = lines[0].split(",").index(column)
    for i in range(1, len(lines)) if rows is None else rows:
        cells = lines[i].split(",")
        cells[j] = value
        lines[i] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    return target


@pytest.mark.parametrize("column, value, rows, learner, message", [
    ("absences", "inf", (3,), None, "non-finite cell 'inf' in column 'absences', row 3"),
    ("absences", "-inf", (3,), None, "non-finite cell '-inf' in column 'absences', row 3"),
    ("absences", "1e400", (3,), None, "non-finite cell '1e400' in column 'absences', row 3"),
    ("absences", "many", (3,), None, "non-numeric cell 'many' in column 'absences', row 3"),
    ("health", "3", None, "{kind: ridge}", "set run.learner.ridge_lambda > 0"),
], ids=["inf", "-inf", "1e400", "text", "singular-ridge"])
def test_bad_data_exit_1_with_one_line(tmp_path, csv_50, capsys, caplog, recwarn,
                                       column, value, rows, learner, message):
    data = _edited_csv(csv_50, tmp_path / "bad.csv", column, value, rows)
    cfg = write_config(tmp_path, data, **({"learner": learner} if learner else {}))
    assert main(["run", "--config", str(cfg), "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "unhandled failure" not in caplog.text
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_run_smoke_under_ten_seconds(tmp_path, csv_50):
    cfg = write_config(tmp_path, csv_50)
    t0 = time.time()
    assert main(["run", "--config", str(cfg), "--jobs", "1"]) == 0
    assert time.time() - t0 < 10.0
    out = tmp_path / "out"
    assert (out / "summary.csv").exists()
    assert (out / "run_meta.json").exists()
    histories = sorted(out.glob("history_*.jsonl"))
    assert len(histories) == 1
    meta, folds = load_history_file(histories[0])
    assert meta["alpha"] == 0.5 and len(folds) == 2
    meta_doc = json.loads((out / "run_meta.json").read_text())
    assert meta_doc["seed"] == 1
    assert meta_doc["runs"][0]["verdict"]["verdict"] == "guaranteed"


def test_history_file_round_trip(tmp_path, csv_50):
    cfg = write_config(tmp_path, csv_50)
    main(["run", "--config", str(cfg), "--jobs", "1"])
    path = next((tmp_path / "out").glob("history_*.jsonl"))
    _, folds = load_history_file(path)
    raw_lines = path.read_text().strip().split("\n")
    rebuilt = [json.loads(line) for line in raw_lines[1:]]
    for j, h in enumerate(folds):
        own = [{"fold": j, **rec} for rec in h.to_records()]
        got = [rec for rec in rebuilt if rec["fold"] == j]
        assert got == own


def test_rerun_same_seed_byte_identical(tmp_path, csv_50):
    cfg_a = write_config(tmp_path, csv_50, out="out_a", name="a.yaml")
    cfg_b = write_config(tmp_path, csv_50, out="out_b", name="b.yaml")
    assert main(["run", "--config", str(cfg_a), "--jobs", "1"]) == 0
    assert main(["run", "--config", str(cfg_b), "--jobs", "2"]) == 0
    a_files = sorted((tmp_path / "out_a").iterdir())
    b_files = sorted((tmp_path / "out_b").iterdir())
    assert [p.name for p in a_files] == [p.name for p in b_files]
    for pa, pb in zip(a_files, b_files):
        if pa.name == "run_meta.json":
            # config echo differs only in the output directory
            da = json.loads(pa.read_text())
            db = json.loads(pb.read_text())
            assert da["runs"] == db["runs"] and da["seed"] == db["seed"]
        else:
            assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_seed_override_changes_folds(tmp_path, csv_50):
    cfg = write_config(tmp_path, csv_50, out="out_s")
    assert main(["run", "--config", str(cfg), "--jobs", "1", "--seed", "99",
                 "--out", str(tmp_path / "out_s2")]) == 0
    meta = json.loads((tmp_path / "out_s2" / "run_meta.json").read_text())
    assert meta["seed"] == 99


def test_plotdata_rows_and_shape(tmp_path, csv_50, capsys):
    cfg = write_config(tmp_path, csv_50, iterations=6)
    main(["run", "--config", str(cfg), "--jobs", "1"])
    path = next((tmp_path / "out").glob("history_*.jsonl"))
    capsys.readouterr()
    assert main(["plotdata", str(path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "iteration,r2_mean,r2_std,c_mean,c_std,residual_mean"
    assert len(lines) == 1 + 6  # header + one row per iteration incl. the initial fit
    assert lines[1].split(",")[-1] == ""  # no residual before the first adjustment


def test_plotdata_single_fold_zero_std(tmp_path, csv_50):
    cfg = write_config(tmp_path, csv_50)
    cfg_obj = load_config(cfg)
    fold = prepare_folds(cfg_obj)[0]
    history = _run_task((cfg_obj, "affine_extension", 0.5, fold,
                         build_constraints(cfg_obj, fold.train)))
    single = tmp_path / "single.jsonl"
    write_history_file(single, cfg_obj, "affine_extension", 0.5, [history])
    _, folds = load_history_file(single)
    rows = plotdata_rows(folds)
    for line in rows[1:]:
        cells = line.split(",")
        assert float(cells[2]) == 0.0 and float(cells[4]) == 0.0


def test_plotdata_refuses_merged_file(tmp_path, csv_50, capsys):
    cfg = write_config(tmp_path, csv_50, alphas="[0.1, 0.5]")
    main(["run", "--config", str(cfg), "--jobs", "1"])
    files = sorted((tmp_path / "out").glob("history_*.jsonl"))
    merged = tmp_path / "merged.jsonl"
    merged.write_text(files[0].read_text() + files[1].read_text())
    assert main(["plotdata", str(merged)]) == 1
    assert "one history per file" in capsys.readouterr().err


def test_compare_self_all_comparable(tmp_path, csv_50, capsys):
    cfg = write_config(tmp_path, csv_50)
    main(["run", "--config", str(cfg), "--jobs", "1"])
    path = next((tmp_path / "out").glob("history_*.jsonl"))
    capsys.readouterr()
    assert main(["compare", str(path), str(path)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "metric,mean_a,std_a,mean_b,std_b,flag"
    assert all(line.endswith("comparable") for line in out[1:])


def test_compare_mismatched_protocols_errors(tmp_path, csv_50, capsys):
    cfg = write_config(tmp_path, csv_50, alphas="[0.1, 0.5]")
    main(["run", "--config", str(cfg), "--jobs", "1"])
    files = sorted((tmp_path / "out").glob("history_*.jsonl"))
    assert main(["compare", str(files[0]), str(files[1])]) == 1
    assert "mismatched protocols" in capsys.readouterr().err


def test_mse_compare_affine_vs_moving_targets_comparable(tmp_path, csv_50, capsys):
    cfg = write_config(tmp_path, csv_50, algorithms="[affine_extension, moving_targets]")
    main(["run", "--config", str(cfg), "--jobs", "1"])
    files = sorted((tmp_path / "out").glob("history_*.jsonl"))
    assert len(files) == 2
    capsys.readouterr()
    assert main(["compare", str(files[0]), str(files[1])]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert all(line.endswith("comparable") for line in out[1:])


def test_console_entry_point(tmp_path, csv_50):
    cfg = write_config(tmp_path, csv_50)
    proc = subprocess.run([sys.executable, "-m", "confit.cli", "validate-config",
                           "--config", str(cfg)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "config ok" in proc.stdout


def test_full_normalization_mode(tmp_path, csv_50):
    cfg = tmp_path / "full.yaml"
    cfg.write_text(f"""
dataset:
  path: {csv_50}
  target: grade
  protected: [sex]
  categorical: [school, sex, address, higher, famsup, activities, internet]
constraint: {{fraction: 0.2}}
run:
  loss: {{kind: mse}}
  alphas: [0.5]
  iterations: 3
  learner: {{kind: ridge, ridge_lambda: 0.001}}
  folds: 2
  seed: 1
  normalization: full
output: {{directory: {tmp_path / "out_full"}}}
""")
    assert main(["run", "--config", str(cfg), "--jobs", "1"]) == 0
    assert (tmp_path / "out_full" / "summary.csv").exists()


@pytest.mark.parametrize("data", ["school", "csv_50"])
def test_full_normalization_folds_match_row_subsets(tmp_path, csv_50, data):
    # one loop prepares both modes' folds; in `full` mode each fold must be the
    # rows of the dataset normalized as a whole, regrouped, bit for bit
    path = REPO / "configs" / "school.yaml" if data == "school" \
        else write_config(tmp_path, csv_50, folds=3)
    cfg = load_config(path)
    cfg = replace(cfg, run=replace(cfg.run, normalization="full"))
    roles = ColumnRoles(target=cfg.dataset.target, categorical=cfg.dataset.categorical,
                        protected=cfg.dataset.protected)
    table = ordinal_encode(load_csv(resolved_dataset_path(cfg), roles), cfg.dataset.categorical)
    full = normalize(table, cfg.dataset.target)
    full = full.with_protected([full.feature_names.index(c) for c in cfg.dataset.protected])
    want = full_normalization_folds(full, fold_indices(table.n, cfg.run.folds, cfg.run.seed))
    got = prepare_folds(cfg)
    assert len(got) == len(want) == cfg.run.folds
    for fold, pair in zip(got, want):
        for ds, ref in zip((fold.train, fold.test), pair):
            assert ds.x.tobytes() == ref.x.tobytes() and ds.y.tobytes() == ref.y.tobytes()
            assert (ds.feature_names, ds.feature_ranges, ds.target_name, ds.target_range) \
                == (ref.feature_names, ref.feature_ranges, ref.target_name, ref.target_range)
            for spec, ref_spec in zip(ds.protected, ref.protected, strict=True):
                assert spec.feature_index == ref_spec.feature_index
                assert spec.groups.keys() == ref_spec.groups.keys()
                assert all(spec.groups[v].tobytes() == ref_spec.groups[v].tobytes()
                           for v in spec.groups)


def test_absolute_epsilon_constraint(tmp_path, csv_50):
    cfg = tmp_path / "eps.yaml"
    cfg.write_text(f"""
dataset:
  path: {csv_50}
  target: grade
  protected: [sex]
  categorical: [school, sex, address, higher, famsup, activities, internet]
constraint: {{epsilon: 0.05}}
run:
  loss: {{kind: mae}}
  alphas: [0.2]
  iterations: 3
  learner: {{kind: ridge, ridge_lambda: 0.001}}
  folds: 2
  seed: 1
output: {{directory: {tmp_path / "out_eps"}}}
""")
    assert main(["run", "--config", str(cfg), "--jobs", "1"]) == 0


def test_compare_flags_disjoint_distributions(tmp_path, csv_50, capsys):
    # clone one run's history with all fit metrics shifted far beyond the fold
    # spread: every metric must come out significant
    cfg = write_config(tmp_path, csv_50)
    cfg_obj = load_config(cfg)
    folds = prepare_folds(cfg_obj)
    histories = [_run_task((cfg_obj, "affine_extension", 0.5, f,
                            build_constraints(cfg_obj, f.train))) for f in folds]
    shifted = []
    for h in histories:
        records = h.to_records()
        for rec in records:
            if rec["type"] in ("initial", "iteration"):
                for key in ("r2_train", "r2_test"):
                    rec[key] = rec[key] - 0.5
                for key in ("c_train", "c_test"):
                    rec[key] = rec[key] + 0.5
        shifted.append(IterationHistory.from_records(records, vectors=h.vectors()))
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    write_history_file(path_a, cfg_obj, "affine_extension", 0.5, histories)
    write_history_file(path_b, cfg_obj, "affine_extension", 0.5, shifted)
    assert main(["compare", str(path_a), str(path_b)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    flags = [line.split(",")[-1] for line in out[1:]]
    assert flags == ["A-better", "A-better", "A-better", "A-better"]


@pytest.fixture(scope="module")
def history_lines(tmp_path_factory, csv_50):
    """One run's history file as written, with its sidecar's bytes and the
    run's `run_meta.json`."""
    tmp_path = tmp_path_factory.mktemp("format")
    cfg = write_config(tmp_path, csv_50)
    assert main(["run", "--config", str(cfg), "--jobs", "1"]) == 0
    path = next((tmp_path / "out").glob("history_*.jsonl"))
    meta_doc = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    return {"lines": path.read_text().splitlines(),
            "sidecar": sidecar_path(path).read_bytes(), "meta_doc": meta_doc}


def test_history_format_3_key_order(history_lines):
    # the records are the dataclass fields in declaration order, less the
    # vectors (the initial `yhat`, each step's `z`, `yhat` and `yhat_next`),
    # which go to the sidecar: a field added to or moved in IterationHistory,
    # InitialRecord, IterationRecord or the config blocks changes format 3 and
    # must show up here
    lines, meta_doc = history_lines["lines"], history_lines["meta_doc"]
    records = [json.loads(line) for line in lines]
    first = {}
    for rec in records:
        first.setdefault(rec["type"], rec)
    assert list(first) == ["filemeta", "meta", "initial", "iteration"]
    assert first["filemeta"]["format"] == 3
    assert list(first["filemeta"]) == [
        "type", "format", "algorithm", "alpha", "beta", "iterations", "loss", "folds",
        "seed", "dataset", "verdict", "vectors"]
    assert list(first["filemeta"]["loss"]) == ["kind", "huber_m"]
    assert list(first["filemeta"]["verdict"]) == [
        "verdict", "alpha_bound", "lipschitz_constant", "note"]
    vectors = first["filemeta"]["vectors"]
    assert list(vectors) == ["rows", "bytes"]
    steps = [sum(r["type"] == "iteration" and r["fold"] == j for r in records) for j in (0, 1)]
    assert vectors["bytes"] == len(history_lines["sidecar"]) == sum(
        8 * n * (1 + 2 * k) for n, k in zip(vectors["rows"], steps, strict=True))
    assert list(first["meta"]) == [
        "fold", "type", "algorithm", "alpha", "beta", "iterations", "loss", "learner",
        "seed", "norm", "verdict", "stopped_early", "branch_counts"]
    assert list(first["meta"]["learner"]) == [
        "kind", "ridge_lambda", "n_trees", "max_depth", "learning_rate",
        "min_samples_leaf", "seed"]
    assert list(first["initial"]) == [
        "fold", "type", "i", "r2_train", "r2_test", "c_train", "c_test"]
    assert list(first["iteration"]) == [
        "fold", "type", "i", "branch", "r2_train", "r2_test",
        "c_train", "c_test", "residual", "contraction", "solver_method",
        "solver_iterations", "solver_converged", "solver_primal", "solver_dual",
        "fallback"]
    echo = meta_doc["config"]
    assert {block: sorted(echo[block]) for block in echo} == {
        "dataset": ["categorical", "drop", "path", "protected", "target"],
        "constraint": ["box", "epsilon", "fraction"],
        "run": ["algorithms", "alphas", "beta", "folds", "iterations", "learner",
                "loss", "normalization", "seed"],
        "solver": ["max_iterations", "tolerance", "warm_start"],
    }
    assert sorted(echo["run"]["learner"]) == sorted(first["meta"]["learner"])
    assert meta_doc["runs"][0]["verdict"] == first["filemeta"]["verdict"]


def _edit_line(index, edit):
    def damage(lines):
        rec = json.loads(lines[index])
        edit(rec)
        return lines[:index] + [json.dumps(rec)] + lines[index + 1:]
    return damage


def _set_format(version):
    return _edit_line(0, lambda filemeta: filemeta.update(format=version))


def _retag(tags):
    """Moves the records of fold j to fold tags[j]; `tags` maps every fold."""
    def damage(lines):
        records = [json.loads(line) for line in lines[1:]]
        for rec in records:
            rec["fold"] = tags[rec["fold"]]
        return lines[:1] + [json.dumps(rec) for rec in records]
    return damage


def _in_fold(j, damage):
    """Applies `damage` to the file meta and fold j's records, as if they were
    the whole file, and puts the result back in fold j's place."""
    def apply(lines):
        at = [k for k, line in enumerate(lines) if json.loads(line).get("fold") == j]
        damaged = damage(lines[:1] + lines[at[0]:at[-1] + 1])
        return lines[:at[0]] + damaged[1:] + lines[at[-1] + 1:]
    return apply


def _split_fold(lines):
    """Moves fold 0's last record after fold 1's, so fold 0 is in two runs."""
    last = max(k for k, line in enumerate(lines) if json.loads(line).get("fold") == 0)
    return lines[:last] + lines[last + 1:] + [lines[last]]


@pytest.mark.parametrize("damage, message", [
    (lambda lines: lines[:2] + [lines[2][:40]], "line 3 is not valid JSON"),
    (lambda lines: lines[:1] + ["[1, 2]"] + lines[2:], "line 2 is not a JSON object"),
    (lambda lines: lines[:2], "must start with a meta record and then an initial record"),
    (_edit_line(3, lambda rec: rec.pop("residual")), "missing field 'residual'"),
    (_edit_line(3, lambda rec: rec.update(solver_iterations="3")),
     "IterationRecord.solver_iterations"),
    (lambda lines: lines[:-1], "unequal iteration counts"),
    (_set_format(2), "history format 2; only format 3 is read"),
    (_set_format(1), "history format 1; only format 3 is read"),
    (_set_format(7), "history format 7; only format 3 is read"),
    (_edit_line(0, lambda filemeta: filemeta["vectors"].update(bytes=8)),
     "'vectors' entry does not match the records"),
    (_edit_line(0, lambda filemeta: filemeta.update(folds=7)),
     "the file meta states 7 folds, the records hold 2"),
    (_retag({0: 0, 1: True}), "fold tag True out of order"),
    (_retag({0: 0, 1: 9}), "fold tag 9 out of order"),
    (_retag({0: 1, 1: 0}), "fold tag 1 out of order"),
    (_split_fold, "fold tag 0 out of order"),
    # the same damage in the other fold: 11 lines, fold 1 from line 7 on
    (_in_fold(1, lambda lines: lines[:2] + [lines[2][:40]]), "line 8 is not valid JSON"),
    (_in_fold(1, lambda lines: lines[:1] + ["[1, 2]"] + lines[2:]),
     "line 7 is not a JSON object"),
    (_in_fold(1, lambda lines: lines[:2]),
     "fold 1: history stream must start with a meta record and then an initial record"),
    (_in_fold(1, _edit_line(3, lambda rec: rec.pop("residual"))),
     "fold 1: IterationRecord: missing field 'residual'"),
    (_in_fold(1, _edit_line(3, lambda rec: rec.update(residual="0.5"))),
     "fold 1: IterationRecord.residual"),
    (_in_fold(0, lambda lines: lines[:-1]), "unequal iteration counts"),
], ids=["format-3-cut-mid-line", "format-3-not-an-object", "format-3-meta-only",
        "format-3-missing-field", "format-3-wrong-type", "format-3-unequal-folds",
        "format-3-read-as-format-2", "format-1-without-yhat", "unknown-format",
        "format-3-vectors-meta", "folds-miscounted", "fold-tagged-true", "fold-tagged-9",
        "folds-swapped", "fold-split", "cut-mid-line", "not-an-object", "meta-only",
        "missing-field", "wrong-type", "unequal-folds"])
def test_malformed_history_is_a_data_error(tmp_path, history_lines, damage, message,
                                           capsys, caplog):
    # the file keeps its intact sidecar; each command prints one line
    path = tmp_path / "damaged.jsonl"
    path.write_text("\n".join(damage(history_lines["lines"])) + "\n")
    sidecar_path(path).write_bytes(history_lines["sidecar"])
    for command in (["plotdata", str(path)], ["compare", str(path), str(path)]):
        assert main(command) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {path}: ") and message in err
    assert "unhandled failure" not in caplog.text


@pytest.mark.parametrize("damage", [
    lambda data: None, lambda data: data[:-8], lambda data: data + bytes(8),
], ids=["missing", "short", "long"])
def test_damaged_sidecar_is_a_data_error(tmp_path, history_lines, damage, capsys, caplog):
    path = tmp_path / "history.jsonl"
    path.write_text("\n".join(history_lines["lines"]) + "\n")
    data = damage(history_lines["sidecar"])
    if data is not None:
        sidecar_path(path).write_bytes(data)
    for command in (["plotdata", str(path)], ["compare", str(path), str(path)]):
        assert main(command) == 1
        assert str(sidecar_path(path)) in capsys.readouterr().err
    with pytest.raises(DataError, match=re.escape(str(sidecar_path(path)))):
        load_history_file(path)
    assert "unhandled failure" not in caplog.text


def _move_a_row(filemeta):
    """Moves one row of the file meta's `vectors` entry from fold 0 to fold 1:
    the sidecar keeps its size, but both folds' vectors are misframed."""
    rows = filemeta["vectors"]["rows"]
    rows[:2] = [rows[0] - 1, rows[1] + 1]


@pytest.mark.parametrize("edit, message", [
    (_move_a_row, "fold 0: its vectors do not give its first step's residual"),
    (lambda filemeta: (_move_a_row(filemeta),
                       filemeta["dataset"].update(rows_train_fold0=filemeta["vectors"]["rows"][0])),
     "fold 0: its vectors do not give its first step's residual"),
    (lambda filemeta: filemeta["dataset"].update(rows_train_fold0=7),
     "fold 0 has 25 rows, the file meta's dataset entry records another count"),
], ids=["row-moved", "row-moved-and-recounted", "fold-0-miscounted"])
def test_misframed_sidecar_is_a_data_error(tmp_path, history_lines, edit, message, capsys):
    # the sidecar's size is right, so only a read of the vectors can tell
    path = tmp_path / "history.jsonl"
    path.write_text("\n".join(_edit_line(0, edit)(history_lines["lines"])) + "\n")
    sidecar_path(path).write_bytes(history_lines["sidecar"])
    with pytest.raises(DataError, match=re.escape(message)) as caught:
        load_history_file(path)
    assert str(caught.value).startswith(f"{path}: ") and "fold 1" not in str(caught.value)
    load_history_file(path, vectors=False)
    assert main(["plotdata", str(path)]) == 0
    capsys.readouterr()


def assert_same_fields(a, b, where="history"):
    """Dataclasses field by field: arrays bit for bit, NaN equal to NaN."""
    assert type(a) is type(b), where
    for f in fields(a):
        x, y, at = getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}"
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), at
        elif is_dataclass(x):
            assert_same_fields(x, y, at)
        elif isinstance(x, list):
            assert len(x) == len(y), at
            for k, (p, q) in enumerate(zip(x, y)):
                assert_same_fields(p, q, f"{at}[{k}]")
        elif isinstance(x, float) and x != x:
            assert isinstance(y, float) and y != y, at
        else:
            assert type(x) is type(y) and x == y, at


def test_history_round_trip(tmp_path, csv_50, capsys, monkeypatch):
    cfg = load_config(write_config(tmp_path, csv_50, iterations=5))
    histories = [_run_task((cfg, "affine_extension", 0.5, fold, build_constraints(cfg, fold.train)))
                 for fold in prepare_folds(cfg)]
    histories[0].records[1].z[:3] = [np.nan, -0.0, np.inf]  # bits the sidecar must keep
    assert np.isnan(histories[0].records[0].contraction)  # NaN is covered
    path = tmp_path / "history.jsonl"
    write_history_file(path, cfg, "affine_extension", 0.5, histories)
    calls = []
    from_records = IterationHistory.from_records

    def counting(*args, **kwargs):
        calls.append(args)
        return from_records(*args, **kwargs)

    monkeypatch.setattr(IterationHistory, "from_records", counting)
    meta, read = load_history_file(path)
    assert len(calls) == len(histories)  # each fold's records are decoded once
    assert meta == json.loads(path.read_text().splitlines()[0])
    assert meta["format"] == 3 and meta["vectors"] == {
        "rows": [h.initial.yhat.size for h in histories],
        "bytes": sidecar_path(path).stat().st_size}
    # the sidecar is read once: every vector is a view into one array
    base = read[0].initial.yhat.base
    assert base is not None and all(v.base is base for h in read for v in h.vectors())
    assert len(read) == len(histories)
    for h, back in zip(histories, read):
        assert_same_fields(back, h)
        # each prediction is held once
        steps = back.records
        assert steps[0].yhat is back.initial.yhat
        assert all(s.yhat is r.yhat_next for r, s in zip(steps, steps[1:]))

    def output(*args):
        capsys.readouterr()
        assert main([*args]) == 0
        return capsys.readouterr().out

    def unread(*args, **kwargs):
        raise AssertionError("the sidecar was read")

    # plotdata and compare read scalars only: the sidecar stays unread, and
    # their output is that of the histories read with their vectors
    monkeypatch.setattr(np, "fromfile", unread)
    meta_scalars, scalars = load_history_file(path, vectors=False)
    assert meta_scalars == meta
    assert scalars[0].initial.yhat is None and scalars[0].records[0].z is None
    assert all(r.yhat is None and r.yhat_next is None for h in scalars for r in h.records)
    assert output("plotdata", str(path)) == "\n".join(plotdata_rows(read)) + "\n"
    assert plotdata_rows(scalars) == plotdata_rows(read)
    assert output("compare", str(path), str(path)) == \
        "\n".join(compare_rows(meta, read, meta, read)) + "\n"
    assert compare_rows(meta, scalars, meta, scalars) == compare_rows(meta, read, meta, read)


def test_jobs_1_and_2_byte_identical(tmp_path, csv_50):
    cfg = write_config(tmp_path, csv_50, alphas="[0.1, 0.5]",
                       algorithms="[affine_extension, moving_targets]")
    for jobs in ("1", "2"):
        assert main(["run", "--config", str(cfg), "--jobs", jobs,
                     "--out", str(tmp_path / f"jobs{jobs}")]) == 0
    one = sorted((tmp_path / "jobs1").iterdir())
    two = sorted((tmp_path / "jobs2").iterdir())
    assert [p.name for p in one] == [p.name for p in two] and len(one) == 10
    for a, b in zip(one, two):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_run_experiment_builds_one_constraint_set_per_fold(tmp_path, csv_50, monkeypatch):
    # 2 algorithms x 2 alphas x 3 folds: 12 tasks, 3 sets, each shared by its fold's 4 tasks
    cfg = load_config(write_config(tmp_path, csv_50, alphas="[0.1, 0.5]", folds=3,
                                   algorithms="[affine_extension, moving_targets]"))
    built, used = [], {}
    build, run = experiment.build_constraints, experiment.run

    def counted_build(*args):
        built.append(build(*args))
        return built[-1]

    def recorded_run(config, train, test):
        used.setdefault(id(train), []).append(config.constraints)
        return run(config, train, test)

    monkeypatch.setattr(experiment, "build_constraints", counted_build)
    monkeypatch.setattr(experiment, "run", recorded_run)
    run_experiment(cfg, jobs=1, out_dir=str(tmp_path / "out"))
    assert len(built) == 3 and len(used) == 3
    for sets, cs in zip(used.values(), built):
        assert len(sets) == 4 and all(s is cs for s in sets)


def test_each_history_file_is_written_before_the_next_group_runs(tmp_path, csv_50,
                                                                monkeypatch):
    # 2 algorithms x 2 alphas x 2 folds: each (algorithm, alpha) file is
    # written when its last fold returns, and its histories are freed before
    # the next group's first task runs
    cfg = load_config(write_config(tmp_path, csv_50, alphas="[0.1, 0.5]", folds=2,
                                   algorithms="[affine_extension, moving_targets]"))
    events, alive = [], []
    run, write = experiment.run, experiment.write_history_file

    def recorded_run(config, train, test):
        events.append(("run", config.algorithm, config.alpha,
                        sum(ref() is not None for ref in alive)))
        history = run(config, train, test)
        alive.append(weakref.ref(history))
        return history

    def recorded_write(path, cfg, algorithm, alpha, histories):
        events.append(("write", algorithm, alpha))
        write(path, cfg, algorithm, alpha, histories)

    monkeypatch.setattr(experiment, "run", recorded_run)
    monkeypatch.setattr(experiment, "write_history_file", recorded_write)
    run_experiment(cfg, jobs=1, out_dir=str(tmp_path / "out"))
    want = []
    for algorithm in ("affine_extension", "moving_targets"):
        for alpha in (0.1, 0.5):
            want += [("run", algorithm, alpha, 0), ("run", algorithm, alpha, 1),
                     ("write", algorithm, alpha)]
    assert events == want


@pytest.mark.parametrize("learner", ["{kind: ridge, ridge_lambda: 0.001}",
                                     "{kind: gbt, n_trees: 3, max_depth: 2}"])
def test_every_fit_of_a_run_goes_through_the_driver_binding(tmp_path, csv_50, monkeypatch,
                                                            learner):
    # the benchmark's first-fit hook and tracer wrap `confit.driver.fit`: every
    # fit of a run, one per task and computed step, is a call of that binding.
    # A step that repeats an exact fixed point fits nothing; the histories
    # show which: those after a converged step whose yhat_next is its yhat
    cfg = load_config(write_config(tmp_path, csv_50, alphas="[0.1, 0.5]", folds=3,
                                   iterations=4, learner=learner,
                                   algorithms="[affine_extension, moving_targets]"))
    bound, fitted = [], []
    monkeypatch.setattr(driver, "fit", lambda *a, _fit=driver.fit: bound.append(1) or _fit(*a))
    for name in ("_fit_ridge", "_fit_gbt"):
        monkeypatch.setattr(learners, name,
                            lambda *a, _fit=getattr(learners, name): fitted.append(1) or _fit(*a))
    run_experiment(cfg, jobs=1, out_dir=str(tmp_path / "out"))
    histories = [h for path in sorted((tmp_path / "out").glob("*.jsonl"))
                 for h in load_history_file(path)[1]]

    def repeated_by_next(r):
        return r.solver_converged and not r.fallback and r.yhat_next.tobytes() == r.yhat.tobytes()

    computed = sum(len(h.records) - sum(map(repeated_by_next, h.records[:-1]))
                   for h in histories)
    assert len(histories) == 2 * 2 * 3
    assert len(bound) == len(fitted) == len(histories) + computed


def test_cli_import_leaves_yaml_unloaded():
    # plotdata and compare never parse YAML, so only load_config imports it;
    # likewise fractions (alpha_convert) and concurrent.futures (a run at
    # jobs > 1), which a read process never needs
    src = Path(confit.__file__).resolve().parents[1]
    modules = ("yaml", "fractions", "concurrent.futures")
    proc = subprocess.run([sys.executable, "-c", "import sys, confit.cli\n"
                           f"print([m for m in {modules!r} if m in sys.modules])"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_leaves_numpy_ma_unloaded(tmp_path, csv_50):
    # np.unique and np.setdiff1d import numpy.ma on their first call; a run
    # avoids both, so it never pays for that import
    src = Path(confit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def loaded(code):
        proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n"
                               "print('numpy.ma' in sys.modules)"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    if loaded("import numpy") == "True":
        pytest.skip("importing numpy alone loads numpy.ma")
    cfg = write_config(tmp_path, csv_50, algorithms="[affine_extension, moving_targets]",
                       learner="{kind: gbt, n_trees: 3, max_depth: 2}")
    # in this process: a worker pool would load it, if at all, in the workers
    assert loaded("from confit.cli import main\n"
                  f"assert main(['run', '--config', {str(cfg)!r}, '--jobs', '1']) == 0") == "False"
