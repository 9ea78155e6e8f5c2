"""Experiment orchestration: fold preparation, one constraint set per fold, runs
per (algorithm, alpha, fold) on a bounded worker pool, and machine-readable artifacts.

Artifacts per run directory:

* ``history_<algorithm>_<loss>_a<alpha>.jsonl``: one line-delimited record
  stream per (algorithm, alpha), holding a file-level meta line followed by
  every fold's iteration records (tagged with their fold). Format 4 keeps
  only scalars there; the prediction vectors go to the sidecar
  ``history_<algorithm>_<loss>_a<alpha>.f64`` as raw little-endian float64,
  per fold the initial ``yhat``, then ``z`` and ``yhat_next`` per computed
  step (a step's ``yhat`` is the previous step's ``yhat_next``), in the
  manner of NumPy's ``.npy``: a text header, then raw data. The steps from a
  fold's ``repeats_from`` on repeat its last computed step, so they have
  no vectors of their own. A scalar-only read, as ``plotdata`` and
  ``compare`` do, checks the sidecar's size but never opens it. Format 4 is
  the only format read: a file of an older format is a DataError that
  names its format;
* ``summary.csv``: final-metric rows per fold plus mean/std aggregate rows;
* ``run_meta.json``: config echo, seed, and convergence verdicts.

Numbers are serialized with shortest-round-trip formatting, and vectors as
their float64 bytes, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, resolved_dataset_path, validate_dataset_columns
from .constraints import (ConstraintSet, build_box, build_didi_constraints,
                          didi_epsilon, intersect)
from .data import (ColumnRoles, Dataset, apply_normalization, fold_indices,
                   load_csv, normalize, ordinal_encode)
from .driver import IterationHistory, RunConfig, encode_fields, run
from .errors import ConfitError, DataError
from .losses import loss_norm
from .metrics import SERIES_NAMES, FoldSummary, significance_flag, summarize_folds

log = logging.getLogger("confit")


@dataclass(frozen=True)
class FoldData:
    train: Dataset
    test: Dataset


def prepare_folds(cfg: ExperimentConfig) -> list[FoldData]:
    """Load, encode, split, and normalize according to the config. The ranges
    come from the whole table in `full` normalization mode and from each
    training fold in `train` mode; the test fold is scaled by them too."""
    roles = ColumnRoles(target=cfg.dataset.target, drop=cfg.dataset.drop,
                        categorical=cfg.dataset.categorical,
                        protected=cfg.dataset.protected)
    table = load_csv(resolved_dataset_path(cfg), roles)
    if table.dropped_rows:
        log.info("dropped %d rows with missing values", table.dropped_rows)
    table = ordinal_encode(table, [c for c in cfg.dataset.categorical])
    target = cfg.dataset.target
    # in both modes, so that a bad cell is named by its row in the whole table
    full = normalize(table, target)
    by_fold = cfg.run.normalization == "train"

    def attach_protected(ds: Dataset) -> Dataset:
        return ds.with_protected([ds.feature_names.index(name)
                                  for name in cfg.dataset.protected])

    out = []
    for test_rows in fold_indices(table.n, cfg.run.folds, cfg.run.seed):
        in_train = np.ones(table.n, dtype=bool)  # np.setdiff1d would import numpy.ma
        in_train[test_rows] = False
        rows = table.select_rows(np.flatnonzero(in_train))
        train = normalize(rows, target) if by_fold else apply_normalization(rows, target, full)
        test = apply_normalization(table.select_rows(test_rows), target,
                                   train if by_fold else full)
        out.append(FoldData(attach_protected(train), attach_protected(test)))
    return out


def build_constraints(cfg: ExperimentConfig, train: Dataset) -> ConstraintSet:
    parts = []
    if cfg.dataset.protected:
        eps = cfg.constraint.epsilon
        if eps is None:
            eps = didi_epsilon(train.y, train.protected, cfg.constraint.fraction)
            if eps <= 0:  # the fraction is positive, so the training index is zero
                raise DataError("training disparate-impact index is zero; the "
                                "fractional constraint is vacuous")
        parts.append(build_didi_constraints(train.protected, eps, train.n))
    if cfg.constraint.box is not None:
        parts.append(build_box(cfg.constraint.box[0], cfg.constraint.box[1], train.n))
    if not parts:
        raise ConfitError("config declares neither protected columns nor a box; "
                          "there is nothing to constrain")
    cs = parts[0]
    for extra in parts[1:]:
        cs = intersect(cs, extra)
    return cs


def _run_task(args) -> IterationHistory:
    cfg, algorithm, alpha, fold, constraints = args
    run_config = RunConfig(
        alpha=alpha, constraints=constraints, beta=cfg.run.beta,
        iterations=cfg.run.iterations, loss=cfg.run.loss, learner=cfg.run.learner,
        algorithm=algorithm, solver=cfg.solver, seed=cfg.run.seed)
    return run(run_config, fold.train, fold.test)


def format_float(x) -> str:
    return repr(float(x))


def history_filename(algorithm: str, loss_kind: str, alpha: float) -> str:
    return f"history_{algorithm}_{loss_kind}_a{format_float(alpha)}.jsonl"


def run_experiment(cfg: ExperimentConfig, jobs: int = 1,
                   out_dir: str | None = None) -> dict:
    """Execute every (algorithm, alpha, fold) run and write artifacts.

    Each fold's constraint set is built and certified once, for all its tasks.
    Tasks are independent; with jobs > 1 they are dispatched to a process
    pool, and results are always collected in task order so outputs do not
    depend on scheduling. Tasks run algorithm first, then alpha, then fold,
    and no algorithm or alpha repeats (`check_run`), so each (algorithm,
    alpha) pair is one block of `len(folds)` tasks. Its history file is
    written as soon as the block's last fold returns, and only its summary
    rows and meta entry are kept past that.
    """
    validate_dataset_columns(cfg)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    folds = prepare_folds(cfg)
    sets = [build_constraints(cfg, fold.train) for fold in folds]
    tasks = [(cfg, algorithm, alpha, fold, cs)
             for algorithm in cfg.run.algorithms
             for alpha in cfg.run.alphas
             for fold, cs in zip(folds, sets)]
    log.info("running %d tasks (%d algorithms x %d alphas x %d folds), jobs=%d",
             len(tasks), len(cfg.run.algorithms), len(cfg.run.alphas), len(folds), jobs)
    with contextlib.ExitStack() as stack:
        if jobs > 1:
            import concurrent.futures  # here, not at the top: read processes never need it

            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=jobs))
            results = pool.map(_run_task, tasks)
        else:
            results = map(_run_task, tasks)
        written = [_write_group(out, cfg, algorithm, alpha, [next(results) for _ in folds])
                   for algorithm in cfg.run.algorithms for alpha in cfg.run.alphas]

    _write_summary_csv(out / "summary.csv", [row for _, rows, _ in written for row in rows])
    meta = {
        "config": encode_fields(cfg, exclude=("output_dir", "source_path")),
        "seed": cfg.run.seed,
        "runs": [entry for _, _, entry in written],
    }
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return {"histories": [path for path, _, _ in written],
            "summary": str(out / "summary.csv"), "meta": str(out / "run_meta.json")}


def _write_group(out: Path, cfg: ExperimentConfig, algorithm: str, alpha: float,
                 histories: list[IterationHistory]) -> tuple[str, list, dict]:
    """Write one (algorithm, alpha) history file; returns its path, its
    summary rows and its `run_meta.json` entry."""
    fname = history_filename(algorithm, cfg.run.loss.kind, alpha)
    write_history_file(out / fname, cfg, algorithm, alpha, histories)
    summary = summarize_folds(histories)
    rows = [(algorithm, alpha, j, "fold", {name: summary.finals[name][j]
                                           for name in SERIES_NAMES})
            for j in range(len(histories))]
    rows += [(algorithm, alpha, "", "mean", summary.mean),
             (algorithm, alpha, "", "std", summary.std)]
    entry = {"algorithm": algorithm, "alpha": alpha, "history_file": fname,
             "verdict": encode_fields(histories[0].verdict),
             "branch_counts": [h.branch_counts for h in histories]}
    return str(out / fname), rows, entry


def sidecar_path(path) -> Path:
    """The raw float64 file that holds a history's vectors."""
    return Path(path).with_suffix(".f64")


def write_history_file(path, cfg: ExperimentConfig, algorithm: str, alpha: float,
                       histories: list[IterationHistory]) -> None:
    """Write one history in format 4: the scalar records to `path`, and the
    vectors of the computed steps to `sidecar_path(path)` as raw
    little-endian float64."""
    rows = [int(h.initial.yhat.size) for h in histories]
    filemeta = {
        "type": "filemeta",
        "format": 4,
        "algorithm": algorithm,
        "alpha": alpha,
        "beta": cfg.run.beta,
        "iterations": cfg.run.iterations,
        "loss": encode_fields(cfg.run.loss),
        "folds": len(histories),
        "seed": cfg.run.seed,
        "dataset": {
            "path": cfg.dataset.path,
            "target": cfg.dataset.target,
            "rows_train_fold0": rows[0],
        },
        "verdict": encode_fields(histories[0].verdict),
        "vectors": {"rows": rows, "bytes": _vector_bytes(rows, histories)},
    }
    with open(path, "w", encoding="utf-8") as fh, open(sidecar_path(path), "wb") as raw:
        fh.write(json.dumps(filemeta) + "\n")
        for j, history in enumerate(histories):
            for record in history.to_records():
                fh.write(json.dumps({"fold": j, **record}) + "\n")
            for vector in history.vectors():
                raw.write(np.ascontiguousarray(vector, dtype="<f8").data)


def _vector_bytes(rows: list[int], histories: list[IterationHistory]) -> int:
    """Sidecar size: per fold, 1 + 2 * computed steps vectors of that fold's
    length."""
    return sum(8 * n * (1 + 2 * len(h.computed)) for n, h in zip(rows, histories))


def load_history_file(path, vectors: bool = True) -> tuple[dict, list[IterationHistory]]:
    """Read a format-4 history back; a malformed file, or one of another
    format, raises DataError naming it. The sidecar must exist and have the
    size the file meta records; it is read only with `vectors`, and without
    it the histories' arrays are None. With them, each fold's first residual
    must follow from its vectors, a fold's repeated steps must repeat an
    exact fixed point, and fold 0 have the rows the meta records."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such history file: {path}")
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise DataError(f"{path}: line {lineno} is not valid JSON") from None
            if not isinstance(record, dict):
                raise DataError(f"{path}: line {lineno} is not a JSON object")
            records.append(record)
    if not records or records[0].get("type") != "filemeta":
        raise DataError(f"{path}: not a history file (missing filemeta line)")
    filemeta = records[0]
    version = filemeta.get("format")
    if type(version) is not int or version != 4:
        raise DataError(f"{path}: history format {version!r}; only format 4 is read")
    if any(r.get("type") == "filemeta" for r in records[1:]):
        raise DataError(f"{path}: holds more than one history; one history per file")
    histories = _decode_folds(path, filemeta, records[1:])
    lengths = sorted({len(h.records) for h in histories})
    if len(lengths) > 1:
        raise DataError(f"{path}: folds have unequal iteration counts {lengths}")
    rows = _check_sidecar(path, filemeta, histories)
    if vectors:
        # one read, after every record check; each fold's vectors are rows of a view into it
        data = np.fromfile(sidecar_path(path), dtype="<f8")
        offset = 0
        for j, (n, history) in enumerate(zip(rows, histories)):
            count = 1 + 2 * len(history.computed)
            try:
                history.set_vectors(data[offset:offset + count * n].reshape(count, n))
            except DataError as exc:
                raise DataError(f"{path}: fold {j}: {exc}") from None
            offset += count * n
            step = history.records[0] if history.records else None
            if step is not None and not math.isclose(  # norms may differ in the last bits
                    loss_norm(history.loss, step.yhat_next - step.yhat), step.residual,
                    rel_tol=1e-9):
                raise DataError(f"{path}: fold {j}: its vectors do not give its first "
                                "step's residual; the file meta's rows misframe the sidecar")
        dataset = filemeta.get("dataset")
        if not isinstance(dataset, dict) or dataset.get("rows_train_fold0") != rows[0]:
            raise DataError(f"{path}: fold 0 has {rows[0]} rows, the file meta's dataset "
                            "entry records another count")
    return filemeta, histories


def _decode_folds(path, filemeta, records) -> list[IterationHistory]:
    """The folds decoded without their vectors: tagged 0, 1, ..., k - 1 in file
    order, each in one run of records, with k the file meta's `folds`."""
    folds: list[list[dict]] = []
    for rec in records:
        tag = rec.pop("fold", None)
        if type(tag) is int and tag == len(folds):
            folds.append([])
        elif type(tag) is not int or not folds or tag != len(folds) - 1:
            raise DataError(f"{path}: fold tag {tag!r} out of order; the folds are tagged "
                            "0, 1, ... in file order, each in one run of records")
        folds[-1].append(rec)
    if not folds:
        raise DataError(f"{path}: holds no folds")
    histories = []
    for j, fold in enumerate(folds):
        try:
            history = IterationHistory.from_records(fold)
        except DataError as exc:
            raise DataError(f"{path}: fold {j}: {exc}") from None
        if history.algorithm != filemeta.get("algorithm") or \
                history.alpha != filemeta.get("alpha"):
            raise DataError(f"{path}: fold {j} disagrees with the file meta; "
                            "one history per file")
        histories.append(history)
    if type(filemeta.get("folds")) is not int or filemeta["folds"] != len(folds):
        raise DataError(f"{path}: the file meta states {filemeta.get('folds')!r} folds, "
                        f"the records hold {len(folds)}")
    return histories


def _check_sidecar(path, filemeta, histories) -> list[int]:
    """The sidecar exists and holds the vectors the records call for; returns
    each fold's vector length."""
    meta = filemeta.get("vectors")
    rows = meta.get("rows") if isinstance(meta, dict) else None
    if not isinstance(rows, list) or len(rows) != len(histories) \
            or not all(type(n) is int and n >= 0 for n in rows) \
            or meta.get("bytes") != _vector_bytes(rows, histories):
        raise DataError(f"{path}: the file meta's 'vectors' entry does not match "
                        "the records")
    sidecar = sidecar_path(path)
    try:
        size = sidecar.stat().st_size
    except FileNotFoundError:
        raise DataError(f"{sidecar}: missing; it holds the vectors of {path}") from None
    if size != meta["bytes"]:
        raise DataError(f"{sidecar}: holds {size} bytes, the vectors of {path} take "
                        f"{meta['bytes']}")
    return rows


def _write_summary_csv(path, rows) -> None:
    """`rows` holds (algorithm, alpha, fold, kind, {series name: value}) tuples."""
    lines = [",".join(["algorithm", "alpha", "fold", "kind", *SERIES_NAMES])]
    for algorithm, alpha, fold, kind, values in rows:
        lines.append(",".join([algorithm, format_float(alpha), str(fold), kind,
                               *(_csv_number(values[name]) for name in SERIES_NAMES)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def plotdata_rows(histories: list[IterationHistory]) -> list[str]:
    """Per-iteration mean/std rows for the training-split metrics, ready to plot."""
    summary: FoldSummary = summarize_folds(histories)
    lines = ["iteration,r2_mean,r2_std,c_mean,c_std,residual_mean"]
    iters = len(summary.curve_mean["r2_train"])
    for i in range(iters):
        cells = [str(i),
                 _csv_number(summary.curve_mean["r2_train"][i]),
                 _csv_number(summary.curve_std["r2_train"][i]),
                 _csv_number(summary.curve_mean["c_train"][i]),
                 _csv_number(summary.curve_std["c_train"][i]),
                 _csv_number(summary.residual_curve_mean[i - 1]) if i >= 1 else ""]
        lines.append(",".join(cells))
    return lines


def _csv_number(x) -> str:
    return "" if isinstance(x, float) and np.isnan(x) else format_float(x)


def compare_rows(meta_a: dict, hist_a: list[IterationHistory],
                 meta_b: dict, hist_b: list[IterationHistory]) -> list[str]:
    """Per-metric comparison table with significance flags."""
    for key in ("loss", "alpha", "beta", "iterations", "folds", "dataset"):
        if meta_a.get(key) != meta_b.get(key):
            raise DataError(f"mismatched protocols: {key} differs "
                            f"({meta_a.get(key)!r} vs {meta_b.get(key)!r})")
    sa = summarize_folds(hist_a)
    sb = summarize_folds(hist_b)
    lines = ["metric,mean_a,std_a,mean_b,std_b,flag"]
    for name in SERIES_NAMES:
        stats = (sa.mean[name], sa.std[name], sb.mean[name], sb.std[name])
        if any(np.isnan(v) for v in stats):
            flag = "comparable"  # metric undefined on this data (e.g. no protected columns)
        else:
            flag = significance_flag(*stats, higher_is_better=name.startswith("r2"))
        lines.append(",".join([name, *(format_float(v) for v in stats), flag]))
    return lines
