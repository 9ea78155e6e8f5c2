"""Experiment configuration: a YAML file with dataset, constraint, run,
solver, and output blocks, validated with field-level messages."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .driver import ALGORITHMS
from .errors import ConfigError
from .learners import LEARNER_KINDS, LearnerSpec
from .losses import LOSS_KINDS, LossSpec
from .solver import SolverOptions

NORMALIZATION_MODES = ("train", "full")


@dataclass(frozen=True)
class DatasetBlock:
    path: str
    target: str
    protected: tuple[str, ...] = ()
    drop: tuple[str, ...] = ()
    categorical: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConstraintBlock:
    fraction: float | None = 0.2
    epsilon: float | None = None
    box: tuple[float, float] | None = (0.0, 1.0)


@dataclass(frozen=True)
class RunBlock:
    loss: LossSpec
    alphas: tuple[float, ...]
    beta: float = 0.1
    iterations: int = 30
    learner: LearnerSpec = LearnerSpec("gbt")
    algorithms: tuple[str, ...] = ("affine_extension",)
    folds: int = 5
    seed: int = 0
    normalization: str = "train"


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetBlock
    constraint: ConstraintBlock
    run: RunBlock
    solver: SolverOptions = SolverOptions()
    output_dir: str = "out"
    source_path: str | None = None


def _expect_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


_REQUIRED = object()


def _take(node: dict, where: str, key: str, kind, default=_REQUIRED):
    if key not in node:
        if default is _REQUIRED:
            raise ConfigError(f"{where}.{key}: required field is missing")
        return default
    value = node.pop(key)
    bad_bool = isinstance(value, bool) and kind is not bool
    if not isinstance(value, kind) or bad_bool:
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"{where}.{key}: expected {names}, got {value!r}")
    return value


def _reject_unknown(node: dict, where: str):
    if node:
        raise ConfigError(f"{where}: unknown field(s) {sorted(node)}")


def _str_tuple(node, where) -> tuple[str, ...]:
    if node is None:
        return ()
    if not isinstance(node, list) or not all(isinstance(v, str) for v in node):
        raise ConfigError(f"{where}: expected a list of strings")
    return tuple(node)


def load_config(path) -> ExperimentConfig:
    import yaml  # here, not at the top: `plotdata` and `compare` never parse YAML

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    doc = dict(doc)

    ds_node = dict(_expect_mapping(doc.pop("dataset", None), "dataset"))
    dataset = DatasetBlock(
        path=_take(ds_node, "dataset", "path", str),
        target=_take(ds_node, "dataset", "target", str),
        protected=_str_tuple(ds_node.pop("protected", None), "dataset.protected"),
        drop=_str_tuple(ds_node.pop("drop", None), "dataset.drop"),
        categorical=_str_tuple(ds_node.pop("categorical", None), "dataset.categorical"),
    )
    _reject_unknown(ds_node, "dataset")

    c_node = dict(_expect_mapping(doc.pop("constraint", None), "constraint"))
    fraction = c_node.pop("fraction", 0.2 if "epsilon" not in c_node else None)
    epsilon = c_node.pop("epsilon", None)
    if fraction is not None:
        if not isinstance(fraction, (int, float)) or isinstance(fraction, bool) \
                or not 0 < float(fraction) <= 1:
            raise ConfigError(f"constraint.fraction: expected a number in (0, 1], got {fraction!r}")
        fraction = float(fraction)
    if epsilon is not None:
        if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool) or float(epsilon) < 0:
            raise ConfigError(f"constraint.epsilon: expected a nonnegative number, got {epsilon!r}")
        epsilon = float(epsilon)
    box_node = c_node.pop("box", {"lower": 0.0, "upper": 1.0})
    if box_node is None:
        box = None
    else:
        box_node = dict(_expect_mapping(box_node, "constraint.box"))
        box = (_take(box_node, "constraint.box", "lower", (int, float), 0.0),
               _take(box_node, "constraint.box", "upper", (int, float), 1.0))
        _reject_unknown(box_node, "constraint.box")
        if box[0] > box[1]:
            raise ConfigError("constraint.box: lower exceeds upper")
        box = (float(box[0]), float(box[1]))
    _reject_unknown(c_node, "constraint")
    constraint = ConstraintBlock(fraction=fraction, epsilon=epsilon, box=box)

    r_node = dict(_expect_mapping(doc.pop("run", None), "run"))
    loss_node = dict(_expect_mapping(r_node.pop("loss", {"kind": "mse"}), "run.loss"))
    loss_kind = _take(loss_node, "run.loss", "kind", str)
    if loss_kind not in LOSS_KINDS:
        raise ConfigError(f"run.loss.kind: must be one of {LOSS_KINDS}, got {loss_kind!r}")
    huber_m = _take(loss_node, "run.loss", "huber_m", (int, float), 0.1)
    _reject_unknown(loss_node, "run.loss")
    loss = LossSpec(loss_kind, float(huber_m))

    alphas_node = r_node.pop("alphas", None)
    if not isinstance(alphas_node, list) or not alphas_node:
        raise ConfigError("run.alphas: expected a nonempty list of numbers")
    alphas = []
    for i, a in enumerate(alphas_node):
        if not isinstance(a, (int, float)) or isinstance(a, bool) or not 0 <= float(a) < 1:
            raise ConfigError(f"run.alphas[{i}]: expected a number in [0, 1), got {a!r}")
        alphas.append(float(a))

    l_node = dict(_expect_mapping(r_node.pop("learner", {"kind": "gbt"}), "run.learner"))
    learner_kind = _take(l_node, "run.learner", "kind", str)
    if learner_kind not in LEARNER_KINDS:
        raise ConfigError(f"run.learner.kind: must be one of {LEARNER_KINDS}, got {learner_kind!r}")
    try:
        learner = LearnerSpec(
            kind=learner_kind,
            ridge_lambda=float(_take(l_node, "run.learner", "ridge_lambda", (int, float), 0.0)),
            n_trees=_take(l_node, "run.learner", "n_trees", int, 50),
            max_depth=_take(l_node, "run.learner", "max_depth", int, 3),
            learning_rate=float(_take(l_node, "run.learner", "learning_rate", (int, float), 0.1)),
            min_samples_leaf=_take(l_node, "run.learner", "min_samples_leaf", int, 5),
            seed=_take(l_node, "run.learner", "seed", int, 0),
        )
    except ValueError as exc:
        raise ConfigError(f"run.learner: {exc}") from exc
    _reject_unknown(l_node, "run.learner")

    algorithms = r_node.pop("algorithms", ["affine_extension"])
    algorithms = _str_tuple(algorithms, "run.algorithms")
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ConfigError(f"run.algorithms: unknown algorithm {name!r}")
    if not algorithms:
        raise ConfigError("run.algorithms: need at least one algorithm")

    beta = _take(r_node, "run", "beta", (int, float), 0.1)
    if beta < 0:
        raise ConfigError(f"run.beta: must be nonnegative, got {beta}")
    iterations = _take(r_node, "run", "iterations", int, 30)
    if iterations < 1:
        raise ConfigError(f"run.iterations: must be at least 1, got {iterations}")
    folds = _take(r_node, "run", "folds", int, 5)
    if folds < 2:
        raise ConfigError(f"run.folds: must be at least 2, got {folds}")
    seed = _take(r_node, "run", "seed", int, 0)
    normalization = _take(r_node, "run", "normalization", str, "train")
    if normalization not in NORMALIZATION_MODES:
        raise ConfigError(f"run.normalization: must be one of {NORMALIZATION_MODES}")
    _reject_unknown(r_node, "run")
    run = RunBlock(loss=loss, alphas=tuple(alphas), beta=float(beta), iterations=iterations,
                   learner=learner, algorithms=algorithms, folds=folds, seed=seed,
                   normalization=normalization)

    s_node = dict(_expect_mapping(doc.pop("solver", None), "solver"))
    solver = SolverOptions(
        tolerance=float(_take(s_node, "solver", "tolerance", (int, float), 1e-7)),
        max_iterations=_take(s_node, "solver", "max_iterations", int, 20000),
        warm_start=_take(s_node, "solver", "warm_start", bool, True),
    )
    if solver.tolerance <= 0 or solver.max_iterations < 1:
        raise ConfigError("solver: tolerance must be positive and max_iterations at least 1")
    _reject_unknown(s_node, "solver")

    o_node = dict(_expect_mapping(doc.pop("output", None), "output"))
    output_dir = _take(o_node, "output", "directory", str, "out")
    _reject_unknown(o_node, "output")
    _reject_unknown(doc, "config")

    return ExperimentConfig(dataset=dataset, constraint=constraint, run=run,
                            solver=solver, output_dir=output_dir, source_path=str(path))


def validate_dataset_columns(cfg: ExperimentConfig) -> list[str]:
    """Check the dataset file exists and every referenced column is in its
    header; returns the header. Raises ConfigError otherwise."""
    path = resolved_dataset_path(cfg)
    if not path.exists():
        raise ConfigError(f"dataset.path: no such file: {cfg.dataset.path}")
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if not header:
        raise ConfigError(f"dataset.path: {path} has no header row")
    header = [h.strip() for h in header]
    for field_name, names in (("target", (cfg.dataset.target,)),
                              ("protected", cfg.dataset.protected),
                              ("drop", cfg.dataset.drop),
                              ("categorical", cfg.dataset.categorical)):
        for name in names:
            if name not in header:
                raise ConfigError(f"dataset.{field_name}: column {name!r} not in {path}")
    for name in cfg.dataset.protected:
        if name in cfg.dataset.drop:
            raise ConfigError(f"dataset.protected: column {name!r} is also dropped")
        if name == cfg.dataset.target:
            raise ConfigError(f"dataset.protected: column {name!r} is the target")
    if cfg.dataset.target in cfg.dataset.drop:
        raise ConfigError("dataset.target: the target column cannot be dropped")
    return header


def resolved_dataset_path(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.dataset.path)
    if not path.is_absolute() and cfg.source_path is not None:
        candidate = Path(cfg.source_path).parent / path
        if candidate.exists():
            return candidate
    return path
