"""Experiment configuration: a YAML file with dataset, constraint, run, solver
and output blocks. Each block is a dataclass that states its defaults and
checks its ranges; `load_config` reads the blocks by their fields and types."""

from __future__ import annotations

import csv
import functools
import types
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .driver import check_run
from .errors import ConfigError
from .learners import LearnerSpec
from .losses import LossSpec
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

    def __post_init__(self):
        if self.fraction is not None and not 0 < self.fraction <= 1:
            raise ValueError(f"fraction: expected a number in (0, 1], got {self.fraction!r}")
        if self.epsilon is not None and not self.epsilon >= 0:
            raise ValueError(f"epsilon: expected a nonnegative number, got {self.epsilon!r}")
        if self.box is not None and not self.box[0] <= self.box[1]:
            raise ValueError(f"box: lower exceeds upper in {self.box}")


@dataclass(frozen=True)
class RunBlock:
    alphas: tuple[float, ...]
    loss: LossSpec = LossSpec("mse")
    beta: float = 0.1
    iterations: int = 30
    learner: LearnerSpec = LearnerSpec("gbt")
    algorithms: tuple[str, ...] = ("affine_extension",)
    folds: int = 5
    seed: int = 0
    normalization: str = "train"

    def __post_init__(self):
        check_run(self.alphas, self.beta, self.iterations, self.algorithms)
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"normalization: expected one of {NORMALIZATION_MODES}, "
                             f"got {self.normalization!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetBlock
    constraint: ConstraintBlock
    run: RunBlock
    solver: SolverOptions = SolverOptions()
    output_dir: str = "out"
    source_path: str | None = None

    def __post_init__(self):
        # here, not in ConstraintBlock: a set without protected columns needs neither
        if self.dataset.protected and self.constraint.fraction is None \
                and self.constraint.epsilon is None:
            raise ValueError("constraint.fraction: expected a number in (0, 1] when "
                             "dataset.protected is set and constraint.epsilon is not, got None")


def load_config(path) -> ExperimentConfig:
    import yaml  # here, not at the top: `plotdata` and `compare` never parse YAML

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, or a file that may not be read
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}") from None
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: bad UTF-8, dates or numbers
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    # The YAML differs from the dataclasses in three places: `output.directory`
    # is `output_dir`, the box is a mapping, and `epsilon` unsets `fraction`.
    output = _mapping(doc.pop("output", None), "output", {"directory"})
    given = {"source_path": str(path), "output_dir": _value(
        str, output.get("directory", ExperimentConfig.output_dir), "output.directory")}
    if isinstance(constraint := doc.get("constraint"), dict):
        if "epsilon" in constraint:
            constraint.setdefault("fraction", None)
        if constraint.get("box") is not None:
            box = dict(zip(("lower", "upper"), ConstraintBlock.box)) | _mapping(
                constraint["box"], "constraint.box", ("lower", "upper"))
            constraint["box"] = tuple(_value(float, v, f"constraint.box.{k}")
                                      for k, v in box.items())
    cfg = _read(ExperimentConfig, doc, "", **given)
    # here, not in RunBlock: a benchmark's RunBlock may record a single instance
    if cfg.run.folds < 2:
        raise ConfigError(f"run.folds: must be at least 2, got {cfg.run.folds}")
    return cfg


def _read(cls, node, where: str, **values):
    """A `cls` read from the YAML mapping `node` by its fields' types, except
    those given in `values`. An absent field takes its default; each error is
    a ConfigError that names the dotted field."""
    schema = [entry for entry in _schema(cls) if entry[0] not in values]
    node = _mapping(node, where or "config", [name for name, _, _ in schema])
    for name, hint, required in schema:
        at = f"{where}.{name}" if where else name
        if name in node or (required and is_dataclass(hint)):
            values[name] = _value(hint, node.get(name), at)
        elif required:
            raise ConfigError(f"{at}: required field is missing")
    try:
        return cls(**values)
    except ValueError as exc:
        # the checks start their message with the field they reject, if any
        head = str(exc).split(":")[0].split("[")[0]
        joint = "." if any(head == f.name for f in fields(cls)) else ": "
        raise ConfigError(f"{where}{joint}{exc}" if where else str(exc)) from None


@functools.cache
def _schema(cls) -> tuple:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


def _value(hint, value, at: str):
    if isinstance(hint, types.UnionType):  # X | None
        if value is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        return _read(hint, value, at)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{at}: expected a list, got {value!r}")
        args = get_args(hint)
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(kinds) != len(value):
            raise ConfigError(f"{at}: expected {len(kinds)} items, got {len(value)}")
        return tuple(_value(kind, v, f"{at}[{i}]")
                     for i, (kind, v) in enumerate(zip(kinds, value)))
    if hint is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{at}: {value} is out of range for a float") from None
    if type(value) is not hint:
        raise ConfigError(f"{at}: expected {hint.__name__}, got {value!r}")
    return value


def _mapping(node, where: str, keys) -> dict:
    """`node` as a mapping whose keys are among `keys`; None reads as empty."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    unknown = node.keys() - set(keys)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(map(str, unknown))}")
    return node


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
