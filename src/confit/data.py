"""Tabular ingestion: CSV loading, ordinal encoding, [0,1] normalization,
protected-feature grouping, and deterministic k-fold splitting."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError

DEFAULT_MISSING = ("", "na", "nan", "n/a", "null", "?")

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ColumnRoles:
    """Column-role declaration for a CSV file."""

    target: str
    drop: tuple[str, ...] = ()
    categorical: tuple[str, ...] = ()
    protected: tuple[str, ...] = ()
    missing_markers: tuple[str, ...] = DEFAULT_MISSING


@dataclass
class RawTable:
    """Parsed delimited text: header names plus a grid of string/numeric cells."""

    columns: list[str]
    rows: list[list]
    dropped_rows: int = 0
    encodings: dict[int, dict] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.columns)

    def column_index(self, name_or_index) -> int:
        if isinstance(name_or_index, str):
            try:
                return self.columns.index(name_or_index)
            except ValueError:
                raise DataError(f"no column named {name_or_index!r}") from None
        idx = int(name_or_index)
        if not 0 <= idx < self.d:
            raise DataError(f"column index {idx} out of range for {self.d} columns")
        return idx

    def column(self, name_or_index) -> list:
        j = self.column_index(name_or_index)
        return [row[j] for row in self.rows]

    def select_rows(self, indices) -> "RawTable":
        rows = [self.rows[i] for i in indices]
        return RawTable(list(self.columns), rows, 0, dict(self.encodings))


@dataclass(frozen=True)
class ProtectedSpec:
    """One protected feature: encoded value -> 0-based row indices of that group."""

    feature_index: int
    groups: dict[int, np.ndarray]

    def group_values(self) -> list[int]:
        return sorted(self.groups)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix and target in normalized [0,1] space, with the per-column
    (min, max) ranges needed to invert the normalization."""

    x: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    feature_ranges: list[tuple[float, float]]
    target_name: str
    target_range: tuple[float, float]
    protected: tuple[ProtectedSpec, ...] = ()

    def __post_init__(self):
        x, y = self.x, self.y
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise DataError(f"inconsistent shapes: x {x.shape}, y {y.shape}")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise DataError("dataset must have at least one row and one feature")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DataError("dataset contains non-finite values")
        tol = 1e-12
        if x.min() < -tol or x.max() > 1 + tol or y.min() < -tol or y.max() > 1 + tol:
            raise DataError("dataset values must lie in [0,1]")
        for spec in self.protected:
            if not 0 <= spec.feature_index < x.shape[1]:
                raise DataError(f"protected feature index {spec.feature_index} out of range")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def feature_column_raw(self, index: int) -> np.ndarray:
        """Inverse-transform one feature column back to its original scale."""
        lo, hi = self.feature_ranges[index]
        return self.x[:, index] * (hi - lo) + lo

    def target_raw(self) -> np.ndarray:
        lo, hi = self.target_range
        return self.y * (hi - lo) + lo

    def with_protected(self, feature_indices) -> "Dataset":
        return replace(self, protected=build_protected(self, feature_indices))


def load_csv(path, roles: ColumnRoles) -> RawTable:
    """Read a header-first CSV, drop configured columns, and drop any row with a
    missing value in the retained columns (the count is kept on the table)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    markers = {m.lower() for m in roles.missing_markers}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty table")
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names in header")
            for name in (roles.target, *roles.drop, *roles.categorical, *roles.protected):
                if name not in header:
                    raise DataError(f"{path}: declared column {name!r} not in header {header}")
            keep = [j for j, name in enumerate(header) if name not in roles.drop]
            columns = [header[j] for j in keep]
            rows: list[list] = []
            dropped = 0
            for lineno, raw in enumerate(reader, start=2):
                if len(raw) > len(header):
                    raise DataError(f"{path}: line {lineno}: {len(raw)} cells but {len(header)} columns")
                if len(raw) < len(header):
                    dropped += 1  # short row: treat the tail as missing
                    continue
                cells = [raw[j].strip() for j in keep]
                if any(c.lower() in markers for c in cells):
                    dropped += 1
                    continue
                rows.append(cells)
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty table")
    return RawTable(columns, rows, dropped_rows=dropped)


def ordinal_encode(table: RawTable, categorical_columns) -> RawTable:
    """Map each categorical column's distinct values to 0,1,2,... in order of
    first appearance; the mapping is recorded on the returned table."""
    cols = [table.column_index(c) for c in categorical_columns]
    rows = [list(r) for r in table.rows]
    encodings = dict(table.encodings)
    for j in cols:
        mapping: dict = {}
        for row in rows:
            val = row[j]
            if val not in mapping:
                mapping[val] = len(mapping)
            row[j] = mapping[val]
        encodings[j] = mapping
    return RawTable(list(table.columns), rows, table.dropped_rows, encodings)


def _to_float(cell, column: str, rownum: int) -> float:
    if isinstance(cell, (int, float)):
        return float(cell)
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise DataError(
            f"non-numeric cell {cell!r} in column {column!r}, row {rownum}"
        ) from None


def _float_grid(table: RawTable) -> np.ndarray:
    grid = np.empty((table.n, table.d), dtype=float)
    for i, row in enumerate(table.rows):
        for j, cell in enumerate(row):
            grid[i, j] = _to_float(cell, table.columns[j], i + 1)
    return grid


def _normalize_column(values: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros_like(values), (lo, hi)
    return (values - lo) / (hi - lo), (lo, hi)


def normalize(table: RawTable, target_column) -> Dataset:
    """Map every column affinely onto [0,1] (constant columns to 0.0) and split
    off the target, keeping the (min, max) pairs for the inverse transform."""
    tgt = table.column_index(target_column)
    grid = _float_grid(table)
    feature_cols = [j for j in range(table.d) if j != tgt]
    x = np.empty((table.n, len(feature_cols)))
    ranges = []
    for out_j, j in enumerate(feature_cols):
        x[:, out_j], rng = _normalize_column(grid[:, j])
        ranges.append(rng)
    y, y_range = _normalize_column(grid[:, tgt])
    return Dataset(
        x=x,
        y=y,
        feature_names=[table.columns[j] for j in feature_cols],
        feature_ranges=ranges,
        target_name=table.columns[tgt],
        target_range=y_range,
    )


def apply_normalization(table: RawTable, target_column, reference: Dataset) -> Dataset:
    """Normalize `table` using the ranges fitted on `reference` (matched by
    column name), clipping into [0,1]; used for held-out folds."""
    tgt = table.column_index(target_column)
    if table.columns[tgt] != reference.target_name:
        raise DataError(
            f"target column {table.columns[tgt]!r} does not match reference {reference.target_name!r}"
        )
    feature_cols = [j for j in range(table.d) if j != tgt]
    names = [table.columns[j] for j in feature_cols]
    if names != reference.feature_names:
        raise DataError("feature columns do not match the reference dataset")
    grid = _float_grid(table)

    def apply_range(values, rng):
        lo, hi = rng
        if hi == lo:
            return np.zeros_like(values)
        return np.clip((values - lo) / (hi - lo), 0.0, 1.0)

    x = np.column_stack([
        apply_range(grid[:, j], reference.feature_ranges[out_j])
        for out_j, j in enumerate(feature_cols)
    ])
    y = apply_range(grid[:, tgt], reference.target_range)
    return Dataset(
        x=x,
        y=y,
        feature_names=list(reference.feature_names),
        feature_ranges=list(reference.feature_ranges),
        target_name=reference.target_name,
        target_range=reference.target_range,
    )


def _group_rows(raw_values: np.ndarray) -> dict[int, np.ndarray]:
    codes = np.rint(raw_values).astype(int)
    return {int(v): np.flatnonzero(codes == v) for v in sorted(set(codes.tolist()))}


def build_protected(dataset: Dataset, feature_indices) -> tuple[ProtectedSpec, ...]:
    """Group rows of each listed feature by its encoded value.

    Works on the inverse-transformed (pre-normalization) values so group
    identities are stable across fold-specific normalizations.
    """
    specs = []
    for idx in feature_indices:
        idx = int(idx)
        if not 0 <= idx < dataset.d:
            raise DataError(f"protected feature index {idx} out of range")
        raw = dataset.feature_column_raw(idx)
        groups = _group_rows(raw)
        if len(groups) > dataset.n / 2:
            raise DataError(
                f"feature {dataset.feature_names[idx]!r} appears continuous "
                f"({len(groups)} distinct values in {dataset.n} rows); refuse protected grouping"
            )
        specs.append(ProtectedSpec(idx, groups))
    return tuple(specs)


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def shuffled_indices(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n) driven by a splitmix64 stream, so
    the shuffle is reproducible independently of any library RNG."""
    idx = np.arange(n)
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        state, word = _splitmix64(state)
        j = word % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Partition range(n) into k shuffled folds with sizes differing by at most 1."""
    if k < 2:
        raise DataError(f"k must be at least 2, got {k}")
    if k > n:
        raise DataError(f"cannot split {n} rows into {k} folds")
    perm = shuffled_indices(n, seed)
    return [np.sort(perm[j::k]) for j in range(k)]
