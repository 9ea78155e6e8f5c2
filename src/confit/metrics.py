"""Evaluation quantities: coefficient of determination and fold-aggregated
summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SERIES_NAMES = ("r2_train", "r2_test", "c_train", "c_test")


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - SS_res/SS_tot with SS_tot about the mean of y_true: the
    composition of `total_sum_of_squares`, which depends on y_true alone, and
    `r_squared_given`."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"dimension mismatch: {y_true.shape} vs {y_pred.shape}")
    return r_squared_given(y_true, total_sum_of_squares(y_true), y_pred)


def total_sum_of_squares(y_true: np.ndarray) -> float:
    """SS_tot, the sum of squares of y_true about its mean; a ValueError where
    R^2 is undefined (fewer than two points, or a constant target)."""
    y_true = np.asarray(y_true, dtype=float)
    if y_true.size < 2:
        raise ValueError("r_squared needs at least two points")
    mean = np.add.reduce(y_true, axis=None) / y_true.size  # .mean() without its wrapper
    ss_tot = float(np.add.reduce((y_true - mean) ** 2, axis=None))
    if ss_tot == 0.0:
        raise ValueError("R^2 undefined for a constant target")
    return ss_tot


def r_squared_given(y_true: np.ndarray, ss_tot: float, y_pred: np.ndarray) -> float:
    """R^2 of y_pred against the float array y_true, whose SS_tot is given."""
    ss_res = float(np.add.reduce((y_true - y_pred) ** 2, axis=None))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class FoldSummary:
    """Final metrics per fold plus mean/std aggregates and per-iteration curves."""

    fold_count: int
    iterations: int
    finals: dict[str, np.ndarray]
    mean: dict[str, float]
    std: dict[str, float]
    curve_mean: dict[str, np.ndarray]
    curve_std: dict[str, np.ndarray]
    residual_curve_mean: np.ndarray


def summarize_folds(histories) -> FoldSummary:
    """Aggregate per-fold histories: population std, curves aligned by iteration."""
    if not histories:
        raise ValueError("no histories to summarize")
    lengths = {len(h.records) for h in histories}
    if len(lengths) != 1:
        raise ValueError(f"histories have unequal iteration counts: {sorted(lengths)}")
    finals, mean, std, curve_mean, curve_std = {}, {}, {}, {}, {}
    for name in SERIES_NAMES:
        curves = np.vstack([h.series(name) for h in histories])
        finals[name] = curves[:, -1].copy()
        mean[name] = float(curves[:, -1].mean())
        std[name] = float(curves[:, -1].std())
        curve_mean[name] = curves.mean(axis=0)
        curve_std[name] = curves.std(axis=0)
    residuals = np.vstack([h.series("residual") for h in histories])
    return FoldSummary(
        fold_count=len(histories),
        iterations=residuals.shape[1],
        finals=finals,
        mean=mean,
        std=std,
        curve_mean=curve_mean,
        curve_std=curve_std,
        residual_curve_mean=residuals.mean(axis=0),
    )


def significance_flag(mean_a: float, std_a: float, mean_m: float, std_m: float,
                      higher_is_better: bool = True) -> str:
    """Flag a difference as meaningful when the gap between means is at least
    the sum of the standard deviations (inclusive)."""
    if std_a < 0 or std_m < 0:
        raise ValueError("standard deviations must be nonnegative")
    gap = abs(mean_a - mean_m)
    if mean_a == mean_m or gap < std_a + std_m:
        return "comparable"
    a_wins = mean_a > mean_m if higher_is_better else mean_a < mean_m
    return "A-better" if a_wins else "M-better"
