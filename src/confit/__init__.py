"""Constrained regression by iterative target adjustment.

The package alternates between fitting an unconstrained learner and adjusting
its training targets toward a convex feasible set, with provable-contraction
diagnostics, disparate-impact fairness constraints, a combined-objective
baseline, and a CLI for cross-validated dataset experiments.
"""

from .constraints import (ConstraintSet, build_box, build_didi_constraints,
                          didi_epsilon, didi_value, from_inequalities,
                          intersect, is_member)
from .data import (ColumnRoles, Dataset, ProtectedSpec, RawTable,
                   apply_normalization, build_protected, fold_indices,
                   load_csv, normalize, ordinal_encode)
from .driver import (ContractionVerdict, IterationHistory, IterationRecord,
                     RunConfig, alpha_convert, check_contraction_condition, run)
from .errors import (ConfigError, ConfitError, DataError,
                     InfeasibleConstraintsError)
from .learners import FittedModel, LearnerSpec, fit, predict
from .losses import (LossSpec, loss_value, prox, project_ball)
from .metrics import FoldSummary, r_squared, significance_flag, summarize_folds
from .solver import (ProjectionProblem, SolverOptions, SolverReport,
                     lipschitz_probe, project, project_ball_intersection,
                     project_blend)

__version__ = "0.1.0"

__all__ = [
    "ColumnRoles", "ConfigError", "ConfitError", "ConstraintSet",
    "ContractionVerdict", "DataError", "Dataset", "FittedModel",
    "FoldSummary", "InfeasibleConstraintsError", "IterationHistory",
    "IterationRecord", "LearnerSpec", "LossSpec", "ProjectionProblem",
    "ProtectedSpec", "RawTable", "RunConfig", "SolverOptions", "SolverReport",
    "alpha_convert", "apply_normalization", "build_box", "build_didi_constraints",
    "build_protected", "check_contraction_condition", "didi_epsilon",
    "didi_value", "fit", "fold_indices", "from_inequalities",
    "intersect", "is_member", "lipschitz_probe", "load_csv",
    "loss_value", "normalize", "ordinal_encode", "predict", "project",
    "project_ball", "project_ball_intersection", "project_blend", "prox",
    "r_squared", "run", "significance_flag", "summarize_folds",
]
