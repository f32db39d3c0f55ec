"""Data-driven synthesis and interval verification of k-inductive neural barrier certificates."""

from .expr import (
    Box, Const, Expr, Tape, Var,
    eval_interval, eval_point, format_expr, parse_expr, substitute,
)
from .dynamics import (
    DataDrivenModel, ExprMap, RankDeficientData,
    build_model, collect_trajectory, trajectory_from_csv,
)
from .learner import (
    DatasetTriple, NetworkParams, TrainConfig, TrainingDiverged,
    gradient, init_params, loss, mixed_sin_cos, sample_dataset, train,
)
from .verifier import (
    KBCSpec, SafetySpec, Verdict, VerificationTask, check_point, condition_exprs, verify,
)
from .cegis import CegisConfig, CegisReport, augment, run
from .configs import BUILTIN_NAMES, CaseStudyConfig, ConfigError, builtin_config, load_config

__version__ = "0.1.0"
