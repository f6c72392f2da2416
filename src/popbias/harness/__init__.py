"""Experiment orchestration: tuning, evaluation runs, and recorded-data analysis."""

from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    GroupMetrics,
    ModelEvaluation,
    ModelSpec,
    build_model,
    default_ap_k,
    emit_tail_plot_data,
    evaluate_model,
    run_experiment,
    tune,
)
from .gapcalc import (
    GapcalcReport,
    GapEntry,
    SimulatedRecords,
    gapcalc,
    read_simulated_records,
    welch_one_tailed,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "GapEntry",
    "GapcalcReport",
    "GroupMetrics",
    "ModelEvaluation",
    "ModelSpec",
    "SimulatedRecords",
    "build_model",
    "default_ap_k",
    "emit_tail_plot_data",
    "evaluate_model",
    "gapcalc",
    "read_simulated_records",
    "run_experiment",
    "tune",
    "welch_one_tailed",
]
