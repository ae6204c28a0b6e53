"""Exemplar-free class-incremental learning via recursive ridge regression.

The package is organized as:

* ``dense_linalg``       float64 matrix kernel with SPD solves
* ``random_projection``  frozen seeded feature expansion
* ``rilm``               the recursive learner and its joint-fit reference
* ``fusion``             attention-weighted two-modality feature fusion
* ``cil_harness``        schedules, synthetic data, pipelines, metrics, file formats
* ``cli``                command-line interface (``recridge ...``)
"""

from .cil_harness import (
    ExperimentConfig,
    Experiment,
    MetricsReport,
    PhaseSchedule,
    compute_metrics,
    even_schedule,
    load_config,
    load_features,
    load_labels,
    prepare_experiment,
    run_pipeline,
    save_features,
    save_labels,
    shuffled_schedule,
    synth_dataset,
)
from .dense_linalg import Matrix
from .errors import (
    DivergenceError,
    NotPositiveDefiniteError,
    NumericalError,
    ParseError,
    ProtocolError,
    RecridgeError,
    ShapeError,
    ValidationError,
)
from .fusion import (
    FusedBatch,
    FusionGradients,
    FusionParams,
    fused_features,
    fusion_backward,
    fusion_forward,
    fusion_init,
    fusion_train,
    gradient_check,
)
from .random_projection import RpLayer, rp_forward, rp_from_weights, rp_new
from .rilm import (
    CorrelationStats,
    PhaseDataset,
    RilmState,
    batch_oracle,
    correlation_stats,
    expand_classes,
    kn_identity_check,
    predict,
    predict_ids,
    rilm_init,
    rilm_update,
    update_r,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationStats",
    "DivergenceError",
    "Experiment",
    "ExperimentConfig",
    "FusedBatch",
    "FusionGradients",
    "FusionParams",
    "Matrix",
    "MetricsReport",
    "NotPositiveDefiniteError",
    "NumericalError",
    "ParseError",
    "PhaseDataset",
    "PhaseSchedule",
    "ProtocolError",
    "RecridgeError",
    "RilmState",
    "RpLayer",
    "ShapeError",
    "ValidationError",
    "batch_oracle",
    "compute_metrics",
    "correlation_stats",
    "even_schedule",
    "expand_classes",
    "fused_features",
    "fusion_backward",
    "fusion_forward",
    "fusion_init",
    "fusion_train",
    "gradient_check",
    "kn_identity_check",
    "load_config",
    "load_features",
    "load_labels",
    "predict",
    "predict_ids",
    "prepare_experiment",
    "rilm_init",
    "rilm_update",
    "rp_forward",
    "rp_from_weights",
    "rp_new",
    "run_pipeline",
    "save_features",
    "save_labels",
    "shuffled_schedule",
    "synth_dataset",
    "update_r",
]
