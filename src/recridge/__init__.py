"""Exemplar-free class-incremental learning via recursive ridge regression.

The package is organized as:

* ``dense_linalg``       float64 matrix kernel with SPD solves
* ``random_projection``  frozen seeded feature expansion
* ``rilm``               the recursive learner, its joint-fit reference, checkpoints
* ``fusion``             attention-weighted two-modality feature fusion
* ``cil_harness``        schedules, synthetic data, configs, pipelines, metrics
* ``fmat``               FMAT/LABL text formats and atomic file writes
* ``errors``             exception types and their exit codes
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
    gradient_check,
)
from .random_projection import RpLayer, rp_forward, rp_new
from .rilm import (
    PhaseDataset,
    RilmState,
    batch_oracle,
    empty_state,
    predict_ids,
    rilm_update,
)

__version__ = "0.1.0"

__all__ = [
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
    "empty_state",
    "even_schedule",
    "fused_features",
    "fusion_backward",
    "fusion_forward",
    "fusion_init",
    "gradient_check",
    "load_config",
    "load_features",
    "load_labels",
    "predict_ids",
    "prepare_experiment",
    "rilm_update",
    "rp_forward",
    "rp_new",
    "run_pipeline",
    "save_features",
    "save_labels",
    "shuffled_schedule",
    "synth_dataset",
]
