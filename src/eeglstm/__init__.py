"""From-scratch LSTM toolkit for binary classification of raw single-channel
EEG time series: layers with hand-derived backward passes, Adam, k-fold
evaluation, and a reproduction CLI."""

__version__ = "0.1.0"

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    FoldSplit,
    LabeledSequence,
    PairDataset,
    RecordingSet,
    ToneSpec,
    gen_synthetic,
    kfold_split,
    load_bonn_set,
    make_pair_dataset,
    standardize_dataset,
)
from .harness import (
    EpochRecord,
    ExperimentResult,
    evaluate,
    run_experiment,
    run_reproduction,
    train_model,
)
from .layers import (
    DenseParams,
    LstmLayerParams,
    Model,
    ModelConfig,
    dropout_forward,
    init_params,
    param_count,
)
from .metrics import MetricsReport, confusion_report, roc_auc
from .optim import AdamState, TrainConfig, adam_step, bce_loss

__all__ = [
    "AdamState",
    "DenseParams",
    "EpochRecord",
    "ExperimentResult",
    "FoldSplit",
    "LabeledSequence",
    "LstmLayerParams",
    "MetricsReport",
    "Model",
    "ModelConfig",
    "PairDataset",
    "RecordingSet",
    "ToneSpec",
    "TrainConfig",
    "adam_step",
    "bce_loss",
    "confusion_report",
    "dropout_forward",
    "evaluate",
    "gen_synthetic",
    "init_params",
    "kfold_split",
    "load_bonn_set",
    "load_checkpoint",
    "make_pair_dataset",
    "param_count",
    "roc_auc",
    "run_experiment",
    "run_reproduction",
    "save_checkpoint",
    "standardize_dataset",
    "train_model",
]
