"""Face-mask detection: classical face localization feeding a from-scratch
convolutional classifier, plus the training and evaluation machinery around
them.

The pieces compose left to right: a sliding-window cascade proposes face
boxes (:mod:`maskdetect.cascade`), each crop is resized and normalized
(:mod:`maskdetect.data`), a small inception-style network classifies it
(:mod:`maskdetect.nn` on top of the :mod:`maskdetect.tensor` autodiff
core), and :mod:`maskdetect.training` / :mod:`maskdetect.metrics` handle
the two-phase transfer recipe and its scoring.  ``maskdetect.cli`` wires
everything into subcommands.
"""

from .rng import SplitMix64
from .tensor import (
    BatchNormState,
    Parameter,
    Tensor,
    batch_norm2d,
    concat_channels,
    conv2d,
    dropout,
    global_avg_pool,
    gradient_check,
    linear,
    pool2d,
    relu,
    softmax,
    softmax_cross_entropy,
)
from .nn import (
    BackboneConfig,
    HeadConfig,
    Model,
    build_model,
    desk_backbone,
)
from .data import (
    LABEL_NAMES,
    SPLIT_NAMES,
    AugmentConfig,
    DatasetIndex,
    Label,
    Sample,
    apply_split_manifest,
    augment,
    batches,
    load_ppm,
    load_split_manifest,
    normalize,
    resize_bilinear,
    save_ppm,
    save_split_manifest,
    scan_dataset,
    split_dataset,
    synth_dataset,
)
from .cascade import (
    Cascade,
    DetectionBox,
    DetectParams,
    detect,
    eval_window,
    integral_image,
    load_cascade_json,
    load_cascade_xml,
    rect_sum,
    save_cascade_json,
    to_grayscale,
)
from .training import (
    Adam,
    EpochLog,
    EvalResult,
    SweepResult,
    SweepRow,
    TrainConfig,
    TrainResult,
    capture_state,
    evaluate,
    pretrain_backbone,
    restore_state,
    select_best,
    sweep,
    train_epoch,
    two_phase_train,
)
from .metrics import (
    ClassReport,
    ConfusionMatrix,
    accuracy,
    aggregate,
    classification_report,
    confusion,
    precision_recall_f1,
    render_report,
)
from .checkpoint import load_checkpoint, load_into, read_header, save_checkpoint
from .errors import (
    CascadeFormatError,
    CheckpointError,
    ConfigError,
    InputError,
    MaskDetectError,
    MetricError,
    NonFiniteError,
    ParameterError,
    PPMError,
    ShapeError,
    UsageError,
)

__version__ = "0.1.0"

__all__ = [
    "SplitMix64",
    # tensor core
    "Tensor", "Parameter", "BatchNormState", "gradient_check",
    "conv2d", "pool2d", "global_avg_pool", "relu", "linear",
    "concat_channels", "dropout", "batch_norm2d", "softmax",
    "softmax_cross_entropy",
    # model
    "BackboneConfig", "HeadConfig", "Model", "build_model", "desk_backbone",
    # data
    "Label", "LABEL_NAMES", "SPLIT_NAMES", "Sample", "DatasetIndex",
    "AugmentConfig", "scan_dataset", "split_dataset", "synth_dataset",
    "save_split_manifest", "load_split_manifest", "apply_split_manifest",
    "load_ppm", "save_ppm", "resize_bilinear", "normalize", "augment",
    "batches",
    # face localization
    "Cascade", "DetectParams", "DetectionBox", "detect", "eval_window",
    "integral_image", "rect_sum", "to_grayscale",
    "load_cascade_xml", "load_cascade_json", "save_cascade_json",
    # training
    "Adam", "TrainConfig", "TrainResult", "EpochLog", "EvalResult",
    "SweepRow", "SweepResult", "train_epoch", "evaluate",
    "two_phase_train", "pretrain_backbone", "sweep", "select_best",
    "capture_state", "restore_state",
    # metrics
    "ConfusionMatrix", "ClassReport", "confusion", "accuracy",
    "precision_recall_f1", "aggregate", "classification_report",
    "render_report",
    # persistence
    "save_checkpoint", "load_checkpoint", "load_into", "read_header",
    # errors
    "MaskDetectError", "ShapeError", "ParameterError", "UsageError",
    "ConfigError", "InputError", "CheckpointError", "CascadeFormatError",
    "PPMError", "MetricError", "NonFiniteError",
    "__version__",
]
