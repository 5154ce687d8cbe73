"""Piano dynamics, change-point, beat and downbeat estimation from audio."""

__version__ = "0.1.0"

from .audio import (  # noqa: F401
    bssl,
    decode_and_prepare,
    extract_features,
    log_mel,
    stft_power,
    total_loudness,
)
from .network import DynamicsModel, ModelConfig  # noqa: F401
from .objectives import FrameTargets, multitask_loss  # noqa: F401
from .postprocess import EventReport, build_event_report, pick_peaks  # noqa: F401
from .metrics import dynamics_macro_f1, event_f1, changepoint_f1  # noqa: F401
from .dataset import RecordingAnnotation, load_annotation, make_folds, rasterize  # noqa: F401
from .trainer import (  # noqa: F401
    AdamW,
    Checkpoint,
    TrainConfig,
    annotate_features,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train_fold,
)
