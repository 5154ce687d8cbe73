"""AdamW training, checkpoint persistence, fold orchestration.

Checkpoint selection: after each epoch the model is scored on its
validation recordings with the unweighted mean of the four task F1s
(beat and downbeat at +-70 ms, beat-wise dynamics macro F1, snapped
change-point F1) and the best-scoring epoch is kept.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import ParameterStore
from .audio import FPS
from .dataset import Recording, Segment, frames_of, make_segments, window_starts
from .errors import CheckpointError, ConfigError, ShapeError, TrainingError
from .metrics import mean_std, score_recording
from .network import LATENT_DIM, NUM_EXPERTS, DynamicsModel, ModelConfig
from .objectives import N_DYNAMIC_CLASSES, TASKS, TargetBatch, multitask_loss
from .postprocess import build_event_report, markings_at_beats

CHECKPOINT_MAGIC = b"DYNC"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    lr: float = 3e-4
    batch_size: int = 10
    epochs: int = 120
    seed: int = 86
    weight_decay: float = 0.01
    segment_s: int = 60
    augment_overlap: bool = True

    def __post_init__(self):
        if not 0 < self.lr < np.inf or self.batch_size < 1:  # a NaN lr fails the comparison too
            raise TrainingError(f"invalid training config: lr={self.lr}, batch_size={self.batch_size}")
        if not 0 <= self.weight_decay < np.inf:
            raise TrainingError(f"invalid training config: weight_decay={self.weight_decay}, must be finite and >= 0")
        if self.epochs < 1:
            raise TrainingError(f"invalid training config: epochs={self.epochs}, must be >= 1")
        if self.segment_s < 1:
            raise TrainingError(f"invalid training config: segment_s={self.segment_s}, must be >= 1 second")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise TrainingError(f"invalid training config: seed={self.seed}, must be >= 0")

    @property
    def tiling(self) -> str:
        """The ``window_starts`` mode that cuts training segments: half-window
        hops with overlap augmentation, else the eval tiling."""
        return "train" if self.augment_overlap else "eval"


class AdamW:
    """Decoupled weight-decay Adam with bias correction, at fixed moment
    decay rates ``BETAS`` and denominator offset ``EPS``."""

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, store: ParameterStore, lr: float = 3e-4, weight_decay: float = 0.01):
        if not store.trainable:
            raise TrainingError("AdamW: the parameters need no gradient (a frozen model cannot be trained)")
        self.store = store
        self.lr = lr
        self.weight_decay = weight_decay
        self.steps = 0  # the bias-correction step count t, one for all parameters
        self.moments = {name: (np.zeros_like(p.data, dtype=np.float32), np.zeros_like(p.data, dtype=np.float32))
                        for name, p in store.items()}  # name -> (m, v)

    def step(self) -> None:
        beta1, beta2 = self.BETAS
        self.steps += 1
        t = self.steps
        for name, p in self.store.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient in parameter {name!r}")
            m, v = self.moments[name]
            g32 = g.astype(np.float32, copy=False)
            m *= beta1
            m += (1.0 - beta1) * g32
            v *= beta2
            v += (1.0 - beta2) * (g32 * g32)
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)

    def zero_grad(self) -> None:
        self.store.zero_grads()


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

@dataclass
class Checkpoint:
    model_config: ModelConfig
    train_config: TrainConfig
    state: dict[str, np.ndarray]  # as DynamicsModel.state_dict() returns it
    epoch: int
    val_summary: dict = field(default_factory=dict)

    @classmethod
    def from_model(cls, model: DynamicsModel, train_config: TrainConfig,
                   epoch: int, val_summary: dict | None = None) -> "Checkpoint":
        return cls(model_config=model.cfg, train_config=train_config,
                   state=model.state_dict(), epoch=epoch, val_summary=dict(val_summary or {}))


# Settings that older files record although no run can change them, by
# config section; each is read at its one value and refused at any other.
RETIRED_CONFIG = {
    "model_config": {"latent_dim": LATENT_DIM, "num_experts": NUM_EXPERTS,
                     "num_dynamic_classes": N_DYNAMIC_CLASSES, "num_tasks": len(TASKS)},
    "train_config": {"betas": list(AdamW.BETAS), "eps": AdamW.EPS, "enabled_tasks": list(TASKS)},
}


def _drop_retired(section: str, recorded: dict) -> dict:
    """A config section as a file records it, less its retired keys."""
    kept = dict(recorded)
    for key, value in RETIRED_CONFIG[section].items():
        if (got := kept.pop(key, value)) != value:
            raise ConfigError(f"{key} is fixed at {value}, got {got!r}")
    return kept


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    raw = name.encode("utf-8")
    head = struct.pack("<H", len(raw)) + raw + struct.pack("<B", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.tobytes()


def save_checkpoint(cp: Checkpoint, path) -> None:
    config_blob = json.dumps({
        "model_config": asdict(cp.model_config),
        "train_config": asdict(cp.train_config),
        "epoch": cp.epoch,
        "val_summary": cp.val_summary,
    }).encode("utf-8")
    body = struct.pack("<I", len(config_blob)) + config_blob
    body += struct.pack("<I", len(cp.state))
    for name, arr in sorted(cp.state.items()):
        body += _pack_tensor(name, arr)
    blob = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<I", zlib.crc32(body)) + body
    # tmp + rename, so a write that fails midway leaves the old file intact
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, crc = struct.unpack("<II", blob[4:12])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: checkpoint version {version} not supported "
                              f"(this build reads version {CHECKPOINT_VERSION})")
    body = blob[12:]
    if zlib.crc32(body) != crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt or truncated")
    # a matching CRC does not prove the writer was sound: a malformed body
    # surfaces as one of these and is reported as a corrupt checkpoint
    try:
        (config_len,) = struct.unpack_from("<I", body, 0)
        config = json.loads(body[4:4 + config_len].decode("utf-8"))
        offset = 4 + config_len
        (n_tensors,) = struct.unpack_from("<I", body, offset)
        offset += 4
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            name = body[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", body, offset)
            offset += 1
            shape = struct.unpack_from(f"<{rank}I", body, offset)
            offset += 4 * rank
            count = int(np.prod(shape, dtype=np.int64)) if rank else 1
            arr = np.frombuffer(body, dtype="<f4", count=count, offset=offset).reshape(shape)
            offset += 4 * count
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor {name!r} holds NaN or infinite values")
            tensors[name] = arr.copy()
        model_cfg = ModelConfig(**_drop_retired("model_config", config["model_config"]))
        train_cfg = TrainConfig(**_drop_retired("train_config", config["train_config"]))
        epoch, val_summary = config["epoch"], config["val_summary"]
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint body: {exc!r}") from exc
    except (ConfigError, TrainingError) as exc:  # the recorded configs' own checks
        raise type(exc)(f"{path}: {exc}") from exc
    return Checkpoint(model_config=model_cfg, train_config=train_cfg,
                      state=tensors, epoch=epoch, val_summary=val_summary)


def model_from_checkpoint(cp: Checkpoint) -> DynamicsModel:
    model = DynamicsModel(cp.model_config, seed=0)
    try:
        model.load_state_dict(cp.state)
    except ShapeError as exc:
        raise CheckpointError(f"checkpoint {exc}") from exc
    return model


# --------------------------------------------------------------------------
# prediction / evaluation
# --------------------------------------------------------------------------

def predict_frames(model: DynamicsModel, features: np.ndarray, window_s: int) -> dict[str, np.ndarray]:
    """Eval-mode per-frame probabilities for a whole recording, stitched
    over its ``window_s``-second eval windows: a (T, 6) softmax for
    dynamics, (T,) sigmoids for the three binary tasks.

    The forwards run on a frozen copy of the model (``model.frozen()``),
    so they build no autodiff graph.  The last window reads only the
    recording's frames, not a zero-padded full window.  The windows run on
    :func:`.parallel.map_in_order` and are joined in window order; each
    forward is the same B=1 pass as run alone, so the bits do not depend
    on the worker count.
    """
    model, win = model.frozen(), window_s * FPS

    def window(start: int) -> dict[str, np.ndarray]:
        logits = model.forward(features[:, start:start + win], training=False)
        return {task: logit.data[0] for task, logit in logits.items()}

    rows = parallel.map_in_order(window, window_starts(features.shape[1], window_s, "eval"))
    frames = {task: np.concatenate([r[task] for r in rows], axis=0) for task in TASKS}
    return {task: ad.softmax_np(v) if task == "dynamics" else ad.sigmoid_np(v)
            for task, v in frames.items()}


def annotate_features(model: DynamicsModel, features: np.ndarray, window_s: int,
                      beat_times_override=None):
    """Features -> EventReport via forward pass + post-processing."""
    probs = predict_frames(model, features, window_s)
    override_frames = None
    if beat_times_override is not None:
        override_frames = frames_of(beat_times_override, features.shape[1])
    return build_event_report(probs, beat_frames_override=override_frames)


def evaluate_recording(model: DynamicsModel, rec: Recording, window_s: int) -> dict:
    """The four validation F1s for one recording; dynamics are read from
    the class probabilities at the ground-truth beats."""
    probs = predict_frames(model, rec.features, window_s)
    ref = rec.annotation.as_report()
    gt_frames = frames_of(ref.beats, rec.features.shape[1])
    return score_recording(build_event_report(probs), ref, markings_at_beats(probs["dynamics"], gt_frames))


TASK_F1_KEYS = tuple(f"{task}_f1" for task in TASKS)


def evaluate_recordings(model: DynamicsModel, recordings, window_s: int) -> dict:
    """Per-recording F1s plus task means and their overall mean."""
    per_recording = {rec.recording_id: evaluate_recording(model, rec, window_s)
                     for rec in recordings}
    summary = {key: mean_std([r[key] for r in per_recording.values()])["mean"] for key in TASK_F1_KEYS}
    defined = [v for v in summary.values() if v is not None]
    summary["mean_f1"] = float(np.mean(defined)) if defined else 0.0
    return {"per_recording": per_recording, **summary}


def fold_table(val_summaries) -> dict:
    """The cross-fold table: mean and std of each task F1 over the folds'
    validation summaries, and ``average``, the mean of the task means that
    are defined (None if none is)."""
    f1 = {key: mean_std([s.get(key) for s in val_summaries]) for key in TASK_F1_KEYS}
    defined = [agg["mean"] for agg in f1.values() if agg["mean"] is not None]
    return {"f1": f1, "average": float(np.mean(defined)) if defined else None}


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------

def _batches(segments: list[Segment], batch_size: int, rng: np.random.Generator):
    order = rng.permutation(len(segments))
    for lo in range(0, len(order), batch_size):
        chunk = [segments[i] for i in order[lo:lo + batch_size]]
        feats = np.stack([seg.features for seg in chunk])
        targets = TargetBatch.from_targets([seg.targets for seg in chunk],
                                           [seg.n_valid for seg in chunk])
        yield feats, targets


def _attempt(fn) -> Future:
    """``fn()`` run now, with its result or its exception held in a done
    future, to be raised when the result is read."""
    done = Future()
    try:
        done.set_result(fn())
    except Exception as exc:
        done.set_exception(exc)
    return done


def train_model(model: DynamicsModel, train_recordings, val_recordings,
                train_cfg: TrainConfig, log=None, stop_when=None) -> tuple[Checkpoint, dict]:
    """Fit on train recordings; keep the best-validation checkpoint.

    Returns (best checkpoint, history with per-epoch losses and
    validation summaries).  ``stop_when(val_summary)`` returning True
    ends training early (off by default, so the stock protocol always
    runs the configured number of epochs).

    Each epoch is scored on a frozen snapshot of the model taken when it
    ends.  With more than one worker (:func:`.parallel.worker_count`),
    the snapshot is scored on a :func:`.parallel.side_lane` while the
    next epoch trains ahead.  If ``stop_when`` then fires, the model goes
    back to the snapshot and the epoch trained ahead, with any error it
    raised, is dropped; else its error is raised once the scored epoch
    is recorded.  The last epoch is scored alone.  History, checkpoint
    and final model state equal a one-worker run bit for bit.
    """
    if not train_recordings:
        raise TrainingError("training split is empty")
    if not val_recordings:
        raise TrainingError("validation split is empty")
    segments = []
    for rec in train_recordings:
        segments.extend(make_segments(rec.features, rec.targets, rec.recording_id,
                                      train_cfg.segment_s, train_cfg.tiling))
    optimizer = AdamW(model.params, lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)
    rng = np.random.default_rng(train_cfg.seed)

    def train_epoch() -> list[float]:
        losses = []
        for feats, targets in _batches(segments, train_cfg.batch_size, rng):
            logits = model.forward(feats, training=True)
            loss, report = multitask_loss(logits, targets)
            optimizer.zero_grad()
            ad.backward(loss)
            optimizer.step()
            losses.append(report.total)
        return losses

    def validate(snapshot: DynamicsModel) -> dict:
        return evaluate_recordings(snapshot, val_recordings, train_cfg.segment_s)

    history = {"step_losses": [], "epoch_losses": [], "val_mean_f1": []}
    best: Checkpoint | None = None
    best_score = -1.0
    losses = train_epoch()
    with parallel.side_lane() as lane:
        for epoch in range(train_cfg.epochs):
            snapshot = model.frozen()
            last = epoch + 1 == train_cfg.epochs
            ahead = lane is not None and not last
            if ahead:
                scoring = lane.submit(validate, snapshot)
                # training stays on this thread: on a pool thread it raised fit's peak RSS
                next_epoch = _attempt(train_epoch)
                val = scoring.result()
            else:
                val = validate(snapshot)
            history["step_losses"].extend(losses)
            history["epoch_losses"].append(float(np.mean(losses)))
            history["val_mean_f1"].append(val["mean_f1"])
            if log:
                log(f"epoch {epoch + 1}/{train_cfg.epochs}: "
                    f"loss {history['epoch_losses'][-1]:.4f} val mean F1 {val['mean_f1']:.3f}")
            summary = {k: val[k] for k in TASK_F1_KEYS + ("mean_f1",)}
            if val["mean_f1"] > best_score:
                best_score = val["mean_f1"]
                best = Checkpoint.from_model(snapshot, train_cfg, epoch=epoch + 1, val_summary=summary)
            if stop_when is not None and stop_when(summary):
                if ahead:
                    model.load_state_dict(snapshot.state_dict())
                break
            if not last:
                losses = next_epoch.result() if ahead else train_epoch()
    return best, history


def split_fold(recordings, fold_of_piece: dict[str, int], fold: int):
    train = [r for r in recordings if fold_of_piece[r.piece_id] != fold]
    val = [r for r in recordings if fold_of_piece[r.piece_id] == fold]
    return train, val


def train_fold(recordings, fold_of_piece: dict[str, int], fold: int,
               model_cfg: ModelConfig, train_cfg: TrainConfig, log=None) -> tuple[Checkpoint, dict]:
    """Train one cross-validation fold from scratch."""
    train, val = split_fold(recordings, fold_of_piece, fold)
    if not train or not val:
        raise TrainingError(f"fold {fold}: empty split (train={len(train)}, val={len(val)})")
    model = DynamicsModel(model_cfg, seed=train_cfg.seed)
    return train_model(model, train, val, train_cfg, log=log)

