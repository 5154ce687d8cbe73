"""Annotation ingestion, frame-target rasterisation, segmentation and
the piece-stratified cross-validation split.

Annotation schema (CSV, one pair of files per recording):

* ``<id>_beats.csv``    header ``beat_index,time_s,is_downbeat`` with
  0-based contiguous beat indices and strictly ascending times;
* ``<id>_markings.csv`` header ``beat_index,marking`` listing only the
  beats that carry a mark (tokens: pp, p, mf, f, ff).

Markings carry forward: every beat from a mark up to (but excluding)
the next mark holds that mark; beats before the first mark are blank.
A change point is any beat whose carried-forward marking differs from
the previous beat's (the first non-blank mark counts).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .audio import FEATURE_BINS, FPS, load_features
from .errors import ConfigError, EmptyInputError, SchemaError
from .objectives import DYNAMIC_LABELS, LABEL_TO_CLASS, FrameTargets

SEGMENT_SECONDS = 60
TRAIN_HOP_FRACTION = 0.5


@dataclass
class RecordingAnnotation:
    """Beat-aligned ground truth for one performance."""

    piece_id: str
    performer_id: str
    beat_times: np.ndarray
    downbeat_flags: np.ndarray
    markings: list[str]  # carried-forward, "blank" before the first mark
    duration: float

    def change_point_beats(self) -> list[int]:
        """0-based beat indices where the carried marking changes."""
        out = []
        previous = "blank"
        for i, mark in enumerate(self.markings):
            if mark != previous:
                out.append(i)
                previous = mark
        return out


@dataclass
class Segment:
    """A fixed-length training/evaluation window."""

    features: np.ndarray  # (F, T_seg)
    targets: FrameTargets
    recording_id: str
    start_s: float
    n_valid: int  # frames before zero padding starts


@dataclass
class Recording:
    recording_id: str
    piece_id: str
    features: np.ndarray  # (F, T)
    annotation: RecordingAnnotation
    targets: FrameTargets


def read_text(path) -> str:
    """The UTF-8 text of a file; any other bytes are a ``SchemaError``."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None


def _read_rows(path, expected_header):
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file") from None
    if [h.strip() for h in header] != expected_header:
        raise SchemaError(f"{path}: row 1: expected header {','.join(expected_header)}, got {','.join(header)}")
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(expected_header):
            raise SchemaError(f"{path}: row {lineno}: expected {len(expected_header)} columns, got {len(row)}")
        yield lineno, [cell.strip() for cell in row]


def load_annotation(beat_file, marking_file) -> RecordingAnnotation:
    """Parse and validate one beats/markings CSV pair."""
    beat_file = Path(beat_file)
    times: list[float] = []
    downbeats: list[bool] = []
    for lineno, (idx_s, time_s, db_s) in _read_rows(beat_file, ["beat_index", "time_s", "is_downbeat"]):
        try:
            idx, t, db = int(idx_s), float(time_s), int(db_s)
        except ValueError as exc:
            raise SchemaError(f"{beat_file}: row {lineno}: {exc}") from exc
        if not np.isfinite(t):
            raise SchemaError(f"{beat_file}: row {lineno}: beat time {time_s!r} is not finite")
        if idx != len(times):
            raise SchemaError(f"{beat_file}: row {lineno}: beat_index {idx} out of order (expected {len(times)})")
        if times and t <= times[-1]:
            raise SchemaError(f"{beat_file}: row {lineno}: beat times not strictly ascending ({t} after {times[-1]})")
        if db not in (0, 1):
            raise SchemaError(f"{beat_file}: row {lineno}: is_downbeat must be 0 or 1, got {db_s}")
        times.append(t)
        downbeats.append(bool(db))
    if not times:
        raise SchemaError(f"{beat_file}: no beats")

    marks_at: dict[int, str] = {}
    marking_file = Path(marking_file)
    for lineno, (idx_s, token) in _read_rows(marking_file, ["beat_index", "marking"]):
        try:
            idx = int(idx_s)
        except ValueError as exc:
            raise SchemaError(f"{marking_file}: row {lineno}: {exc}") from exc
        if token not in DYNAMIC_LABELS[1:]:
            raise SchemaError(f"{marking_file}: row {lineno}: unknown marking token {token!r} "
                              f"(expected one of {', '.join(DYNAMIC_LABELS[1:])})")
        if not 0 <= idx < len(times):
            raise SchemaError(f"{marking_file}: row {lineno}: beat_index {idx} outside [0, {len(times)})")
        if idx in marks_at:
            raise SchemaError(f"{marking_file}: row {lineno}: duplicate mark for beat {idx}")
        marks_at[idx] = token

    carried: list[str] = []
    current = "blank"
    for i in range(len(times)):
        current = marks_at.get(i, current)
        carried.append(current)

    stem = beat_file.stem.removesuffix("_beats")
    return RecordingAnnotation(
        piece_id=stem.split("__")[0],
        performer_id=stem.split("__")[1] if "__" in stem else stem,
        beat_times=np.asarray(times, dtype=np.float64),
        downbeat_flags=np.asarray(downbeats, dtype=bool),
        markings=carried,
        duration=float(times[-1]),
    )


def time_to_frame(t: float) -> int:
    """Nearest frame, half-up ties."""
    return int(np.floor(t * FPS + 0.5))


def rasterize(ann: RecordingAnnotation, n_frames: int) -> FrameTargets:
    """Frame-level targets at 50 fps from a beat-aligned annotation."""
    frames = [time_to_frame(t) for t in ann.beat_times]
    # half-up rounding can push the final beat to frame ceil(duration*fps)
    needed = max(int(np.ceil(ann.duration * FPS)), frames[-1] + 1 if frames else 0)
    if n_frames < needed:
        raise SchemaError(f"rasterize: {n_frames} frames cannot hold a {ann.duration:.2f}s annotation "
                          f"(needs >= {needed})")
    beat = np.zeros(n_frames, dtype=np.uint8)
    downbeat = np.zeros(n_frames, dtype=np.uint8)
    change_point = np.zeros(n_frames, dtype=np.uint8)
    dynamic_class = np.zeros(n_frames, dtype=np.int64)
    for i in range(1, len(frames)):
        if frames[i] == frames[i - 1]:
            raise SchemaError(f"beats {i - 1} and {i} both round to frame {frames[i]}: "
                              "annotation denser than the 50 fps frame grid")
    change_beats = set(ann.change_point_beats())
    for i, frame in enumerate(frames):
        beat[frame] = 1
        if ann.downbeat_flags[i]:
            downbeat[frame] = 1
        if i in change_beats:
            change_point[frame] = 1
    # carry the class forward from each beat frame to the next change
    for i, frame in enumerate(frames):
        cls = LABEL_TO_CLASS[ann.markings[i]]
        end = frames[i + 1] if i + 1 < len(frames) else n_frames
        dynamic_class[frame:end] = cls
    return FrameTargets(beat=beat, downbeat=downbeat, change_point=change_point,
                        dynamic_class=dynamic_class)


def window_starts(n_frames: int, window_s: int = SEGMENT_SECONDS, mode: str = "train") -> list[int]:
    """First frames of the fixed windows a recording is cut into.

    Train mode advances by half a window and uses only fully covered
    windows (one zero-padded window when the recording is shorter);
    eval mode tiles without overlap, and its final window may run past
    the recording's end: ``predict_frames`` crops that window to the
    recording's frames, and ``make_segments`` zero-pads it.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    win = window_s * FPS
    if mode == "eval":
        return list(range(0, n_frames, win))
    return list(range(0, n_frames - win + 1, int(win * TRAIN_HOP_FRACTION))) if n_frames >= win else [0]


def crop_window(arr: np.ndarray, start: int, length: int) -> np.ndarray:
    """``arr[..., start:start + length]``, zero-padded on the right to ``length`` frames."""
    out = np.zeros(arr.shape[:-1] + (length,), dtype=arr.dtype)
    piece = arr[..., start:start + length]
    out[..., :piece.shape[-1]] = piece
    return out


def make_segments(features: np.ndarray, targets: FrameTargets, recording_id: str = "",
                  window_s: int = SEGMENT_SECONDS, mode: str = "train") -> list[Segment]:
    """Slice a recording into the windows ``window_starts`` places.
    Padded frames are flagged through ``n_valid``."""
    t = features.shape[1]
    win = window_s * FPS
    return [Segment(features=crop_window(features, start, win),
                    targets=FrameTargets(*(crop_window(getattr(targets, f.name), start, win)
                                           for f in fields(FrameTargets))),
                    recording_id=recording_id, start_s=start / FPS, n_valid=min(win, t - start))
            for start in window_starts(t, window_s, mode)]


def make_folds(piece_ids, k: int = 5, seed: int = 86) -> dict[str, int]:
    """Seeded shuffle + round robin; all recordings of a piece share a fold."""
    if k < 2:
        raise ConfigError(f"cannot make {k} folds: cross-validation needs at least 2")
    pieces = sorted(set(piece_ids))
    if k > len(pieces):
        raise EmptyInputError(f"cannot make {k} folds from {len(pieces)} pieces")
    rng = np.random.default_rng(seed)
    order = [pieces[i] for i in rng.permutation(len(pieces))]
    return {piece: i % k for i, piece in enumerate(order)}


def write_segment_manifest(path, recordings, fold_of_piece: dict[str, int],
                           window_s: int = SEGMENT_SECONDS, mode: str = "train") -> None:
    """JSON manifest: recording ids, fold ids, and segment offsets; the
    training segments are placed as ``window_starts`` does in ``mode``."""
    entries = []
    for rec in recordings:
        t = rec.features.shape[1]
        entries.append({
            "recording_id": rec.recording_id,
            "piece_id": rec.piece_id,
            "fold": fold_of_piece[rec.piece_id],
            "train_segment_starts_s": [s / FPS for s in window_starts(t, window_s, mode)],
            "eval_segment_starts_s": [s / FPS for s in window_starts(t, window_s, "eval")],
        })
    Path(path).write_text(json.dumps({"window_s": window_s, "recordings": entries}, indent=2) + "\n")


def discover_recording_ids(annotations_dir) -> list[str]:
    """Recording ids from ``*_beats.csv`` files, sorted."""
    return sorted(p.stem.removesuffix("_beats") for p in Path(annotations_dir).glob("*_beats.csv"))


def load_corpus(features_dir, annotations_dir) -> list[Recording]:
    """Pair DYNF feature files with annotation CSVs by recording id.
    The files must all hold one feature kind, each with that kind's rows."""
    features_dir = Path(features_dir)
    annotations_dir = Path(annotations_dir)
    ids = discover_recording_ids(annotations_dir)
    if not ids:
        raise EmptyInputError(f"no *_beats.csv annotations found in {annotations_dir}")
    recordings, file_of_kind = [], {}
    for rec_id in ids:
        feat_path = features_dir / f"{rec_id}.dynf"
        if not feat_path.exists():
            raise EmptyInputError(
                f"missing features for {rec_id}: expected {feat_path}; "
                f"run `dynamark extract` over the audio directory first")
        values, kind = load_features(feat_path)
        if len(values) != FEATURE_BINS[kind]:
            raise SchemaError(f"{feat_path}: {kind} features have {FEATURE_BINS[kind]} rows, got {len(values)}")
        file_of_kind.setdefault(kind, feat_path)
        if len(file_of_kind) > 1:
            raise SchemaError(f"{features_dir} mixes feature kinds: "
                              + ", ".join(f"{path} is {k}" for k, path in file_of_kind.items()))
        ann = load_annotation(annotations_dir / f"{rec_id}_beats.csv",
                              annotations_dir / f"{rec_id}_markings.csv")
        targets = rasterize(ann, values.shape[1])
        recordings.append(Recording(recording_id=rec_id, piece_id=ann.piece_id,
                                    features=values, annotation=ann, targets=targets))
    return recordings
