"""Frame-wise probabilities to discrete musical events.

Beats and downbeats come from thresholding at 50% plus peak-picking in
a +-3 frame (70 ms) neighbourhood; downbeats, and change-point candidates
above 75%, snap to the nearest beat (a downbeat only within +-3 frames);
the marking of each beat is the argmax class at that frame.  All
tie-breaks (plateaus, equidistant snaps) resolve to the earlier frame.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import FPS
from .errors import SchemaError
from .objectives import DYNAMIC_LABELS

PEAK_THRESHOLD = 0.5
PEAK_RADIUS = 3
CHANGE_POINT_THRESHOLD = 0.75


def check_times(times, source) -> None:
    """Raise ``SchemaError`` unless every time is finite and not negative and
    none goes backwards; equal neighbours are legal (``--beats-from`` can put
    two beats on one frame)."""
    times = np.asarray(times, dtype=np.float64)
    if not np.isfinite(times).all():
        raise SchemaError(f"{source}: times must be finite")
    if (times < 0).any():
        raise SchemaError(f"{source}: time {times[times < 0][0]} is negative")
    if (np.diff(times) < 0).any():
        raise SchemaError(f"{source}: times go backwards")


@dataclass
class EventReport:
    """Discrete events, times in seconds: a prediction, or the reference
    that ``metrics.score_recording`` scores one against."""

    beats: list[float] = field(default_factory=list)
    downbeats: list[float] = field(default_factory=list)
    markings: list[str] = field(default_factory=list)
    change_points: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "beats": [round(t, 3) for t in self.beats],
            "downbeats": [round(t, 3) for t in self.downbeats],
            "markings": list(self.markings),
            "change_points": [round(t, 3) for t in self.change_points],
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def from_json(cls, path) -> "EventReport":
        try:
            d = json.loads(Path(path).read_text())
            if not all(isinstance(d[key], list) for key in ("beats", "downbeats", "markings", "change_points")):
                raise TypeError("every field must be a JSON list")
            report = cls(beats=[float(t) for t in d["beats"]],
                         downbeats=[float(t) for t in d["downbeats"]],
                         markings=[str(m) for m in d["markings"]],
                         change_points=[float(t) for t in d["change_points"]])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{path}: not a valid event report: {exc}") from exc
        if len(report.markings) != len(report.beats):
            raise SchemaError(f"{path}: {len(report.markings)} markings for {len(report.beats)} beats")
        for name in ("beats", "downbeats", "change_points"):
            check_times(getattr(report, name), f"{path}: {name}")
        return report

    def write_csv(self, path) -> None:
        """One row per beat: time, marking, is_downbeat, is_change_point."""
        downbeats = set(self.downbeats)
        change_points = set(self.change_points)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "marking", "is_downbeat", "is_change_point"])
            for t, marking in zip(self.beats, self.markings):
                writer.writerow([f"{t:.3f}", marking,
                                 int(t in downbeats), int(t in change_points)])


def pick_peaks(probs: np.ndarray) -> np.ndarray:
    """Frames that exceed ``PEAK_THRESHOLD`` and are window maxima.

    A frame survives when it is >= every neighbour within ``PEAK_RADIUS``
    and no earlier surviving frame lies within ``PEAK_RADIUS`` (so selected
    frames are at least PEAK_RADIUS + 1 apart; plateau ties go to the
    earlier frame).  A NaN frame is never picked, nor is any frame within
    ``PEAK_RADIUS`` of one, since its window maximum is NaN.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size == 0:
        return np.zeros(0, dtype=np.intp)
    padded = np.pad(probs, PEAK_RADIUS, constant_values=-np.inf)
    win_max = sliding_window_view(padded, 2 * PEAK_RADIUS + 1).max(axis=-1)
    candidates = np.nonzero((probs > PEAK_THRESHOLD) & (probs >= win_max))[0]
    picked: list[int] = []
    for t in candidates:
        if picked and t - picked[-1] <= PEAK_RADIUS:
            continue
        picked.append(int(t))
    return np.asarray(picked, dtype=np.intp)


def markings_at_beats(dyn_probs: np.ndarray, beat_frames) -> list[str]:
    """Argmax class label at each beat frame; ties to the lower class."""
    dyn_probs = np.asarray(dyn_probs)
    labels = []
    for frame in np.asarray(beat_frames, dtype=np.intp):
        if frame < 0 or frame >= dyn_probs.shape[0]:
            raise SchemaError(f"beat frame {frame} outside [0, {dyn_probs.shape[0]})")
        labels.append(DYNAMIC_LABELS[int(np.argmax(dyn_probs[frame]))])
    return labels


def snap_to_nearest(values, anchors) -> np.ndarray:
    """Index of the nearest anchor for each value; ties go to the earlier
    anchor, also among equal anchors.  ``anchors`` must be ascending; with
    no anchors the result is empty."""
    anchors = np.asarray(anchors, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if anchors.size == 0:
        return np.zeros(0, dtype=np.intp)
    pos = np.searchsorted(anchors, values)
    left = np.maximum(pos - 1, 0)
    right = np.minimum(pos, anchors.size - 1)
    nearest = np.where(values - anchors[left] <= anchors[right] - values, left, right)
    return np.searchsorted(anchors, anchors[nearest])


def change_points(cp_probs: np.ndarray, beat_frames) -> np.ndarray:
    """Candidate frames above ``CHANGE_POINT_THRESHOLD``, snapped to beat
    indices.

    Returns sorted unique indices into ``beat_frames``; empty when
    there are no beats to snap to.
    """
    candidates = np.nonzero(np.asarray(cp_probs, dtype=np.float64) > CHANGE_POINT_THRESHOLD)[0]
    return np.unique(snap_to_nearest(candidates, beat_frames))


def to_seconds(frames) -> np.ndarray:
    return np.asarray(frames, dtype=np.float64) / FPS


def build_event_report(probs: dict[str, np.ndarray],
                       beat_frames_override: np.ndarray | None = None) -> EventReport:
    """Assemble an EventReport from per-frame probabilities keyed by task,
    as ``trainer.predict_frames`` returns them: a (T, 6) softmax for
    dynamics, (T,) for the three binary tasks.

    Every downbeat and change point is a reported beat; a picked downbeat
    with no beat within +-``PEAK_RADIUS`` frames is dropped.
    ``beat_frames_override`` substitutes an externally supplied beat grid
    (score-assisted mode); markings, downbeats and change points attach to it.
    """
    if beat_frames_override is not None:
        beat_frames = np.asarray(beat_frames_override, dtype=np.intp)
    else:
        beat_frames = pick_peaks(probs["beat"])
    picked = pick_peaks(probs["downbeat"]) if beat_frames.size else beat_frames  # no beat, no downbeat
    nearest = beat_frames[snap_to_nearest(picked, beat_frames)]
    downbeat_frames = np.unique(nearest[np.abs(nearest - picked) <= PEAK_RADIUS])
    cp_idx = change_points(probs["change_point"], beat_frames)
    return EventReport(
        beats=[float(t) for t in to_seconds(beat_frames)],
        downbeats=[float(t) for t in to_seconds(downbeat_frames)],
        markings=markings_at_beats(probs["dynamics"], beat_frames),
        change_points=[float(t) for t in to_seconds(beat_frames[cp_idx])],
    )
