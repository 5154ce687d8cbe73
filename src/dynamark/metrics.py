"""Evaluation protocol: tolerance-matched event F1, beat-wise macro
dynamics F1 (five classes, blank excluded), and index-based
change-point F1.

Event matching is a maximum-cardinality one-to-one matching inside the
+-tolerance window (the F-measure of mir_eval), computed by one sweep
over the sorted events, so the score does not depend on input order.
``score_recording`` gives the four task scores of one recording, for
validation and for ``eval`` alike: prediction and reference are both
``EventReport``s, an annotation scored through ``as_report()``, and the
change points of each side snap to the reference beats.
Conventions: empty prediction and empty reference score F1 = 1; a
one-sided empty scores 0; a class absent from both sides is excluded
from the macro mean.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import SchemaError
from .objectives import DYNAMIC_LABELS
from .postprocess import snap_to_nearest

EVENT_TOLERANCE_S = 0.070
DYNAMIC_CLASSES = DYNAMIC_LABELS[1:]  # pp, p, mf, f, ff


@dataclass
class F1Result:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "F1Result":
        if tp == 0 and fp == 0 and fn == 0:
            return cls(1.0, 1.0, 1.0, 0, 0, 0)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f1, tp, fp, fn)


def event_f1(pred, ref, tol: float = EVENT_TOLERANCE_S) -> F1Result:
    """F1 of time-stamped events matched one-to-one within ``tol`` seconds.

    Ascending predictions each take the earliest unmatched reference with
    ``|ref - pred| <= tol``.  On a line the windows of ascending
    predictions move forward together, so this sweep finds a maximum
    matching."""
    pred = np.sort(np.asarray(pred, dtype=np.float64)).tolist()
    ref = np.sort(np.asarray(ref, dtype=np.float64)).tolist()
    tp = j = 0
    for p in pred:
        # references too early for p are too early for every later prediction
        while j < len(ref) and ref[j] < p and abs(ref[j] - p) > tol:
            j += 1
        if j < len(ref) and abs(ref[j] - p) <= tol:
            tp += 1
            j += 1
    return F1Result.from_counts(tp, len(pred) - tp, len(ref) - tp)


@dataclass
class DynamicsF1:
    """Per-class results plus the macro mean over classes present.  The
    field order is the key order of an ``eval`` report's ``dynamics`` detail."""

    macro_f1: float | None = None
    per_class: dict[str, F1Result] = field(default_factory=dict)
    present_classes: list[str] = field(default_factory=list)
    n_beats_evaluated: int = 0


def dynamics_macro_f1(pred_labels, ref_labels) -> DynamicsF1:
    """Beat-wise macro F1 over the five non-blank classes.

    Both label sequences are per ground-truth beat; beats whose
    reference label is blank are excluded entirely.  The macro mean
    runs over classes that appear in the (filtered) reference; if none
    do, ``macro_f1`` is None.
    """
    pred_labels = list(pred_labels)
    ref_labels = list(ref_labels)
    if len(pred_labels) != len(ref_labels):
        raise SchemaError(f"label count mismatch: {len(pred_labels)} predicted vs {len(ref_labels)} reference")
    alphabet = set(DYNAMIC_LABELS)
    for i, (p, r) in enumerate(zip(pred_labels, ref_labels)):
        if p not in alphabet or r not in alphabet:
            raise SchemaError(f"beat {i}: label outside the 6-class alphabet: {p!r}/{r!r}")
    pairs = [(p, r) for p, r in zip(pred_labels, ref_labels) if r != "blank"]
    result = DynamicsF1(n_beats_evaluated=len(pairs))
    present = [c for c in DYNAMIC_CLASSES if any(r == c for _, r in pairs)]
    result.present_classes = present
    for cls in DYNAMIC_CLASSES:
        tp = sum(1 for p, r in pairs if p == cls and r == cls)
        fp = sum(1 for p, r in pairs if p == cls and r != cls)
        fn = sum(1 for p, r in pairs if p != cls and r == cls)
        if tp or fp or fn:
            result.per_class[cls] = F1Result.from_counts(tp, fp, fn)
    if present:
        result.macro_f1 = float(np.mean([result.per_class[c].f1 for c in present]))
    return result


def changepoint_f1(pred_beat_indices, ref_beat_indices) -> F1Result:
    """Exact index-set comparison of change points on the beat grid."""
    pred = set(int(i) for i in pred_beat_indices)
    ref = set(int(i) for i in ref_beat_indices)
    tp = len(pred & ref)
    return F1Result.from_counts(tp, len(pred) - tp, len(ref) - tp)


def score_recording(pred, ref, pred_labels) -> dict:
    """Beat, downbeat, dynamics and change-point F1 of one recording.

    ``pred`` and ``ref`` are ``EventReport``s; ``ref.beats`` must be
    ascending, and the change points of both sides are snapped to them.
    ``pred_labels`` are the predicted markings per reference beat, scored
    against ``ref.markings``.
    """
    beat = event_f1(pred.beats, ref.beats)
    downbeat = event_f1(pred.downbeats, ref.downbeats)
    dynamics = dynamics_macro_f1(pred_labels, ref.markings)
    cpt = changepoint_f1(snap_to_nearest(pred.change_points, ref.beats),
                         snap_to_nearest(ref.change_points, ref.beats))
    return {"beat_f1": beat.f1, "downbeat_f1": downbeat.f1,
            "dynamics_f1": dynamics.macro_f1, "change_point_f1": cpt.f1,
            "detail": {"beat": asdict(beat), "downbeat": asdict(downbeat),
                       "dynamics": asdict(dynamics), "change_point": asdict(cpt)}}


def mean_std(values) -> dict:
    """Table-style aggregate: mean and (population) std across folds."""
    arr = np.asarray([v for v in values if v is not None], dtype=np.float64)
    if arr.size == 0:
        return {"mean": None, "std": None, "n": 0}
    return {"mean": float(arr.mean()), "std": float(arr.std()), "n": int(arr.size)}
