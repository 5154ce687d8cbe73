"""Evaluation protocol: tolerance-matched event F1, beat-wise macro
dynamics F1 (five classes, blank excluded), and index-based
change-point F1.

Event matching is maximum-cardinality bipartite matching inside the
+-tolerance window, so the score does not depend on greedy order.
Conventions: empty prediction and empty reference score F1 = 1; a
one-sided empty scores 0; a class absent from both sides is excluded
from the macro mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError
from .objectives import DYNAMIC_LABELS

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

    def as_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1,
                "tp": self.tp, "fp": self.fp, "fn": self.fn}


def _max_matching(adjacency: list[list[int]], n_right: int) -> int:
    """Maximum bipartite matching size (Kuhn's augmenting paths)."""
    match_right = [-1] * n_right

    def try_augment(u: int, seen: list[bool]) -> bool:
        for v in adjacency[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] == -1 or try_augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    size = 0
    for u in range(len(adjacency)):
        if try_augment(u, [False] * n_right):
            size += 1
    return size


def event_f1(pred, ref, tol: float = EVENT_TOLERANCE_S) -> F1Result:
    """F1 of time-stamped events matched one-to-one within ``tol`` seconds."""
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    adjacency = [list(np.nonzero(np.abs(ref - p) <= tol)[0]) for p in pred]
    tp = _max_matching(adjacency, len(ref)) if len(pred) and len(ref) else 0
    return F1Result.from_counts(tp, len(pred) - tp, len(ref) - tp)


@dataclass
class DynamicsF1:
    """Per-class results plus the macro mean over classes present."""

    per_class: dict[str, F1Result] = field(default_factory=dict)
    present_classes: list[str] = field(default_factory=list)
    macro_f1: float | None = None
    n_beats_evaluated: int = 0

    def as_dict(self) -> dict:
        return {"macro_f1": self.macro_f1,
                "per_class": {c: r.as_dict() for c, r in self.per_class.items()},
                "present_classes": self.present_classes,
                "n_beats_evaluated": self.n_beats_evaluated}


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


def mean_std(values) -> dict:
    """Table-style aggregate: mean and (population) std across folds."""
    arr = np.asarray([v for v in values if v is not None], dtype=np.float64)
    if arr.size == 0:
        return {"mean": None, "std": None, "n": 0}
    return {"mean": float(arr.mean()), "std": float(arr.std()), "n": int(arr.size)}
