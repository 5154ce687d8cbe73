"""Composite multi-task loss: shift-tolerant weighted BCE for the three
binary targets plus beat-masked cross-entropy for dynamics.

Both losses take the layout that :class:`TargetBatch` hands them: (B, T)
logits for a binary task, (B, T, 6) for dynamics, (B, T) targets and a
(B, T) ``valid`` mask that leaves padded frames out of every term.

The shift-tolerant loss is a reconstruction: for every annotated
positive frame the positive term uses the best prediction within a
+-``SHIFT_TOLERANCE`` window, frames inside any such window are
excluded from the negative term, and positive terms are up-weighted by
:func:`default_pos_weight` to offset target sparsity.  Whether the
original formulation also pools predictions for the negative term is
unclear; exclusion is our documented choice.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

TASKS = ("dynamics", "change_point", "beat", "downbeat")
DYNAMIC_LABELS = ("blank", "pp", "p", "mf", "f", "ff")
N_DYNAMIC_CLASSES = len(DYNAMIC_LABELS)
LABEL_TO_CLASS = {label: i for i, label in enumerate(DYNAMIC_LABELS)}

SHIFT_TOLERANCE = 3  # frames (+-60 ms at 50 fps)
POS_WEIGHT_CLAMP = (1.0, 100.0)


@dataclass
class FrameTargets:
    """Per-frame supervision for one recording or segment.

    ``dynamic_class`` carries the prevailing class at every frame
    (carry-forward between beats); the dynamics loss only reads it at
    beat frames.
    """

    beat: np.ndarray
    downbeat: np.ndarray
    change_point: np.ndarray
    dynamic_class: np.ndarray

    def __post_init__(self):
        t = len(self.beat)
        for f in fields(self):
            if len(getattr(self, f.name)) != t:
                raise ShapeError(f"FrameTargets: {f.name} has length {len(getattr(self, f.name))}, expected {t}")


@dataclass
class TargetBatch:
    """Stacked (B, T) targets plus a validity mask for padded frames."""

    beat: np.ndarray
    downbeat: np.ndarray
    change_point: np.ndarray
    dynamic_class: np.ndarray
    valid: np.ndarray

    @classmethod
    def from_targets(cls, targets, n_valid) -> "TargetBatch":
        """Stack equal-length targets; frames from ``n_valid[i]`` on in row
        ``i`` are padding."""
        targets = list(targets)
        valid = np.ones((len(targets), len(targets[0].beat)), dtype=bool)
        for i, n in enumerate(n_valid):
            valid[i, n:] = False
        return cls(**{f.name: np.stack([np.asarray(getattr(tg, f.name)) for tg in targets])
                      for f in fields(FrameTargets)}, valid=valid)


@dataclass
class LossReport:
    """The total loss and each task's term, as floats."""

    total: float
    dynamics: float
    change_point: float
    beat: float
    downbeat: float


def default_pos_weight(target: np.ndarray, valid: np.ndarray) -> float:
    """negatives/positives over valid frames, clamped to [1, 100]."""
    n_pos = int(np.count_nonzero(target[valid]))
    if n_pos == 0:
        return 1.0
    n_neg = int(valid.sum()) - n_pos
    return float(np.clip(n_neg / n_pos, *POS_WEIGHT_CLAMP))


def shift_tolerant_wbce(logits: Tensor, target: np.ndarray, valid: np.ndarray) -> Tensor:
    """Weighted BCE with a +-``SHIFT_TOLERANCE`` frame hit window over the
    ``valid`` frames, positives weighted by :func:`default_pos_weight`.

    ``logits`` is (B, T); ``target`` (binary) and the boolean ``valid``
    have the same shape.  Returns a scalar Tensor (mean over contributing
    terms).
    """
    target = target.astype(bool)
    if logits.shape != target.shape:
        raise ShapeError(f"shift_tolerant_wbce: logits {logits.shape} vs target {target.shape}")
    t = target.shape[1]
    pos_weight = default_pos_weight(target, valid)

    # Each positive scores the best valid frame within +-SHIFT_TOLERANCE (the
    # first of equal ones); padded and invalid frames read -inf and never win.
    span = 2 * SHIFT_TOLERANCE + 1
    edge = ((0, 0), (SHIFT_TOLERANCE, SHIFT_TOLERANCE))
    scores = np.pad(np.where(valid, logits.data, -np.inf), edge, constant_values=-np.inf)
    rows, cols = np.nonzero(target & valid)
    best = sliding_window_view(scores, span, axis=1)[rows, cols].argmax(axis=1)
    pos_flat = rows * t + cols + best - SHIFT_TOLERANCE
    # every frame within +-SHIFT_TOLERANCE of a positive leaves the negative term
    near_pos = sliding_window_view(np.pad(target & valid, edge), span, axis=1).any(axis=2)
    neg_flat = np.nonzero((valid & ~target & ~near_pos).reshape(-1))[0]

    n_pos, n_neg = len(pos_flat), len(neg_flat)
    if n_pos + n_neg == 0:
        return Tensor(np.zeros((), dtype=logits.data.dtype))
    terms = []
    if n_pos:
        # -log sigmoid(l) == softplus(-l)
        pos_logits = ad.take(logits, pos_flat)
        terms.append(ad.scale(ad.tsum(ad.softplus(ad.neg(pos_logits))), pos_weight))
    if n_neg:
        # -log(1 - sigmoid(l)) == softplus(l)
        neg_logits = ad.take(logits, neg_flat)
        terms.append(ad.tsum(ad.softplus(neg_logits)))
    total = terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])
    return ad.scale(total, 1.0 / (n_pos + n_neg))


def masked_ce(dyn_logits: Tensor, dynamic_class: np.ndarray, beat_mask: np.ndarray,
              valid: np.ndarray) -> Tensor:
    """Cross-entropy over the 6 classes at the valid beat-masked frames
    only; ``dyn_logits`` is (B, T, 6), the class ids, the beat mask and
    the boolean ``valid`` (B, T)."""
    classes = dynamic_class.astype(np.int64)
    mask = beat_mask.astype(bool)
    b, t, c = dyn_logits.shape
    if c != N_DYNAMIC_CLASSES:
        raise ShapeError(f"masked_ce: expected {N_DYNAMIC_CLASSES} classes, got {c}")
    if classes.shape != (b, t) or mask.shape != (b, t):
        raise ShapeError(f"masked_ce: targets {classes.shape}/{mask.shape} vs logits {dyn_logits.shape}")
    if classes.max(initial=0) >= c or classes.min(initial=0) < 0:
        raise ShapeError(f"masked_ce: class id outside [0, {c})")
    rows = np.nonzero((mask & valid).reshape(-1))[0]
    if rows.size == 0:
        return Tensor(np.zeros((), dtype=dyn_logits.data.dtype))
    flat_idx = rows * c + classes.reshape(-1)[rows]
    logp = ad.log_softmax(dyn_logits)
    picked = ad.take(logp, flat_idx)
    return ad.scale(ad.tsum(ad.neg(picked)), 1.0 / rows.size)


def multitask_loss(logits: dict[str, Tensor], targets: TargetBatch):
    """Sum of the task losses over ``TASKS``; returns (scalar Tensor,
    LossReport).  ``logits`` is keyed by ``TASKS``, as
    ``DynamicsModel.forward`` returns them."""
    if not isinstance(logits, dict) or logits.keys() != set(TASKS):
        got = sorted(logits) if isinstance(logits, dict) else type(logits).__name__
        raise ConfigError(f"multitask_loss expects logits keyed by {', '.join(TASKS)}, got {got}")
    terms = {}
    for task in TASKS:
        if task == "dynamics":
            terms[task] = masked_ce(logits[task], targets.dynamic_class, targets.beat, targets.valid)
        else:
            terms[task] = shift_tolerant_wbce(logits[task], getattr(targets, task), targets.valid)
    # (dynamics + change_point) + (beat + downbeat): float addition does not
    # associate, and the golden loss pins this order
    ordered = list(terms.values())
    total = ad.add(ad.add(*ordered[:2]), ad.add(*ordered[2:]))
    return total, LossReport(total=total.item(), **{task: t.item() for task, t in terms.items()})
