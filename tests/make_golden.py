"""Regenerate the golden output fixture under ``tests/data/``.

    PYTHONPATH=src python3 tests/make_golden.py

The fixture pins two outputs so that a refactor meant to leave numerics
alone is checked by ``tests/test_golden.py`` instead of by hand:

- the stock model (``ModelConfig()``, seed 86) on a seeded 2 x 22 x 500
  input: the eval-mode logits of all four heads, then the training-mode
  loss and the gradients of a few named parameters (``golden.npz``);
- the event report of the committed benchmark checkpoint on one short
  synthetic clip (``golden.events.json``).

A change that alters numerics on purpose runs this script and says so.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from _synth import write_corpus
from dynamark import autodiff as ad
from dynamark.audio import FPS, decode_and_prepare, extract_features
from dynamark.dataset import load_annotation, rasterize
from dynamark.network import DynamicsModel, ModelConfig
from dynamark.objectives import TASKS, TargetBatch, multitask_loss
from dynamark.postprocess import EventReport
from dynamark.trainer import annotate_features, load_checkpoint, model_from_checkpoint

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
ARRAYS = DATA / "golden.npz"
REPORT = DATA / "golden.events.json"
CHECKPOINT = TESTS.parent / "bench" / "data" / "stock_bssl.dync"

INPUT_SHAPE = (2, 22, 500)
MODEL_SEED = 86
GRAD_NAMES = ("branch0.attn.wq.w", "branch0.block0.conv.w", "expert0.conv0.w", "head_dynamics.w")
HEADS = TASKS
CLIP_SECONDS = 20.0


def stock_model_outputs() -> dict[str, np.ndarray]:
    """Eval logits, training loss and named gradients of the stock model."""
    bsz, _, frames = INPUT_SHAPE
    features = np.random.default_rng(MODEL_SEED).standard_normal(INPUT_SHAPE).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        ids = write_corpus(tmp, n_clips=bsz, seconds=frames / FPS, seed=MODEL_SEED, write_audio=False)
        ann_dir = Path(tmp) / "annotations"
        targets = [rasterize(load_annotation(ann_dir / f"{rec}_beats.csv", ann_dir / f"{rec}_markings.csv"),
                             frames) for rec in ids]
    model = DynamicsModel(ModelConfig(), seed=MODEL_SEED)
    logits = model.frozen().forward(features, training=False)
    out = {f"logits.{head}": logits[head].data.copy() for head in HEADS}
    model.params.zero_grads()
    loss, _ = multitask_loss(model.forward(features, training=True), TargetBatch.from_targets(targets))
    ad.backward(loss)
    out["loss"] = loss.data.copy()
    out.update({f"grad.{name}": model.params[name].grad.copy() for name in GRAD_NAMES})
    return out


def checkpoint_report() -> EventReport:
    """The committed checkpoint's event report on one synthetic clip."""
    cp = load_checkpoint(CHECKPOINT)
    with tempfile.TemporaryDirectory() as tmp:
        (rec,) = write_corpus(tmp, n_clips=1, seconds=CLIP_SECONDS, seed=MODEL_SEED)
        features = extract_features(decode_and_prepare(Path(tmp) / "audio" / f"{rec}.wav"), "bssl")
    return annotate_features(model_from_checkpoint(cp), features, window_s=cp.train_config.segment_s)


def main() -> int:
    DATA.mkdir(exist_ok=True)
    np.savez_compressed(ARRAYS, **stock_model_outputs())
    checkpoint_report().write_json(REPORT)
    print(f"wrote {ARRAYS} and {REPORT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
