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
The script rewrites a fixture only when the new outputs fail
``tests/test_golden.py``'s comparison with it (the functions below), and
prints which fixture it rewrote, so an output that did not move keeps
its committed bytes.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from _synth import write_corpus
from dynamark import autodiff as ad
from dynamark.audio import FPS, bssl, decode_and_prepare, stft_power
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
# Each array may differ from the fixture by 1e-4 of its largest magnitude.
# That is ten times the largest gap between the float32 model and the same
# model run in float64 on these inputs (3e-6 to 9e-6 for the logits and
# gradients, 3e-9 for the loss), so another BLAS build passes, and a
# changed layer or loss does not.
REL_ATOL = 1e-4


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
    loss, _ = multitask_loss(model.forward(features, training=True),
                             TargetBatch.from_targets(targets, [frames] * bsz))
    ad.backward(loss)
    out["loss"] = loss.data.copy()
    out.update({f"grad.{name}": model.params[name].grad.copy() for name in GRAD_NAMES})
    return out


def checkpoint_report() -> EventReport:
    """The committed checkpoint's event report on one synthetic clip."""
    cp = load_checkpoint(CHECKPOINT)
    with tempfile.TemporaryDirectory() as tmp:
        (rec,) = write_corpus(tmp, n_clips=1, seconds=CLIP_SECONDS, seed=MODEL_SEED)
        features = bssl(stft_power(decode_and_prepare(Path(tmp) / "audio" / f"{rec}.wav")))
    return annotate_features(model_from_checkpoint(cp), features, window_s=cp.train_config.segment_s)


def assert_array_matches(got: np.ndarray, want: np.ndarray) -> None:
    """One output against its fixture array: same dtype and shape, and
    values within ``REL_ATOL`` of the fixture's largest magnitude."""
    if got.dtype != want.dtype or got.shape != want.shape:
        raise AssertionError(f"{got.dtype} {got.shape} against the fixture's {want.dtype} {want.shape}")
    np.testing.assert_allclose(got, want, rtol=0, atol=REL_ATOL * np.abs(want).max())


def assert_report_matches(got: dict, want: dict) -> None:
    """An event report's JSON against the fixture's: the same markings,
    and event times within 1e-6 s."""
    if got["markings"] != want["markings"]:
        raise AssertionError("markings differ")
    for key in ("beats", "downbeats", "change_points"):
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-6, err_msg=key)


def _still_matches(check) -> bool:
    try:
        check()
    except (AssertionError, OSError, ValueError, KeyError):  # a mismatch, or no readable fixture
        return False
    return True


def main() -> int:
    DATA.mkdir(exist_ok=True)
    arrays, report = stock_model_outputs(), checkpoint_report()

    def arrays_match():
        want = np.load(ARRAYS)
        if sorted(want.files) != sorted(arrays):
            raise AssertionError("the fixture names other outputs")
        for name, got in arrays.items():
            assert_array_matches(got, want[name])

    rewrote = []
    if not _still_matches(arrays_match):
        np.savez_compressed(ARRAYS, **arrays)
        rewrote.append(ARRAYS)
    if not _still_matches(lambda: assert_report_matches(report.to_json_dict(), json.loads(REPORT.read_text()))):
        report.write_json(REPORT)
        rewrote.append(REPORT)
    for path in rewrote:
        print(f"rewrote {path}")
    if not rewrote:
        print("both fixtures match the outputs; nothing rewritten")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
