"""Rebuild the committed stock-config BSSL checkpoint, bit for bit.

Trains ``ModelConfig()`` (the stock shape) from model seed 86 at B=1 and
lr 3e-4 on the seed-86 corpus of 4 x 60 s clips until beat F1 and
dynamics F1 on those clips both reach 0.90, and writes the
best-validation checkpoint.  BLAS runs on one thread so the float32
arithmetic, and hence the file, repeats exactly on the same numpy and
OpenBLAS build.

    python3 bench/build_checkpoint.py

overwrites ``bench/data/stock_bssl.dync``; ``git diff`` then shows
whether the rebuild matches the committed file.
"""

import hashlib
import os
import shutil
import time

import common

common.pin_blas_threads()

import corpus  # noqa: E402  (imports numpy, after the thread count is set)

CORPUS_SEED = 86


def main() -> int:
    common.use_source_tree()
    from dynamark.dataset import load_corpus
    from dynamark.network import ModelConfig
    from dynamark.trainer import save_checkpoint

    work = common.WORK_ROOT / f"checkpoint-{os.getpid()}"
    try:
        corpus.write_training_corpus(work, CORPUS_SEED)
        failure = common.extract_corpus_features(work)
        if failure:
            raise SystemExit(f"error: {failure}")
        recordings = load_corpus(work / "features", work / "annotations")
        start = time.perf_counter()
        best, history, fired, _ = common.fit_to_target(recordings, ModelConfig())
        epochs = len(history["epoch_losses"])
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not fired:
        raise SystemExit(f"error: target not reached in {epochs} epochs: {best.val_summary}")
    save_checkpoint(best, common.CHECKPOINT)
    digest = hashlib.sha256(common.CHECKPOINT.read_bytes()).hexdigest()
    print(f"{common.CHECKPOINT.relative_to(common.ROOT)}: epoch {best.epoch} of {epochs}, {elapsed:.0f} s, "
          f"beat F1 {best.val_summary['beat_f1']:.3f}, "
          f"dynamics F1 {best.val_summary['dynamics_f1']:.3f}, sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
