"""Shared pieces of the benchmark: import path, corpus loading and the
fit-to-target recipe used by both the ``fit`` workload and the script
that rebuilds the committed checkpoint."""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
CHECKPOINT = BENCH_DIR / "data" / "stock_bssl.dync"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-vCPU box two threads make the stock train step
# only ~13 % faster but its step-to-step spread four times wider, and a
# single thread makes float32 results independent of the core count.
BLAS_THREADS = 1

# The acceptance-6 recipe: reduced widths, B=1, lr 3e-4, model seed 86,
# stop when beat F1 and dynamics F1 both reach 0.90, at most 200 epochs.
TARGET_F1 = 0.90
EPOCH_CAP = 200
FIT_MODEL = dict(channels=8, blocks_per_branch=1, attention_dim=8)
MODEL_SEED = 86


def use_source_tree() -> None:
    """Import ``dynamark`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dynamark" / "__init__.py").is_file():
        raise SystemExit(f"error: no dynamark sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_blas_threads() -> None:
    """Call before numpy is imported; child processes inherit it."""
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def reached_target(val: dict) -> bool:
    return val["beat_f1"] >= TARGET_F1 and (val["dynamics_f1"] or 0.0) >= TARGET_F1


def extract_corpus_features(root) -> str | None:
    """``dynamark extract --feature bssl`` from ``root/audio`` into
    ``root/features``; returns the failure, if any."""
    from dynamark import cli

    root = Path(root)
    code = cli.main(["extract", "--audio-dir", str(root / "audio"), "--out-dir",
                     str(root / "features"), "--feature", "bssl", "--workers", "1"])
    return f"extract --feature bssl exited {code}" if code else None


def fit_to_target(recordings, model_cfg, epochs: int = EPOCH_CAP, deadline: float = math.inf):
    """Train from scratch at B=1 until the 0.90/0.90 rule fires, or until
    ``deadline`` (a ``perf_counter`` time) has passed at the end of an epoch.

    Returns (best checkpoint, history, whether the rule fired, the
    ``perf_counter`` time at the end of each epoch).
    """
    from dynamark.network import DynamicsModel
    from dynamark.trainer import TrainConfig, train_model

    fired = []
    epoch_ends = []

    def stop(val):
        fired.append(reached_target(val))
        return fired[-1] or time.perf_counter() > deadline

    model = DynamicsModel(model_cfg, seed=MODEL_SEED)
    cfg = TrainConfig(lr=3e-4, batch_size=1, epochs=epochs, seed=MODEL_SEED, segment_s=60)
    best, history = train_model(model, recordings, recordings, cfg,
                                log=lambda _: epoch_ends.append(time.perf_counter()),
                                stop_when=stop)
    return best, history, bool(fired and fired[-1]), epoch_ends
