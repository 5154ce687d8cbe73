"""dynamark benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload {annotate,train_step,fit} --seed N \
        --seconds S --trace {0,1}

Set-up (generating the corpus and, for training, its features) runs here,
several times, and ``setup_s`` is its median.  The workload itself then
runs in a fresh process (``workloads.py``) with one BLAS thread, so its
peak RSS is its own.  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the workload runs once untraced and once traced, and
the metrics are the per-layer ones.  A workload process that exits
non-zero or outruns the time limit of a run counts as one failed
operation, and the result then holds ``setup_s`` alone.  The line
before the result holds the machine facts, why the workload exists and
the workload's own detail figures; the same record, plus the spans of a
traced run, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

common.pin_blas_threads()

import corpus  # noqa: E402  (imports numpy, after the thread count is set)

SETUP_REPEATS = 5
RUN_LIMIT_S = 175  # a run must end within 180 s
# Time the workload process keeps back from its share of RUN_LIMIT_S: a fit
# stops at the first epoch end past its deadline and then reports.
CHILD_MARGIN_S = 15
CANONICAL_SEED = 86  # the batch whose first-step loss is recorded
# Corpora on which the fit recipe reaches the target, with the epochs it
# took on each when the benchmark was defined (one BLAS thread, 2-vCPU
# Xeon: 34-53 s).  Not every corpus converges that fast: seed 2 takes 31
# epochs and seed 12 is still at beat F1 0.85 after 60, which would outrun
# the time limit of a run.  Seed 86 is the acceptance-6 corpus.
FIT_CORPUS_EPOCHS = {1: 21, 3: 27, 4: 19, 5: 21, 86: 21, 87: 26, 88: 19, 89: 20, 90: 22, 91: 26}
FIT_CORPUS_SEEDS = tuple(FIT_CORPUS_EPOCHS)


def machine_facts(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    return {"nproc": common.cpu_count(), "ram_mb": mem_kb // 1024,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads}


def setup_annotate(work: Path, seed: int) -> str | None:
    from dynamark.errors import DynamarkError
    from dynamark.trainer import load_checkpoint

    ids, audio_s = corpus.write_annotate_corpus(work, seed)
    (work / "meta.json").write_text(json.dumps({"ids": ids, "audio_s": audio_s}))
    try:
        load_checkpoint(common.CHECKPOINT)
    except (DynamarkError, OSError) as exc:  # counts as a failed operation
        return f"checkpoint does not load: {exc}"
    return None


def setup_train_step(work: Path, seed: int) -> str | None:
    # 4 x 120 s clips give 12 half-overlapping 60 s segments: 3 batches of 4
    corpus.write_training_corpus(work, seed, n_clips=4, seconds=120.0)
    corpus.write_training_corpus(work / "canonical", CANONICAL_SEED)
    return common.extract_corpus_features(work) or common.extract_corpus_features(work / "canonical")


def setup_fit(work: Path, seed: int) -> str | None:
    corpus_seed = FIT_CORPUS_SEEDS[seed % len(FIT_CORPUS_SEEDS)]
    corpus.write_training_corpus(work, corpus_seed)
    (work / "meta.json").write_text(json.dumps({"reference_epochs": FIT_CORPUS_EPOCHS[corpus_seed]}))
    return common.extract_corpus_features(work)


SETUPS = {"annotate": setup_annotate, "train_step": setup_train_step, "fit": setup_fit}


def run_child(args, work: Path, spans: Path, budget_s: float) -> tuple[dict | None, str | None]:
    """Run the workload in a fresh process; returns its record or why it has none."""
    try:
        proc = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "workloads.py"), args.workload, str(work),
             str(args.seconds), str(args.trace), str(spans), str(budget_s - CHILD_MARGIN_S)],
            stdout=subprocess.PIPE, timeout=budget_s, text=True)
    except subprocess.TimeoutExpired:
        return None, f"{args.workload} workload did not end within {budget_s:.0f} s"
    if proc.returncode != 0:
        return None, f"{args.workload} workload exited {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def run(args, spec: dict) -> tuple[dict, dict]:
    started = time.perf_counter()
    facts = machine_facts(common.BLAS_THREADS)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    work = common.WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = common.OUT_ROOT / f"{args.workload}-seed{args.seed}-spans.json"
    setup_failures = []
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            start = time.perf_counter()
            failure = SETUPS[args.workload](work, args.seed)
            setup_s.append(time.perf_counter() - start)
            if failure:
                setup_failures.append(failure)
        child, crash = run_child(args, work, spans, RUN_LIMIT_S - (time.perf_counter() - started))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if crash:
        # the workload measured nothing: one failed operation, set-up time only
        child = {"attempted": 1, "failed": 1, "failures": [crash], "metrics": {}}
    child["failures"] = setup_failures + child["failures"]
    metrics = child.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_s)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not crash and set(metrics) != set(declared):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(declared))} "
                         "do not match BENCHMARK.json")
    attempted = child.pop("attempted") + SETUP_REPEATS
    failed = child.pop("failed") + len(setup_failures)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": why[args.workload], "machine": facts,
              "setup_runs_s": setup_s, **child}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": declared[name]}
                          for name in sorted(metrics)}}
    return record, result


def main() -> int:
    """Run one workload and print its result as the last line."""
    parser = argparse.ArgumentParser(description="dynamark benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.use_source_tree()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    common.OUT_ROOT.mkdir(parents=True, exist_ok=True)
    record, result = run(args, spec)
    out = common.OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
