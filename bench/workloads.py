"""Workload bodies.  Each runs in a fresh process that ``run.py`` starts
after set-up, so its peak RSS is the workload's own:

    python3 bench/workloads.py <workload> <workdir> <seconds> <trace 0|1> <spans.json> <budget_s>

The last line of standard output is one JSON object with the
operations attempted and failed, the failed checks, and either the
end-to-end figures or, with tracing, the per-layer figures.

``op_s`` is per unit of work: one pass over the corpus for ``annotate``
(extract, annotate each clip, eval), one AdamW step for ``train_step``
and, for ``fit``, the wall time to target over the epochs that corpus
took when the benchmark was defined, so a change that makes the target
need more epochs raises it in proportion.  Per-layer figures are per
pass, per step and per epoch.  An operation that can fail is one CLI
call, one step or one fit run.  A fit that has not reached the target
when ``budget_s`` has passed stops at the end of that epoch and fails.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import common

common.use_source_tree()

import numpy as np  # noqa: E402

# Traced functions are called through their modules, so the tracer sees them.
from dynamark import autodiff as ad  # noqa: E402
from dynamark import cli, dataset, objectives  # noqa: E402
from dynamark.network import DynamicsModel, ModelConfig  # noqa: E402
from dynamark.trainer import AdamW  # noqa: E402
from tracing import Tracer  # noqa: E402

TRAIN_BATCH = 4
TRAIN_WINDOW_S = 60
MIN_TIMED_STEPS = 3
TRACED_STEPS = 2
# Share of the traced step wall time that the per-layer self times must
# account for; the rest is the benchmark's own loop and forward glue.
MIN_STEP_COVERAGE = 0.95
TRACE_REFERENCE_EPOCHS = 3
# First-step loss of the stock model (seed 86) on the canonical seed-86
# batch; a float32 forward pass reproduces it to well inside this share.
REFERENCE_FIRST_LOSS = 7.50189208984375
FIRST_LOSS_RTOL = 1e-4
# Beat F1 floor of the committed checkpoint on the annotate corpus, where
# it scores 0.85-0.88 (0.95-0.99 on its own training clips; the short
# clip, the zero-padded last windows and the resampled 44.1 kHz input
# score lower).  Dynamics F1 is recorded but not checked: ``eval`` reads
# each marking at the nearest predicted beat, and one frame off the
# annotated beat the dynamics head was never trained (F1 0.05-0.07).
MIN_BEAT_F1 = 0.75


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def result(self, **extra) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:20], **extra}


# --------------------------------------------------------------------------
# annotate: extract -> annotate each clip -> eval, through dynamark.cli.main
# --------------------------------------------------------------------------

def _read_report(path: Path) -> dict | None:
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    keys = ("beats", "downbeats", "markings", "change_points")
    if not all(isinstance(report.get(k), list) for k in keys):
        return None
    return report if len(report["markings"]) == len(report["beats"]) else None


def _annotate_pass(work: Path, ids: list[str], outcome: Outcome) -> dict:
    audio, refs = work / "audio", work / "annotations"
    preds, scored, feats = work / "preds", work / "scored", work / "logmel"
    for d in (preds, scored):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()

    start = time.perf_counter()
    code = cli.main(["extract", "--audio-dir", str(audio), "--out-dir", str(feats),
                     "--feature", "logmel", "--workers", "1", "--force"])
    extract_s = time.perf_counter() - start
    written = all((feats / f"{rec}.dynf").is_file() for rec in ids)
    outcome.check(code == 0 and written, f"extract exited {code}, all written: {written}")

    annotate_s = 0.0
    for rec in ids:
        start = time.perf_counter()
        code = cli.main(["annotate", str(audio / f"{rec}.wav"), "--checkpoint", str(common.CHECKPOINT),
                         "--out-prefix", str(preds / rec)])
        annotate_s += time.perf_counter() - start
        report = _read_report(preds / f"{rec}.events.json")
        if outcome.check(code == 0 and report is not None, f"annotate {rec} exited {code}"):
            shutil.copyfile(preds / f"{rec}.events.json", scored / f"{rec}.json")

    eval_path = work / "eval" / "eval.json"
    eval_path.parent.mkdir(exist_ok=True)
    start = time.perf_counter()
    code = cli.main(["eval", "--predictions", str(scored), "--references", str(refs),
                     "--out", str(eval_path)])
    eval_s = time.perf_counter() - start
    scores = json.loads(eval_path.read_text()) if code == 0 else {}
    every_clip = sorted(scores.get("per_recording", {})) == sorted(ids)
    outcome.check(code == 0 and every_clip, f"eval exited {code}, scored every clip: {every_clip}")
    f1 = lambda key: (scores.get(key) or {}).get("mean") or 0.0
    return {"extract_s": extract_s, "annotate_s": annotate_s, "eval_s": eval_s,
            "wall_s": extract_s + annotate_s + eval_s,
            "beat_f1": f1("beat_f1"), "dynamics_f1": f1("dynamics_f1")}


def run_annotate(work: Path, seconds: float, trace: bool) -> dict:
    meta = json.loads((work / "meta.json").read_text())
    ids, minutes = meta["ids"], meta["audio_s"] / 60.0
    outcome = Outcome()
    # one untimed call first, so lazy imports and first-call costs are paid
    shortest = min(ids, key=lambda rec: (work / "audio" / f"{rec}.wav").stat().st_size)
    code = cli.main(["annotate", str(work / "audio" / f"{shortest}.wav"),
                     "--checkpoint", str(common.CHECKPOINT), "--out-prefix", str(work / "warmup")])
    outcome.check(code == 0, f"warm-up annotate exited {code}")

    if trace:
        plain = _annotate_pass(work, ids, outcome)
        tracer = Tracer()
        with tracer:
            with tracer.span("bench.pass"):
                traced = _annotate_pass(work, ids, outcome)
        same = (plain["beat_f1"], plain["dynamics_f1"]) == (traced["beat_f1"], traced["dynamics_f1"])
        outcome.check(same, "traced and untraced F1 differ")
        return outcome.result(tracer=tracer, n_ops=1, plain_op_s=plain["wall_s"],
                              traced_op_s=traced["wall_s"])

    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(_annotate_pass(work, ids, outcome))
    med = lambda key: statistics.median(p[key] for p in passes)
    for p in passes:
        outcome.check(p["beat_f1"] >= MIN_BEAT_F1, f"beat F1 {p['beat_f1']:.3f} below {MIN_BEAT_F1}")
    return outcome.result(metrics={"op_s": med("wall_s"), "peak_rss_mb": peak_rss_mb()}, detail={
        "passes": len(passes),
        "extract_s_per_audio_min": med("extract_s") / minutes,
        "annotate_s_per_audio_min": med("annotate_s") / minutes,
        "eval_s": med("eval_s"),
        "beat_f1": passes[-1]["beat_f1"],
        "dynamics_f1": passes[-1]["dynamics_f1"],
    })


# --------------------------------------------------------------------------
# train_step: AdamW steps at the stock shape, B=4 x 22 x 3000
# --------------------------------------------------------------------------

def _batches(root: Path) -> list[tuple[np.ndarray, objectives.TargetBatch]]:
    segments = []
    for rec in dataset.load_corpus(root / "features", root / "annotations"):
        segments += dataset.make_segments(rec.features, rec.targets, rec.recording_id,
                                          window_s=TRAIN_WINDOW_S, mode="train")
    out = []
    for lo in range(0, len(segments) - TRAIN_BATCH + 1, TRAIN_BATCH):
        chunk = segments[lo:lo + TRAIN_BATCH]
        targets = objectives.TargetBatch.from_targets([s.targets for s in chunk],
                                                      [s.n_valid for s in chunk])
        out.append((np.stack([s.features for s in chunk]), targets))
    return out


def _step(model: DynamicsModel, optimizer: AdamW, feats, targets) -> float:
    logits = model.forward(feats, training=True)
    loss, report = objectives.multitask_loss(logits, targets)
    optimizer.zero_grad()
    ad.backward(loss)
    optimizer.step()
    return report.total


def _fresh_model(canonical, outcome: Outcome) -> tuple[DynamicsModel, AdamW, float]:
    """Stock model from seed 86, after the checked first step."""
    model = DynamicsModel(ModelConfig(), seed=common.MODEL_SEED)
    optimizer = AdamW(model.params, lr=3e-4)
    first = _step(model, optimizer, *canonical)
    ok = math.isclose(first, REFERENCE_FIRST_LOSS, rel_tol=FIRST_LOSS_RTOL)
    outcome.check(ok, f"first-step loss {first!r}, recorded {REFERENCE_FIRST_LOSS!r}")
    return model, optimizer, first


def _timed_steps(model, optimizer, batches, n_min, seconds, outcome, tracer=None):
    times, losses = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < n_min or time.perf_counter() < deadline:
        feats, targets = batches[len(times) % len(batches)]
        start = time.perf_counter()
        if tracer is None:
            loss = _step(model, optimizer, feats, targets)
        else:
            with tracer.span("bench.step"):
                loss = _step(model, optimizer, feats, targets)
        times.append(time.perf_counter() - start)
        losses.append(loss)
        outcome.check(math.isfinite(loss), f"step {len(times)} loss {loss!r}")
    return times, losses


def run_train_step(work: Path, seconds: float, trace: bool) -> dict:
    outcome = Outcome()
    batches = _batches(work)
    canonical = _batches(work / "canonical")[0]
    model, optimizer, first = _fresh_model(canonical, outcome)
    if trace:
        times, losses = _timed_steps(model, optimizer, batches, TRACED_STEPS, 0.0, outcome)
        model, optimizer, first_again = _fresh_model(canonical, outcome)
        tracer = Tracer()
        with tracer:
            t_times, t_losses = _timed_steps(model, optimizer, batches, TRACED_STEPS, 0.0,
                                             outcome, tracer)
        same = [first] + losses == [first_again] + t_losses
        outcome.check(same, f"traced losses {t_losses} differ from untraced {losses}")
        coverage = tracer.coverage()
        outcome.check(coverage >= MIN_STEP_COVERAGE, f"spans cover {coverage:.3f} of the step")
        return outcome.result(tracer=tracer, n_ops=len(t_times),
                              plain_op_s=statistics.median(times),
                              traced_op_s=statistics.median(t_times))
    times, _ = _timed_steps(model, optimizer, batches, MIN_TIMED_STEPS, seconds, outcome)
    return outcome.result(metrics={"op_s": statistics.median(times), "peak_rss_mb": peak_rss_mb()},
                          detail={"steps": len(times), "step_s": times})


# --------------------------------------------------------------------------
# fit: the acceptance-6 run, from scratch to beat/dynamics F1 >= 0.90
# --------------------------------------------------------------------------

def _fit(recordings, deadline: float, epochs: int = common.EPOCH_CAP):
    start = time.perf_counter()
    best, history, fired, epoch_ends = common.fit_to_target(
        recordings, ModelConfig(**common.FIT_MODEL), epochs=epochs, deadline=deadline)
    return np.diff([start] + epoch_ends).tolist(), history["step_losses"], fired, best


def run_fit(work: Path, deadline: float, trace: bool) -> dict:
    outcome = Outcome()
    reference_epochs = json.loads((work / "meta.json").read_text())["reference_epochs"]
    recordings = dataset.load_corpus(work / "features", work / "annotations")
    if trace:
        # the untraced reference covers the first epochs only, to keep the run short
        plain_epoch_s, plain_losses, _, _ = _fit(recordings, deadline, TRACE_REFERENCE_EPOCHS)
        tracer = Tracer()
        with tracer, tracer.span("bench.fit"):
            epoch_s, losses, fired, best = _fit(recordings, deadline)
        same = losses[:len(plain_losses)] == plain_losses
        outcome.check(same, "traced losses differ from untraced")
    else:
        epoch_s, losses, fired, best = _fit(recordings, deadline)
    outcome.check(fired, f"target not reached in {len(epoch_s)} epochs "
                         f"(reference {reference_epochs}): {best.val_summary}")
    if trace:
        return outcome.result(tracer=tracer, n_ops=len(epoch_s),
                              plain_op_s=statistics.median(plain_epoch_s),
                              traced_op_s=statistics.median(epoch_s))
    return outcome.result(metrics={"op_s": sum(epoch_s) / reference_epochs,
                                   "peak_rss_mb": peak_rss_mb()},
                          detail={"fit_s_to_target": sum(epoch_s), "fit_epochs_to_target": len(epoch_s),
                                  "reference_epochs": reference_epochs,
                                  "epoch_s": statistics.median(epoch_s)})


WORKLOADS = {"annotate": run_annotate, "train_step": run_train_step, "fit": run_fit}


def main(argv) -> int:
    workload, work, seconds, trace = argv[0], Path(argv[1]), float(argv[2]), argv[3] == "1"
    spans, deadline = Path(argv[4]), time.perf_counter() + float(argv[5])
    # fit runs to its target, not for a set time, but within the time left
    result = WORKLOADS[workload](work, deadline if workload == "fit" else seconds, trace)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        n_ops = result.pop("n_ops")
        plain, traced = result.pop("plain_op_s"), result.pop("traced_op_s")
        metrics = tracer.layer_metrics(n_ops)
        metrics["trace.overhead_s"] = traced - plain
        metrics["trace.overhead_share"] = (traced - plain) / plain
        metrics["trace.coverage"] = tracer.coverage()
        result["metrics"] = metrics
        result["detail"] = {"untraced_op_s": plain, "traced_op_s": traced, "ops": n_ops,
                            "spans": len(tracer.spans)}
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(common.ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
