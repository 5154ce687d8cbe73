"""The benchmark's call surface into ``dynamark`` must keep working.

``bench/tracing.py`` resolves autodiff ops, module functions and
methods by name when it installs itself; a name removed from
``dynamark`` would only surface as a failed ``--trace 1`` run.  It
also wraps the ``_backward`` of each op output and walks ``_parents``
from the loss to size the graph.  The ``train_step`` and ``fit``
workloads' ``_step`` calls ``forward``,
``multitask_loss``, the report's ``total`` and ``AdamW``, and the
``fit`` workload's ``common.fit_to_target`` calls ``TrainConfig``,
``train_model`` with ``log`` and ``stop_when``, and reads the history's
``step_losses`` and the best checkpoint's ``val_summary``.  The
``annotate`` workload and ``common.extract_corpus_features`` drive
``cli.main`` with fixed argv.  A change to any of them would only
surface as a failed benchmark run.
"""

import importlib
import math

import numpy as np
import pytest

from dynamark import autodiff as ad
from dynamark import cli
from dynamark.network import DynamicsModel, ModelConfig
from dynamark.objectives import FrameTargets, TargetBatch, multitask_loss
from dynamark.trainer import AdamW

from _synth import BENCH_DIR, load_bench_module, load_synth_recordings, write_corpus


@pytest.fixture(scope="module")
def tracing():
    return load_bench_module("tracing")


def test_traced_ops_exist_in_autodiff(tracing):
    missing = [op for op in tracing.OP_CATEGORY if not callable(getattr(ad, op, None))]
    assert not missing


def test_traced_module_functions_exist(tracing):
    missing = [f"{mod}.{name}" for mod, names in tracing.MODULE_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"dynamark.{mod}"), name, None))]
    assert not missing


def test_traced_methods_exist(tracing):
    missing = []
    for mod, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"dynamark.{mod}"), cls_name, None)
        if cls is None or not callable(vars(cls).get(meth)):
            missing.append(f"{mod}.{cls_name}.{meth}")
    assert not missing


SMALL_MODEL = ModelConfig(channels=4, blocks_per_branch=1, attention_dim=4)


def _small_batch():
    rng = np.random.default_rng(0)
    t = 50
    beat = np.zeros(t, dtype=np.uint8)
    beat[::10] = 1
    targets = TargetBatch.from_targets(
        [FrameTargets(beat=beat, downbeat=beat * (np.arange(t) % 20 == 0), change_point=np.zeros(t),
                      dynamic_class=rng.integers(0, 6, t)) for _ in range(2)], [t, 40])
    return rng.standard_normal((2, 22, t)).astype(np.float32), targets


def test_workload_step_runs(monkeypatch):
    # workloads.py imports its sibling modules by their plain names
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    workloads = load_bench_module("workloads")

    model = DynamicsModel(SMALL_MODEL, seed=86)
    optimizer = AdamW(model.params, lr=3e-4)
    before = {name: p.data.copy() for name, p in model.params.items()}
    loss = workloads._step(model, optimizer, *_small_batch())
    assert isinstance(loss, float) and math.isfinite(loss) and loss > 0
    assert any(not np.array_equal(p.data, before[name]) for name, p in model.params.items())


def test_traced_step_matches_untraced(tracing):
    # the tracer wraps the backward closure of every op output it sees and
    # walks the graph behind the loss through ``_backward`` and ``_parents``
    feats, targets = _small_batch()

    def step():
        model = DynamicsModel(SMALL_MODEL, seed=86)
        loss, _ = multitask_loss(model.forward(feats, training=True), targets)
        model.params.zero_grads()
        ad.backward(loss)
        return loss.item(), {name: p.grad for name, p in model.params.items()}

    plain_loss, plain_grads = step()
    tracer = tracing.Tracer()
    with tracer:
        traced_loss, traced_grads = step()
    assert traced_loss == plain_loss
    assert all(np.array_equal(traced_grads[name], grad) for name, grad in plain_grads.items())
    spans = {span[0] for span in tracer.spans}
    assert set(tracer.calls) == set(tracing.CATEGORIES) - {"matmul"}  # no model op calls matmul
    assert all(f"autodiff.{kind}.bwd" in spans for kind in tracer.calls)
    [(nodes, nbytes)] = tracer.graphs
    assert nodes > 100 and nbytes > 0


def test_fit_to_target_runs(tmp_path):
    common = load_bench_module("common")
    write_corpus(tmp_path, n_clips=1, seconds=8.0, bpm=120, beats_per_level=4, seed=11)
    recordings = load_synth_recordings(tmp_path)
    model_cfg = ModelConfig(channels=4, blocks_per_branch=1, attention_dim=4)
    best, history, fired, epoch_ends = common.fit_to_target(recordings, model_cfg, epochs=1)
    assert len(history["step_losses"]) == 1 and math.isfinite(history["step_losses"][0])
    assert set(best.val_summary) >= {"beat_f1", "dynamics_f1", "mean_f1"}
    assert fired == common.reached_target(best.val_summary)
    assert len(epoch_ends) == 1


# Copied from bench/workloads.py (`_annotate_pass`, `run_annotate`) and
# bench/common.py (`extract_corpus_features`), with placeholder paths.
BENCH_ARGV = {
    "extract-logmel": ["extract", "--audio-dir", "audio", "--out-dir", "logmel",
                       "--feature", "logmel", "--workers", "1", "--force"],
    "extract-bssl": ["extract", "--audio-dir", "audio", "--out-dir", "features",
                     "--feature", "bssl", "--workers", "1"],
    "annotate": ["annotate", "audio/clip.wav", "--checkpoint", "stock_bssl.dync",
                 "--out-prefix", "preds/clip"],
    "eval": ["eval", "--predictions", "scored", "--references", "annotations",
             "--out", "eval/eval.json"],
}


@pytest.mark.parametrize("argv", BENCH_ARGV.values(), ids=BENCH_ARGV.keys())
def test_bench_cli_argv_parse(argv):
    args = cli.build_parser().parse_args(argv)  # a usage error exits
    assert args.command == argv[0]
    for flag in (token for token in argv if token.startswith("--")):
        assert getattr(args, flag[2:].replace("-", "_")) not in (None, False), flag
