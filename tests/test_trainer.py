"""Optimiser semantics, checkpoint persistence, training determinism."""

import json
import re
import struct
import threading
import tracemalloc
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynamark import autodiff as ad
from dynamark import parallel, trainer
from dynamark.audio import FPS
from dynamark.autodiff import ParameterStore, Tensor
from dynamark.errors import CheckpointError, ConfigError, DynamarkError, TrainingError
from dynamark.network import DynamicsModel, ModelConfig
from dynamark.cli import main
from dynamark.trainer import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    AdamW,
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    split_fold,
    train_model,
)

from _synth import write_corpus, load_synth_recordings

SMALL = dict(channels=4, blocks_per_branch=1, attention_dim=4)


@pytest.fixture(scope="module")
def tiny_recordings(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinycorpus")
    write_corpus(root, n_clips=2, seconds=8.0, bpm=120, beats_per_level=4, seed=3)
    return load_synth_recordings(root)


# -- AdamW ---------------------------------------------------------------------

def test_adamw_first_step_closed_form():
    store = ParameterStore()
    theta = store.add("theta", np.zeros(4, dtype=np.float32))
    theta.zero_grad()
    theta.grad[:] = 1.0
    opt = AdamW(store, lr=3e-4, weight_decay=0.01)
    opt.step()
    # m_hat/sqrt(v_hat) == 1 on the first step; decay term is zero at theta=0
    np.testing.assert_allclose(theta.data, -3e-4, rtol=1e-5)


def test_adamw_matches_hand_rolled_adam_on_quadratic():
    # oracle: an independent Adam implementation, weight_decay = 0
    a = np.array([3.0, 1.0, 0.5], dtype=np.float64)
    target = np.array([1.0, -2.0, 0.3], dtype=np.float64)

    store = ParameterStore()
    theta = store.add("theta", np.zeros(3, dtype=np.float64))
    opt = AdamW(store, lr=0.05, weight_decay=0.0)

    ref_theta = np.zeros(3, dtype=np.float64)
    m = np.zeros(3)
    v = np.zeros(3)
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    for step in range(1, 101):
        grad = a * (ref_theta - target)
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        ref_theta = ref_theta - lr * (m / (1 - beta1 ** step)) / (np.sqrt(v / (1 - beta2 ** step)) + eps)

        theta.zero_grad()
        theta.grad[:] = a * (theta.data - target)
        opt.step()
        np.testing.assert_allclose(theta.data, ref_theta, atol=1e-6)


def test_adamw_rejects_nan_gradient():
    store = ParameterStore()
    theta = store.add("weights.w", np.zeros(2, dtype=np.float32))
    theta.zero_grad()
    theta.grad[0] = np.nan
    with pytest.raises(TrainingError, match="weights.w"):
        AdamW(store).step()


# -- checkpoints ------------------------------------------------------------------

def small_model(seed=86):
    return DynamicsModel(ModelConfig(**SMALL), seed=seed)


def test_checkpoint_round_trip_bit_identical(tmp_path):
    model = small_model()
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((22, 80)).astype(np.float32)
    # give running stats non-default values
    model.forward(feats, training=True)
    before = model.forward(feats, training=False)

    cp = Checkpoint.from_model(model, TrainConfig(), epoch=3, val_summary={"mean_f1": 0.5})
    path = tmp_path / "model.dync"
    save_checkpoint(cp, path)
    loaded = load_checkpoint(path)
    assert loaded.epoch == 3
    assert loaded.val_summary["mean_f1"] == 0.5
    assert loaded.model_config == model.cfg
    restored = model_from_checkpoint(loaded)
    after = restored.forward(feats, training=False)
    assert np.array_equal(before["dynamics"].data, after["dynamics"].data)
    assert np.array_equal(before["beat"].data, after["beat"].data)


def test_checkpoint_truncated_fails_checksum(tmp_path):
    model = small_model()
    path = tmp_path / "model.dync"
    save_checkpoint(Checkpoint.from_model(model, TrainConfig(), epoch=1), path)
    blob = path.read_bytes()
    (tmp_path / "trunc.dync").write_bytes(blob[:-20])
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(tmp_path / "trunc.dync")


def test_checkpoint_version_mismatch(tmp_path):
    model = small_model()
    path = tmp_path / "model.dync"
    save_checkpoint(Checkpoint.from_model(model, TrainConfig(), epoch=1), path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    (tmp_path / "old.dync").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(tmp_path / "old.dync")


def test_checkpoint_not_a_checkpoint(tmp_path):
    bad = tmp_path / "bad.dync"
    bad.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(bad)


def test_checkpoint_save_failing_midway_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "model.dync"
    save_checkpoint(Checkpoint.from_model(small_model(), TrainConfig(), epoch=1), path)

    class TornWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("disk full")

    real_open = open
    monkeypatch.setattr(trainer, "open", lambda *a, **k: TornWrite(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(Checkpoint.from_model(small_model(seed=1), TrainConfig(), epoch=2), path)
    monkeypatch.undo()
    assert load_checkpoint(path).epoch == 1


def _forge_checkpoint(path, config_blob: bytes, tensor_table: bytes) -> None:
    """A checkpoint whose CRC matches whatever body it carries."""
    body = struct.pack("<I", len(config_blob)) + config_blob + tensor_table
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, zlib.crc32(body)) + body)


GOOD_CONFIG = json.dumps({"model_config": asdict(ModelConfig(**SMALL)),
                          "train_config": asdict(TrainConfig()), "epoch": 1,
                          "val_summary": {}, "n_params": 0, "n_state": 0}).encode()


@pytest.mark.parametrize("config_blob, tensor_table", [
    (b"{not json", struct.pack("<I", 0)),                          # malformed JSON
    (b"[]", struct.pack("<I", 0)),                                 # JSON, wrong shape
    (GOOD_CONFIG, struct.pack("<I", 3)),                           # short tensor table
    (GOOD_CONFIG, struct.pack("<I", 1) + struct.pack("<H", 1) + b"w"
     + struct.pack("<BI", 1, 1000) + b"\0" * 8),                   # short tensor payload
    (GOOD_CONFIG.replace(b'"lr"', b'"momentum": 0.9, "lr"'), struct.pack("<I", 0)),  # unknown config key
], ids=["json", "json-shape", "table", "payload", "unknown-key"])
def test_checkpoint_malformed_body_with_valid_crc(tmp_path, capsys, config_blob, tensor_table):
    path = tmp_path / "forged.dync"
    _forge_checkpoint(path, config_blob, tensor_table)
    with pytest.raises(CheckpointError, match="malformed"):
        load_checkpoint(path)
    # the CLI reports it as an input error (exit 1), not an internal one (2)
    assert main(["annotate", str(tmp_path / "any.wav"), "--checkpoint", str(path)]) == 1
    assert "malformed" in capsys.readouterr().err


def _rename_running_mean(state):
    state["input_bn.running_avg"] = state.pop("input_bn.running_mean")


def _reshape_running_mean(state):
    state["input_bn.running_mean"] = np.zeros(7, dtype=np.float32)


def _reshape_param(state):
    state["head_beat.w"] = np.zeros((2, 8), dtype=np.float32)


@pytest.mark.parametrize("corrupt, culprit", [
    (_rename_running_mean, "input_bn.running_avg"),
    (_reshape_running_mean, "input_bn.running_mean has shape (7,)"),
    (_reshape_param, "head_beat.w has shape (2, 8)"),
], ids=["bn-name", "bn-shape", "param-shape"])
def test_checkpoint_state_must_fit_the_model(tmp_path, capsys, corrupt, culprit):
    # the file itself is sound (valid CRC, well-formed body); its tensors are not the model's
    cp = Checkpoint.from_model(small_model(), TrainConfig(), epoch=1)
    corrupt(cp.state)
    path = tmp_path / "misfit.dync"
    save_checkpoint(cp, path)
    with pytest.raises(CheckpointError, match=re.escape(culprit)):
        model_from_checkpoint(load_checkpoint(path))
    assert main(["annotate", str(tmp_path / "any.wav"), "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert culprit in err
    assert f"error: {path}: checkpoint state does not match" in err  # the error names the file


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_checkpoint_non_finite_tensor_is_refused(tmp_path, value):
    # the file is sound (valid CRC, well-formed body); such weights used to load
    cp = Checkpoint.from_model(small_model(), TrainConfig(), epoch=1)
    cp.state["head_beat.w"][0, 2] = value
    path = tmp_path / "nan.dync"
    save_checkpoint(cp, path)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: tensor 'head_beat.w' holds NaN or infinite")):
        load_checkpoint(path)


@pytest.mark.parametrize("seconds", [0, -5])
def test_segment_s_below_one_is_training_error(tmp_path, capsys, seconds):
    with pytest.raises(TrainingError, match=f"segment_s={seconds}"):
        TrainConfig(segment_s=seconds)
    # a checkpoint that records such a window length is refused on load
    train_cfg = TrainConfig()
    train_cfg.segment_s = seconds
    path = tmp_path / "short.dync"
    save_checkpoint(Checkpoint.from_model(small_model(), train_cfg, epoch=1), path)
    with pytest.raises(TrainingError, match=f"segment_s={seconds}") as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")  # the error names the file
    assert main(["annotate", str(tmp_path / "any.wav"), "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"segment_s={seconds}" in err
    assert f"error: {path}: invalid training config" in err


@pytest.mark.parametrize("field, value, message", [
    ("epochs", 0, "epochs=0"),
    ("epochs", -3, "epochs=-3"),
    ("seed", -1, "seed=-1"),  # numpy's default_rng raised ValueError on it, deep in make_folds
])
def test_no_epochs_or_unknown_task_is_training_error(tmp_path, capsys, field, value, message):
    with pytest.raises(TrainingError, match=message):
        TrainConfig(**{field: value})
    train_cfg = TrainConfig()
    setattr(train_cfg, field, value)
    path = tmp_path / "bad.dync"
    save_checkpoint(Checkpoint.from_model(small_model(), train_cfg, epoch=1), path)
    with pytest.raises(TrainingError, match=message):
        load_checkpoint(path)
    assert main(["annotate", str(tmp_path / "any.wav"), "--checkpoint", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_committed_checkpoint_loads():
    # written before the writer dropped n_params/n_state and the retired config keys
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "stock_bssl.dync"
    blob = path.read_bytes()
    (config_len,) = struct.unpack_from("<I", blob, 12)
    recorded = json.loads(blob[16:16 + config_len])
    for section, retired in trainer.RETIRED_CONFIG.items():
        assert retired.items() <= recorded[section].items(), section
    cp = load_checkpoint(path)
    assert cp.model_config == ModelConfig()
    assert cp.train_config == TrainConfig(batch_size=1, epochs=200)
    model = model_from_checkpoint(cp)
    assert sorted(cp.state) == sorted(DynamicsModel(ModelConfig(), seed=0).state_dict())
    assert all(np.array_equal(arr, cp.state[name]) for name, arr in model.state_dict().items())


@pytest.mark.parametrize("section, key, value", [
    ("model_config", "latent_dim", 16),
    ("model_config", "num_dynamic_classes", 5),
    ("model_config", "num_tasks", 7),
    ("train_config", "betas", [0.5, 0.9]),
    ("train_config", "eps", 1e-6),
    ("train_config", "enabled_tasks", ["beat"]),
])
def test_retired_config_key_at_another_value_is_refused(tmp_path, capsys, section, key, value):
    with pytest.raises(ConfigError, match=f"{key} is fixed at "):
        trainer._drop_retired(section, {key: value})
    config = json.loads(GOOD_CONFIG)
    config[section][key] = value
    path = tmp_path / "retired.dync"
    _forge_checkpoint(path, json.dumps(config).encode(), struct.pack("<I", 0))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {key} is fixed at ")):  # names the file
        load_checkpoint(path)
    assert main(["annotate", str(tmp_path / "any.wav"), "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{key} is fixed at {trainer.RETIRED_CONFIG[section][key]}, got {value!r}" in err
    assert f"error: {path}: {key} is fixed at " in err


def test_recorded_scaling_factor_below_one_names_the_file(tmp_path, capsys):
    config = json.loads(GOOD_CONFIG)
    config["model_config"]["scaling_factor"] = 0
    path = tmp_path / "unscaled.dync"
    _forge_checkpoint(path, json.dumps(config).encode(), struct.pack("<I", 0))
    message = f"{path}: scaling_factor must be >= 1, got 0"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_checkpoint(path)
    assert main(["annotate", str(tmp_path / "any.wav"), "--checkpoint", str(path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_checkpoint_body(tmp_path_factory):
    # a model without MMoE and one channel keeps the tensor data short, so
    # most mutated bytes land in the config JSON or the tensor headers
    cfg = ModelConfig(input_bins=2, scaling_factor=2, channels=1, blocks_per_branch=1,
                      attention_dim=1, use_mmoe=False)
    path = tmp_path_factory.mktemp("fuzz") / "tiny.dync"
    save_checkpoint(Checkpoint.from_model(DynamicsModel(cfg, seed=0), TrainConfig(), epoch=1), path)
    return path.read_bytes()[12:], path.with_name("mutated.dync")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_checkpoint_body_fuzz_raises_only_typed_errors(tiny_checkpoint_body, data):
    body, path = tiny_checkpoint_body
    body = bytearray(body)
    for _ in range(data.draw(st.integers(1, 4))):
        body[data.draw(st.integers(0, len(body) - 1))] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        del body[data.draw(st.integers(0, len(body))):]
    body = bytes(body)
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, zlib.crc32(body)) + body)
    try:
        model_from_checkpoint(load_checkpoint(path))
    except DynamarkError:
        pass


# -- prediction ------------------------------------------------------------------------

def _windowed_features(n_windows, window_s):
    """(22, T) features that ``predict_frames`` cuts into ``n_windows``
    eval windows, the last one 37 frames long."""
    t = (n_windows - 1) * window_s * FPS + 37
    return np.random.default_rng(n_windows).standard_normal((22, t)).astype(np.float32)


def test_predict_frames_same_bits_at_any_worker_count(monkeypatch):
    model = small_model()
    feats = _windowed_features(4, 2)
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    serial = trainer.predict_frames(model, feats, window_s=2)
    threads = []
    forward = DynamicsModel.forward  # the windows run on a frozen copy of ``model``
    monkeypatch.setattr(DynamicsModel, "forward",
                        lambda *a, **kw: threads.append(threading.get_ident()) or forward(*a, **kw))
    monkeypatch.setattr(parallel, "worker_count", lambda: 3)
    pooled = trainer.predict_frames(model, feats, window_s=2)
    assert len(threads) == 4 and threading.get_ident() not in threads
    assert list(pooled) == list(serial)
    for task, want in serial.items():
        assert len(want) == feats.shape[1]
        assert pooled[task].dtype == want.dtype and np.array_equal(pooled[task], want), task


def test_predict_frames_reads_only_the_recordings_frames_in_its_last_window():
    # 75 s: the second window is the last 15 s alone, not 15 s and 45 s of zeros
    model = small_model()
    feats = np.random.default_rng(75).standard_normal((22, 75 * FPS)).astype(np.float32)
    probs = trainer.predict_frames(model, feats, window_s=60)
    logits = model.frozen().forward(feats[:, 60 * FPS:], training=False)
    for task, logit in logits.items():
        want = (ad.softmax_np if task == "dynamics" else ad.sigmoid_np)(logit.data[0])
        got = probs[task][60 * FPS:]
        assert got.dtype == want.dtype and np.array_equal(got, want), task


def test_predict_frames_builds_no_graph(monkeypatch):
    forward, outputs = DynamicsModel.forward, []
    monkeypatch.setattr(DynamicsModel, "forward",
                        lambda *a, **kw: outputs.append(forward(*a, **kw)) or outputs[-1])
    trainer.predict_frames(small_model(), _windowed_features(2, 2), window_s=2)
    assert len(outputs) == 2 and all(logit._node is None for out in outputs for logit in out.values())


def test_predict_frames_holds_one_graph_per_worker(monkeypatch):
    # a window's forward is freed when its worker returns the logit rows:
    # six windows on two workers peak near two forwards, where workers
    # that held on to their windows' arrays would hold all six
    model = small_model()
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)

    def peak(n_windows):
        feats = _windowed_features(n_windows + 1, 10)[:, :n_windows * 10 * FPS]  # whole windows
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trainer.predict_frames(model, feats, window_s=10)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    one_window = peak(1)
    assert peak(6) <= 2.5 * one_window


# -- training loop -----------------------------------------------------------------

def quick_cfg(**overrides):
    base = dict(lr=3e-4, batch_size=2, epochs=2, seed=86, segment_s=10)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_determinism_first_losses(tiny_recordings):
    def run():
        model = DynamicsModel(ModelConfig(**SMALL), seed=86)
        _, history = train_model(model, tiny_recordings, tiny_recordings, quick_cfg())
        return history["step_losses"][:5]

    assert run() == run()


def test_train_seed_changes_trajectory(tiny_recordings):
    model_a = DynamicsModel(ModelConfig(**SMALL), seed=86)
    _, hist_a = train_model(model_a, tiny_recordings, tiny_recordings, quick_cfg())
    model_b = DynamicsModel(ModelConfig(**SMALL), seed=87)
    _, hist_b = train_model(model_b, tiny_recordings, tiny_recordings, quick_cfg(seed=87))
    assert hist_a["step_losses"][:3] != hist_b["step_losses"][:3]


def test_empty_split_raises(tiny_recordings):
    with pytest.raises(TrainingError, match="empty"):
        train_model(DynamicsModel(ModelConfig(**SMALL), seed=86), [], tiny_recordings, quick_cfg())


def test_split_fold_partitions(tiny_recordings):
    folds = {rec.piece_id: i % 2 for i, rec in enumerate(tiny_recordings)}
    train, val = split_fold(tiny_recordings, folds, 0)
    assert {r.recording_id for r in train} | {r.recording_id for r in val} == \
        {r.recording_id for r in tiny_recordings}
    assert not ({r.piece_id for r in train} & {r.piece_id for r in val})


def test_loss_descends_on_overfit_set(tiny_recordings):
    model = DynamicsModel(ModelConfig(**SMALL), seed=86)
    _, history = train_model(model, tiny_recordings, tiny_recordings, quick_cfg(epochs=8))
    assert history["epoch_losses"][-1] < history["epoch_losses"][0]


def test_best_checkpoint_selected(tiny_recordings):
    model = DynamicsModel(ModelConfig(**SMALL), seed=86)
    best, history = train_model(model, tiny_recordings, tiny_recordings, quick_cfg(epochs=3))
    assert best is not None
    assert best.val_summary["mean_f1"] == max(history["val_mean_f1"])


def test_no_augment_segment_counts(tiny_recordings):
    from dynamark.dataset import make_segments
    rec = tiny_recordings[0]
    train_aug = make_segments(rec.features, rec.targets, rec.recording_id,
                              window_s=4, mode="train")
    eval_segs = make_segments(rec.features, rec.targets, rec.recording_id,
                              window_s=4, mode="eval")
    assert len(train_aug) > len(eval_segs) >= 2


# -- validation beside training ----------------------------------------------------

def _run_at(workers, monkeypatch, recordings, stop_at=None, fail_step=None):
    """``train_model`` at ``workers`` workers for 4 epochs (2 steps each), stopping
    at epoch ``stop_at`` and raising from AdamW step ``fail_step``.  Returns
    (best checkpoint, history or the error raised, final model state, log
    lines, threads that scored an epoch)."""
    step, steps = AdamW.step, []

    def failing_step(self):
        steps.append(None)
        if len(steps) == fail_step:
            raise TrainingError("injected")
        step(self)

    evaluate, scorers = trainer.evaluate_recordings, []

    def recorded_evaluate(*args, **kwargs):
        scorers.append(threading.get_ident())
        return evaluate(*args, **kwargs)

    model, lines = small_model(), []
    stop = None if stop_at is None else (lambda summary: len(lines) == stop_at)
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "worker_count", lambda: workers)
        patch.setattr(AdamW, "step", failing_step)
        patch.setattr(trainer, "evaluate_recordings", recorded_evaluate)
        try:
            best, history = train_model(model, recordings, recordings,
                                        quick_cfg(epochs=4, batch_size=1),
                                        log=lines.append, stop_when=stop)
        except TrainingError as exc:
            best, history = None, str(exc)
    return best, history, model.state_dict(), lines, scorers


def _same_state(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.mark.parametrize("stop_at, fail_step", [(None, None), (2, None), (2, 5), (None, 5)],
                         ids=["to_the_end", "stop_at_2", "error_ahead_dropped", "error_ahead_raised"])
def test_validation_beside_training_gives_the_serial_bits(tiny_recordings, monkeypatch, stop_at, fail_step):
    # step 5 is the first of epoch 3: trained ahead while epoch 2 is scored
    serial = _run_at(1, monkeypatch, tiny_recordings, stop_at, fail_step)
    beside = _run_at(2, monkeypatch, tiny_recordings, stop_at, fail_step)
    assert serial[1] == beside[1] and serial[3] == beside[3]
    assert _same_state(serial[2], beside[2])
    if serial[0] is None:
        assert beside[0] is None and serial[1] == "injected" and len(serial[3]) == 2
    else:
        assert (serial[0].epoch, serial[0].val_summary) == (beside[0].epoch, beside[0].val_summary)
        assert _same_state(serial[0].state, beside[0].state)
        assert len(serial[1]["epoch_losses"]) == len(serial[3]) == (stop_at or 4)
    main = threading.get_ident()
    assert set(serial[4]) == {main}
    # epochs 1 to 3 are scored on the side lane, the last one alone
    assert main not in beside[4][:3] and beside[4][3:] in ([], [main])


def test_a_frozen_model_cannot_be_trained(tiny_recordings, tmp_path):
    path = tmp_path / "model.dync"
    save_checkpoint(Checkpoint.from_model(small_model(), TrainConfig(), epoch=1), path)
    frozen = model_from_checkpoint(load_checkpoint(path)).frozen()
    with pytest.raises(TrainingError, match="frozen"):
        train_model(frozen, tiny_recordings, tiny_recordings, quick_cfg())
    with pytest.raises(TrainingError, match="frozen"):
        AdamW(frozen.params)
    with pytest.raises(TrainingError, match="frozen"):
        frozen.forward(tiny_recordings[0].features, training=True)
