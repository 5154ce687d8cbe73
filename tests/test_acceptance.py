"""Acceptance suite: one test per criterion.

The terminal summary (see conftest) prints one
``ACCEPTANCE <n> (<name>): PASS/FAIL`` line per criterion.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dynamark import objectives as obj
from dynamark.audio import (
    CRITICAL_BAND_CENTERS_HZ,
    CRITICAL_BAND_EDGES_HZ,
    SAMPLE_RATE,
    bssl,
    phon_to_sone,
    stft_power,
)
from dynamark.autodiff import Tensor
from dynamark.dataset import make_folds, make_segments
from dynamark.metrics import event_f1
from dynamark.network import DynamicsModel, ModelConfig
from dynamark.postprocess import pick_peaks
from dynamark.trainer import (
    Checkpoint,
    TrainConfig,
    fold_table,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train_fold,
    train_model,
)

from _synth import write_corpus, load_synth_recordings
from test_autodiff import GRAD_CASES, check_gradients
from test_dataset import fake_recording
from test_metrics import exhaustive_matching
from test_postprocess import brute_force_peaks

SMALL = dict(channels=4, blocks_per_branch=1, attention_dim=4)


def test_criterion_1_psychoacoustics():
    start = time.monotonic()
    # silence -> all-zero specific loudness
    silent = bssl(stft_power(np.zeros(22050)))
    assert silent.shape[0] == 22 and not silent.any()
    # amplitude monotonicity on 50 random signals
    rng = np.random.default_rng(50)
    for _ in range(50):
        x = rng.standard_normal(int(rng.integers(4410, 8820))) * rng.uniform(0.005, 0.05)
        g = rng.uniform(1.0, 30.0)
        lo = bssl(stft_power(x))
        hi = bssl(stft_power(g * x))
        assert (hi >= lo).all()
    # pure tones at every band centre localise to that band
    for center in CRITICAL_BAND_CENTERS_HZ:
        t = np.arange(11025) / SAMPLE_RATE
        tone = 0.5 * np.sin(2 * np.pi * center * t)
        sone = bssl(stft_power(tone))
        want = np.searchsorted(CRITICAL_BAND_EDGES_HZ, center, side="right") - 1
        assert sone.mean(axis=1).argmax() == want
    # the sone scale anchor
    assert abs(phon_to_sone(np.float64(40.0)) - 1.0) < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"psychoacoustics suite took {elapsed:.1f}s"


def test_criterion_2_gradients():
    start = time.monotonic()
    for kind, case in sorted(GRAD_CASES.items()):
        for seed in range(10):
            f, leaves = case(np.random.default_rng(2000 + seed))
            check_gradients(f, leaves)
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        target, valid = np.zeros((1, 25), dtype=np.uint8), np.ones((1, 25), dtype=bool)
        target[0, list(rng.choice(25, size=2, replace=False))] = 1
        logits = Tensor(np.asarray(rng.standard_normal((1, 25)) * 2, dtype=np.float64),
                        requires_grad=True)
        check_gradients(lambda l: obj.shift_tolerant_wbce(l, target, valid), [logits])
        dyn = Tensor(np.asarray(rng.standard_normal((1, 9, 6)), dtype=np.float64),
                     requires_grad=True)
        classes = rng.integers(0, 6, size=(1, 9))
        mask = np.zeros((1, 9), dtype=np.uint8)
        mask[0, list(rng.choice(9, size=3, replace=False))] = 1
        check_gradients(lambda l: obj.masked_ce(l, classes, mask, valid[:, :9]), [dyn])
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_3_shift_tolerance():
    target, valid = np.zeros((1, 40), dtype=np.uint8), np.ones((1, 40), dtype=bool)
    target[0, 10] = 1

    def loss_with_peak(at):
        logits = np.full((1, 40), -8.0)
        logits[0, at] = 9.0
        return obj.shift_tolerant_wbce(Tensor(logits), target, valid).item()

    base = loss_with_peak(10)
    for d in (0, 1, 2, 3):
        assert abs(loss_with_peak(10 + d) - base) < 1e-6
    for d in (4, 5, 6):
        assert loss_with_peak(10 + d) > base + 1e-6


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(4444)
    for trial in range(1000):
        n = int(rng.integers(1, 201))
        probs = rng.uniform(0, 1, size=n)
        if trial % 3 == 0:
            probs = np.round(probs, 1)
        assert pick_peaks(probs).tolist() == brute_force_peaks(probs)
    for _ in range(500):
        pred = np.sort(rng.uniform(0, 3, size=int(rng.integers(0, 9))))
        ref = np.sort(rng.uniform(0, 3, size=int(rng.integers(0, 9))))
        tol = float(rng.choice([0.05, 0.07, 0.2]))
        assert event_f1(pred, ref, tol=tol).tp == exhaustive_matching(pred, ref, tol)


def test_criterion_5_shapes_and_gates():
    rng = np.random.default_rng(55)
    for s in (1, 2, 3, 5):
        model = DynamicsModel(ModelConfig(channels=2, blocks_per_branch=1,
                                          attention_dim=2, scaling_factor=s), seed=0)
        for _ in range(3):
            t = int(rng.integers(s * s, 4001))
            latent = model.encode(np.zeros((22, t), dtype=np.float32))
            assert latent.shape == (1, t, 8)
    # 60 s at 50 fps: 3000 frames and branch lengths 3000/600/120 at s=5
    assert 60 * 50 == 3000 and 3000 // 5 == 600 and 3000 // 25 == 120
    model = DynamicsModel(ModelConfig(**SMALL), seed=1)
    _, gates = model.forward(rng.standard_normal((22, 110)).astype(np.float32),
                             return_gates=True)
    for w in gates.values():
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-6)


@pytest.fixture(scope="module")
def overfit_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    write_corpus(root, n_clips=4, seconds=60.0, bpm=100, beats_per_level=8, seed=86)
    return load_synth_recordings(root)


def test_criterion_6_end_to_end_overfit(overfit_corpus):
    start = time.monotonic()
    # paper hyperparameters: lr 3e-4, batch <= 4, seed 86; reduced widths
    # keep the run inside the CPU budget (the criterion pins only those three)
    model = DynamicsModel(ModelConfig(channels=8, blocks_per_branch=1, attention_dim=8),
                          seed=86)
    cfg = TrainConfig(lr=3e-4, batch_size=1, epochs=200, seed=86, segment_s=60)
    done = lambda val: val["beat_f1"] >= 0.90 and (val["dynamics_f1"] or 0.0) >= 0.90
    best, history = train_model(model, overfit_corpus, overfit_corpus, cfg, stop_when=done)
    elapsed = time.monotonic() - start
    assert best.val_summary["beat_f1"] >= 0.90, best.val_summary
    assert best.val_summary["dynamics_f1"] >= 0.90, best.val_summary
    assert len(history["epoch_losses"]) <= 200
    assert history["epoch_losses"][-1] < history["epoch_losses"][0]  # descent sanity
    assert elapsed < 1800.0, f"overfit run took {elapsed:.0f}s"
    print(f"\n  overfit: epoch {best.epoch}, beat F1 {best.val_summary['beat_f1']:.3f}, "
          f"dynamics F1 {best.val_summary['dynamics_f1']:.3f}, {elapsed:.0f}s", flush=True)


@pytest.fixture(scope="module")
def protocol_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("protocol")
    write_corpus(root, n_clips=2, seconds=8.0, bpm=120, beats_per_level=4, seed=5)
    return load_synth_recordings(root)


def test_criterion_7_protocol_fidelity(protocol_corpus):
    folds = make_folds([f"M{i:02d}" for i in range(44)], k=5, seed=86)
    sizes = sorted(np.bincount(list(folds.values()), minlength=5).tolist())
    assert sizes == [8, 9, 9, 9, 9]
    features, targets = fake_recording(150)
    assert len(make_segments(features, targets, "r", 60, "train")) == 4
    assert len(make_segments(features, targets, "r", 60, "eval")) == 3
    fold_of_piece = {rec.piece_id: i % 2 for i, rec in enumerate(protocol_corpus)}
    base_model = ModelConfig(**SMALL)
    base_train = TrainConfig(epochs=1, batch_size=2, segment_s=10, seed=86)
    # the paper's ablations: no MMoE, one scale, no overlap augmentation, 30 s segments
    for model_cfg, train_cfg in ((replace(base_model, use_mmoe=False), base_train),
                                 (replace(base_model, scaling_factor=1), base_train),
                                 (base_model, replace(base_train, augment_overlap=False)),
                                 (base_model, replace(base_train, segment_s=30))):
        best, _ = train_fold(protocol_corpus, fold_of_piece, 0, model_cfg, train_cfg)
        report = fold_table([best.val_summary])
        assert set(report["f1"]) == {"dynamics_f1", "change_point_f1",
                                     "beat_f1", "downbeat_f1"}
        assert "average" in report
        means = [report["f1"][k]["mean"] for k in report["f1"]
                 if report["f1"][k]["mean"] is not None]
        if means:
            assert abs(report["average"] - float(np.mean(means))) < 1e-9


def test_criterion_8_determinism_and_persistence(protocol_corpus, tmp_path):
    cfg = TrainConfig(epochs=2, batch_size=2, segment_s=10, seed=86)

    def first_losses():
        model = DynamicsModel(ModelConfig(**SMALL), seed=86)
        _, history = train_model(model, protocol_corpus, protocol_corpus, cfg)
        return history["step_losses"][:5]

    assert first_losses() == first_losses()

    model = DynamicsModel(ModelConfig(**SMALL), seed=86)
    feats = protocol_corpus[0].features
    model.forward(feats[:, :500], training=True)  # move running stats
    before = model.forward(feats, training=False)
    path = tmp_path / "cp.dync"
    save_checkpoint(Checkpoint.from_model(model, cfg, epoch=1), path)
    restored = model_from_checkpoint(load_checkpoint(path))
    after = restored.forward(feats, training=False)
    for task, logits in before.items():
        assert np.array_equal(logits.data, after[task].data), task

    from dynamark.audio import bssl, decode_and_prepare, save_features, stft_power
    from scipy.io import wavfile
    rng = np.random.default_rng(0)
    wav_path = tmp_path / "x.wav"
    wavfile.write(wav_path, SAMPLE_RATE, (rng.standard_normal(22050) * 0.1).astype(np.float32))
    out_a = tmp_path / "a.dynf"
    out_b = tmp_path / "b.dynf"
    save_features(out_a, bssl(stft_power(decode_and_prepare(wav_path))), "bssl")
    save_features(out_b, bssl(stft_power(decode_and_prepare(wav_path))), "bssl")
    assert out_a.read_bytes() == out_b.read_bytes()
