"""End-to-end command tests on a small synthetic corpus."""

import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from dynamark.audio import load_features, save_features
from dynamark.cli import _flags, _labels_at_reference_beats, build_parser, main, parse_config_file
from dynamark.errors import ConfigError
from dynamark.network import ModelConfig
from dynamark.objectives import DYNAMIC_LABELS
from dynamark.trainer import TrainConfig

from _synth import synth_clip, write_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    write_corpus(root, n_clips=2, seconds=8.0, bpm=120, beats_per_level=4, seed=11)
    return root


@pytest.fixture(scope="module")
def extracted(corpus):
    out = corpus / "features"
    code = main(["extract", "--audio-dir", str(corpus / "audio"), "--out-dir", str(out)])
    assert code == 0
    return out


def test_extract_writes_dynf(corpus, extracted):
    files = sorted(extracted.glob("*.dynf"))
    assert len(files) == 2
    values, kind = load_features(files[0])
    assert kind == "bssl"
    assert values.shape[0] == 22
    manifest = json.loads((extracted / "extract_manifest.json").read_text())
    assert manifest["command"] == "extract"
    assert manifest["tool_version"]


def test_extract_parallel_identical_bytes(corpus, tmp_path):
    # the corpus's two clips and a 44.1 kHz stereo one of more than one span
    audio = tmp_path / "audio"
    shutil.copytree(corpus / "audio", audio)
    samples = synth_clip(seconds=70.0, seed=5, rate=44100)[0] * 20000
    wavfile.write(audio / "stereo.wav", 44100, np.stack([samples, samples / 2], axis=1).astype(np.int16))
    serial = tmp_path / "serial"
    assert main(["extract", "--audio-dir", str(audio), "--out-dir", str(serial)]) == 0
    names = sorted(path.name for path in serial.glob("*.dynf"))
    assert len(names) == 3
    for workers in ("2", "3"):
        out = tmp_path / f"workers{workers}"
        assert main(["extract", "--audio-dir", str(audio), "--out-dir", str(out), "--workers", workers]) == 0
        assert sorted(path.name for path in out.glob("*.dynf")) == names
        for name in names:
            assert (out / name).read_bytes() == (serial / name).read_bytes(), (workers, name)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_extract_workers_below_one_exit_1(corpus, tmp_path, capsys, workers):
    out = tmp_path / "out"
    code = main(["extract", "--audio-dir", str(corpus / "audio"), "--out-dir", str(out), "--workers", workers])
    assert code == 1
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_extract_skip_then_force_identical(corpus, extracted):
    target = sorted(extracted.glob("*.dynf"))[0]
    before = target.read_bytes()
    code = main(["extract", "--audio-dir", str(corpus / "audio"), "--out-dir", str(extracted)])
    assert code == 0
    assert target.read_bytes() == before
    code = main(["extract", "--audio-dir", str(corpus / "audio"), "--out-dir", str(extracted), "--force"])
    assert code == 0
    assert target.read_bytes() == before  # deterministic re-extraction


def test_extract_replaces_files_of_another_kind(corpus, extracted, tmp_path, capsys):
    # a second extract with another --feature used to skip the first run's
    # files, and a train run on them then took the first kind
    out = tmp_path / "features"
    shutil.copytree(extracted, out)
    argv = ["extract", "--audio-dir", str(corpus / "audio"), "--out-dir", str(out), "--feature", "logmel", "--json"]
    assert main(argv) == 0
    assert {f["status"] for f in json.loads(capsys.readouterr().out)["files"]} == {"written"}
    assert {load_features(path)[1] for path in out.glob("*.dynf")} == {"logmel"}
    assert main(argv) == 0
    assert {f["status"] for f in json.loads(capsys.readouterr().out)["files"]} == {"skipped"}


def test_extract_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["extract", "--audio-dir", str(empty), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert "no .wav" in capsys.readouterr().err


def test_extract_bad_file_nonzero_exit(tmp_path):
    audio = tmp_path / "audio"
    audio.mkdir()
    (audio / "broken.wav").write_bytes(b"not audio")
    code = main(["extract", "--audio-dir", str(audio), "--out-dir", str(tmp_path / "out")])
    assert code == 1


@pytest.fixture(scope="module")
def trained(corpus, extracted):
    out = corpus / "run"
    code = main(["train",
                 "--features-dir", str(extracted),
                 "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out),
                 "--k-folds", "2", "--epochs", "2", "--batch-size", "2",
                 "--segment-s", "10", "--channels", "4", "--blocks-per-branch", "1",
                 "--attention-dim", "4"])
    assert code == 0
    return out


def test_train_outputs(trained):
    assert (trained / "fold0.dync").exists()
    assert (trained / "fold1.dync").exists()
    summary = json.loads((trained / "summary.json").read_text())
    assert set(summary["f1"]) == {"dynamics_f1", "change_point_f1", "beat_f1", "downbeat_f1"}
    for key, agg in summary["f1"].items():
        assert set(agg) == {"mean", "std", "n"}
    assert "ablation" not in summary
    manifest = json.loads((trained / "train_manifest.json").read_text())
    assert manifest["seed"] == 86
    segments = json.loads((trained / "segments.json").read_text())
    assert len(segments["recordings"]) == 2


def test_train_single_fold(corpus, extracted, tmp_path):
    out = tmp_path / "single"
    code = main(["train",
                 "--features-dir", str(extracted),
                 "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out),
                 "--k-folds", "2", "--fold", "1", "--epochs", "1", "--batch-size", "2",
                 "--segment-s", "10", "--channels", "4", "--blocks-per-branch", "1",
                 "--attention-dim", "4"])
    assert code == 0
    assert (out / "fold1.dync").exists()
    assert not (out / "fold0.dync").exists()


@pytest.mark.parametrize("flags", [["--no-augment", "--segment-s", "4"], ["--segment-s", "30"]],
                         ids=["no_augment-4", "segment_s-30"])
def test_train_ablation_segment_manifest(corpus, extracted, tmp_path, flags):
    # segments.json lists the windows the ablated run trains on
    out = tmp_path / "run"
    code = main(["train", "--features-dir", str(extracted), "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out), "--k-folds", "2", "--fold", "0", "--epochs", "1", "--batch-size", "2",
                 "--channels", "4", "--blocks-per-branch", "1", "--attention-dim", "4", *flags])
    assert code == 0
    segments = json.loads((out / "segments.json").read_text())
    if "--no-augment" not in flags:
        assert segments["window_s"] == 30
    else:
        # 8 s clips in 4 s windows: half-window hops would start at 0, 2 and 4 s
        assert all(r["train_segment_starts_s"] == r["eval_segment_starts_s"] == [0.0, 4.0]
                   for r in segments["recordings"])


@pytest.fixture(scope="module")
def logmel_extracted(corpus):
    out = corpus / "logmel"
    assert main(["extract", "--audio-dir", str(corpus / "audio"), "--out-dir", str(out), "--feature", "logmel"]) == 0
    return out


def test_train_takes_the_feature_kind_of_its_files(corpus, logmel_extracted, tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--features-dir", str(logmel_extracted), "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out), "--k-folds", "2", "--fold", "0", "--epochs", "1", "--batch-size", "2",
                 "--segment-s", "10", "--channels", "4", "--blocks-per-branch", "1", "--attention-dim", "4"])
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["model_config"]["input_bins"] == 128


def test_train_on_mixed_feature_kinds_exit_1(corpus, extracted, logmel_extracted, tmp_path, capsys):
    # the odd file used to fail the first batch that met it, after segments.json
    features = tmp_path / "features"
    shutil.copytree(extracted, features)
    bssl_file, logmel_file = sorted(features.glob("*.dynf"))
    shutil.copy(logmel_extracted / logmel_file.name, logmel_file)
    out = tmp_path / "out"
    code = main(["train", "--features-dir", str(features), "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out), "--k-folds", "2", "--epochs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{bssl_file} is bssl" in err and f"{logmel_file} is logmel" in err
    assert not (out / "segments.json").exists()


def test_train_on_features_of_the_wrong_row_count_exit_1(corpus, extracted, tmp_path, capsys):
    # the model takes its input width from the rows, so 20-row bssl files
    # would train a checkpoint that annotate then refuses
    features = tmp_path / "features"
    shutil.copytree(extracted, features)
    dynf = sorted(features.glob("*.dynf"))[0]
    values, kind = load_features(dynf)
    save_features(dynf, values[:20], kind)
    code = main(["train", "--features-dir", str(features), "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(tmp_path / "out"), "--k-folds", "2", "--epochs", "1"])
    assert code == 1
    assert f"{dynf}: bssl features have 22 rows, got 20" in capsys.readouterr().err


def test_train_missing_features_actionable(corpus, tmp_path, capsys):
    code = main(["train",
                 "--features-dir", str(tmp_path / "nowhere"),
                 "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "extract" in capsys.readouterr().err


def _annotations_with_nan_beat(corpus, tmp_path):
    """A copy of the corpus annotations whose first clip has a NaN beat time."""
    ann_dir = tmp_path / "annotations"
    shutil.copytree(corpus / "annotations", ann_dir)
    beats_csv = sorted(ann_dir.glob("*_beats.csv"))[0]
    lines = beats_csv.read_text().splitlines()
    lines[3] = "2,nan,0"
    beats_csv.write_text("\n".join(lines) + "\n")
    return ann_dir, beats_csv


def test_train_non_finite_beat_time_exit_1(corpus, extracted, tmp_path, capsys):
    ann_dir, beats_csv = _annotations_with_nan_beat(corpus, tmp_path)
    code = main(["train", "--features-dir", str(extracted), "--annotations-dir", str(ann_dir),
                 "--out-dir", str(tmp_path / "out"), "--k-folds", "2", "--epochs", "1"])
    assert code == 1
    assert f"{beats_csv.name}: row 4: beat time 'nan' is not finite" in capsys.readouterr().err


def test_train_non_finite_feature_exit_1(corpus, extracted, tmp_path, capsys):
    # a NaN frame used to be scored in validation, or blamed on a parameter in training
    features = tmp_path / "features"
    shutil.copytree(extracted, features)
    dynf = sorted(features.glob("*.dynf"))[0]
    values, kind = load_features(dynf)
    values[3, 50] = np.nan
    save_features(dynf, values, kind)
    code = main(["train", "--features-dir", str(features), "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(tmp_path / "out"), "--k-folds", "2", "--epochs", "1"])
    assert code == 1
    assert f"{dynf}: feature values are not all finite" in capsys.readouterr().err


def test_train_non_utf8_annotation_exit_1(corpus, extracted, tmp_path, capsys):
    ann_dir = tmp_path / "annotations"
    shutil.copytree(corpus / "annotations", ann_dir)
    markings_csv = sorted(ann_dir.glob("*_markings.csv"))[0]
    markings_csv.write_bytes(markings_csv.read_bytes() + b"9,\xff\n")
    code = main(["train", "--features-dir", str(extracted), "--annotations-dir", str(ann_dir),
                 "--out-dir", str(tmp_path / "out"), "--k-folds", "2", "--epochs", "1"])
    assert code == 1
    assert f"{markings_csv}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["0", "-5"])
def test_train_segment_s_below_one_exit_1(corpus, extracted, tmp_path, capsys, seconds):
    code = main(["train", "--features-dir", str(extracted), "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(tmp_path / "out"), "--k-folds", "2", "--epochs", "1",
                 "--segment-s", seconds])
    assert code == 1
    assert f"segment_s={seconds}" in capsys.readouterr().err


def test_eval_non_finite_reference_beat_time_exit_1(corpus, tmp_path, capsys):
    from dynamark.postprocess import EventReport
    ann_dir, beats_csv = _annotations_with_nan_beat(corpus, tmp_path)
    pred_dir = tmp_path / "p"
    pred_dir.mkdir()
    EventReport(beats=[0.5, 1.0, 1.5], markings=["p"] * 3).write_json(
        pred_dir / beats_csv.name.replace("_beats.csv", ".json"))
    code = main(["eval", "--predictions", str(pred_dir), "--references", str(ann_dir)])
    assert code == 1
    assert "not finite" in capsys.readouterr().err


def test_annotate_and_eval_round_trip(corpus, extracted, trained, tmp_path, capsys):
    wav = sorted((corpus / "audio").glob("*.wav"))[0]
    prefix = tmp_path / "annot" / wav.stem
    code = main(["annotate", str(wav), "--checkpoint", str(trained / "fold0.dync"),
                 "--out-prefix", str(prefix), "--loudness-csv", "--json"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == {"beats", "downbeats", "markings", "change_points"}
    assert (tmp_path / "annot" / f"{wav.stem}.events.json").exists()
    assert (tmp_path / "annot" / f"{wav.stem}.events.csv").exists()
    loudness = (tmp_path / "annot" / f"{wav.stem}.loudness.csv").read_text().splitlines()
    assert loudness[0] == "time_s,total_loudness_sone"
    assert len(loudness) > 300  # 8 s at 50 fps

    # evaluating the emitted report against itself scores F1 = 1
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    (pred_dir / f"{wav.stem}.json").write_text(
        (tmp_path / "annot" / f"{wav.stem}.events.json").read_text())
    ref_dir = tmp_path / "refs"
    ref_dir.mkdir()
    (ref_dir / f"{wav.stem}.json").write_text(
        (tmp_path / "annot" / f"{wav.stem}.events.json").read_text())
    out_file = tmp_path / "metrics.json"
    code = main(["eval", "--predictions", str(pred_dir), "--references", str(ref_dir),
                 "--out", str(out_file)])
    assert code == 0
    metrics = json.loads(out_file.read_text())
    rec = metrics["per_recording"][wav.stem]
    assert rec["beat_f1"] == 1.0
    assert rec["downbeat_f1"] == 1.0
    assert rec["change_point_f1"] == 1.0

    # the annotate output directory scores as it is: its manifest is not a
    # prediction, and <id>.events.json pairs with reference <id>
    code = main(["eval", "--predictions", str(tmp_path / "annot"), "--references", str(ref_dir),
                 "--out", str(out_file)])
    assert code == 0
    metrics = json.loads(out_file.read_text())
    assert list(metrics["per_recording"]) == [wav.stem]
    assert metrics["per_recording"][wav.stem]["beat_f1"] == 1.0
    # and so does that report passed on its own
    code = main(["eval", "--predictions", str(tmp_path / "annot" / f"{wav.stem}.events.json"),
                 "--references", str(ref_dir / f"{wav.stem}.json"), "--out", str(out_file)])
    assert code == 0
    assert list(json.loads(out_file.read_text())["per_recording"]) == [wav.stem]


def test_annotate_beats_from(corpus, trained, tmp_path):
    wav = sorted((corpus / "audio").glob("*.wav"))[0]
    beats_file = tmp_path / "grid.txt"
    beats_file.write_text("0.5\n1.5\n2.5\n")
    prefix = tmp_path / "scored"
    code = main(["annotate", str(wav), "--checkpoint", str(trained / "fold0.dync"),
                 "--out-prefix", str(prefix), "--beats-from", str(beats_file)])
    assert code == 0
    report = json.loads((tmp_path / "scored.events.json").read_text())
    assert len(report["beats"]) == 3
    assert len(report["markings"]) == 3


@pytest.mark.parametrize("blob", [
    b"beat_index,time_s,is_downbeat\n0,abc,1\n",
    b"1.0\n0.5\n",
    b"0.5\nnan\n",
    b"0.5\ninf\n",
    b"0.5\n\xff1.5\n",
    b"beat_index,time_s,is_downbeat\n0,0.5,1\n1,\xff,0\n",
], ids=["bad-csv-time", "times-go-backwards", "nan-time", "inf-time", "non-utf8", "non-utf8-csv"])
def test_annotate_malformed_beats_from_exit_1(corpus, trained, tmp_path, capsys, blob):
    wav = sorted((corpus / "audio").glob("*.wav"))[0]
    beats_file = tmp_path / "grid.csv"
    beats_file.write_bytes(blob)
    code = main(["annotate", str(wav), "--checkpoint", str(trained / "fold0.dync"),
                 "--out-prefix", str(tmp_path / "scored"), "--beats-from", str(beats_file)])
    assert code == 1
    assert str(beats_file) in capsys.readouterr().err


def _extract_and_annotate_fail(samples, trained, tmp_path, capsys, message):
    audio = tmp_path / "audio"
    audio.mkdir()
    wavfile.write(audio / "bad.wav", 22050, samples)
    code = main(["extract", "--audio-dir", str(audio), "--out-dir", str(tmp_path / "out"), "--json"])
    assert code == 1
    assert [f["status"] for f in json.loads(capsys.readouterr().out)["files"]] == ["failed"]
    assert not (tmp_path / "out" / "bad.dynf").exists()
    code = main(["annotate", str(audio / "bad.wav"), "--checkpoint", str(trained / "fold0.dync"),
                 "--out-prefix", str(tmp_path / "bad")])
    assert code == 1
    assert message in capsys.readouterr().err


def test_non_finite_audio_fails_extract_and_annotate(trained, tmp_path, capsys):
    samples = np.zeros(2 * 22050, dtype=np.float32)
    samples[100] = np.nan
    _extract_and_annotate_fail(samples, trained, tmp_path, capsys, "NaN")


def test_subnormal_peak_audio_fails_extract_and_annotate(trained, tmp_path, capsys):
    # normalising a 4e-309 peak to -1 dBFS would scale by inf into NaN features
    _extract_and_annotate_fail(np.full(22050, 4e-309), trained, tmp_path, capsys,
                               "too small to normalise")


@pytest.fixture(scope="module")
def long_clip(tmp_path_factory):
    # 65 s: two 60 s front-end spans
    root = tmp_path_factory.mktemp("longclip")
    (rec,) = write_corpus(root, n_clips=1, seconds=65.0, bpm=120, beats_per_level=4, seed=13)
    return root / "audio" / f"{rec}.wav"


@pytest.mark.parametrize("kind", ["bssl", "logmel"])
def test_annotate_loudness_csv_reuses_one_spectrogram(long_clip, tmp_path, monkeypatch, kind):
    # the model's features and the loudness curve read one power
    # spectrogram per span, and bssl runs once per span for both
    from dynamark import audio, parallel
    from dynamark.network import DynamicsModel, ModelConfig
    from dynamark.trainer import Checkpoint, TrainConfig, save_checkpoint

    cfg = ModelConfig(input_bins=audio.FEATURE_BINS[kind],
                      channels=4, blocks_per_branch=1, attention_dim=4)
    checkpoint = tmp_path / f"{kind}.dync"
    save_checkpoint(Checkpoint.from_model(DynamicsModel(cfg, seed=0), TrainConfig(segment_s=10), 0),
                    checkpoint)
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    calls = {"stft_power": [], "bssl": []}  # appends: spans run on worker threads
    for name, seen in calls.items():
        monkeypatch.setattr(audio, name, lambda *args, run=getattr(audio, name), seen=seen:
                            seen.append(1) or run(*args))
    code = main(["annotate", str(long_clip), "--checkpoint", str(checkpoint),
                 "--out-prefix", str(tmp_path / "out"), "--loudness-csv"])
    assert code == 0
    spans = -(-audio.frame_count(65 * audio.SAMPLE_RATE) // audio.SPAN_FRAMES)
    assert spans == 2 and len(calls["stft_power"]) == len(calls["bssl"]) == spans
    monkeypatch.undo()
    curve = audio.total_loudness(audio.bssl(audio.stft_power(audio.decode_and_prepare(long_clip))))
    want = "time_s,total_loudness_sone\n" + "".join(
        f"{i / audio.FPS:.3f},{value:.5f}\n" for i, value in enumerate(curve))
    assert (tmp_path / "out.loudness.csv").read_bytes() == want.encode()


def test_annotate_takes_the_checkpoint_feature_kind(corpus, trained, tmp_path):
    # a checkpoint of either kind annotates, and its rerun gives the same report
    from dynamark.network import DynamicsModel, ModelConfig
    from dynamark.trainer import Checkpoint, TrainConfig, save_checkpoint

    cfg = ModelConfig(input_bins=128, channels=4, blocks_per_branch=1, attention_dim=4)
    logmel = tmp_path / "logmel.dync"
    save_checkpoint(Checkpoint.from_model(DynamicsModel(cfg, seed=0), TrainConfig(segment_s=10), 0), logmel)
    wav = sorted((corpus / "audio").glob("*.wav"))[0]
    for kind, checkpoint in (("bssl", trained / "fold0.dync"), ("logmel", logmel)):
        prefix = tmp_path / kind
        assert main(["annotate", str(wav), "--checkpoint", str(checkpoint), "--out-prefix", str(prefix)]) == 0
        manifest = Path(f"{prefix}.manifest.json")
        before = Path(f"{prefix}.events.json").read_bytes()
        assert main(["rerun", str(manifest)]) == 0
        assert Path(f"{prefix}.events.json").read_bytes() == before


def test_annotate_checkpoint_of_no_feature_kind(corpus, tmp_path, capsys):
    from dynamark.network import DynamicsModel, ModelConfig
    from dynamark.trainer import Checkpoint, TrainConfig, save_checkpoint

    cfg = ModelConfig(input_bins=2, channels=2, blocks_per_branch=1, attention_dim=2)
    checkpoint = tmp_path / "two_bins.dync"
    save_checkpoint(Checkpoint.from_model(DynamicsModel(cfg, seed=0), TrainConfig(), 0), checkpoint)
    wav = sorted((corpus / "audio").glob("*.wav"))[0]
    assert main(["annotate", str(wav), "--checkpoint", str(checkpoint)]) == 1
    assert f"{checkpoint}: checkpoint expects 2 feature bins, which no feature kind has" in capsys.readouterr().err


def test_eval_against_annotation_csvs(corpus, tmp_path):
    # a prediction identical to the annotation scores 1.0 on every task
    ann_dir = corpus / "annotations"
    beats_csv = sorted(ann_dir.glob("*_beats.csv"))[0]
    stem = beats_csv.stem.removesuffix("_beats")
    from dynamark.dataset import load_annotation
    ann = load_annotation(beats_csv, ann_dir / f"{stem}_markings.csv")
    from dynamark.postprocess import EventReport
    cp_times = [float(ann.beat_times[i]) for i in ann.change_point_beats()]
    report = EventReport(beats=[float(t) for t in ann.beat_times],
                         downbeats=[float(t) for t in ann.beat_times[ann.downbeat_flags]],
                         markings=list(ann.markings), change_points=cp_times)
    pred_dir = tmp_path / "p"
    pred_dir.mkdir()
    report.write_json(pred_dir / f"{stem}.json")
    out_file = tmp_path / "m.json"
    code = main(["eval", "--predictions", str(pred_dir), "--references", str(ann_dir),
                 "--out", str(out_file)])
    assert code == 0
    metrics = json.loads(out_file.read_text())
    rec = metrics["per_recording"][stem]
    assert rec["beat_f1"] == 1.0 and rec["downbeat_f1"] == 1.0
    assert rec["dynamics_f1"] == 1.0 and rec["change_point_f1"] == 1.0


def test_eval_worked_example_two_thirds(tmp_path):
    from dynamark.postprocess import EventReport
    pred_dir = tmp_path / "p"
    pred_dir.mkdir()
    EventReport(beats=[1.05, 2.5, 3.01], downbeats=[], markings=["blank"] * 3,
                change_points=[]).write_json(pred_dir / "clip.json")
    ref_dir = tmp_path / "r"
    ref_dir.mkdir()
    EventReport(beats=[1.0, 2.0, 3.0], downbeats=[], markings=["blank"] * 3,
                change_points=[]).write_json(ref_dir / "clip.json")
    out_file = tmp_path / "m.json"
    code = main(["eval", "--predictions", str(pred_dir), "--references", str(ref_dir),
                 "--out", str(out_file)])
    assert code == 0
    metrics = json.loads(out_file.read_text())
    assert abs(metrics["per_recording"]["clip"]["beat_f1"] - 2 / 3) < 1e-9


def test_eval_out_creates_its_directory(tmp_path):
    from dynamark.postprocess import EventReport
    for name in ("p", "r"):
        (tmp_path / name).mkdir()
        EventReport(beats=[1.0, 2.0], markings=["p", "p"]).write_json(tmp_path / name / "clip.json")
    out_file = tmp_path / "new" / "dir" / "eval.json"
    code = main(["eval", "--predictions", str(tmp_path / "p"), "--references", str(tmp_path / "r"),
                 "--out", str(out_file)])
    assert code == 0
    assert json.loads(out_file.read_text())["per_recording"]["clip"]["beat_f1"] == 1.0
    assert (out_file.parent / "eval_manifest.json").exists()


def test_eval_empty_prediction_zero_beat_f1(tmp_path):
    from dynamark.postprocess import EventReport
    pred_dir = tmp_path / "p"
    pred_dir.mkdir()
    EventReport().write_json(pred_dir / "clip.json")
    ref_dir = tmp_path / "r"
    ref_dir.mkdir()
    EventReport(beats=[1.0, 2.0], downbeats=[1.0], markings=["pp", "pp"],
                change_points=[1.0]).write_json(ref_dir / "clip.json")
    out_file = tmp_path / "m.json"
    code = main(["eval", "--predictions", str(pred_dir), "--references", str(ref_dir),
                 "--out", str(out_file)])
    assert code == 0
    metrics = json.loads(out_file.read_text())
    assert metrics["per_recording"]["clip"]["beat_f1"] == 0.0


@pytest.mark.parametrize("beats", [None, [2.0, 1.0]], ids=["null-beats", "beats-go-backwards"])
def test_eval_malformed_report_exit_1(tmp_path, capsys, beats):
    from dynamark.postprocess import EventReport
    pred_dir = tmp_path / "p"
    pred_dir.mkdir()
    EventReport(beats=[1.0], markings=["p"]).write_json(pred_dir / "clip.json")
    ref_dir = tmp_path / "r"
    ref_dir.mkdir()
    (ref_dir / "clip.json").write_text(json.dumps(
        {"beats": beats, "downbeats": [], "markings": ["p", "p"], "change_points": []}))
    code = main(["eval", "--predictions", str(pred_dir), "--references", str(ref_dir)])
    assert code == 1
    assert "clip.json" in capsys.readouterr().err


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=12).map(sorted),
       st.lists(st.integers(-5, 45), max_size=12),
       st.data())
def test_eval_label_readout_matches_argmin(pred_steps, ref_steps, data):
    from dynamark.postprocess import EventReport
    markings = data.draw(st.lists(st.sampled_from(DYNAMIC_LABELS), min_size=len(pred_steps),
                                  max_size=len(pred_steps)))
    # a 50 ms grid: equal beats and equidistant neighbours are common
    pred = EventReport(beats=[0.05 * k for k in pred_steps], markings=markings)
    ref_beats = np.asarray([0.05 * k for k in ref_steps])
    if pred.beats:
        # the readout before the shared snap: an argmin per reference beat
        want = [pred.markings[int(np.argmin(np.abs(np.asarray(pred.beats) - t)))] for t in ref_beats]
    else:
        want = ["blank"] * len(ref_beats)
    assert _labels_at_reference_beats(pred, ref_beats) == want


def test_rerun_from_manifest(corpus, extracted, tmp_path):
    manifest = extracted / "extract_manifest.json"
    assert manifest.exists()
    code = main(["rerun", str(manifest)])
    assert code == 0


def test_rerun_train_manifest_that_records_all_folds(corpus, extracted, tmp_path):
    # train manifests once recorded an ``--all-folds`` switch that nothing
    # read, a ``--feature`` that the feature files now give, and a null ``--ablation``
    out = tmp_path / "run"
    opts = {"features_dir": str(extracted), "annotations_dir": str(corpus / "annotations"),
            "out_dir": str(out), "fold": 0, "all_folds": True, "ablation": None, "feature": "bssl",
            "k_folds": 2, "lr": 3e-4, "batch_size": 2, "epochs": 1, "seed": 86, "weight_decay": 0.01,
            "segment_s": 10, "augment_overlap": True, "channels": 4, "blocks_per_branch": 1,
            "attention_dim": 4, "scaling_factor": 5, "use_mmoe": True}
    manifest = tmp_path / "train_manifest.json"
    manifest.write_text(json.dumps({"command": "train", "resolved_options": opts}))
    assert main(["rerun", str(manifest)]) == 0
    assert (out / "fold0.dync").exists() and not (out / "fold1.dync").exists()


SMALL_TRAIN_OPTIONS = {"fold": 0, "k_folds": 2, "lr": 3e-4,
                       "batch_size": 2, "epochs": 1, "seed": 86, "weight_decay": 0.01, "segment_s": 10,
                       "augment_overlap": True, "channels": 4, "blocks_per_branch": 1,
                       "attention_dim": 4, "scaling_factor": 5, "use_mmoe": True}


def _write_train_manifest(path, corpus, extracted, out, **changes) -> None:
    opts = {"features_dir": str(extracted), "annotations_dir": str(corpus / "annotations"),
            "out_dir": str(out), **SMALL_TRAIN_OPTIONS, **changes}
    path.write_text(json.dumps({"command": "train", "resolved_options": opts}))


def test_rerun_reads_values_with_their_flag_type(corpus, extracted, tmp_path):
    # a recorded value was used as JSON typed it, so "epochs": "1" ended in
    # a TypeError traceback, exit 2
    out = tmp_path / "run"
    manifest = tmp_path / "train_manifest.json"
    _write_train_manifest(manifest, corpus, extracted, out, epochs="1", fold="0", lr="3e-4")
    assert main(["rerun", str(manifest)]) == 0
    assert (out / "fold0.dync").exists() and not (out / "fold1.dync").exists()


def test_rerun_manifest_that_records_an_ablation_exit_1(corpus, extracted, tmp_path, capsys):
    # replaying it without the config change it named would train a different model
    out = tmp_path / "run"
    manifest = tmp_path / "train_manifest.json"
    _write_train_manifest(manifest, corpus, extracted, out, ablation="no_mmoe")
    assert main(["rerun", str(manifest)]) == 1
    assert f"{manifest}: records ablation 'no_mmoe'" in capsys.readouterr().err
    assert not out.exists()


def _annotate_manifest_recording(corpus, trained, prefix, align_downbeats) -> Path:
    """The manifest of one annotate run, edited to record ``align_downbeats``
    as annotate did while it had that flag; its report is removed."""
    wav = sorted((corpus / "audio").glob("*.wav"))[0]
    assert main(["annotate", str(wav), "--checkpoint", str(trained / "fold0.dync"),
                 "--out-prefix", str(prefix)]) == 0
    manifest = Path(f"{prefix}.manifest.json")
    blob = json.loads(manifest.read_text())
    blob["resolved_options"]["align_downbeats"] = align_downbeats
    manifest.write_text(json.dumps(blob))
    return manifest


@pytest.mark.parametrize("recorded", [None, False], ids=["null", "false"])
def test_rerun_manifest_of_unaligned_downbeats_exit_1(corpus, trained, tmp_path, capsys, recorded):
    # without the flag, annotate once reported downbeats that are not beats
    prefix = tmp_path / "out"
    manifest = _annotate_manifest_recording(corpus, trained, prefix, recorded)
    report = Path(f"{prefix}.events.json")
    report.unlink()
    assert main(["rerun", str(manifest)]) == 1
    assert f"{manifest}: records align_downbeats {recorded!r}" in capsys.readouterr().err
    assert not report.exists()


def test_rerun_manifest_of_aligned_downbeats(corpus, trained, tmp_path):
    prefix = tmp_path / "out"
    manifest = _annotate_manifest_recording(corpus, trained, prefix, True)
    report = Path(f"{prefix}.events.json")
    before = report.read_bytes()
    report.unlink()
    assert main(["rerun", str(manifest)]) == 0
    assert report.read_bytes() == before


@pytest.mark.parametrize("key, value, expected", [
    ("epochs", "one", "must be a value of type int, got 'one'"),
    ("use_mmoe", "maybe", "must be true or false, got 'maybe'"),
    ("lr", None, "must not be null"),
], ids=["int", "switch", "null"])
def test_rerun_value_that_does_not_convert_exit_1(corpus, extracted, tmp_path, capsys, key, value, expected):
    out = tmp_path / "run"
    manifest = tmp_path / "train_manifest.json"
    _write_train_manifest(manifest, corpus, extracted, out, **{key: value})
    assert main(["rerun", str(manifest)]) == 1
    assert f"{manifest}: {key} {expected}" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("manifest", [
    {"resolved_options": {}},
    {"command": "extract"},
    {"command": "serve", "resolved_options": {}},
    ["extract"],
    {"command": "extract", "resolved_options": {}},
], ids=["no-command", "no-options", "unknown-command", "not-an-object", "missing-option-keys"])
def test_rerun_malformed_manifest_exit_1(tmp_path, capsys, manifest):
    path = tmp_path / "run_manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["rerun", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_annotate_silence_empty_events(tmp_path):
    import numpy as np
    from scipy.io import wavfile
    from dynamark.network import DynamicsModel, ModelConfig
    from dynamark.trainer import Checkpoint, TrainConfig, save_checkpoint

    # a model whose binary heads are confidently negative everywhere
    model = DynamicsModel(ModelConfig(channels=4, blocks_per_branch=1, attention_dim=4), seed=0)
    for task in ("beat", "downbeat", "change_point"):
        model.params[f"head_{task}.w"].data[:] = 0.0
        model.params[f"head_{task}.b"].data[:] = -10.0
    cp_path = tmp_path / "quiet.dync"
    save_checkpoint(Checkpoint.from_model(model, TrainConfig(segment_s=10), epoch=1), cp_path)

    wav_path = tmp_path / "silence.wav"
    wavfile.write(wav_path, 22050, np.zeros(5 * 22050, dtype=np.float32))
    prefix = tmp_path / "quiet"
    code = main(["annotate", str(wav_path), "--checkpoint", str(cp_path),
                 "--out-prefix", str(prefix)])
    assert code == 0
    report = json.loads((tmp_path / "quiet.events.json").read_text())
    assert report["beats"] == [] and report["markings"] == []
    assert report["change_points"] == []


def test_config_file_and_env_precedence(tmp_path, corpus, extracted):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\nseed = 5\nbatch_size = 2\nsegment_s = 10\n"
                   "channels = 4\nblocks_per_branch = 1\nattention_dim = 4\nk_folds = 2\n"
                   "workers = 2  # an extract option, which train ignores\n")
    out = tmp_path / "cfgrun"
    code = main(["train", "--features-dir", str(extracted),
                 "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out), "--config", str(cfg), "--fold", "0"])
    assert code == 0
    manifest = json.loads((out / "train_manifest.json").read_text())
    assert manifest["seed"] == 5  # file beats default
    summary = json.loads((out / "summary.json").read_text())
    assert summary["train_config"]["epochs"] == 1
    out2 = tmp_path / "cfgrun2"
    code = main(["train", "--features-dir", str(extracted),
                 "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out2), "--config", str(cfg), "--fold", "0",
                 "--seed", "123"])
    assert code == 0
    manifest2 = json.loads((out2 / "train_manifest.json").read_text())
    assert manifest2["seed"] == 123  # explicit flag beats file


SMALL_RUN_CONFIG = {"epochs": "1", "batch_size": "2", "segment_s": "10", "channels": "4",
                    "blocks_per_branch": "1", "attention_dim": "4", "k_folds": "2", "seed": "86"}


@pytest.mark.parametrize("key, value, expected", [
    ("epochs", "1.0", "a value of type int"),
    ("batch_size", "2.0", "a value of type int"),
    ("channels", "4.0", "a value of type int"),
    ("seed", "1.5", "a value of type int"),
    ("segment_s", "10.5", "a value of type int"),
    ("use_mmoe", "maybe", "true or false"),
])
def test_config_value_takes_its_flag_type(corpus, extracted, tmp_path, capsys, key, value, expected):
    # a value read by its looks reached the trainer as a float and ended
    # in a TypeError traceback, exit 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**SMALL_RUN_CONFIG, key: value}.items()))
    code = main(["train", "--features-dir", str(extracted), "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(tmp_path / "out"), "--config", str(cfg), "--fold", "0"])
    assert code == 1
    assert f"{cfg}: {key} must be {expected}, got {value!r}" in capsys.readouterr().err


def test_config_key_of_no_command_exit_1(corpus, extracted, tmp_path, capsys):
    # a typo such as ``epoch`` was ignored, so the run trained for the default 120 epochs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in SMALL_RUN_CONFIG.items()) + "epoch = 3\n")
    out = tmp_path / "out"
    code = main(["train", "--features-dir", str(extracted), "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out), "--config", str(cfg), "--fold", "0"])
    assert code == 1
    assert f"{cfg}: unknown option epoch" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_parse_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("lr 3e-4\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_file(bad)


def test_config_non_utf8_exit_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = \xff5\n")
    code = main(["train", "--features-dir", str(tmp_path), "--annotations-dir", str(tmp_path),
                 "--out-dir", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 1
    assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err


def test_config_unknown_feature_exit_1(corpus, tmp_path, capsys):
    # a file value skipped the flag's choices: each WAV failed on its own,
    # after the output directory was made
    cfg = tmp_path / "run.cfg"
    cfg.write_text("feature = mfcc\n")
    out = tmp_path / "out"
    code = main(["extract", "--audio-dir", str(corpus / "audio"), "--out-dir", str(out), "--config", str(cfg)])
    assert code == 1
    assert f"{cfg}: feature must be one of bssl, logmel, got 'mfcc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "epochs=0"),
    (["--k-folds", "0"], "cannot make 0 folds"),
    (["--k-folds", "-1"], "cannot make -1 folds"),
])
def test_train_no_epochs_or_folds_exit_1(corpus, extracted, tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    code = main(["train", "--features-dir", str(extracted), "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out), *flags])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--lr", "inf"),
    ("--weight-decay", "inf"), ("--weight-decay", "nan"), ("--weight-decay", "-0.1"),
])
def test_train_non_finite_lr_or_weight_decay_exit_1(corpus, extracted, tmp_path, capsys, flag, value):
    # ``nan <= 0`` is false, so ``--lr nan`` trained until AdamW blamed a parameter
    out = tmp_path / "out"
    code = main(["train", "--features-dir", str(extracted), "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out), "--k-folds", "2", "--fold", "0", "--epochs", "1",
                 "--batch-size", "2", "--segment-s", "10", "--channels", "4", "--blocks-per-branch", "1",
                 "--attention-dim", "4", flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{flag[2:].replace('-', '_')}={float(value)}" in err
    assert "epoch 1/" not in err


def test_train_one_piece_names_piece_count_exit_1(corpus, extracted, tmp_path, capsys):
    # the default 5 folds used to be clamped to the piece count, so the
    # error named 1 fold, a count never asked for
    annotations = tmp_path / "annotations"
    annotations.mkdir()
    rec_id = sorted(p.stem for p in extracted.glob("*.dynf"))[0]
    for suffix in ("beats", "markings"):
        shutil.copy(corpus / "annotations" / f"{rec_id}_{suffix}.csv", annotations)
    out = tmp_path / "out"
    code = main(["train", "--features-dir", str(extracted), "--annotations-dir", str(annotations),
                 "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--k-folds 5 asked for, but the corpus holds 1 piece" in err
    assert "cannot make" not in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("argv", [
    ["extract", "--audio-dir", "a", "--out-dir", "b", "--feature", "wav"],
    ["train", "--features-dir", "a", "--annotations-dir", "b", "--out-dir", "c", "--fold", "x"],
    ["train", "--features-dir", "a", "--annotations-dir", "b", "--out-dir", "c", "--feature", "logmel"],
    ["annotate", "x.wav"],
    ["transcribe"],
    ["annotate", "x.wav", "--checkpoint", "c.dync", "--align-downbeats"],
])
def test_usage_errors_exit_1(capsys, argv):
    # argparse's own code is 2, which here means an internal error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert "dynamark" in capsys.readouterr().out


def test_feature_choices_come_from_feature_bins(monkeypatch):
    from dynamark import audio

    monkeypatch.setitem(audio.FEATURE_BINS, "cqt", 84)
    argv = ["extract", "--audio-dir", "a", "--out-dir", "b", "--feature", "cqt"]
    assert build_parser().parse_args(argv).feature == "cqt"


def test_every_config_field_is_a_train_option():
    # a field that no flag sets is a setting that no run can change
    options = _flags(build_parser(), "train")
    unreachable = [f.name for cls in (ModelConfig, TrainConfig) for f in fields(cls)
                   if f.name != "input_bins" and f.name not in options]  # the feature files set input_bins
    assert unreachable == []


def test_exit_code_for_missing_input(tmp_path):
    code = main(["annotate", str(tmp_path / "missing.wav"),
                 "--checkpoint", str(tmp_path / "missing.dync")])
    assert code == 1


@pytest.mark.parametrize("case", ["annotate-checkpoint-dir", "eval-references-dir",
                                  "extract-out-dir-is-file", "rerun-dir"])
def test_os_errors_exit_1(tmp_path, capsys, case):
    from dynamark.postprocess import EventReport
    report = tmp_path / "report.json"
    EventReport(beats=[1.0], markings=["p"]).write_json(report)
    argv = {
        "annotate-checkpoint-dir": ["annotate", str(tmp_path / "x.wav"), "--checkpoint", str(tmp_path)],
        "eval-references-dir": ["eval", "--predictions", str(report), "--references", str(tmp_path)],
        "extract-out-dir-is-file": ["extract", "--audio-dir", str(tmp_path), "--out-dir", str(report)],
        "rerun-dir": ["rerun", str(tmp_path)],
    }[case]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
