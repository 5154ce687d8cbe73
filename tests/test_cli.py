"""End-to-end command tests on a small synthetic corpus."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from dynamark.audio import load_features
from dynamark.cli import _labels_at_reference_beats, main, parse_config_file
from dynamark.errors import ConfigError
from dynamark.objectives import DYNAMIC_LABELS

from _synth import write_corpus


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


def test_extract_parallel_identical_bytes(corpus, extracted, tmp_path):
    out = tmp_path / "par"
    code = main(["extract", "--audio-dir", str(corpus / "audio"), "--out-dir", str(out),
                 "--workers", "2"])
    assert code == 0
    for path in sorted(out.glob("*.dynf")):
        assert path.read_bytes() == (extracted / path.name).read_bytes()


def test_extract_skip_then_force_identical(corpus, extracted):
    target = sorted(extracted.glob("*.dynf"))[0]
    before = target.read_bytes()
    code = main(["extract", "--audio-dir", str(corpus / "audio"), "--out-dir", str(extracted)])
    assert code == 0
    assert target.read_bytes() == before
    code = main(["extract", "--audio-dir", str(corpus / "audio"), "--out-dir", str(extracted), "--force"])
    assert code == 0
    assert target.read_bytes() == before  # deterministic re-extraction


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


def test_train_ablation_report(corpus, extracted, tmp_path):
    out = tmp_path / "ablation"
    code = main(["train",
                 "--features-dir", str(extracted),
                 "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out),
                 "--k-folds", "2", "--fold", "0", "--ablation", "no_mmoe",
                 "--epochs", "1", "--batch-size", "2", "--segment-s", "10",
                 "--channels", "4", "--blocks-per-branch", "1", "--attention-dim", "4"])
    assert code == 0
    report = json.loads((out / "ablation_no_mmoe.json").read_text())
    assert report["model_config"]["use_mmoe"] is False
    assert "average" in report


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


def test_non_finite_audio_fails_extract_and_annotate(trained, tmp_path, capsys):
    audio = tmp_path / "audio"
    audio.mkdir()
    samples = np.zeros(2 * 22050, dtype=np.float32)
    samples[100] = np.nan
    wavfile.write(audio / "nan.wav", 22050, samples)
    code = main(["extract", "--audio-dir", str(audio), "--out-dir", str(tmp_path / "out"), "--json"])
    assert code == 1
    assert [f["status"] for f in json.loads(capsys.readouterr().out)["files"]] == ["failed"]
    assert not (tmp_path / "out" / "nan.dynf").exists()
    code = main(["annotate", str(audio / "nan.wav"), "--checkpoint", str(trained / "fold0.dync"),
                 "--out-prefix", str(tmp_path / "nan")])
    assert code == 1
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["bssl", "logmel"])
def test_annotate_loudness_csv_reuses_one_spectrogram(corpus, tmp_path, monkeypatch, kind):
    from dynamark import audio, cli
    from dynamark.network import DynamicsModel, ModelConfig
    from dynamark.trainer import Checkpoint, TrainConfig, save_checkpoint

    cfg = ModelConfig(input_bins=audio.N_BARK_BANDS if kind == "bssl" else audio.N_MELS,
                      channels=4, blocks_per_branch=1, attention_dim=4)
    checkpoint = tmp_path / f"{kind}.dync"
    save_checkpoint(Checkpoint.from_model(DynamicsModel(cfg, seed=0), TrainConfig(segment_s=10), 0),
                    checkpoint)
    calls = {"stft_power": 0, "bssl": 0}

    def counted(name, run):
        def call(*args):
            calls[name] += 1
            return run(*args)
        return call

    for name in calls:
        wrapper = counted(name, getattr(audio, name))
        for module in (audio, cli):  # extract_features calls the audio module's own
            monkeypatch.setattr(module, name, wrapper)
    wav = sorted((corpus / "audio").glob("*.wav"))[0]
    code = main(["annotate", str(wav), "--checkpoint", str(checkpoint),
                 "--feature", kind, "--out-prefix", str(tmp_path / "out"), "--loudness-csv"])
    assert code == 0
    assert calls == {"stft_power": 1, "bssl": 1}
    monkeypatch.undo()
    curve = audio.total_loudness(audio.bssl(audio.stft_power(audio.decode_and_prepare(wav))))
    want = "time_s,total_loudness_sone\n" + "".join(
        f"{i / audio.FPS:.3f},{value:.5f}\n" for i, value in enumerate(curve))
    assert (tmp_path / "out.loudness.csv").read_bytes() == want.encode()


def test_annotate_feature_mismatch(corpus, trained, capsys):
    wav = sorted((corpus / "audio").glob("*.wav"))[0]
    code = main(["annotate", str(wav), "--checkpoint", str(trained / "fold0.dync"),
                 "--feature", "logmel"])
    assert code == 1
    assert "bssl" in capsys.readouterr().err


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


def test_config_file_and_env_precedence(tmp_path, monkeypatch, corpus, extracted):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\nseed = 5\nbatch_size = 2\nsegment_s = 10\n"
                   "channels = 4\nblocks_per_branch = 1\nattention_dim = 4\nk_folds = 2\n")
    out = tmp_path / "cfgrun"
    monkeypatch.setenv("DYNAMARK_SEED", "99")
    code = main(["train", "--features-dir", str(extracted),
                 "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out), "--config", str(cfg), "--fold", "0"])
    assert code == 0
    manifest = json.loads((out / "train_manifest.json").read_text())
    assert manifest["seed"] == 99  # env beats config file
    summary = json.loads((out / "summary.json").read_text())
    assert summary["train_config"]["epochs"] == 1  # file beats default
    monkeypatch.setenv("DYNAMARK_SEED", "100")
    out2 = tmp_path / "cfgrun2"
    code = main(["train", "--features-dir", str(extracted),
                 "--annotations-dir", str(corpus / "annotations"),
                 "--out-dir", str(out2), "--config", str(cfg), "--fold", "0",
                 "--seed", "123"])
    assert code == 0
    manifest2 = json.loads((out2 / "train_manifest.json").read_text())
    assert manifest2["seed"] == 123  # explicit flag beats env


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


def test_exit_code_for_missing_input(tmp_path):
    code = main(["annotate", str(tmp_path / "missing.wav"),
                 "--checkpoint", str(tmp_path / "missing.dync")])
    assert code == 1
