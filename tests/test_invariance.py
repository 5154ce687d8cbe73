"""File-level invariance: what a user does to a WAV file must not change
its report.

Each case writes one edit of a 20 s synthetic 44.1 kHz int16 clip and
runs ``annotate``'s path on it (``wav_features``, ``predict_frames``,
``build_event_report``) with the committed checkpoint; the unedited clip
reads 38 beats, at beat F1 0.90 against its annotation.  An edited report
holds when its beats, shifted back by any audio the edit put in front,
match the unedited report's at beat F1 >= 0.95 and its markings equal
the unedited ones.  That ``extract --workers N`` writes the same bytes
for any N is pinned in ``test_cli.py::test_extract_parallel_identical_bytes``.
"""

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import resample_poly

import make_golden
from _synth import synth_clip
from dynamark.audio import wav_features
from dynamark.metrics import event_f1
from dynamark.postprocess import build_event_report
from dynamark.trainer import load_checkpoint, model_from_checkpoint, predict_frames

RATE = 44100
FRAME = 882  # samples of one 20 ms frame at 44.1 kHz
MIN_BEAT_F1 = 0.95
MINUS_6_DB = 10.0 ** (-6.0 / 20.0)


@pytest.fixture(scope="module")
def pcm():
    # the clicks peak at exactly 1.0, so the int16 samples do not clip
    return np.round(synth_clip(seconds=20.0, seed=5, rate=RATE)[0] * 32767).astype(np.int16)


@pytest.fixture(scope="module")
def annotate(tmp_path_factory):
    """The features and report of a WAV of ``data`` at ``rate``."""
    cp = load_checkpoint(make_golden.CHECKPOINT)
    model, root = model_from_checkpoint(cp).frozen(), tmp_path_factory.mktemp("invariance")

    def run(data, rate=RATE):
        path = root / "clip.wav"
        wavfile.write(path, rate, data)
        features = wav_features(path, ["bssl"])["bssl"]
        return features, build_event_report(predict_frames(model, features, cp.train_config.segment_s))

    return run


@pytest.fixture(scope="module")
def unedited(pcm, annotate):
    return annotate(pcm)


def test_stereo_of_one_channel_twice_gives_the_mono_features(pcm, annotate, unedited):
    features, _ = annotate(np.stack([pcm, pcm], axis=1))
    assert np.array_equal(features, unedited[0])


def test_float32_wav_gives_the_int16_features(pcm, annotate, unedited):
    features, _ = annotate((pcm / 32768).astype(np.float32))
    assert np.array_equal(features, unedited[0])


def test_gain_gives_the_same_report(pcm, annotate, unedited):
    # peak normalisation undoes a plain gain; the edits below add more to it
    _, report = annotate(np.round(pcm * MINUS_6_DB).astype(np.int16))
    _, want = unedited
    assert (report.beats, report.downbeats, report.markings) == (want.beats, want.downbeats, want.markings)


def _leading_silence(pcm, frames):
    return np.concatenate([np.zeros(frames * FRAME, dtype=np.int16), pcm]), RATE, frames * FRAME / RATE


def _gain_and_click(pcm):
    edited = np.round(pcm * MINUS_6_DB).astype(np.int16)
    edited[-100:-95] = 32767
    return edited, RATE, 0.0


def _at_48_khz(pcm):
    return resample_poly(pcm / 32768, 160, 147).astype(np.float32), 48000, 0.0


SHIFT_REASON = (
    "the encoder sees time modulo s^2 = 25 frames, so leading silence of a few frames moves every "
    "frame's phase in its pooling grid. 20 s synthetic clip, committed checkpoint: {} of leading "
    "silence gives {} beats against the unedited report's 38, beat F1 {} against it with the "
    "times shifted back")
LEVEL_REASON = (
    "one sample sets the level of every feature: wav_features scales a recording so that the "
    "sample peak of its downmix reads -1 dBFS. 20 s synthetic clip, committed checkpoint: {}")


def _xfail(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda pcm: _leading_silence(pcm, 1), id="silence-1-frame",
                 marks=_xfail(SHIFT_REASON.format("1 frame (882 samples)", 25, 0.381))),
    pytest.param(lambda pcm: _leading_silence(pcm, 2), id="silence-2-frames",
                 marks=_xfail(SHIFT_REASON.format("2 frames (1764 samples)", 15, 0.453))),
    pytest.param(_gain_and_click, id="gain-and-click", marks=_xfail(LEVEL_REASON.format(
        "at -6 dB with 5 full-scale samples 100 samples before the end, it reads 62 beats "
        "against 38, beat F1 0.740 against the unedited report"))),
    pytest.param(_at_48_khz, id="resampled-48-khz", marks=_xfail(LEVEL_REASON.format(
        "rendered at 48 kHz with resample_poly(160, 147), its clicks overshoot to 1.51, so the music "
        "enters 3.6 dB lower; it reads 47 beats against 38, beat F1 0.871 against the unedited report"))),
])
def test_edit_keeps_the_report(pcm, annotate, unedited, edit):
    data, rate, shift_s = edit(pcm)
    _, report = annotate(data, rate)
    _, want = unedited
    f1 = event_f1(np.asarray(report.beats) - shift_s, want.beats).f1
    assert f1 >= MIN_BEAT_F1 and report.markings == want.markings, (len(report.beats), f1)
