"""Frontend tests: decoding, STFT, specific loudness, log-mel, files."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.io import wavfile
from scipy.signal import resample_poly

from dynamark import audio, parallel
from dynamark.audio import (
    CRITICAL_BAND_EDGES_HZ,
    CRITICAL_BAND_CENTERS_HZ,
    PEAK_TARGET,
    SAMPLE_RATE,
    bssl,
    decode_and_prepare,
    log_mel,
    mel_filterbank,
    phon_to_sone,
    stft_power,
    total_loudness,
)
from dynamark.errors import ConfigError, DecodeError, DynamarkError, EmptyInputError

from _synth import mutate_bytes, write_wav


def tone(freq, seconds, rate=SAMPLE_RATE, amp=1.0):
    t = np.arange(int(round(seconds * rate))) / rate
    return amp * np.sin(2 * np.pi * freq * t)


# -- decode_and_prepare -----------------------------------------------------

def test_decode_stereo_downmix_and_peak(wav_writer):
    # 3 Hz sine starts and ends at zero, so the resampler preserves its peak
    x = 0.5 * np.column_stack([tone(3.0, 1.0, rate=44100)] * 2)
    path = wav_writer("stereo.wav", x, 44100)
    samples = decode_and_prepare(path)
    assert samples.dtype == np.float64 and len(samples) == 22050
    assert abs(np.abs(samples).max() - PEAK_TARGET) < 1e-3


def test_decode_downmix_is_channel_mean(wav_writer):
    left = tone(200.0, 0.5, amp=0.6)
    right = np.zeros_like(left)
    samples = decode_and_prepare(wav_writer("lr.wav", np.column_stack([left, right]), SAMPLE_RATE))
    # mean of channels halves the sine, then normalisation rescales the peak
    assert abs(np.abs(samples).max() - PEAK_TARGET) < 1e-9


def test_decode_native_rate_peak_exact(wav_writer):
    x = tone(440.0, 1.0, amp=0.37)
    samples = decode_and_prepare(wav_writer("sine.wav", x, SAMPLE_RATE))
    assert abs(np.abs(samples).max() - PEAK_TARGET) < 1e-9


def test_decode_all_zero_unchanged(wav_writer):
    samples = decode_and_prepare(wav_writer("zero.wav", np.zeros(22050), SAMPLE_RATE))
    assert len(samples) == 22050
    np.testing.assert_array_equal(samples, 0.0)


def test_decode_resampled_sine_spectral_peak(wav_writer):
    # oracle: FFT peak of the resampler output
    x = tone(1000.0, 2.0, rate=44100, amp=0.8)
    samples = decode_and_prepare(wav_writer("sine44.wav", x, 44100))
    spec = np.abs(np.fft.rfft(samples * np.hanning(len(samples))))
    freqs = np.fft.rfftfreq(len(samples), 1.0 / SAMPLE_RATE)
    assert abs(freqs[spec.argmax()] - 1000.0) < 1.0


@pytest.mark.parametrize("rate", [8000, 16000, 32000, 44100, 48000, 88200, 96000, 44101, 48001, 22051])
def test_resampler_matches_resample_poly(rate):
    # every rate span_cases draws but the native one, plus two rare rates it
    # does not draw; lengths from one sample to several chunks.  The GEMMs
    # sum scipy's products in another order and with fused multiply-adds:
    # the largest gap is 7.4e-16 * max|x| on these inputs at the common
    # rates, 1.5e-15 at the rare ones, and 1.2e-15 * max|x| on 60 s of
    # noise at the common rates
    up, down, h = audio._polyphase(rate)
    resample = audio._Resampler(rate)
    rng = np.random.default_rng(rate)
    for n in (1, 63, 1000, 3 * resample.chunk * down // up + 7):
        x = rng.uniform(-1.5, 1.5, n)
        want = resample_poly(x, up, down, window=h)
        got = resample(x, 0, 0, resample.n_out(n))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 4e-15 * np.abs(x).max(), n


# (width, patterns, rows) of the resampler at common rates, whose chunks of
# 0.07-0.77 s are the same as before chunks were capped at one second, and
# at rare rates, where one second of output is one cycle of 490 or 245
# patterns (the chunks were 18-38 s)
RESAMPLER_LAYOUTS = {8000: (147, 3, 15), 16000: (63, 7, 38), 32000: (63, 7, 27), 44100: (49, 1, 33),
                     48000: (21, 7, 115), 96000: (21, 7, 82),
                     44101: (45, 490, 1), 48001: (45, 490, 1), 22051: (90, 245, 1)}


@pytest.mark.parametrize("rate", sorted(RESAMPLER_LAYOUTS))
def test_resampler_layout_and_its_gemms(rate):
    # the layout is pinned, and the outputs are the bits of one
    # (rows, span) @ (span, width) GEMM per chunk and pattern on that layout
    resample = audio._Resampler(rate)
    width, patterns, rows = RESAMPLER_LAYOUTS[rate]
    assert (resample.width, len(resample.starts), resample.rows) == (width, patterns, rows)
    assert resample.chunk == rows * patterns * width <= max(SAMPLE_RATE, patterns * width)
    x = np.random.default_rng(rate).uniform(-1.0, 1.0, 3 * resample.chunk * resample.down // resample.up)
    n_out, chunks = resample.n_out(len(x)), -(-resample.n_out(len(x)) // resample.chunk)
    pad = max(0, -int(resample.starts[0]))
    padded = np.zeros(pad + int(resample.starts[-1]) + chunks * rows * resample.stride + resample.span)
    padded[pad:pad + len(x)] = x
    want = np.empty((chunks, rows, patterns, width))
    for c in range(chunks):
        for p, start in enumerate(resample.starts):
            first = pad + int(start) + c * rows * resample.stride
            windows = np.stack([padded[first + j * resample.stride:][:resample.span] for j in range(rows)])
            want[c, :, p] = windows @ resample.toeplitz[p]
    assert np.array_equal(resample(x, 0, 0, n_out), want.reshape(-1)[:n_out])


_FEATURE_DIGESTS = """
import hashlib, sys
from dynamark import audio
for path in sys.argv[1:]:
    features = audio.wav_features(path, ["bssl", "logmel"])
    print(hashlib.sha256(features["bssl"].tobytes() + features["logmel"].tobytes()).hexdigest())
"""


def test_span_features_do_not_depend_on_the_blas_thread_count(tmp_path):
    # README: extract and annotate give the same bits with one BLAS thread and
    # with two.  The resampler keeps each GEMM small enough for OpenBLAS to
    # run it on one thread at any thread count, so this holds by construction
    rng = np.random.default_rng(0)
    paths = [str(write_wav(tmp_path / f"{rate}.wav", rng.uniform(-0.9, 0.9, (20 * rate, 2)), rate, "int16"))
             for rate in (44100, 48000)]
    src = str(Path(audio.__file__).resolve().parents[1])

    def digests(threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _FEATURE_DIGESTS, *paths], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return run.stdout.split()

    one = digests(1)
    assert len(one) == 2 and digests(2) == one


@pytest.mark.parametrize("sampwidth", ["int16", "int24", "float32"])
def test_decode_sample_formats(wav_writer, sampwidth):
    x = tone(500.0, 0.25, amp=0.25)
    samples = decode_and_prepare(wav_writer(f"fmt_{sampwidth}.wav", x, SAMPLE_RATE, sampwidth))
    assert abs(np.abs(samples).max() - PEAK_TARGET) < 1e-3


def test_decode_corrupt_file(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav at all")
    with pytest.raises(DecodeError):
        decode_and_prepare(bad)


def test_decode_empty_audio(tmp_path):
    import struct
    empty = tmp_path / "empty.wav"
    with open(empty, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 22050, 44100, 2, 16))
        fh.write(b"data" + struct.pack("<I", 0))
    with pytest.raises(EmptyInputError):
        decode_and_prepare(empty)


@pytest.mark.parametrize("bad, match", [
    ("nan-in-one-channel", "NaN or infinite"),
    ("minus-inf", "NaN or infinite"),
    ("int64", "unsupported WAV sample format"),
    ("subnormal-peak", "too small to normalise"),
])
def test_decode_rejects_non_finite_and_unsupported_samples(tmp_path, bad, match):
    x = tone(200.0, 0.2, amp=0.5)
    if bad == "subnormal-peak":  # PEAK_TARGET / peak overflows to inf
        data = x * 4e-309
    elif bad == "nan-in-one-channel":
        data = np.column_stack([x, x]).astype(np.float32)
        data[100, 1] = np.nan
    elif bad == "minus-inf":
        data = x.astype(np.float32)
        data[5] = -np.inf
    else:
        data = np.round(x * 2.0 ** 40).astype(np.int64)
    path = tmp_path / f"{bad}.wav"
    wavfile.write(path, SAMPLE_RATE, data)
    with pytest.raises(DecodeError, match=match):
        decode_and_prepare(path)


# -- bit identity with the decode and STFT that the lean front end replaced ----

def _reference_mono_normalised(raw):
    """Cast and scale to float64, average the channels, normalise the
    peak: the decode steps that ``audio._mono_normalised`` replaced, kept
    as its reference.  Float channels are summed left to right before
    the division by their count; integer ones are averaged by
    ``mean(axis=1)``, whose pairwise order gives the same exact sums.
    None where the audio is not finite or its peak too small to scale
    (``PEAK_TARGET / peak`` is inf), where ``_mono_normalised`` raises."""
    if raw.dtype == np.int16:
        x = raw.astype(np.float64) / 32768.0
    elif raw.dtype == np.int32:
        x = raw.astype(np.float64) / 2147483648.0
    elif raw.dtype == np.uint8:
        x = (raw.astype(np.float64) - 128.0) / 128.0
    else:
        x = raw.astype(np.float64)
    if x.ndim == 2 and raw.dtype.kind == "f":
        x = functools.reduce(np.add, x.T) / x.shape[1]
    elif x.ndim == 2:
        x = x.mean(axis=1)
    peak = np.abs(x).max()
    if not np.isfinite(peak):
        return None
    if peak == 0:
        return x
    gain = PEAK_TARGET / float(peak)
    return x * gain if math.isfinite(gain) else None


def _reference_stft_power(samples):
    """The one-shot transform of every frame that ``stft_power``'s blocks
    replaced, kept as its reference: (513, T)."""
    t = audio.frame_count(len(samples))
    padded = np.zeros((t - 1) * audio.HOP + audio.WINDOW)
    padded[:len(samples)] = samples
    frames = np.lib.stride_tricks.sliding_window_view(padded, audio.WINDOW)[::audio.HOP]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(audio.WINDOW) / audio.WINDOW)
    spec = np.fft.rfft(frames * window, axis=1)
    return (spec.real ** 2 + spec.imag ** 2).T


@st.composite
def decoded_samples(draw):
    """What ``wavfile.read`` returns for a supported file: (N,) for mono,
    else (N, C)."""
    dtype = np.dtype(draw(st.sampled_from([np.int16, np.int32, np.uint8, np.float32, np.float64])))
    channels = draw(st.integers(0, 16))  # 0 stands for a mono file
    n = draw(st.integers(1, 5000))
    shape = (n,) if channels == 0 else (n, channels)
    if draw(st.booleans()):  # every sample drawn independently
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if dtype.kind == "f":
            return (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)).astype(dtype)
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)
    # a few of hypothesis's edge values (extremes, zeros, subnormals) over one fill value
    elements = (st.floats(width=8 * dtype.itemsize, allow_nan=False, allow_infinity=False)
                if dtype.kind == "f" else None)
    return draw(hnp.arrays(dtype, shape, elements=elements))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(decoded_samples())
def test_mono_normalised_matches_reference_bit_for_bit(raw):
    # the span front end's peak pass reads the extremes of the channel sum
    x = audio._downmix(raw)
    assert np.array_equal(audio._downmix_peak(raw), max(x.max(), -x.min()), equal_nan=True)
    want = _reference_mono_normalised(raw)
    # float64 channels can sum past the largest double, and a subnormal peak
    # scales by inf: both are typed errors, never NaN samples
    if want is None:
        with pytest.raises(DecodeError, match="NaN or infinite|too small to normalise"):
            audio._mono_normalised(raw, "x.wav")
        return
    got = audio._mono_normalised(raw, "x.wav")
    assert got.dtype == np.float64 and np.array_equal(got, want)


@pytest.mark.parametrize("channels", [129, 300])
def test_mono_normalised_matches_reference_past_128_channels(channels):
    rng = np.random.default_rng(channels)
    raw = rng.standard_normal((200, channels)) * 10.0 ** rng.integers(-8, 8, (200, channels))
    assert np.array_equal(audio._mono_normalised(raw, "x.wav"), _reference_mono_normalised(raw))


def test_decode_holds_one_mono_vector(tmp_path):
    # a 22.05 kHz stereo int16 file, so no resample runs: the decoded
    # samples (half the output's bytes) and the one float64 mono vector.
    # Casting, scaling and averaging in turn reads 3.5 outputs.
    rng = np.random.default_rng(0)
    path = tmp_path / "stereo.wav"
    wavfile.write(path, SAMPLE_RATE, (rng.standard_normal((10 * SAMPLE_RATE + 123, 2)) * 3000).astype(np.int16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        samples = decode_and_prepare(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(samples, _reference_mono_normalised(wavfile.read(path)[1]))
    assert peak <= 2.0 * samples.nbytes, peak / samples.nbytes


def _reference_features(path, kinds):
    """The serial whole-signal front end that ``wav_features`` replaces in
    the CLI: its features, or the type and message of its error."""
    try:
        power = stft_power(decode_and_prepare(path))
        return {kind: bssl(power) if kind == "bssl" else log_mel(power) for kind in kinds}
    except DynamarkError as exc:
        return type(exc), str(exc)


def _span_features(path, kinds):
    try:
        return audio.wav_features(path, kinds)
    except DynamarkError as exc:
        return type(exc), str(exc)


@st.composite
def span_cases(draw):
    """A WAV (format, channels, rate, length, content) and the span size
    and worker count to run it with.  Lengths reach from a few samples,
    too short to analyse, past two spans plus a tail of 1-3 frames."""
    span_frames = draw(st.integers(1, 20))
    rate = draw(st.sampled_from([8000, 16000, 22050, 32000, 44100, 48000, 88200, 96000, 44101]))
    shortest = audio.WINDOW * rate // SAMPLE_RATE + 1  # just over one window once resampled
    longest = (2 * span_frames + 3) * audio.HOP * rate // SAMPLE_RATE
    too_short = draw(st.sampled_from([False] * 9 + [True]))
    n = draw(st.integers(0, shortest) if too_short else st.integers(shortest, longest))
    return dict(fmt=draw(st.sampled_from(["int16", "int24", "uint8", "float32", "float64"])),
                channels=draw(st.integers(1, 16)), rate=rate, n=n,
                defect=draw(st.sampled_from(["none", "silence", "nan", "inf", "subnormal", "overflow"])),
                seed=draw(st.integers(0, 2**32 - 1)), span_frames=span_frames,
                workers=draw(st.integers(1, 7)))


def _write_span_case(path, fmt, channels, rate, n, defect, seed):
    """Uniform noise, or a defect where the format can hold it: NaN, inf,
    a subnormal peak (float64) or a channel sum past the largest double
    (float64, 2 or more channels)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.9, 0.9, (n, channels))
    if defect == "silence":
        x[:] = 0.0
    elif n and fmt.startswith("float") and defect in ("nan", "inf"):
        x[rng.integers(n), rng.integers(channels)] = np.nan if defect == "nan" else -np.inf
    elif fmt == "float64" and defect == "subnormal":
        x *= 1e-310
    elif n and fmt == "float64" and defect == "overflow" and channels > 1:
        x[rng.integers(n)] = 1.7e308
    write_wav(path, x, rate, fmt)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(span_cases())
@example(dict(fmt="int16", channels=2, rate=44100, n=2 * 3000 * 882 + 1000, defect="none",
              seed=0, span_frames=audio.SPAN_FRAMES, workers=2))  # the real span size
@example(dict(fmt="int16", channels=1, rate=44101, n=3 * 44101 + 500, defect="none",
              seed=0, span_frames=40, workers=2))  # spans across one-second chunks of 490 patterns
@example(dict(fmt="int16", channels=1, rate=48000, n=1, defect="none",
              seed=0, span_frames=1, workers=7))  # one sample, more workers than spans
@example(dict(fmt="float32", channels=2, rate=SAMPLE_RATE, n=11 * audio.HOP + 1, defect="none",
              seed=0, span_frames=5, workers=3))  # a last span of one frame and one sample
def test_span_features_match_whole_signal_bit_for_bit(tmp_path_factory, case):
    # every span's columns, and every error, are those of the serial
    # whole-signal front end at any span size and worker count
    path = tmp_path_factory.getbasetemp() / "span.wav"  # one file, rewritten by each example
    _write_span_case(path, case["fmt"], case["channels"], case["rate"], case["n"],
                     case["defect"], case["seed"])
    want = _reference_features(path, ["bssl", "logmel"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audio, "SPAN_FRAMES", case["span_frames"])
        mp.setattr(parallel, "worker_count", lambda: case["workers"])
        got = _span_features(path, ["bssl", "logmel"])
    if isinstance(want, tuple):
        assert got == want
        return
    assert list(got) == ["bssl", "logmel"]
    for kind, values in want.items():
        assert got[kind].dtype == np.float32 and got[kind].shape == values.shape
        assert got[kind].tobytes() == values.tobytes(), kind


@pytest.mark.parametrize("workers, spans", [(1, 3), (2, 4), (3, 3)])
def test_span_features_take_one_spectrogram_per_span(tmp_path, monkeypatch, workers, spans):
    # 25 frames in spans of at most 10: 3 spans, or 4 of 7 frames so that
    # 2 workers finish together; both kinds read each span's one spectrogram
    path = write_wav(tmp_path / "x.wav", np.random.default_rng(0).uniform(-1, 1, 25 * audio.HOP),
                     SAMPLE_RATE)
    monkeypatch.setattr(audio, "SPAN_FRAMES", 10)
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    calls = []
    monkeypatch.setattr(audio, "stft_power", lambda x, run=audio.stft_power: calls.append(1) or run(x))
    assert [v.shape for v in audio.wav_features(path, ["logmel", "bssl"]).values()] == [(128, 25), (22, 25)]
    assert len(calls) == spans


def test_span_features_reject_an_unknown_kind(tmp_path):
    path = write_wav(tmp_path / "x.wav", np.zeros(SAMPLE_RATE), SAMPLE_RATE)
    with pytest.raises(ConfigError, match="mfcc"):
        audio.wav_features(path, ["bssl", "mfcc"])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_span_features_memory_does_not_grow_with_the_recording(tmp_path):
    # 44.1 kHz stereo int16, 4 and 8 minutes: the whole-signal front end
    # holds the recording as float64 at both rates and its spectrogram, so
    # its peak grows by about 0.86 MB a second.  The spans hold the decoded
    # samples and the features; the rest is one span per worker
    block = (np.random.default_rng(0).standard_normal((44100, 2)) * 3000).astype(np.int16)
    paths = []
    for minutes in (4, 8):
        paths.append(tmp_path / f"{minutes}min.wav")
        wavfile.write(paths[-1], 44100, np.tile(block, (60 * minutes, 1)))
    whole = [_traced_peak(lambda p: log_mel(stft_power(decode_and_prepare(p))), p)
             for p in paths]
    spans = [_traced_peak(audio.wav_features, p, ["logmel"]) for p in paths]
    assert spans[1] - spans[0] < 0.5 * (whole[1] - whole[0]), (spans, whole)


@pytest.mark.xfail(strict=True, reason=(
    "bssl reads 48 dB above its own anchor, because stft_power is not divided by the Hann "
    "window's gain: a 1 kHz sine at -56 dBFS reads a median of 34.19 sone total loudness, "
    "not 1; a full-scale one reads 141.6 phon in its band, not about 94"))
def test_loudness_meets_its_anchor(tmp_path):
    # one full-scale sample sets the -1 dBFS normalisation peak, so the sine
    # plays at -56 dBFS (40 dB SPL, 1 sone) once normalised
    t = np.arange(5 * SAMPLE_RATE) / SAMPLE_RATE
    quiet = 10.0 ** (-55.0 / 20.0) * np.sin(2 * np.pi * 1000.0 * t)
    quiet[0] = 1.0
    sone = np.median(total_loudness(audio.wav_features(
        write_wav(tmp_path / "quiet.wav", quiet, SAMPLE_RATE, "float64"), ["bssl"])["bssl"]))
    full = audio.wav_features(write_wav(tmp_path / "full.wav", np.sin(2 * np.pi * 1000.0 * t),
                                        SAMPLE_RATE, "float64"), ["bssl"])["bssl"]
    phon = 40.0 + 10.0 * np.log2(np.median(full[8]))  # the 920-1080 Hz band; sone >= 1
    assert abs(sone - 1.0) <= 0.1 and abs(phon - 94.0) <= 2.0, (sone, phon)


# -- stft_power --------------------------------------------------------------

def test_stft_frame_count_60s():
    assert stft_power(np.zeros(60 * SAMPLE_RATE)).shape == (513, 3000)
    assert audio.FPS == 50


def test_stft_silence_all_zero():
    np.testing.assert_array_equal(stft_power(np.zeros(4410)), 0.0)


def test_stft_too_short_names_minimum():
    with pytest.raises(EmptyInputError, match="1024"):
        stft_power(np.zeros(1000))


def test_stft_exact_bin_sine_matches_direct_dft():
    # bin 128 of a 1024-point DFT at 22.05 kHz is 2756.25 Hz
    freq = 128 * SAMPLE_RATE / 1024
    x = tone(freq, 0.2, amp=1.0)
    power = stft_power(x)
    # oracle: direct DFT of the first windowed frame
    frame = x[:1024]
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(1024) / 1024)
    n = np.arange(1024)
    k = np.arange(513)
    dft = (frame * window) @ np.exp(-2j * np.pi * np.outer(n, k) / 1024)
    np.testing.assert_allclose(power[:, 0], np.abs(dft) ** 2, rtol=1e-9, atol=1e-6)
    col = power[:, 0]
    assert col.argmax() == 128
    # Hann leakage: adjacent bins carry 1/4 of the peak power
    np.testing.assert_allclose(col[127] / col[128], 0.25, rtol=1e-2)
    np.testing.assert_allclose(col[129] / col[128], 0.25, rtol=1e-2)


@pytest.mark.parametrize("frames", [3, 63, 64, 65, 128, 129])
@pytest.mark.parametrize("short_by", [0, 440])
def test_stft_blocks_match_one_shot_bit_for_bit(frames, short_by):
    # 3 frames is the fewest a 1024-sample window allows; short_by 440
    # leaves one sample in the last hop, so the last frame is mostly padding
    n = max(frames * audio.HOP - short_by, audio.WINDOW)
    x = np.random.default_rng(frames).standard_normal(n)
    got = stft_power(x)
    want = _reference_stft_power(x)
    assert got.shape == (audio.N_BINS, frames) and got.strides == want.strides
    assert np.array_equal(got, want)


def test_stft_holds_one_power_array():
    # the (T, 513) power array, one block's frames and spectrum and the
    # zero-padded tail frames: 1.13.  Padding the whole input read 2.0,
    # the one-shot transform 4.9
    samples = np.random.default_rng(0).standard_normal(60 * SAMPLE_RATE + 123)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        power = stft_power(samples)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * power.nbytes, peak / power.nbytes


@pytest.mark.parametrize("stage", [bssl, log_mel])
@pytest.mark.parametrize("shape", [(512, 10), (513,)])
def test_frontend_stages_reject_other_shapes(stage, shape):
    with pytest.raises(ConfigError, match="513"):
        stage(np.zeros(shape))


# -- bssl ---------------------------------------------------------------------

def test_band_edges_shape_and_coverage():
    edges = CRITICAL_BAND_EDGES_HZ
    assert len(edges) == 23
    assert (np.diff(edges) > 0).all()
    assert edges[0] <= 100.0
    assert edges[-1] == 9500.0


def test_bssl_silence_is_zero():
    sone = bssl(stft_power(np.zeros(22050)))
    assert sone.shape == (22, 50) and sone.dtype == np.float32
    np.testing.assert_array_equal(sone, 0.0)


def test_forty_phon_is_one_sone():
    assert abs(phon_to_sone(np.float64(40.0)) - 1.0) < 1e-6
    # the map is continuous and monotone through the knee
    phons = np.linspace(0.0, 100.0, 2001)
    sones = phon_to_sone(phons)
    assert (np.diff(sones) >= 0).all()
    assert sones[0] == 0.0


def test_pure_tone_localizes_to_its_band():
    for center in CRITICAL_BAND_CENTERS_HZ:
        got = bssl(stft_power(tone(center, 0.5, amp=0.5))).mean(axis=1).argmax()
        # oracle: independent lookup in the band-edge table
        want = np.searchsorted(CRITICAL_BAND_EDGES_HZ, center, side="right") - 1
        assert got == want, f"{center} Hz: got band {got}, want {want}"


def test_one_khz_band_index():
    assert bssl(stft_power(tone(1000.0, 0.5, amp=0.5))).mean(axis=1).argmax() == 8  # 920-1080 Hz band


def test_amplitude_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(4410, 11025))
        x = rng.standard_normal(n) * rng.uniform(0.005, 0.05)
        g = rng.uniform(1.0, 25.0)
        lo = bssl(stft_power(x))
        hi = bssl(stft_power(g * x))
        assert (hi >= lo).all()


def test_bssl_deterministic_bits():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(22050) * 0.1
    a = bssl(stft_power(x))
    b = bssl(stft_power(x.copy()))
    assert np.array_equal(a, b)


# -- log_mel -------------------------------------------------------------------

def test_log_mel_silence_is_floor():
    lm = log_mel(stft_power(np.zeros(22050)))
    assert lm.shape == (128, 50) and lm.dtype == np.float32
    np.testing.assert_allclose(lm, np.log(1e-10), rtol=1e-6)


def test_log_mel_preserves_frame_count():
    power = stft_power(np.zeros(60 * SAMPLE_RATE))
    assert log_mel(power).shape == (128, 3000)


def test_mel_filterbank_energy_preservation():
    fb = mel_filterbank()
    assert fb.shape == (128, 513)
    bin_hz = np.arange(513) * (SAMPLE_RATE / 1024)
    response = fb.sum(axis=0)
    # oracle: direct summation of the filter responses; unit-height
    # triangles tile between the first and last filter centres
    from dynamark.audio import _hz_to_mel, _mel_to_hz
    centers = _mel_to_hz(np.linspace(0.0, _hz_to_mel(SAMPLE_RATE / 2), 130))[1:-1]
    interior = (bin_hz > centers[0]) & (bin_hz < centers[-1])
    np.testing.assert_allclose(response[interior], 1.0, atol=0.01)


@pytest.mark.parametrize("build", [mel_filterbank, audio.critical_band_matrix,
                                   audio.spreading_matrix, audio._bin_ear_weights])
def test_constant_maps_are_built_once_and_read_only(build):
    assert build() is build() and not build().flags.writeable


def test_mel_profile_tracks_bandwidth_for_white_noise():
    # wider filters collect more of a flat spectrum; discretisation makes
    # the profile only broadly monotone, so assert the trend not each step
    fb = mel_filterbank()
    response = fb @ np.ones(513)
    bandwidth = fb.sum(axis=1)
    corr = np.corrcoef(response, bandwidth)[0, 1]
    assert corr > 0.99
    q = len(response) // 4
    assert response[-q:].mean() > 3 * response[:q].mean()


def test_log_mel_matches_direct_filterbank_summation():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(22050) * 0.1
    power = stft_power(x)
    want = np.log(mel_filterbank() @ power + 1e-10)
    np.testing.assert_allclose(log_mel(power), want.astype(np.float32), rtol=1e-6)


# -- total loudness -------------------------------------------------------------

def _sl_from_bands(bands):
    sone = np.zeros((22, 1), dtype=np.float32)
    sone[: len(bands), 0] = bands
    return sone


def test_total_loudness_zeros():
    np.testing.assert_array_equal(total_loudness(_sl_from_bands([])), [0.0])


def test_total_loudness_single_band():
    np.testing.assert_allclose(total_loudness(_sl_from_bands([2.0])), [2.0])


def test_total_loudness_max_plus_fraction():
    np.testing.assert_allclose(total_loudness(_sl_from_bands([2.0, 1.0, 1.0])), [2.3], rtol=1e-6)


# -- feature files ----------------------------------------------------------------

def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.standard_normal((22, 137)).astype(np.float32)
    path = tmp_path / "x.dynf"
    audio.save_features(path, values, "bssl")
    loaded, kind = audio.load_features(path)
    assert kind == "bssl"
    assert np.array_equal(loaded, values)
    assert loaded.tobytes() == values.tobytes()


def test_feature_file_errors(tmp_path):
    path = tmp_path / "x.dynf"
    audio.save_features(path, np.zeros((2, 3), dtype=np.float32), "logmel")
    blob = path.read_bytes()
    (tmp_path / "magic.dynf").write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(DecodeError, match="not a DYNF"):
        audio.load_features(tmp_path / "magic.dynf")
    (tmp_path / "trunc.dynf").write_bytes(blob[:-4])
    with pytest.raises(DecodeError, match="truncated"):
        audio.load_features(tmp_path / "trunc.dynf")
    (tmp_path / "ver.dynf").write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(DecodeError, match="version"):
        audio.load_features(tmp_path / "ver.dynf")
    audio.save_features(tmp_path / "inf.dynf", np.array([[0.0, np.inf, 1.0]], dtype=np.float32), "bssl")
    with pytest.raises(DecodeError, match="inf.dynf: feature values are not all finite"):
        audio.load_features(tmp_path / "inf.dynf")


@pytest.fixture(scope="module")
def small_feature_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "small.dynf"
    audio.save_features(path, np.arange(6, dtype=np.float32).reshape(2, 3), "logmel")
    return path.read_bytes(), path.with_name("mutated.dynf")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 40),
                          st.integers(0, 255)), min_size=1, max_size=4),
       st.integers(1, 41))
def test_load_features_byte_mutation_fuzz(small_feature_file, edits, keep):
    blob, path = small_feature_file
    path.write_bytes(mutate_bytes(blob, edits, keep))
    try:
        values, kind = audio.load_features(path)
    except DynamarkError:
        return
    assert kind in audio.FEATURE_KINDS and values.dtype == np.float32
    assert values.size * 4 + 17 == path.stat().st_size


def test_feature_kinds_come_from_one_table(monkeypatch, tmp_path):
    # the DYNF file ids name the same kinds as the bin-count table
    assert audio.FEATURE_KINDS.keys() == audio.FEATURE_BINS.keys()
    monkeypatch.setitem(audio.FEATURE_BINS, "cqt", 84)
    path = write_wav(tmp_path / "x.wav", np.zeros(SAMPLE_RATE), SAMPLE_RATE)
    with pytest.raises(ConfigError, match="expected one of bssl, logmel, cqt"):
        audio.wav_features(path, ["mfcc"])
