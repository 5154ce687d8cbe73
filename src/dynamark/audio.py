"""Audio decoding and the loudness / log-mel feature frontends.

The specific-loudness extractor follows the classic Music Analysis
toolbox conventions: Terhardt outer/middle-ear weighting, Zwicker
critical-band grouping (22 bands up to 9.5 kHz at a 22.05 kHz rate),
Schroeder spreading across bands, and the Bladon-Lindblom phon-to-sone
map.  After ear weighting, band dB values are read directly as phon
(the toolbox convention), anchored so that full-scale power equals
96 dB SPL.

Framing convention: frames are left-aligned, frame t covering samples
[t*441, t*441 + 1024); the final partial frame is zero-padded, so an
n-sample input yields ceil(n / 441) frames at exactly 50 fps.

``extract`` and ``annotate`` read a recording through :func:`wav_features`,
which runs each 60 s span from WAV samples to feature columns on the
worker threads of :mod:`.parallel`.  :func:`decode_and_prepare` followed by
:func:`stft_power` and :func:`bssl` or :func:`log_mel` is the serial
whole-signal path whose bits it reproduces.  Both resample other rates
to 22.05 kHz with :class:`_Resampler`, a polyphase Kaiser-windowed sinc
computed as small GEMMs on one grid of output chunks, so that a span and
the whole signal, and one BLAS thread and several, give the same bits.
"""

from __future__ import annotations

import functools
import math
import struct
from pathlib import Path

import numpy as np

from . import parallel
from .errors import ConfigError, DecodeError, EmptyInputError

SAMPLE_RATE = 22050
HOP = 441
WINDOW = 1024
FPS = SAMPLE_RATE // HOP  # frames per second, exactly 50
N_BINS = WINDOW // 2 + 1
BIN_HZ = np.arange(N_BINS) * (SAMPLE_RATE / WINDOW)  # centre frequency of each STFT bin
PEAK_TARGET = 10.0 ** (-1.0 / 20.0)  # -1 dBFS
DB_REFERENCE = 96.0  # full-scale power == 96 dB SPL
N_MELS = 128
LOG_FLOOR = 1e-10
STFT_BLOCK = 64  # frames per FFT call: the block's frames and spectrum stay in cache
# The most frames in one span of :func:`wav_features`: 60 s.  A clip of 60 s
# or less is one span, which :func:`.parallel.map_in_order` runs inline, so
# no worker thread adds its heap to a process that extracts short clips.
# Five fit set-ups of 60 s clips peaked at 159 MB with 3000-frame spans, as
# serially, and at 198 MB with 1024-frame spans on two threads.
SPAN_FRAMES = 3000
# OpenBLAS runs a GEMM of at most this many multiply-adds (M*N*K) on one
# thread whatever its thread count, so the resampler's GEMMs stay below it.
GEMM_SINGLE_THREAD_MNK = 262144
RESAMPLE_BLOCK_BYTES = 1 << 20  # resampler windows per matmul call: they stay in cache

# Zwicker critical-band boundaries (Hz); 23 edges = 22 bands, the last
# fully covered band below the 11.025 kHz Nyquist.
CRITICAL_BAND_EDGES_HZ = np.array([
    0, 100, 200, 300, 400, 510, 630, 770, 920, 1080, 1270, 1480,
    1720, 2000, 2320, 2700, 3150, 3700, 4400, 5300, 6400, 7700, 9500,
], dtype=np.float64)

CRITICAL_BAND_CENTERS_HZ = np.array([
    50, 150, 250, 350, 450, 570, 700, 840, 1000, 1170, 1370, 1600,
    1850, 2150, 2500, 2900, 3400, 4000, 4800, 5800, 7000, 8500,
], dtype=np.float64)

N_BARK_BANDS = len(CRITICAL_BAND_EDGES_HZ) - 1
# Each feature kind and its row count; the model's ``input_bins`` names the kind.
FEATURE_BINS = {"bssl": N_BARK_BANDS, "logmel": N_MELS}


# --------------------------------------------------------------------------
# decoding
# --------------------------------------------------------------------------

# Full scale of each supported WAV sample format and the offset of its zero
# (24-bit PCM arrives as int32, left-shifted by scipy).
_SAMPLE_FORMATS = {
    np.dtype(np.int16): (32768.0, 0.0),
    np.dtype(np.int32): (2147483648.0, 0.0),
    np.dtype(np.uint8): (128.0, 128.0),
    np.dtype(np.float32): (1.0, 0.0),
    np.dtype(np.float64): (1.0, 0.0),
}
# Integer types that hold any channel sum of an integer format exactly.
_EXACT_SUM = {np.dtype(np.int16): np.int32, np.dtype(np.uint8): np.int32, np.dtype(np.int32): np.int64}


def _downmix(raw: np.ndarray) -> np.ndarray:
    """Decoded WAV samples (N,) or (N, C) -> float64 mono in [-1, 1].

    One float64 vector is built: the channels summed left to right with
    ``+=``, less the zero offset, divided once by full scale times the
    channel count.  Integer channel sums are exact and the scales are
    powers of two, so every sample is the correctly rounded mean of the
    channels read as [-1, 1] floats, the same bits as casting, dividing
    and averaging in turn.  Float channels are averaged in that
    left-to-right order, not in numpy's pairwise order, so from 8
    channels on their last bits can differ from ``mean(axis=1)``.  Each
    sample depends on its own row alone, so any run of rows downmixes to
    the same bits alone as within the whole.
    """
    x, offset, divisor = _channel_sum(raw, np.float64)
    if offset:
        x -= offset
    x /= divisor
    return x


def _channel_sum(raw: np.ndarray, dtype) -> tuple[np.ndarray, float, float]:
    """The channels of ``raw`` summed left to right into ``dtype``, and
    the offset and divisor that take the sum to [-1, 1]."""
    if raw.dtype not in _SAMPLE_FORMATS:
        raise DecodeError(f"unsupported WAV sample format: {raw.dtype}")
    scale, offset = _SAMPLE_FORMATS[raw.dtype]
    chans = raw.reshape(len(raw), -1)
    x = chans[:, 0].astype(dtype)
    for c in range(1, chans.shape[1]):
        x += chans[:, c]
    return x, offset * chans.shape[1], scale * chans.shape[1]


def _downmix_peak(raw: np.ndarray):
    """``max(x.max(), -x.min())`` of ``x = _downmix(raw)``, without
    building ``x``: NaN where it holds a NaN.

    A mono file's samples are their own sum.  Integer channels are
    summed exactly in integers, float ones in float64 as :func:`_downmix`
    sums them; the offset is exact, and dividing by a positive constant
    keeps the order, so the extremes of the sum give the same bits as the
    extremes of ``x``.
    """
    if raw.ndim == 1 and raw.dtype in _SAMPLE_FORMATS:  # else _channel_sum refuses the dtype
        scale, offset = _SAMPLE_FORMATS[raw.dtype]
        x, divisor = raw, scale
    else:
        x, offset, divisor = _channel_sum(raw, _EXACT_SUM.get(raw.dtype, np.float64))
    return max((float(x.max()) - offset) / divisor, -((float(x.min()) - offset) / divisor))


def _gain(peak, path) -> float:
    """The factor that brings a downmix of peak ``peak`` to -1 dBFS, 1 for
    silence; a :class:`DecodeError` for NaN or infinite audio and for a
    peak too small to scale."""
    if not np.isfinite(peak):
        raise DecodeError(f"{path}: audio holds NaN or infinite samples")
    if peak == 0:
        return 1.0
    gain = PEAK_TARGET / float(peak)  # inf for a subnormal peak
    if not math.isfinite(gain):
        raise DecodeError(f"{path}: peak {peak:.3g} is too small to normalise")
    return gain


def _mono_normalised(raw: np.ndarray, path) -> np.ndarray:
    """Decoded WAV samples (N,) or (N, C) of ``path`` -> float64 mono at
    -1 dBFS peak (see :func:`_downmix` and :func:`_gain`)."""
    x = _downmix(raw)
    x *= _gain(max(x.max(), -x.min()), path)
    return x


def _polyphase(src_rate: int, taps_per_phase: int = 64,
               beta: float = 9.0) -> tuple[int, int, np.ndarray]:
    """``up``, ``down`` and the Kaiser-windowed sinc of the rational
    polyphase resampler from ``src_rate`` to ``SAMPLE_RATE``."""
    g = math.gcd(src_rate, SAMPLE_RATE)
    up, down = SAMPLE_RATE // g, src_rate // g
    n_taps = taps_per_phase * up
    n = np.arange(n_taps) - (n_taps - 1) / 2.0
    cutoff = 1.0 / max(up, down)
    h = cutoff * np.sinc(cutoff * n) * np.kaiser(n_taps, beta)
    h /= h.sum()
    return up, down, h


class _Resampler:
    """The polyphase filter of :func:`_polyphase` from ``rate`` to
    ``SAMPLE_RATE``, computed as blocked GEMMs on one fixed grid of chunks.

    Output ``m`` is ``up * sum_i x[i] h[m*down + half - i*up]`` over the
    taps that exist, with ``half = (len(h) - 1) // 2`` and zeros past both
    ends of ``x``: the sum that scipy's ``resample_poly(x, up, down,
    window=h)`` takes, with its length ``ceil(len(x) * up / down)``.

    The outputs form rows of ``width`` consecutive samples, row ``r``
    holding outputs ``r*width`` onwards.  A row is the product of its input
    window, the ``span`` input samples its outputs read, and a banded
    Toeplitz matrix of taps.  Rows whose outputs fall on the same phases
    share that matrix; there are ``patterns = lcm(width, up) / width`` of
    them, and each row's window starts ``stride`` inputs after that of the
    row ``patterns`` before it.  ``width`` is the largest divisor or
    multiple of ``up`` whose span is at most 2.5 filter lengths per phase,
    so that at least 40 % of a GEMM's multiply-adds fall on taps while
    rows stay wide enough for the BLAS kernels; a wider row wastes
    multiply-adds on zeros, a narrower one runs the kernels below speed.

    A chunk is ``rows`` rows of each pattern, one GEMM per pattern, and
    chunk ``c`` starts at output ``c * chunk``.  Every call computes the
    whole chunks that its outputs overlap, so any slice of the outputs
    takes the same GEMMs on the same operands, and so the same bits, as
    the whole signal.  A GEMM does at most ``GEMM_SINGLE_THREAD_MNK``
    multiply-adds, which OpenBLAS runs on one thread at any thread count,
    so the bits do not depend on that count either.  The sums are those of
    ``resample_poly`` in another order, so outputs differ from it in their
    last bits.
    """

    def __init__(self, rate: int):
        self.up, self.down, h = _polyphase(rate)
        up, down, n_taps = self.up, self.down, len(h)
        half = (n_taps - 1) // 2

        def layout(width: int):
            # the first input sample of each pattern's first row, and the widest window
            patterns = math.lcm(width, up) // width
            first = np.arange(patterns) * width
            starts = (first * down + half - n_taps) // up + 1
            return starts, int((((first + width - 1) * down + half) // up - starts + 1).max())

        most = 5 * (n_taps // up) // 2
        self.width = max(g for g in range(1, most * up // down + 2)
                         if (up % g == 0 or g % up == 0) and (span := layout(g)[1]) <= most
                         and g * span <= GEMM_SINGLE_THREAD_MNK)
        self.starts, self.span = layout(self.width)
        patterns = len(self.starts)
        self.stride = patterns * self.width * down // up
        # a chunk holds at most one second of output, or one cycle of patterns where that is longer
        self.rows = max(min(GEMM_SINGLE_THREAD_MNK // (self.width * self.span),
                            SAMPLE_RATE // (patterns * self.width)), 1)
        self.chunk = self.rows * patterns * self.width
        self.block = max(RESAMPLE_BLOCK_BYTES // (self.rows * patterns * self.span * 8), 1)  # chunks
        m = np.arange(patterns)[:, None, None] * self.width + np.arange(self.width)
        i = self.starts[:, None, None] + np.arange(self.span)[:, None]
        taps = m * down + half - i * up  # (patterns, span, width)
        inside = (taps >= 0) & (taps < n_taps)
        self.toeplitz = np.where(inside, (h * up)[np.where(inside, taps, 0)], 0.0)

    def n_out(self, n_in: int) -> int:
        return -(-n_in * self.up // self.down)

    def _window_range(self, c0: int, c1: int) -> tuple[int, int]:
        """The input samples that the windows of chunks [c0, c1) read."""
        return (int(self.starts[0]) + c0 * self.rows * self.stride,
                int(self.starts[-1]) + (c1 * self.rows - 1) * self.stride + self.span)

    def _chunks(self, lo: int, hi: int) -> tuple[int, int]:
        return lo // self.chunk, -(-hi // self.chunk)

    def inputs(self, lo: int, hi: int, n_in: int) -> tuple[int, int]:
        """The input samples, within [0, ``n_in``), that outputs [lo, hi)
        read through the chunks that cover them."""
        a, b = self._window_range(*self._chunks(lo, hi))
        return max(a, 0), min(b, n_in)

    def __call__(self, x: np.ndarray, start: int, lo: int, hi: int) -> np.ndarray:
        """Outputs [lo, hi) of the signal that is ``x`` from sample
        ``start`` on and zero elsewhere; ``x`` holds at least the samples
        that :meth:`inputs` names."""
        c0, c1 = self._chunks(lo, hi)
        patterns, rows, span, width = len(self.starts), self.rows, self.span, self.width
        y = np.empty((c1 - c0) * self.chunk)
        block = np.empty((self.block, rows, patterns, span))
        for b0 in range(c0, c1, self.block):
            b1 = min(b0 + self.block, c1)
            u, v = self._window_range(b0, b1)
            if start <= u and v <= start + len(x):
                src = x[u - start:v - start]
            else:  # the signal's first or last chunks: zeros past its ends
                src = np.zeros(v - u)
                a, b = max(u, start), min(v, start + len(x))
                src[a - u:b - u] = x[a - start:b - start]
            windows = np.lib.stride_tricks.sliding_window_view(src, span)
            n = b1 - b0
            for p, first in enumerate(self.starts - self.starts[0]):
                block[:n, :, p] = windows[first::self.stride][:n * rows].reshape(n, rows, span)
            out = y[(b0 - c0) * self.chunk:(b1 - c0) * self.chunk].reshape(n, rows, patterns, width)
            np.matmul(block[:n].transpose(0, 2, 1, 3), self.toeplitz, out=out.transpose(0, 2, 1, 3))
        return y[lo - c0 * self.chunk:hi - c0 * self.chunk]


def _read_wav(path: Path) -> tuple[int, np.ndarray]:
    """Sample rate and samples (N,) or (N, C) of a WAV file."""
    from scipy.io import wavfile  # here, so that training and inference never import scipy

    try:
        rate, raw = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise DecodeError(f"cannot decode {path}: {exc}") from exc
    if raw.size == 0:
        raise EmptyInputError(f"{path}: zero-length audio")
    return int(rate), raw


def decode_and_prepare(path) -> np.ndarray:
    """Decode a PCM WAV, downmix to mono, normalise to -1 dBFS, resample:
    float64 samples at ``SAMPLE_RATE``, serially and over the whole
    recording.

    Downmix is the mean of channels; normalisation happens before
    resampling; all-zero input is left unnormalised, and a peak too small
    to scale to -1 dBFS is a :class:`DecodeError`.  The resampler is
    :class:`_Resampler`: scipy's ``resample_poly`` with the filter of
    :func:`_polyphase`, up to the last bits, as blocked GEMMs.  The CLI runs
    :func:`wav_features` instead, which gives the features of these
    samples bit for bit in bounded memory.
    """
    path = Path(path)
    rate, raw = _read_wav(path)
    x = _mono_normalised(raw, path)
    if rate == SAMPLE_RATE:
        return x
    resample = _Resampler(rate)
    return resample(x, 0, 0, resample.n_out(len(x)))


def wav_features(path, kinds) -> dict[str, np.ndarray]:
    """(F, T) float32 features of each kind in ``kinds`` for the WAV at
    ``path``: ``bssl`` or ``log_mel`` of ``stft_power(decode_and_prepare(path))``
    bit for bit, the same typed errors, in memory that does not grow with the
    recording beyond its decoded samples and the features.

    The frames are cut into spans of at most ``SPAN_FRAMES``, all of one
    size but the last; a recording of more than one span gets a multiple
    of :func:`.parallel.worker_count` spans, so that the workers finish
    together.  The spans run on :func:`.parallel.map_in_order` in two
    passes.  The first takes the peak of each span's downmixed input
    samples, the one quantity of the whole recording (see
    :func:`_downmix_peak`).  The second takes each span from WAV samples to
    feature columns: it downmixes and normalises the input samples that
    the resampler chunks covering the span's output samples read,
    resamples them with one :class:`_Resampler` call, transforms those
    output samples plus the window overlap with one :func:`stft_power`
    call, and writes each kind's columns.  The chunks lie on one grid
    anchored at output 0, so a span's outputs come from the same GEMMs on
    the same operands as the whole signal's.  Frames past the last sample
    read zeros, as in :func:`stft_power`.
    """
    for kind in kinds:
        _check_kind(kind)
    path = Path(path)
    rate, raw = _read_wav(path)
    n_in = len(raw)
    resample = _Resampler(rate) if rate != SAMPLE_RATE else None
    up, down = (1, 1) if resample is None else (resample.up, resample.down)
    n_out = -(-n_in * up // down)
    t = frame_count(n_out)
    n_spans = -(-t // SPAN_FRAMES)
    if n_spans > 1:  # a multiple of the workers, so that none idles at the end
        workers = parallel.worker_count()
        n_spans = -(-n_spans // workers) * workers
    size = -(-t // n_spans)  # frames per span, at most SPAN_FRAMES
    spans = range(-(-t // size))
    bounds = [min(s * size * HOP * down // up, n_in) for s in spans] + [n_in]
    peaks = parallel.map_in_order(lambda s: _downmix_peak(raw[bounds[s]:bounds[s + 1]]), spans)
    gain = _gain(np.max(peaks), path)  # np.max, unlike max, keeps a NaN wherever it falls
    _check_length(n_out)
    features = {kind: np.empty((FEATURE_BINS[kind], t), dtype=np.float32) for kind in kinds}

    def span_features(s: int) -> None:
        f0, f1 = s * size, min((s + 1) * size, t)
        lo, hi = f0 * HOP, min((f1 - 1) * HOP + WINDOW, n_out)  # output samples the frames read
        a, b = (lo, hi) if resample is None else resample.inputs(lo, hi, n_in)
        x = _downmix(raw[a:b])
        x *= gain
        if resample is not None:
            x = resample(x, a, lo, hi)
        if len(x) < WINDOW:  # a span within the last 3 frames
            x = np.concatenate([x, np.zeros(WINDOW - len(x))])
        power = stft_power(x)[:, :f1 - f0]
        for kind, values in features.items():
            values[:, f0:f1] = bssl(power) if kind == "bssl" else log_mel(power)

    parallel.map_in_order(span_features, spans)
    if len(spans) > 1:
        parallel.release_thread_heaps()
    return features


# --------------------------------------------------------------------------
# STFT
# --------------------------------------------------------------------------

def frame_count(n_samples: int) -> int:
    return int(math.ceil(n_samples / HOP))


def _check_length(n_samples: int) -> None:
    if n_samples < WINDOW:
        raise EmptyInputError(f"input too short for analysis: {n_samples} samples, minimum {WINDOW}")


def stft_power(samples: np.ndarray) -> np.ndarray:
    """Hann-windowed power spectrogram at 50 fps (hop 441, window 1024) of
    mono samples at ``SAMPLE_RATE``.

    Frames are views of the samples; only the last few frames, which
    reach past the input, are copied into a short zero-padded tail.  The
    frames are transformed ``STFT_BLOCK`` at a time, each block's power
    written straight into one preallocated (T, 513) array, so the
    windowed frames and their complex spectrum are only ever held for one
    block.  Each frame's FFT and squares are those of a one-shot
    transform, bit for bit.  Returns the (513, T) transposed view.
    """
    samples = np.asarray(samples)
    n = len(samples)
    _check_length(n)
    t = frame_count(n)
    whole = (n - WINDOW) // HOP + 1  # frames that lie inside the input
    tail = np.zeros((t - whole - 1) * HOP + WINDOW, dtype=np.float64)
    tail[:n - whole * HOP] = samples[whole * HOP:]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)  # periodic Hann
    power = np.empty((t, N_BINS), dtype=np.float64)
    for frames, rows in ((_frames(samples), power[:whole]), (_frames(tail), power[whole:])):
        for lo in range(0, len(rows), STFT_BLOCK):
            spec = np.fft.rfft(frames[lo:lo + STFT_BLOCK] * window, axis=1)
            block = rows[lo:lo + STFT_BLOCK]
            np.square(spec.real, out=block)
            block += np.square(spec.imag)
    return power.T


def _frames(x: np.ndarray) -> np.ndarray:
    """Every ``WINDOW``-sample frame of ``x`` at hop ``HOP``, as a view."""
    return np.lib.stride_tricks.sliding_window_view(x, WINDOW)[::HOP]


def _check_bins(power: np.ndarray) -> None:
    if power.ndim != 2 or power.shape[0] != N_BINS:
        raise ConfigError(f"expected a ({N_BINS}, T) power spectrogram, got shape {power.shape}")


# --------------------------------------------------------------------------
# specific loudness
# --------------------------------------------------------------------------

def _built_once(build):
    """``build`` cached: its array is built on the first call, made
    read-only and returned by every call after."""
    @functools.cache
    @functools.wraps(build)
    def once(*args):
        arr = build(*args)
        arr.setflags(write=False)
        return arr

    return once


def outer_middle_ear_weights(freq_hz: np.ndarray) -> np.ndarray:
    """Terhardt ear-transfer weights in the power domain (0 at DC)."""
    f = np.asarray(freq_hz, dtype=np.float64) / 1000.0
    w = np.zeros_like(f)
    nz = f > 0
    db = (-3.64 * f[nz] ** -0.8
          + 6.5 * np.exp(-0.6 * (f[nz] - 3.3) ** 2)
          - 1e-3 * f[nz] ** 4)
    w[nz] = 10.0 ** (db / 10.0)
    return w


@_built_once
def _bin_ear_weights() -> np.ndarray:
    """:func:`outer_middle_ear_weights` of every STFT bin, as a (513, 1) column."""
    return outer_middle_ear_weights(BIN_HZ)[:, None]


@_built_once
def critical_band_matrix() -> np.ndarray:
    """0/1 matrix (22, 513) summing STFT bins into Zwicker bands.

    A bin belongs to band b when edge[b] <= f < edge[b+1]; bins at or
    above 9.5 kHz are discarded.
    """
    bands = np.searchsorted(CRITICAL_BAND_EDGES_HZ, BIN_HZ, side="right") - 1
    m = np.zeros((N_BARK_BANDS, N_BINS), dtype=np.float64)
    valid = (bands >= 0) & (bands < N_BARK_BANDS)
    m[bands[valid], np.nonzero(valid)[0]] = 1.0
    return m


@_built_once
def spreading_matrix(n_bands: int = N_BARK_BANDS) -> np.ndarray:
    """Schroeder spreading function across critical bands (power domain)."""
    i = np.arange(n_bands)
    x = i[:, None] - i[None, :] + 0.474
    db = 15.81 + 7.5 * x - 17.5 * np.sqrt(1.0 + x * x)
    return 10.0 ** (db / 10.0)


def power_to_phon(power: np.ndarray) -> np.ndarray:
    """Band power to phon: dB re full scale = 96 dB SPL, clamped at 0.

    The ear weighting already equalises frequency response, so dB
    values are read directly as phon (toolbox convention).
    """
    return np.maximum(10.0 * np.log10(np.maximum(power, 1e-30)) + DB_REFERENCE, 0.0)


def phon_to_sone(phon: np.ndarray) -> np.ndarray:
    """Bladon-Lindblom loudness map; 40 phon == 1 sone."""
    phon = np.asarray(phon, dtype=np.float64)
    loud = phon >= 40.0
    out = np.empty_like(phon)
    out[loud] = 2.0 ** ((phon[loud] - 40.0) / 10.0)
    out[~loud] = (phon[~loud] / 40.0) ** 2.642
    return out


def bssl(power: np.ndarray) -> np.ndarray:
    """Bark-scale specific loudness in sone, (22, T) float32, from a
    (513, T) power spectrogram."""
    _check_bins(power)
    weighted = power * _bin_ear_weights()
    bands = critical_band_matrix() @ weighted
    spread = spreading_matrix() @ bands
    return np.maximum(phon_to_sone(power_to_phon(spread)), 0.0).astype(np.float32)


def total_loudness(sone: np.ndarray) -> np.ndarray:
    """Per-frame aggregate of a (22, T) specific loudness: max band +
    0.15 * sum of the other bands."""
    sone = np.asarray(sone, dtype=np.float64)
    peak = sone.max(axis=0)
    return (peak + 0.15 * (sone.sum(axis=0) - peak)).astype(np.float32)


# --------------------------------------------------------------------------
# log-mel
# --------------------------------------------------------------------------

def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@_built_once
def mel_filterbank() -> np.ndarray:
    """Triangular mel filters (128, 513), peak height 1.

    Adjacent unit-height triangles tile, so the summed response is 1
    between the first and last filter centres (energy preserving).
    """
    edges_hz = _mel_to_hz(np.linspace(_hz_to_mel(0.0), _hz_to_mel(SAMPLE_RATE / 2.0), N_MELS + 2))
    fb = np.zeros((N_MELS, N_BINS), dtype=np.float64)
    for m in range(N_MELS):
        lo, mid, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rise = (BIN_HZ - lo) / (mid - lo)
        fall = (hi - BIN_HZ) / (hi - mid)
        fb[m] = np.clip(np.minimum(rise, fall), 0.0, 1.0)
    return fb


def log_mel(power: np.ndarray) -> np.ndarray:
    """Natural-log mel-band energies, (128, T) float32, from the same
    (513, T) power spectrogram as :func:`bssl`."""
    _check_bins(power)
    return np.log(mel_filterbank() @ power + LOG_FLOOR).astype(np.float32)


def _check_kind(kind: str) -> None:
    if kind not in FEATURE_BINS:
        raise ConfigError(f"unknown feature kind {kind!r}; expected one of {', '.join(FEATURE_BINS)}")


# --------------------------------------------------------------------------
# feature files
# --------------------------------------------------------------------------

FEATURE_MAGIC = b"DYNF"
FEATURE_VERSION = 1
FEATURE_KINDS = {"bssl": 0, "logmel": 1}
FEATURE_KIND_NAMES = {v: k for k, v in FEATURE_KINDS.items()}


def save_features(path, values: np.ndarray, kind: str) -> None:
    """Write a (rows, cols) float32 matrix as a DYNF file (little-endian)."""
    values = np.ascontiguousarray(values, dtype="<f4")
    if values.ndim != 2:
        raise ConfigError(f"feature matrix must be 2-D, got shape {values.shape}")
    header = FEATURE_MAGIC + struct.pack("<IBII", FEATURE_VERSION, FEATURE_KINDS[kind],
                                         values.shape[0], values.shape[1])
    Path(path).write_bytes(header + values.tobytes())


def load_features(path) -> tuple[np.ndarray, str]:
    """Read a DYNF file back; bit-exact round trip with save_features.
    A file holding NaN or infinite values is refused."""
    blob = Path(path).read_bytes()
    if len(blob) < 17 or blob[:4] != FEATURE_MAGIC:
        raise DecodeError(f"{path}: not a DYNF feature file")
    version, kind_id, rows, cols = struct.unpack("<IBII", blob[4:17])
    if version != FEATURE_VERSION:
        raise DecodeError(f"{path}: unsupported DYNF version {version}, expected {FEATURE_VERSION}")
    if kind_id not in FEATURE_KIND_NAMES:
        raise DecodeError(f"{path}: unknown feature kind id {kind_id}")
    payload = blob[17:]
    if len(payload) != rows * cols * 4:
        raise DecodeError(f"{path}: truncated payload ({len(payload)} bytes for {rows}x{cols})")
    values = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()
    if not np.isfinite(values).all():
        raise DecodeError(f"{path}: feature values are not all finite")
    return values, FEATURE_KIND_NAMES[kind_id]
