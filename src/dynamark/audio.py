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
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import resample_poly

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


def _mono_normalised(raw: np.ndarray, path) -> np.ndarray:
    """Decoded WAV samples (N,) or (N, C) of ``path`` -> float64 mono at
    -1 dBFS peak.

    One float64 vector is built: the channels summed left to right with
    ``+=``, less the zero offset, divided once by full scale times the
    channel count.  Integer channel sums are exact and the scales are
    powers of two, so every sample is the correctly rounded mean of the
    channels read as [-1, 1] floats, the same bits as casting, dividing
    and averaging in turn.  Float channels are averaged in that
    left-to-right order, not in numpy's pairwise order, so from 8
    channels on their last bits can differ from ``mean(axis=1)``.
    """
    if raw.dtype not in _SAMPLE_FORMATS:
        raise DecodeError(f"unsupported WAV sample format: {raw.dtype}")
    scale, offset = _SAMPLE_FORMATS[raw.dtype]
    chans = raw.reshape(len(raw), -1)
    n_channels = chans.shape[1]
    x = chans[:, 0].astype(np.float64)
    for c in range(1, n_channels):
        x += chans[:, c]
    if offset:
        x -= offset * n_channels
    x /= scale * n_channels
    peak = max(x.max(), -x.min())
    if not np.isfinite(peak):
        raise DecodeError(f"{path}: audio holds NaN or infinite samples")
    if peak > 0:
        gain = PEAK_TARGET / float(peak)  # inf for a subnormal peak
        if not math.isfinite(gain):
            raise DecodeError(f"{path}: peak {peak:.3g} is too small to normalise")
        x *= gain
    return x


def _resample(x: np.ndarray, src_rate: int, dst_rate: int,
              taps_per_phase: int = 64, beta: float = 9.0) -> np.ndarray:
    """Rational-rate polyphase resampling with a Kaiser-windowed sinc.

    The output is cut into one span per worker (:mod:`.parallel`), each
    filled by ``resample_poly`` of the input slice it needs.  A slice
    starts at a multiple of ``down``, so its outputs fall on the same
    phases as the whole signal's, and reaches past the span by more than
    the filter's support on both sides, so every output sums the same
    taps in the same order: the same bits as one ``resample_poly`` call
    at any worker count.
    """
    if src_rate == dst_rate:
        return x
    g = math.gcd(src_rate, dst_rate)
    up, down = dst_rate // g, src_rate // g
    n_taps = taps_per_phase * up
    n = np.arange(n_taps) - (n_taps - 1) / 2.0
    cutoff = 1.0 / max(up, down)
    h = cutoff * np.sinc(cutoff * n) * np.kaiser(n_taps, beta)
    h /= h.sum()
    n_out = -(-len(x) * up // down)
    n_spans = min(parallel.worker_count(), n_out)
    edges = [n_out * i // n_spans for i in range(n_spans + 1)]
    margin = n_taps // up + 2  # input samples, more than the filter reaches
    out = np.empty(n_out, dtype=np.result_type(x, h))

    def fill(span: int) -> None:
        lo, hi = edges[span], edges[span + 1]
        first = max(lo * down // up - margin, 0) // down  # in units of down
        stop = min(-(-hi * down // up) + margin, len(x))
        y = resample_poly(x[first * down:stop], up, down, window=h)
        out[lo:hi] = y[lo - first * up:hi - first * up]

    parallel.map_in_order(fill, range(n_spans))
    return out


def decode_and_prepare(path) -> np.ndarray:
    """Decode a PCM WAV, downmix to mono, normalise to -1 dBFS, resample:
    float64 samples at ``SAMPLE_RATE``.

    Downmix is the mean of channels; normalisation happens before
    resampling; all-zero input is left unnormalised, and a peak too small
    to scale to -1 dBFS is a :class:`DecodeError`.  Before the resample
    one float64 vector of the input's length is held next to the decoded
    samples (see :func:`_mono_normalised`).  The resample runs on
    :func:`.parallel.worker_count` threads, the same bits at any count
    (see :func:`_resample`).
    """
    path = Path(path)
    try:
        rate, raw = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise DecodeError(f"cannot decode {path}: {exc}") from exc
    if raw.size == 0:
        raise EmptyInputError(f"{path}: zero-length audio")
    return _resample(_mono_normalised(raw, path), int(rate), SAMPLE_RATE)


# --------------------------------------------------------------------------
# STFT
# --------------------------------------------------------------------------

def frame_count(n_samples: int) -> int:
    return int(math.ceil(n_samples / HOP))


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
    if n < WINDOW:
        raise EmptyInputError(f"input too short for analysis: {n} samples, minimum {WINDOW}")
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
    weighted = power * outer_middle_ear_weights(BIN_HZ)[:, None]
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


def extract_features(samples: np.ndarray, kind: str = "bssl") -> np.ndarray:
    """Convenience: samples at ``SAMPLE_RATE`` -> (F, T) float32 feature matrix."""
    if kind not in FEATURE_BINS:
        raise ConfigError(f"unknown feature kind {kind!r}; expected one of {', '.join(FEATURE_BINS)}")
    power = stft_power(samples)
    return bssl(power) if kind == "bssl" else log_mel(power)


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
