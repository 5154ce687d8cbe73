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
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import resample_poly

from .errors import ConfigError, DecodeError, EmptyInputError

SAMPLE_RATE = 22050
HOP = 441
WINDOW = 1024
FPS = SAMPLE_RATE // HOP  # frames per second, exactly 50
N_BINS = WINDOW // 2 + 1
PEAK_TARGET = 10.0 ** (-1.0 / 20.0)  # -1 dBFS
DB_REFERENCE = 96.0  # full-scale power == 96 dB SPL
N_MELS = 128
LOG_FLOOR = 1e-10

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


@dataclass
class Waveform:
    """Mono audio in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int


@dataclass
class PowerSpectrogram:
    """|STFT|^2 frames; ``bins`` is (513, T)."""

    bins: np.ndarray
    bin_hz: np.ndarray
    fps: int


@dataclass
class SpecificLoudness:
    """Per-band loudness in sone; ``sone`` is (22, T)."""

    sone: np.ndarray
    band_edges_hz: np.ndarray


@dataclass
class LogMel:
    """Natural-log mel-band energies; ``values`` is (128, T)."""

    values: np.ndarray


# --------------------------------------------------------------------------
# decoding
# --------------------------------------------------------------------------

def _to_float(samples: np.ndarray) -> np.ndarray:
    if samples.dtype == np.int16:
        return samples.astype(np.float64) / 32768.0
    if samples.dtype == np.int32:  # includes 24-bit PCM, left-shifted by scipy
        return samples.astype(np.float64) / 2147483648.0
    if samples.dtype == np.uint8:
        return (samples.astype(np.float64) - 128.0) / 128.0
    if samples.dtype in (np.float32, np.float64):
        return samples.astype(np.float64)
    raise DecodeError(f"unsupported WAV sample format: {samples.dtype}")


def _resample(x: np.ndarray, src_rate: int, dst_rate: int,
              taps_per_phase: int = 64, beta: float = 9.0) -> np.ndarray:
    """Rational-rate polyphase resampling with a Kaiser-windowed sinc."""
    if src_rate == dst_rate:
        return x
    g = math.gcd(src_rate, dst_rate)
    up, down = dst_rate // g, src_rate // g
    n_taps = taps_per_phase * up
    n = np.arange(n_taps) - (n_taps - 1) / 2.0
    cutoff = 1.0 / max(up, down)
    h = cutoff * np.sinc(cutoff * n) * np.kaiser(n_taps, beta)
    h /= h.sum()
    return resample_poly(x, up, down, window=h)


def decode_and_prepare(path) -> Waveform:
    """Decode a PCM WAV, downmix to mono, normalise to -1 dBFS, resample.

    Downmix is the mean of channels; normalisation happens before
    resampling; all-zero input is left unnormalised.
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
    x = _to_float(raw)
    if x.ndim == 2:
        x = x.mean(axis=1)
    peak = np.abs(x).max()
    if not np.isfinite(peak):
        raise DecodeError(f"{path}: audio holds NaN or infinite samples")
    if peak > 0:
        x = x * (PEAK_TARGET / peak)
    x = _resample(x, int(rate), SAMPLE_RATE)
    return Waveform(samples=x, sample_rate=SAMPLE_RATE)


# --------------------------------------------------------------------------
# STFT
# --------------------------------------------------------------------------

def frame_count(n_samples: int) -> int:
    return int(math.ceil(n_samples / HOP))


def stft_power(wav: Waveform) -> PowerSpectrogram:
    """Hann-windowed power spectrogram at 50 fps (hop 441, window 1024)."""
    if wav.sample_rate != SAMPLE_RATE:
        raise ConfigError(f"stft_power expects {SAMPLE_RATE} Hz input, got {wav.sample_rate}")
    n = len(wav.samples)
    if n < WINDOW:
        raise EmptyInputError(f"input too short for analysis: {n} samples, minimum {WINDOW}")
    t = frame_count(n)
    padded = np.zeros((t - 1) * HOP + WINDOW, dtype=np.float64)
    padded[:n] = wav.samples
    frames = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)[::HOP]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)  # periodic Hann
    spec = np.fft.rfft(frames * window, axis=1)
    power = (spec.real ** 2 + spec.imag ** 2).T  # (513, T)
    bin_hz = np.arange(N_BINS) * (SAMPLE_RATE / WINDOW)
    return PowerSpectrogram(bins=power, bin_hz=bin_hz, fps=FPS)


def _check_provenance(spec: PowerSpectrogram) -> None:
    if spec.bins.shape[0] != N_BINS:
        raise ConfigError(f"expected {N_BINS} frequency bins, got {spec.bins.shape[0]}")
    expected = np.arange(N_BINS) * (SAMPLE_RATE / WINDOW)
    if spec.fps != FPS or not np.allclose(spec.bin_hz, expected):
        raise ConfigError("spectrogram was not produced by the 22.05 kHz / 50 fps frontend")


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


def critical_band_matrix(bin_hz: np.ndarray) -> np.ndarray:
    """0/1 matrix (22, n_bins) summing bins into Zwicker bands.

    A bin belongs to band b when edge[b] <= f < edge[b+1]; bins at or
    above 9.5 kHz are discarded.
    """
    bands = np.searchsorted(CRITICAL_BAND_EDGES_HZ, bin_hz, side="right") - 1
    m = np.zeros((N_BARK_BANDS, len(bin_hz)), dtype=np.float64)
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


def bssl(spec: PowerSpectrogram) -> SpecificLoudness:
    """Bark-scale specific loudness (22, T) from a power spectrogram."""
    _check_provenance(spec)
    weighted = spec.bins * outer_middle_ear_weights(spec.bin_hz)[:, None]
    bands = critical_band_matrix(spec.bin_hz) @ weighted
    spread = spreading_matrix() @ bands
    sone = np.maximum(phon_to_sone(power_to_phon(spread)), 0.0)
    return SpecificLoudness(sone=sone.astype(np.float32),
                            band_edges_hz=CRITICAL_BAND_EDGES_HZ.copy())


def total_loudness(sl: SpecificLoudness) -> np.ndarray:
    """Per-frame aggregate: max band + 0.15 * sum of the other bands."""
    sone = np.asarray(sl.sone, dtype=np.float64)
    peak = sone.max(axis=0)
    return (peak + 0.15 * (sone.sum(axis=0) - peak)).astype(np.float32)


# --------------------------------------------------------------------------
# log-mel
# --------------------------------------------------------------------------

def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int = N_MELS, bin_hz: np.ndarray | None = None) -> np.ndarray:
    """Triangular mel filters (n_mels, n_bins), peak height 1.

    Adjacent unit-height triangles tile, so the summed response is 1
    between the first and last filter centres (energy preserving).
    """
    if bin_hz is None:
        bin_hz = np.arange(N_BINS) * (SAMPLE_RATE / WINDOW)
    edges_hz = _mel_to_hz(np.linspace(_hz_to_mel(0.0), _hz_to_mel(SAMPLE_RATE / 2.0), n_mels + 2))
    fb = np.zeros((n_mels, len(bin_hz)), dtype=np.float64)
    for m in range(n_mels):
        lo, mid, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rise = (bin_hz - lo) / (mid - lo)
        fall = (hi - bin_hz) / (hi - mid)
        fb[m] = np.clip(np.minimum(rise, fall), 0.0, 1.0)
    return fb


def log_mel(spec: PowerSpectrogram) -> LogMel:
    """128-band log-mel energies from the same STFT as :func:`bssl`."""
    _check_provenance(spec)
    fb = mel_filterbank(N_MELS, spec.bin_hz)
    values = np.log(fb @ spec.bins + LOG_FLOOR)
    return LogMel(values=values.astype(np.float32))


def extract_features(wav: Waveform, kind: str = "bssl") -> np.ndarray:
    """Convenience: waveform -> (F, T) float32 feature matrix."""
    spec = stft_power(wav)
    if kind == "bssl":
        return bssl(spec).sone
    if kind == "logmel":
        return log_mel(spec).values
    raise ConfigError(f"unknown feature kind {kind!r}; expected 'bssl' or 'logmel'")


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
    """Read a DYNF file back; bit-exact round trip with save_features."""
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
    return values, FEATURE_KIND_NAMES[kind_id]
