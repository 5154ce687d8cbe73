"""Synthetic desk-scale corpus: metronomic click-plus-tone clips with
piecewise dynamic levels realised as amplitude steps.

The clips come from the benchmark's generator, ``bench/corpus.py``, loaded
from its path so that tests and workloads share one model of the audio.
Clicks (broadband, amplitude 1.0) anchor the peak normalisation so the
sustained-tone level is comparable across clips; downbeats get a longer
click plus a low thump.  The tone sits at 330 Hz so its critical band
is disjoint from the click spectrum.

``write_wav`` writes samples in any WAV format the front end reads, and
``mutate_bytes`` corrupts a valid file for the file-loader fuzz tests.
"""

import importlib.util
import struct
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from dynamark.audio import SAMPLE_RATE, wav_features
from dynamark.dataset import Recording, load_annotation, rasterize


BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    """Import ``bench/<name>.py`` from its path, as ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_corpus = load_bench_module("corpus")
synth_clip = _corpus.synth_clip
write_annotation = _corpus.write_annotation


def write_corpus(root, n_clips=4, seconds=60.0, bpm=100.0, beats_per_level=8,
                 seed=86, write_audio=True):
    """Write mono 22.05 kHz float32 WAVs + annotation CSVs; returns the
    recording ids."""
    root = Path(root)
    audio_dir = root / "audio"
    ann_dir = root / "annotations"
    audio_dir.mkdir(parents=True, exist_ok=True)
    ann_dir.mkdir(parents=True, exist_ok=True)
    ids = []
    for i in range(n_clips):
        rec_id = f"SYN{i:02d}__p0"
        samples, beat_times, downbeat_flags, marks = synth_clip(
            seconds=seconds, bpm=bpm, beats_per_level=beats_per_level,
            level_offset=i, seed=seed + i, rate=SAMPLE_RATE)
        if write_audio:
            wavfile.write(audio_dir / f"{rec_id}.wav", SAMPLE_RATE, samples.astype(np.float32))
        write_annotation(ann_dir, rec_id, beat_times, downbeat_flags, marks)
        ids.append(rec_id)
    return ids


def write_wav(path, data, rate, sampwidth="float32"):
    """Write a test WAV of samples in [-1, 1] (NaN and inf kept by the float
    formats); sampwidth one of int16, int24, uint8, float32, float64."""
    data = np.asarray(data)
    if sampwidth in ("float32", "float64"):
        wavfile.write(path, rate, data.astype(sampwidth))
    elif sampwidth == "int16":
        wavfile.write(path, rate, np.clip(np.round(data * 32767), -32768, 32767).astype(np.int16))
    elif sampwidth == "uint8":
        wavfile.write(path, rate, np.clip(np.round(data * 127 + 128), 0, 255).astype(np.uint8))
    elif sampwidth == "int24":
        scaled = np.clip(np.round(data * (2 ** 23 - 1)), -(2 ** 23), 2 ** 23 - 1).astype("<i4")
        if scaled.ndim == 1:
            scaled = scaled[:, None]
        frames = scaled.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()  # the low 3 bytes of each
        n_ch = scaled.shape[1]
        block = 3 * n_ch
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, n_ch, rate, rate * block, block, 24))
            fh.write(b"data" + struct.pack("<I", len(frames)) + frames)
    else:
        raise ValueError(sampwidth)
    return path


def load_synth_recordings(root, feature_kind="bssl"):
    """Extract features in-process and pair them with the annotations."""
    root = Path(root)
    recordings = []
    for beats_csv in sorted((root / "annotations").glob("*_beats.csv")):
        rec_id = beats_csv.stem.removesuffix("_beats")
        features = wav_features(root / "audio" / f"{rec_id}.wav", [feature_kind])[feature_kind]
        ann = load_annotation(beats_csv, root / "annotations" / f"{rec_id}_markings.csv")
        targets = rasterize(ann, features.shape[1])
        recordings.append(Recording(recording_id=rec_id, piece_id=ann.piece_id,
                                    features=features, annotation=ann, targets=targets))
    return recordings


def mutate_bytes(blob: bytes, edits, keep: int) -> bytes:
    """Apply (op, pos, byte) edits, op one of set/insert/delete with pos
    clamped to the blob, then keep only the first ``keep`` bytes."""
    blob = bytearray(blob)
    for op, pos, byte in edits:
        pos = min(pos, len(blob) - 1)
        if op == "set":
            blob[pos] = byte
        elif op == "insert":
            blob.insert(pos, byte)
        elif len(blob) > 1:
            del blob[pos]
    return bytes(blob[:keep])
