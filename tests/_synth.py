"""Synthetic desk-scale corpus: metronomic click-plus-tone clips with
piecewise dynamic levels realised as amplitude steps.

Clicks (broadband, amplitude 1.0) anchor the peak normalisation so the
sustained-tone level is comparable across clips; downbeats get a longer
click plus a low thump.  The tone sits at 330 Hz so its critical band
is disjoint from the click spectrum.

``mutate_bytes`` corrupts a valid file for the file-loader fuzz tests.
"""

import csv
from pathlib import Path

import numpy as np

from dynamark.audio import SAMPLE_RATE, extract_features
from dynamark.dataset import Recording, load_annotation, rasterize

LEVEL_AMP = {"pp": 0.03, "p": 0.07, "mf": 0.16, "f": 0.38, "ff": 0.9}
LEVEL_CYCLE = ["mf", "ff", "p", "f", "pp"]


def synth_clip(seconds=60.0, bpm=100.0, first_beat_s=0.3, beats_per_level=8,
               level_offset=0, seed=0, rate=SAMPLE_RATE):
    """Returns (samples, beat_times, downbeat_flags, markings_sparse)."""
    rng = np.random.default_rng(seed)
    n = int(round(seconds * rate))
    samples = np.zeros(n, dtype=np.float64)
    period = 60.0 / bpm
    beat_times = []
    t = first_beat_s
    while t < seconds - 0.15:
        beat_times.append(round(t, 6))
        t += period
    downbeat_flags = [i % 3 == 0 for i in range(len(beat_times))]

    # sparse markings: a level change every `beats_per_level` beats
    marks = {}
    for j, beat in enumerate(range(0, len(beat_times), beats_per_level)):
        marks[beat] = LEVEL_CYCLE[(level_offset + j) % len(LEVEL_CYCLE)]

    # sustained tone with per-level amplitude steps
    level_at_beat = []
    current = None
    for i in range(len(beat_times)):
        current = marks.get(i, current)
        level_at_beat.append(current)
    tone = np.sin(2 * np.pi * 330.0 * np.arange(n) / rate)
    amp = np.zeros(n)
    for i, beat in enumerate(beat_times):
        start = int(beat * rate)
        stop = int(beat_times[i + 1] * rate) if i + 1 < len(beat_times) else n
        amp[start:stop] = LEVEL_AMP[level_at_beat[i]]
    samples += amp * tone

    # clicks: decaying noise bursts, longer + low thump on downbeats
    for beat, is_down in zip(beat_times, downbeat_flags):
        start = int(beat * rate)
        dur = int(0.040 * rate) if is_down else int(0.015 * rate)
        dur = min(dur, n - start)
        envelope = np.exp(-np.arange(dur) / (0.004 * rate))
        burst = rng.uniform(-1, 1, size=dur) * envelope
        samples[start:start + dur] += burst
        if is_down:
            thump = 0.8 * np.sin(2 * np.pi * 110.0 * np.arange(dur) / rate) * envelope
            samples[start:start + dur] += thump
    samples = np.clip(samples, -1.0, 1.0)
    return samples, beat_times, downbeat_flags, marks


def write_corpus(root, n_clips=4, seconds=60.0, bpm=100.0, beats_per_level=8,
                 seed=86, write_audio=True):
    """Write WAVs + annotation CSVs; returns the recording ids."""
    from scipy.io import wavfile

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
            level_offset=i, seed=seed + i)
        if write_audio:
            wavfile.write(audio_dir / f"{rec_id}.wav", SAMPLE_RATE, samples.astype(np.float32))
        with open(ann_dir / f"{rec_id}_beats.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beat_index", "time_s", "is_downbeat"])
            for j, (t, down) in enumerate(zip(beat_times, downbeat_flags)):
                writer.writerow([j, f"{t:.6f}", int(down)])
        with open(ann_dir / f"{rec_id}_markings.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beat_index", "marking"])
            for beat, token in sorted(marks.items()):
                writer.writerow([beat, token])
        ids.append(rec_id)
    return ids


def load_synth_recordings(root, feature_kind="bssl"):
    """Extract features in-process and pair them with the annotations."""
    root = Path(root)
    recordings = []
    for beats_csv in sorted((root / "annotations").glob("*_beats.csv")):
        rec_id = beats_csv.stem.removesuffix("_beats")
        wav_path = root / "audio" / f"{rec_id}.wav"
        from dynamark.audio import decode_and_prepare
        features = extract_features(decode_and_prepare(wav_path), feature_kind)
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
