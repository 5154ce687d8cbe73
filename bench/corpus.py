"""Seeded synthetic corpora for the benchmark workloads.

Every clip is a metronomic click-plus-tone performance: a sustained
330 Hz tone whose amplitude steps between five dynamic levels, plus
broadband clicks on the beats (longer, with a 110 Hz thump, on
downbeats).  The model is the same one the test suite uses, but it is
kept here so that a change to the tests cannot silently change a
workload.  With ``rate=22050``, mono, and the default tempo and level
schedule, ``synth_clip`` gives the same samples as the test helper, so
the seed-86 training corpus is the one the overfit acceptance test
trains on.

The program only ever sees what these functions write: WAV files and
the annotation CSVs in the documented ``<id>_beats.csv`` /
``<id>_markings.csv`` format.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy.io import wavfile

LEVEL_AMP = {"pp": 0.03, "p": 0.07, "mf": 0.16, "f": 0.38, "ff": 0.9}
LEVEL_CYCLE = ["mf", "ff", "p", "f", "pp"]

TRAIN_RATE = 22050
ANNOTATE_RATE = 44100

# Clip lengths of the annotate corpus, in processing order: 15 min in
# total, from shorter than one 60 s inference window to several windows.
# The seed varies the content, never the lengths or their order, so the
# work per pass and the heap's high-water mark stay the same across seeds.
ANNOTATE_CLIP_SECONDS = (40.0, 75.0, 110.0, 150.0, 205.0, 320.0)


def synth_clip(seconds=60.0, bpm=100.0, first_beat_s=0.3, beats_per_level=8,
               level_offset=0, seed=0, rate=TRAIN_RATE):
    """Returns (samples, beat_times, downbeat_flags, sparse markings)."""
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

    marks = {}
    for j, beat in enumerate(range(0, len(beat_times), beats_per_level)):
        marks[beat] = LEVEL_CYCLE[(level_offset + j) % len(LEVEL_CYCLE)]
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


def write_annotation(ann_dir: Path, rec_id: str, beat_times, downbeat_flags, marks) -> None:
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


def _dirs(root) -> tuple[Path, Path]:
    root = Path(root)
    audio_dir, ann_dir = root / "audio", root / "annotations"
    audio_dir.mkdir(parents=True, exist_ok=True)
    ann_dir.mkdir(parents=True, exist_ok=True)
    return audio_dir, ann_dir


def write_training_corpus(root, seed: int, n_clips: int = 4, seconds: float = 60.0) -> list[str]:
    """Mono 22.05 kHz float32 clips at 100 bpm; clip i uses seed + i."""
    audio_dir, ann_dir = _dirs(root)
    ids = []
    for i in range(n_clips):
        rec_id = f"SYN{i:02d}__p0"
        samples, beats, downs, marks = synth_clip(seconds=seconds, level_offset=i, seed=seed + i)
        wavfile.write(audio_dir / f"{rec_id}.wav", TRAIN_RATE, samples.astype(np.float32))
        write_annotation(ann_dir, rec_id, beats, downs, marks)
        ids.append(rec_id)
    return ids


def write_annotate_corpus(root, seed: int) -> tuple[list[str], float]:
    """44.1 kHz stereo 16-bit clips, so downmix and resampling run.

    Returns the recording ids and the total audio length in seconds.
    Beats keep the 100 bpm tempo and the 100 ms phase of the four clips
    the committed checkpoint was fitted to; off that phase (first beat
    at 0.24 s instead of 0.3 s) its beat F1 falls to 0.39, at 97 bpm to
    0.71.  The seed varies the first-beat offset, the level schedule and
    the click noise.
    """
    audio_dir, ann_dir = _dirs(root)
    rng = np.random.default_rng(seed)
    ids = []
    for i, seconds in enumerate(ANNOTATE_CLIP_SECONDS):
        rec_id = f"ANN{i:02d}__p{i}"
        samples, beats, downs, marks = synth_clip(
            seconds=seconds,
            first_beat_s=0.1 * int(rng.integers(2, 7)),
            beats_per_level=int(rng.choice([6, 8, 10])),
            level_offset=int(rng.integers(len(LEVEL_CYCLE))),
            seed=int(rng.integers(2 ** 31)),
            rate=ANNOTATE_RATE)
        pcm = np.round(samples * 32767.0).astype(np.int16)
        # the right channel is quieter, so downmixing changes the samples
        stereo = np.stack([pcm, (pcm * 0.8).astype(np.int16)], axis=1)
        wavfile.write(audio_dir / f"{rec_id}.wav", ANNOTATE_RATE, stereo)
        write_annotation(ann_dir, rec_id, beats, downs, marks)
        ids.append(rec_id)
    return ids, float(sum(ANNOTATE_CLIP_SECONDS))
