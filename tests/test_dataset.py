"""Annotation parsing, rasterisation, segmentation and fold assignment."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynamark.dataset import (
    Recording,
    RecordingAnnotation,
    frames_of,
    load_annotation,
    make_folds,
    make_segments,
    rasterize,
    time_to_frame,
    write_segment_manifest,
)
from dynamark.errors import ConfigError, DynamarkError, EmptyInputError, SchemaError
from dynamark.postprocess import markings_at_beats, snap_to_nearest

from _synth import mutate_bytes


def write_annotation(tmp_path, stem, beats, markings, downbeat_period=3):
    """beats: list of times; markings: {beat_index: token}."""
    beat_path = tmp_path / f"{stem}_beats.csv"
    lines = ["beat_index,time_s,is_downbeat"]
    for i, t in enumerate(beats):
        lines.append(f"{i},{t},{1 if i % downbeat_period == 0 else 0}")
    beat_path.write_text("\n".join(lines) + "\n")
    mark_path = tmp_path / f"{stem}_markings.csv"
    mlines = ["beat_index,marking"] + [f"{i},{tok}" for i, tok in sorted(markings.items())]
    mark_path.write_text("\n".join(mlines) + "\n")
    return beat_path, mark_path


def test_load_annotation_carry_forward(tmp_path):
    bp, mp = write_annotation(tmp_path, "M17-4__p1", [0.5, 1.1, 1.7], {1: "p"})
    ann = load_annotation(bp, mp)
    assert ann.markings == ["blank", "p", "p"]
    assert ann.piece_id == "M17-4"
    np.testing.assert_allclose(ann.beat_times, [0.5, 1.1, 1.7])


def test_load_annotation_downbeat_pattern(tmp_path):
    beats = [0.2 + 0.6 * i for i in range(7)]
    bp, mp = write_annotation(tmp_path, "M06-1__p2", beats, {0: "mf"})
    ann = load_annotation(bp, mp)
    assert ann.downbeat_flags.tolist() == [True, False, False, True, False, False, True]


def test_load_annotation_rejects_bad_token(tmp_path):
    bp, mp = write_annotation(tmp_path, "M1__x", [0.5, 1.0], {})
    mp.write_text("beat_index,marking\n1,sfz\n")
    with pytest.raises(SchemaError, match="row 2.*sfz"):
        load_annotation(bp, mp)


def test_load_annotation_rejects_non_ascending(tmp_path):
    bp, mp = write_annotation(tmp_path, "M2__x", [0.5, 1.0], {})
    bp.write_text("beat_index,time_s,is_downbeat\n0,1.0,1\n1,0.9,0\n")
    with pytest.raises(SchemaError, match="row 3.*ascending"):
        load_annotation(bp, mp)


@pytest.mark.parametrize("rows, bad_row", [
    ("0,nan,1\n1,1.0,0\n", 2),
    ("0,0.5,1\n1,nan,0\n", 3),
    ("0,0.5,1\n1,inf,0\n", 3),
], ids=["nan-first", "nan-later", "inf"])
def test_load_annotation_rejects_non_finite_time(tmp_path, rows, bad_row):
    bp, mp = write_annotation(tmp_path, "M5__x", [0.5, 1.0], {})
    bp.write_text("beat_index,time_s,is_downbeat\n" + rows)
    with pytest.raises(SchemaError, match=f"row {bad_row}: beat time .* not finite"):
        load_annotation(bp, mp)


def test_load_annotation_rejects_negative_time(tmp_path):
    # ``rasterize`` would wrap a negative frame round: beats at -0.1, 0.5
    # and 1.0 s over 100 frames put beat 0, its downbeat and its marking at
    # frame 95
    bp, mp = write_annotation(tmp_path, "M7__x", [-0.1, 0.5, 1.0], {0: "pp"})
    with pytest.raises(SchemaError, match=f"{re.escape(str(bp))}: row 2: beat time '-0.1' is negative"):
        load_annotation(bp, mp)


def test_load_annotation_rejects_bad_header(tmp_path):
    bp, mp = write_annotation(tmp_path, "M3__x", [0.5], {})
    bp.write_text("time,downbeat\n0.5,1\n")
    with pytest.raises(SchemaError, match="row 1"):
        load_annotation(bp, mp)


def test_load_annotation_rejects_out_of_range_mark(tmp_path):
    bp, mp = write_annotation(tmp_path, "M4__x", [0.5, 1.0], {})
    mp.write_text("beat_index,marking\n5,pp\n")
    with pytest.raises(SchemaError, match="outside"):
        load_annotation(bp, mp)


@pytest.mark.parametrize("which, row", [("beats", b"2,\xff,0\n"), ("markings", b"1,\xffp\n")],
                         ids=["beats", "markings"])
def test_load_annotation_rejects_non_utf8(tmp_path, which, row):
    bp, mp = write_annotation(tmp_path, "M6__x", [0.5, 1.0, 1.5], {0: "p"})
    path = bp if which == "beats" else mp
    path.write_bytes(path.read_bytes() + row)
    with pytest.raises(SchemaError, match=re.escape(f"{path}: not UTF-8 text")):
        load_annotation(bp, mp)


@pytest.mark.parametrize("which", ["beats", "markings"])
def test_load_annotation_skips_a_byte_order_mark(tmp_path, which):
    # spreadsheet exports start a CSV with U+FEFF, which used to read as part of the first header name
    bp, mp = write_annotation(tmp_path, "M7__x", [0.5, 1.0, 1.5], {0: "p", 2: "ff"})
    plain = load_annotation(bp, mp)
    path = bp if which == "beats" else mp
    path.write_bytes("\ufeff".encode() + path.read_bytes())
    marked = load_annotation(bp, mp)
    for f in fields(RecordingAnnotation):
        assert np.array_equal(getattr(marked, f.name), getattr(plain, f.name)), f.name
    path.write_bytes(path.read_bytes() + b"3,\xff\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}: not UTF-8 text")):
        load_annotation(bp, mp)


VALID_BEATS = b"beat_index,time_s,is_downbeat\n0,0.5,1\n1,1.0,0\n2,1.5,0\n"
VALID_MARKINGS = b"beat_index,marking\n0,p\n2,ff\n"
CSV_BYTES = st.sampled_from(list(b'0123456789.,-+\n\r" einafpm')) | st.integers(0, 255)
EDITS = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 63), CSV_BYTES),
                 max_size=4)


@settings(max_examples=400, deadline=None)
@given(EDITS, st.integers(1, len(VALID_BEATS)), EDITS, st.integers(1, len(VALID_MARKINGS)))
def test_load_annotation_byte_mutation_fuzz(tmp_path_factory, beat_edits, beat_keep, mark_edits, mark_keep):
    root = tmp_path_factory.mktemp("fuzz")
    bp, mp = root / "F0__x_beats.csv", root / "F0__x_markings.csv"
    bp.write_bytes(mutate_bytes(VALID_BEATS, beat_edits, beat_keep))
    mp.write_bytes(mutate_bytes(VALID_MARKINGS, mark_edits, mark_keep))
    try:
        ann = load_annotation(bp, mp)
    except DynamarkError:
        return
    assert len(ann.markings) == len(ann.beat_times) == len(ann.downbeat_flags) > 0
    assert np.all(np.isfinite(ann.beat_times)) and np.all(np.diff(ann.beat_times) > 0)


# -- rasterize ---------------------------------------------------------------

def make_ann(tmp_path, beats, markings, stem="M9__p"):
    bp, mp = write_annotation(tmp_path, stem, beats, markings)
    return load_annotation(bp, mp)


def test_rasterize_beat_at_one_second(tmp_path):
    ann = make_ann(tmp_path, [1.00], {})
    targets = rasterize(ann, 100)
    assert targets.beat[50] == 1
    assert targets.beat.sum() == 1


def test_time_to_frame_rounding():
    assert time_to_frame(1.00) == 50
    assert time_to_frame(0.008) == 0
    assert time_to_frame(0.01) == 1  # exact tie 0.5 rounds up
    assert time_to_frame(0.032) == 2


def test_rasterize_change_points(tmp_path):
    # markings per beat: blank, p, p, f -> changes at beats 2 and 4 (1-indexed)
    ann = make_ann(tmp_path, [0.5, 1.0, 1.5, 2.0], {1: "p", 3: "f"})
    assert ann.change_point_beats() == [1, 3]
    targets = rasterize(ann, 150)
    cp_frames = np.nonzero(targets.change_point)[0]
    assert cp_frames.tolist() == [time_to_frame(1.0), time_to_frame(2.0)]


def test_rasterize_no_markings(tmp_path):
    ann = make_ann(tmp_path, [0.5, 1.0], {})
    targets = rasterize(ann, 100)
    assert targets.change_point.sum() == 0
    assert (targets.dynamic_class == 0).all()


def test_rasterize_round_trip(tmp_path):
    ann = make_ann(tmp_path, [0.5, 1.0, 1.5, 2.0, 2.5], {1: "pp", 3: "ff"})
    targets = rasterize(ann, 200)
    beat_frames = [time_to_frame(t) for t in ann.beat_times]
    one_hot = np.eye(6)[targets.dynamic_class]
    assert markings_at_beats(one_hot, beat_frames) == ann.markings


def test_rasterize_containment(tmp_path):
    ann = make_ann(tmp_path, [0.3, 0.9, 1.5, 2.1], {0: "mf", 2: "f"})
    targets = rasterize(ann, 200)
    assert set(np.nonzero(targets.downbeat)[0]) <= set(np.nonzero(targets.beat)[0])
    assert set(np.nonzero(targets.change_point)[0]) <= set(np.nonzero(targets.beat)[0])


def test_rasterize_too_dense(tmp_path):
    ann = make_ann(tmp_path, [1.000, 1.005], {})
    with pytest.raises(SchemaError, match="denser"):
        rasterize(ann, 100)


def test_rasterize_too_short(tmp_path):
    ann = make_ann(tmp_path, [0.5, 3.0], {})
    with pytest.raises(SchemaError, match="frames"):
        rasterize(ann, 100)


def test_rasterize_boundary_beat_needs_extra_frame(tmp_path):
    # a beat at exactly 1.0 s rounds (half-up) to frame 50, so 50 frames
    # cannot hold it even though ceil(1.0 * fps) == 50
    ann = make_ann(tmp_path, [0.5, 1.0], {})
    with pytest.raises(SchemaError, match="50 frames cannot hold the last beat, at frame 50"):
        rasterize(ann, 50)
    targets = rasterize(ann, 51)
    assert targets.beat[50] == 1


def test_frames_of_clamps_to_the_last_frame():
    assert frames_of([0.0, 0.01, 1.0, 1.99, 5.0], 100).tolist() == [0, 1, 50, 99, 99]
    assert frames_of([], 100).tolist() == []


# -- annotation as a report ------------------------------------------------------

def test_as_report_carries_the_annotation(tmp_path):
    ann = make_ann(tmp_path, [0.3, 0.9, 1.5, 2.1], {1: "p", 3: "f"})
    report = ann.as_report()
    assert report.beats == [0.3, 0.9, 1.5, 2.1]
    assert report.downbeats == [0.3, 2.1]  # every third beat from the first
    assert report.markings == ["blank", "p", "p", "f"]
    assert report.change_points == [0.9, 2.1]


@settings(max_examples=50, deadline=None)
@given(steps=st.lists(st.integers(1, 2000), min_size=1, max_size=30),
       marks=st.lists(st.sampled_from(["blank", "pp", "p", "mf", "f", "ff"]), min_size=30, max_size=30))
def test_as_report_change_points_snap_back_to_change_point_beats(steps, marks):
    beats = np.cumsum(steps) / 1000.0
    ann = RecordingAnnotation(piece_id="M1", beat_times=beats, downbeat_flags=np.zeros(len(beats), dtype=bool),
                              markings=marks[:len(beats)])
    report = ann.as_report()
    assert snap_to_nearest(report.change_points, report.beats).tolist() == ann.change_point_beats()


# -- segmentation --------------------------------------------------------------

def fake_recording(duration_s, f=4):
    t = duration_s * 50
    rng = np.random.default_rng(0)
    features = rng.standard_normal((f, t)).astype(np.float32)
    beat = np.zeros(t, dtype=np.uint8)
    beat[::30] = 1
    from dynamark.objectives import FrameTargets
    targets = FrameTargets(beat=beat, downbeat=beat.copy(), change_point=np.zeros(t, dtype=np.uint8),
                           dynamic_class=np.zeros(t, dtype=np.int64))
    return features, targets


def starts_s(features, segments):
    """Where each segment starts in the recording, in seconds, found by
    its first feature column (the features are noise, so it is unique)."""
    return [np.nonzero((features == seg.features[:, :1]).all(axis=0))[0][0] / 50 for seg in segments]


def test_segment_150s_train():
    features, targets = fake_recording(150)
    segments = make_segments(features, targets, "r", 60, "train")
    assert starts_s(features, segments) == [0.0, 30.0, 60.0, 90.0]
    assert all(s.n_valid == 3000 for s in segments)


def test_segment_150s_eval():
    features, targets = fake_recording(150)
    segments = make_segments(features, targets, "r", 60, "eval")
    assert starts_s(features, segments) == [0.0, 60.0, 120.0]
    assert [s.n_valid for s in segments] == [3000, 3000, 1500]
    assert segments[-1].features[:, 1500:].sum() == 0


def test_segment_45s_single_padded():
    features, targets = fake_recording(45)
    for mode in ("train", "eval"):
        segments = make_segments(features, targets, "r", 60, mode)
        assert len(segments) == 1
        assert segments[0].n_valid == 2250


def test_segment_eval_coverage_exact():
    features, targets = fake_recording(137)
    segments = make_segments(features, targets, "r", 60, "eval")
    covered = np.concatenate([np.arange(s.n_valid) + int(start * 50)
                              for s, start in zip(segments, starts_s(features, segments))])
    np.testing.assert_array_equal(covered, np.arange(137 * 50))


@pytest.mark.parametrize("duration", [60, 61, 89, 90, 150, 240])
def test_segment_train_count_formula(duration):
    features, targets = fake_recording(duration)
    segments = make_segments(features, targets, "r", 60, "train")
    assert len(segments) == (duration - 60) // 30 + 1


def test_segment_window_30s():
    features, targets = fake_recording(90)
    segments = make_segments(features, targets, "r", 30, "train")
    assert starts_s(features, segments) == [0.0, 15.0, 30.0, 45.0, 60.0]
    assert segments[0].features.shape[1] == 1500


def test_segment_targets_aligned():
    features, targets = fake_recording(150)
    segments = make_segments(features, targets, "r", 60, "eval")
    recon = np.concatenate([s.targets.beat[:s.n_valid] for s in segments])
    np.testing.assert_array_equal(recon, targets.beat)


# -- folds ------------------------------------------------------------------------

def test_make_folds_sizes():
    pieces = [f"M{i:02d}" for i in range(44)]
    folds = make_folds(pieces, k=5, seed=86)
    sizes = sorted(np.bincount(list(folds.values()), minlength=5).tolist())
    assert sizes == [8, 9, 9, 9, 9]


def test_make_folds_deterministic():
    pieces = [f"M{i:02d}" for i in range(42)]
    assert make_folds(pieces, 5, seed=7) == make_folds(pieces, 5, seed=7)
    assert make_folds(pieces, 5, seed=7) != make_folds(pieces, 5, seed=8)


def test_make_folds_grouping():
    pieces = ["M17-4", "M06-1", "M63-3"]
    folds = make_folds(pieces, k=2, seed=1)
    recordings = [("M17-4", "p1"), ("M17-4", "p2"), ("M06-1", "p1")]
    fold_of = {f"{p}__{perf}": folds[p] for p, perf in recordings}
    assert fold_of["M17-4__p1"] == fold_of["M17-4__p2"]


def test_make_folds_too_few_pieces():
    with pytest.raises(EmptyInputError):
        make_folds(["a", "b"], k=5, seed=86)


@pytest.mark.parametrize("k", [1, 0, -1])
def test_make_folds_needs_two_folds(k):
    with pytest.raises(ConfigError, match=f"cannot make {k} folds"):
        make_folds(["a", "b", "c"], k=k, seed=86)


def _manifest_entry(path, duration_s, window_s=60, mode="train"):
    """The one recording's entry in a segment manifest of a fake recording."""
    features, targets = fake_recording(duration_s)
    ann = RecordingAnnotation(piece_id="M1", beat_times=np.array([0.5]),
                              downbeat_flags=np.array([True]), markings=["blank"])
    rec = Recording(recording_id="M1__p", piece_id="M1", features=features,
                    annotation=ann, targets=targets)
    write_segment_manifest(path, [rec], {"M1": 0}, window_s, mode)
    return json.loads(path.read_text())["recordings"][0]


def test_segment_manifest(tmp_path):
    entry = _manifest_entry(tmp_path / "manifest.json", 90)
    assert entry["fold"] == 0
    assert entry["train_segment_starts_s"] == [0.0, 30.0]
    assert entry["eval_segment_starts_s"] == [0.0, 60.0]


@pytest.mark.parametrize("augment, starts", [(True, [0.0, 5.0, 10.0, 15.0]), (False, [0.0, 10.0, 20.0])])
def test_segment_manifest_lists_the_training_tiling(tmp_path, augment, starts):
    # without overlap augmentation training cuts the eval tiling, and the
    # manifest must list the segments training uses
    from dynamark.trainer import TrainConfig
    cfg = TrainConfig(segment_s=10, augment_overlap=augment)
    entry = _manifest_entry(tmp_path / "manifest.json", 25, cfg.segment_s, cfg.tiling)
    assert entry["train_segment_starts_s"] == starts
    assert entry["eval_segment_starts_s"] == [0.0, 10.0, 20.0]
    features, targets = fake_recording(25)
    assert starts == starts_s(features, make_segments(features, targets, "r", 10, cfg.tiling))
