"""Peak-picking against the literal-definition brute force, snapping,
marking readout, and report serialisation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import maximum_filter1d

import dynamark

from dynamark.errors import DynamarkError, SchemaError
from dynamark.postprocess import (
    PEAK_RADIUS,
    PEAK_THRESHOLD,
    EventReport,
    build_event_report,
    change_points,
    markings_at_beats,
    pick_peaks,
    snap_to_nearest,
    to_seconds,
)

from _synth import mutate_bytes


def brute_force_peaks(probs):
    """Literal transcription of the definition, used as the oracle."""
    picked = []
    for t in range(len(probs)):
        if not probs[t] > PEAK_THRESHOLD:
            continue
        lo, hi = max(0, t - PEAK_RADIUS), min(len(probs), t + PEAK_RADIUS + 1)
        if any(probs[u] > probs[t] for u in range(lo, hi)):
            continue
        if picked and t - picked[-1] <= PEAK_RADIUS:
            continue
        picked.append(t)
    return picked


def test_peaks_all_zero():
    assert pick_peaks(np.zeros(100)).size == 0


def test_peaks_single_spike():
    probs = np.zeros(200)
    probs[100] = 0.9
    assert pick_peaks(probs).tolist() == [100]


def test_peaks_plateau_earliest_wins():
    probs = np.zeros(30)
    probs[10:13] = 0.8
    assert pick_peaks(probs).tolist() == [10]


def test_peaks_min_spacing():
    rng = np.random.default_rng(0)
    for _ in range(200):
        probs = rng.uniform(0, 1, size=rng.integers(1, 200))
        picked = pick_peaks(probs)
        assert (np.diff(picked) >= 4).all()


def test_peaks_match_brute_force_1000_trials():
    rng = np.random.default_rng(1234)
    for trial in range(1000):
        n = int(rng.integers(1, 201))
        # mix of smooth and spiky sequences, with deliberate ties
        probs = rng.uniform(0, 1, size=n)
        if trial % 3 == 0:
            probs = np.round(probs, 1)  # many exact ties
        got = pick_peaks(probs).tolist()
        want = brute_force_peaks(probs)
        assert got == want, f"trial {trial}: {got} != {want}"


def _scipy_peaks(probs):
    """``pick_peaks`` as it was written with ``scipy.ndimage``: the oracle."""
    probs = np.asarray(probs, dtype=np.float64)
    win_max = maximum_filter1d(probs, size=2 * PEAK_RADIUS + 1, mode="constant", cval=-np.inf)
    picked = []
    for t in np.nonzero((probs > PEAK_THRESHOLD) & (probs >= win_max))[0]:
        if not picked or t - picked[-1] > PEAK_RADIUS:
            picked.append(int(t))
    return picked


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.51, 0.8, 0.8, 0.9, 1.0]), min_size=1, max_size=40)
       | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_peaks_match_the_scipy_window_max(probs):
    # few distinct values make plateaus, short tracks make every frame an edge
    assert pick_peaks(probs).tolist() == _scipy_peaks(probs)


def test_peaks_never_within_radius_of_a_nan():
    probs = np.zeros(40)
    probs[[5, 12, 20, 33]] = 0.9
    probs[15] = np.nan
    assert pick_peaks(probs).tolist() == [5, 20, 33]


def test_training_and_inference_import_no_scipy():
    # only WAV reading needs scipy, so training and inference never load it
    code = ("import sys, dynamark.cli, dynamark.trainer, dynamark.postprocess; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(dynamark.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_markings_one_hot_readout():
    probs = np.zeros((10, 6))
    probs[2, 3] = 1.0
    probs[7, 5] = 1.0
    assert markings_at_beats(probs, [2, 7]) == ["mf", "ff"]


def test_markings_empty_beats():
    assert markings_at_beats(np.zeros((5, 6)), []) == []


def test_markings_tie_to_lower_class():
    probs = np.zeros((3, 6))
    probs[1, 2] = 0.5
    probs[1, 4] = 0.5
    assert markings_at_beats(probs, [1]) == ["p"]


def test_markings_out_of_range():
    with pytest.raises(SchemaError):
        markings_at_beats(np.zeros((5, 6)), [5])


def test_markings_match_brute_force_1000_trials():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        t = int(rng.integers(1, 40))
        probs = rng.uniform(0, 1, size=(t, 6))
        beats = np.unique(rng.integers(0, t, size=rng.integers(0, 6)))
        got = markings_at_beats(probs, beats)
        labels = ("blank", "pp", "p", "mf", "f", "ff")
        want = [labels[int(max(range(6), key=lambda c: probs[b, c]))] for b in beats]
        assert got == want


def test_change_points_empty_when_below_threshold():
    probs = np.full(50, 0.6)
    assert change_points(probs, [10, 20]).size == 0


def test_change_point_snaps_to_nearest_beat():
    probs = np.zeros(100)
    probs[52] = 0.9
    idx = change_points(probs, np.array([50, 60]))
    assert idx.tolist() == [0]


def test_change_points_dedup():
    probs = np.zeros(100)
    probs[[49, 51]] = 0.9
    idx = change_points(probs, np.array([50, 80]))
    assert idx.tolist() == [0]


def test_change_points_no_beats():
    probs = np.ones(10)
    assert change_points(probs, np.array([])).size == 0


def test_snap_tie_goes_earlier():
    idx = snap_to_nearest(np.array([55.0]), np.array([50.0, 60.0]))
    assert idx.tolist() == [0]


def test_snap_to_nearest_times():
    beats = [0.5, 1.0, 1.5]
    assert snap_to_nearest([0.55, 1.4, 0.75], beats).tolist() == [0, 2, 0]  # 0.75 ties earlier
    assert snap_to_nearest([], beats).size == 0
    assert snap_to_nearest([1.0], []).size == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=20),
       st.lists(st.integers(-60, 60), min_size=1, max_size=12))
def test_snap_matches_brute_force_argmin(values, anchors):
    anchors = np.sort(np.asarray(anchors, dtype=np.float64))
    # np.argmin returns the first of equal distances: the earlier anchor,
    # and the first of equal anchors
    want = [int(np.argmin(np.abs(anchors - v))) for v in values]
    assert snap_to_nearest(values, anchors).tolist() == want


def test_to_seconds():
    np.testing.assert_allclose(to_seconds([50]), [1.0])
    np.testing.assert_allclose(to_seconds([0]), [0.0])
    np.testing.assert_allclose(to_seconds([10, 35]), [0.2, 0.7])


def test_build_report_and_serialization(tmp_path):
    t = 300
    beat_probs = np.zeros(t)
    beat_probs[[50, 100, 150, 200]] = 0.9
    downbeat_probs = np.zeros(t)
    downbeat_probs[50] = 0.8
    cp_probs = np.zeros(t)
    cp_probs[101] = 0.9
    dyn_probs = np.zeros((t, 6))
    dyn_probs[:, 2] = 1.0  # 'p' everywhere
    report = build_event_report({"beat": beat_probs, "downbeat": downbeat_probs,
                                 "change_point": cp_probs, "dynamics": dyn_probs})
    assert report.beats == [1.0, 2.0, 3.0, 4.0]
    assert report.downbeats == [1.0]
    assert report.markings == ["p", "p", "p", "p"]
    assert report.change_points == [2.0]
    # change points are members of the beat set, exactly
    assert set(report.change_points) <= set(report.beats)

    jpath = tmp_path / "report.json"
    report.write_json(jpath)
    loaded = EventReport.from_json(jpath)
    assert loaded == report
    blob = json.loads(jpath.read_text())
    assert set(blob) == {"beats", "downbeats", "markings", "change_points"}

    cpath = tmp_path / "report.csv"
    report.write_csv(cpath)
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "time_s,marking,is_downbeat,is_change_point"
    assert rows[1] == "1.000,p,1,0"
    assert rows[2] == "2.000,p,0,1"


def test_report_beats_override():
    t = 200
    dyn_probs = np.zeros((t, 6))
    dyn_probs[:, 4] = 1.0
    cp_probs = np.zeros(t)
    probs = {"beat": np.zeros(t), "downbeat": np.zeros(t), "change_point": cp_probs, "dynamics": dyn_probs}
    report = build_event_report(probs, beat_frames_override=np.array([10, 60, 110]))
    assert len(report.markings) == 3
    assert report.beats == [0.2, 1.2, 2.2]


def test_report_silence_is_empty():
    t = 100
    report = build_event_report({"beat": np.zeros(t), "downbeat": np.zeros(t),
                                 "change_point": np.zeros(t), "dynamics": np.zeros((t, 6))})
    assert report.beats == [] and report.markings == [] and report.change_points == []


def test_downbeats_snap_to_the_nearest_beat():
    t = 200
    beat_probs = np.zeros(t)
    beat_probs[[50, 100, 150]] = 0.9
    downbeat_probs = np.zeros(t)
    downbeat_probs[52] = 0.8   # 2 frames off the nearest beat
    downbeat_probs[120] = 0.8  # > 3 frames from any beat
    probs = {"beat": beat_probs, "downbeat": downbeat_probs,
             "change_point": np.zeros(t), "dynamics": np.zeros((t, 6))}
    report = build_event_report(probs)
    assert report.downbeats == [1.0]  # snapped to the beat at frame 50; 120 dropped
    # with no beat, no downbeat
    report = build_event_report({**probs, "beat": np.zeros(t)})
    assert report.beats == [] and report.downbeats == []


# Few distinct values make plateaus and ties; a track of values <= 0.5 has
# no frame above the peak threshold.
TRACK_VALUES = [0.0, 0.3, 0.5, 0.6, 0.8, 0.8, 0.9, 1.0]
QUIET_VALUES = [0.0, 0.3, 0.5]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 120), st.booleans(), st.data())
def test_report_events_are_reported_beats(tmp_path_factory, t, quiet_beats, data):
    track = lambda values: np.asarray(data.draw(st.lists(st.sampled_from(values), min_size=t, max_size=t)))
    probs = {"beat": track(QUIET_VALUES if quiet_beats else TRACK_VALUES),
             "downbeat": track(TRACK_VALUES), "change_point": track(TRACK_VALUES),
             "dynamics": np.full((t, 6), 1 / 6)}
    # an external grid, as ``--beats-from`` gives it: ascending, equal frames allowed, maybe empty
    override = data.draw(st.none() | st.lists(st.integers(0, t - 1), max_size=12).map(sorted))
    report = build_event_report(probs, beat_frames_override=override)
    assert set(report.downbeats) <= set(report.beats)
    assert set(report.change_points) <= set(report.beats)
    assert (np.diff(report.downbeats) > 0).all()
    path = tmp_path_factory.getbasetemp() / "events.csv"
    report.write_csv(path)
    rows = path.read_text().splitlines()[1:]
    flagged = [float(row.split(",")[0]) for row in rows if row.split(",")[2] == "1"]
    assert len(rows) == len(report.beats)
    assert set(flagged) == {round(d, 3) for d in report.downbeats}
    if len(set(report.beats)) == len(report.beats):  # equal beats would flag one downbeat twice
        assert len(flagged) == len(report.downbeats)


def test_from_json_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"beats": [1.0], "downbeats": [], "markings": [], "change_points": []}))
    with pytest.raises(SchemaError, match="markings"):
        EventReport.from_json(bad)
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    with pytest.raises(SchemaError):
        EventReport.from_json(notjson)


@pytest.mark.parametrize("blob", [
    [],
    {"beats": None, "downbeats": [], "markings": [], "change_points": []},
    {"beats": [None], "downbeats": [], "markings": ["p"], "change_points": []},
    {"beats": [10 ** 400], "downbeats": [], "markings": ["p"], "change_points": []},
    {"beats": [2.0, 1.0], "downbeats": [], "markings": ["p", "p"], "change_points": []},
    {"beats": "123", "downbeats": "", "markings": "ppp", "change_points": []},
    {"beats": [float("nan")], "downbeats": [], "markings": ["p"], "change_points": []},
    {"beats": [1.0], "downbeats": [], "markings": ["p"], "change_points": [float("inf")]},
], ids=["not-an-object", "null-beats", "null-beat", "beat-overflows-float", "beats-go-backwards",
        "string-beats", "nan-beat", "inf-change-point"])
def test_from_json_malformed_is_schema_error(tmp_path, blob):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(SchemaError):
        EventReport.from_json(path)


def test_from_json_accepts_equal_neighbouring_beats(tmp_path):
    path = tmp_path / "report.json"
    EventReport(beats=[1.0, 1.0, 2.0], markings=["p", "p", "f"]).write_json(path)
    assert EventReport.from_json(path).beats == [1.0, 1.0, 2.0]


VALID_REPORT = json.dumps({"beats": [0.5, 1.0, 1.5], "downbeats": [0.5],
                           "markings": ["p", "p", "f"], "change_points": [1.5]}).encode()
JSON_BYTES = st.sampled_from(list(b'[]{}",:0123456789.-eEnul ')) | st.integers(0, 255)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                          st.integers(0, len(VALID_REPORT) - 1), JSON_BYTES),
                min_size=1, max_size=4),
       st.integers(1, len(VALID_REPORT)))
def test_from_json_byte_mutation_fuzz(tmp_path_factory, edits, keep):
    path = tmp_path_factory.mktemp("fuzz") / "report.json"
    path.write_bytes(mutate_bytes(VALID_REPORT, edits, keep))
    try:
        report = EventReport.from_json(path)
    except DynamarkError:
        return
    assert len(report.markings) == len(report.beats)


def _metrical_track(seed, t=1500, off_beat_downbeat=False):
    """Probability tracks of a steady meter: beat peaks every 20-34 frames,
    downbeat peaks on every fourth beat give or take 2 frames, a few
    change-point peaks anywhere, over noise below the thresholds."""
    rng = np.random.default_rng(seed)
    period = int(rng.integers(20, 35))
    beats = np.arange(int(rng.integers(0, period)), t, period)
    probs = {task: rng.uniform(0.0, 0.3, t) for task in ("beat", "downbeat", "change_point")}
    probs["beat"][beats] = rng.uniform(0.6, 1.0, beats.size)
    downbeats = beats[::4] + rng.integers(-2, 3, beats[::4].size)
    if off_beat_downbeat:  # halfway between two beats
        downbeats = np.append(downbeats, beats[5] + period // 2)
    probs["downbeat"][np.clip(downbeats, 0, t - 1)] = rng.uniform(0.6, 1.0, downbeats.size)
    probs["change_point"][rng.integers(0, t, 5)] = 0.9
    probs["dynamics"] = rng.dirichlet(np.ones(6), t)
    return probs


def test_every_downbeat_and_change_point_is_a_reported_beat():
    for probs in [_metrical_track(seed) for seed in range(3)] + [_metrical_track(3, off_beat_downbeat=True)]:
        report = build_event_report(probs)
        assert set(report.change_points) <= set(report.beats)
        assert set(report.downbeats) <= set(report.beats), sorted(set(report.downbeats) - set(report.beats))
