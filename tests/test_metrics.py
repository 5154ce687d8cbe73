"""Metric conventions and the exhaustive-matching oracle."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynamark.errors import SchemaError
from dynamark.metrics import (
    DYNAMIC_CLASSES,
    F1Result,
    changepoint_f1,
    dynamics_macro_f1,
    event_f1,
    mean_std,
    score_recording,
)
from dynamark.postprocess import EventReport


def exhaustive_matching(pred, ref, tol):
    """Try every injective assignment; the true maximum for <= 8 events."""
    pred, ref = list(pred), list(ref)
    if not pred or not ref:
        return 0
    for size in range(min(len(pred), len(ref)), 0, -1):
        for pred_subset in itertools.combinations(range(len(pred)), size):
            for ref_perm in itertools.permutations(range(len(ref)), size):
                if all(abs(pred[i] - ref[j]) <= tol for i, j in zip(pred_subset, ref_perm)):
                    return size
    return 0


def test_event_f1_worked_example():
    res = event_f1([1.05, 2.5, 3.01], [1.0, 2.0, 3.0])
    assert res.tp == 2 and res.fp == 1 and res.fn == 1
    assert abs(res.precision - 2 / 3) < 1e-12
    assert abs(res.recall - 2 / 3) < 1e-12
    assert abs(res.f1 - 2 / 3) < 1e-12


def test_event_f1_perfect():
    assert event_f1([1.0, 2.0], [1.0, 2.0]).f1 == 1.0


def test_event_f1_empty_conventions():
    assert event_f1([], []).f1 == 1.0
    assert event_f1([], [1.0]).f1 == 0.0
    assert event_f1([1.0], []).f1 == 0.0


def test_event_f1_matches_exhaustive_oracle_500_trials():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n_pred = int(rng.integers(0, 9))
        n_ref = int(rng.integers(0, 9))
        pred = np.sort(rng.uniform(0, 3.0, size=n_pred))
        ref = np.sort(rng.uniform(0, 3.0, size=n_ref))
        tol = float(rng.choice([0.05, 0.07, 0.2, 0.5]))
        got = event_f1(pred, ref, tol=tol).tp
        want = exhaustive_matching(pred, ref, tol)
        assert got == want, f"{pred} vs {ref} tol {tol}: {got} != {want}"


def test_event_f1_swap_swaps_precision_recall():
    rng = np.random.default_rng(8)
    for _ in range(50):
        pred = np.sort(rng.uniform(0, 5, size=rng.integers(0, 10)))
        ref = np.sort(rng.uniform(0, 5, size=rng.integers(0, 10)))
        a = event_f1(pred, ref)
        b = event_f1(ref, pred)
        assert a.precision == b.recall and a.recall == b.precision
        assert abs(a.f1 - b.f1) < 1e-12


def test_event_f1_tolerance_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        pred = np.sort(rng.uniform(0, 5, size=6))
        ref = np.sort(rng.uniform(0, 5, size=6))
        f1s = [event_f1(pred, ref, tol=t).f1 for t in (0.01, 0.05, 0.1, 0.5, 1.0)]
        assert all(b >= a - 1e-12 for a, b in zip(f1s, f1s[1:]))


def test_greedy_would_fail_case():
    # optimal matching pairs (0.06, 0.0) and (0.13, 0.12); a naive
    # nearest-first greedy grabbing (0.06 -> 0.12) would score 1
    res = event_f1([0.06, 0.13], [0.0, 0.12], tol=0.07)
    assert res.tp == 2


def test_event_f1_dense_chain():
    # every prediction lies within tol of two references, so an augmenting
    # path search would chain through all 1,500 of them
    pred = 0.1 * np.arange(1500)
    res = event_f1(pred, pred + 0.05)
    assert res.tp == 1500 and res.fp == 0 and res.fn == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=7), st.lists(st.integers(0, 40), max_size=7),
       st.sampled_from([0.01, 0.02, 0.03, 0.07]))
def test_event_f1_on_grid_matches_exhaustive_oracle(pred_steps, ref_steps, tol):
    # events on a 10 ms grid put many pairs exactly at the tolerance edge
    pred = [0.01 * k for k in pred_steps]
    ref = [0.01 * k for k in ref_steps]
    assert event_f1(pred, ref, tol=tol).tp == exhaustive_matching(pred, ref, tol)


def test_dynamics_macro_perfect():
    labels = ["pp", "mf", "ff", "pp"]
    res = dynamics_macro_f1(labels, labels)
    assert res.macro_f1 == 1.0
    assert res.present_classes == ["pp", "mf", "ff"]


def test_dynamics_macro_worked_example():
    ref = ["pp", "f"] * 10
    pred = ["pp"] * 20
    res = dynamics_macro_f1(pred, ref)
    assert abs(res.per_class["pp"].f1 - 2 / 3) < 1e-12
    assert res.per_class["f"].f1 == 0.0
    assert abs(res.macro_f1 - 1 / 3) < 1e-12


def test_dynamics_macro_blank_reference_excluded():
    res = dynamics_macro_f1(["pp", "pp", "f"], ["blank", "blank", "f"])
    assert res.n_beats_evaluated == 1
    assert res.present_classes == ["f"]
    assert res.macro_f1 == 1.0


def test_dynamics_macro_all_blank_is_absent():
    res = dynamics_macro_f1(["pp", "p"], ["blank", "blank"])
    assert res.macro_f1 is None
    assert res.present_classes == []


def test_dynamics_macro_bound():
    rng = np.random.default_rng(10)
    labels = list(DYNAMIC_CLASSES) + ["blank"]
    for _ in range(100):
        n = int(rng.integers(1, 30))
        ref = [labels[i] for i in rng.integers(0, len(labels), size=n)]
        pred = [labels[i] for i in rng.integers(0, len(labels), size=n)]
        res = dynamics_macro_f1(pred, ref)
        if res.macro_f1 is not None:
            best = max(res.per_class[c].f1 for c in res.present_classes)
            assert res.macro_f1 <= best + 1e-12


def test_dynamics_macro_length_mismatch():
    with pytest.raises(SchemaError, match="mismatch"):
        dynamics_macro_f1(["pp"], ["pp", "f"])


def test_dynamics_macro_bad_label():
    with pytest.raises(SchemaError, match="alphabet"):
        dynamics_macro_f1(["sfz"], ["pp"])


def test_changepoint_f1_cases():
    assert changepoint_f1({4, 12}, {4, 12}).f1 == 1.0
    res = changepoint_f1({4}, {4, 12})
    assert res.precision == 1.0 and res.recall == 0.5
    assert abs(res.f1 - 2 / 3) < 1e-12
    assert changepoint_f1(set(), set()).f1 == 1.0
    assert changepoint_f1({1}, set()).f1 == 0.0


event_lists = st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=10).map(sorted)


@settings(max_examples=80, deadline=None)
@given(event_lists, event_lists)
def test_event_f1_symmetry_property(pred, ref):
    a = event_f1(pred, ref)
    b = event_f1(ref, pred)
    assert a.precision == b.recall and a.recall == b.precision


@settings(max_examples=80, deadline=None)
@given(event_lists, event_lists, st.floats(0.01, 0.5), st.floats(0.01, 0.5))
def test_event_f1_tolerance_monotone_property(pred, ref, tol_a, tol_b):
    lo, hi = sorted((tol_a, tol_b))
    assert event_f1(pred, ref, tol=hi).f1 >= event_f1(pred, ref, tol=lo).f1 - 1e-12


def test_f1_from_counts_convention():
    perfect_empty = F1Result.from_counts(0, 0, 0)
    assert perfect_empty.f1 == perfect_empty.precision == perfect_empty.recall == 1.0
    res = F1Result.from_counts(2, 1, 1)
    assert abs(res.f1 - 2 * res.precision * res.recall / (res.precision + res.recall)) < 1e-12


def test_mean_std():
    agg = mean_std([0.5, 0.7])
    assert abs(agg["mean"] - 0.6) < 1e-12
    assert abs(agg["std"] - 0.1) < 1e-12
    assert mean_std([])["mean"] is None
    assert mean_std([None, 0.4])["n"] == 1


def test_score_recording_layout_is_the_eval_report_layout():
    # `eval` writes this dict as it is, so its key order, in `detail`, in
    # `per_class` and in each F1 result, is the report's layout
    pred = EventReport(beats=[0.5, 1.0, 1.5, 2.5], downbeats=[0.5], change_points=[1.52])
    ref = EventReport(beats=[0.5, 1.0, 1.5, 2.0], downbeats=[0.5, 1.5], markings=["p", "p", "f", "f"],
                      change_points=[1.5])
    scores = score_recording(pred, ref, ["p", "f", "f", "f"])
    assert json.dumps(scores) == (
        '{"beat_f1": 0.75, "downbeat_f1": 0.6666666666666666, "dynamics_f1": 0.7333333333333334, '
        '"change_point_f1": 1.0, "detail": {'
        '"beat": {"precision": 0.75, "recall": 0.75, "f1": 0.75, "tp": 3, "fp": 1, "fn": 1}, '
        '"downbeat": {"precision": 1.0, "recall": 0.5, "f1": 0.6666666666666666, "tp": 1, "fp": 0, "fn": 1}, '
        '"dynamics": {"macro_f1": 0.7333333333333334, "per_class": {'
        '"p": {"precision": 1.0, "recall": 0.5, "f1": 0.6666666666666666, "tp": 1, "fp": 0, "fn": 1}, '
        '"f": {"precision": 0.6666666666666666, "recall": 1.0, "f1": 0.8, "tp": 2, "fp": 1, "fn": 0}}, '
        '"present_classes": ["p", "f"], "n_beats_evaluated": 4}, '
        '"change_point": {"precision": 1.0, "recall": 1.0, "f1": 1.0, "tp": 1, "fp": 0, "fn": 0}}}')
