"""Loss function semantics, shift tolerance, and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynamark import autodiff as ad
from dynamark import objectives as obj
from dynamark.autodiff import Tensor
from dynamark.errors import ConfigError, ShapeError

from test_autodiff import check_gradients


def flat_logits(t, low=-8.0):
    return np.full(t, low, dtype=np.float64)


# -- shift_tolerant_wbce -------------------------------------------------------

def test_wbce_perfect_prediction_near_zero():
    target = np.zeros(60, dtype=np.uint8)
    target[[10, 30, 50]] = 1
    logits = np.where(target == 1, 12.0, -12.0).astype(np.float64)
    loss = obj.shift_tolerant_wbce(Tensor(logits), target).item()
    assert loss < 1e-3


def test_wbce_shift_within_tolerance_is_free():
    target = np.zeros(40, dtype=np.uint8)
    target[10] = 1

    def loss_with_peak(at):
        logits = flat_logits(40)
        logits[at] = 9.0
        return obj.shift_tolerant_wbce(Tensor(logits), target, pos_weight=4.0).item()

    base = loss_with_peak(10)
    for d in (0, 1, 2, 3):
        assert abs(loss_with_peak(10 + d) - base) < 1e-6
        assert abs(loss_with_peak(10 - d) - base) < 1e-6
    # any shift beyond the window strictly increases the loss
    for d in (4, 5, 6):
        assert loss_with_peak(10 + d) > base + 1e-6


def test_wbce_shift_five_worse_than_shift_two():
    target = np.zeros(40, dtype=np.uint8)
    target[10] = 1

    def loss_with_peak(at):
        logits = flat_logits(40)
        logits[at] = 9.0
        return obj.shift_tolerant_wbce(Tensor(logits), target).item()

    assert loss_with_peak(15) > loss_with_peak(12) + 1e-9


def test_wbce_all_negative_target_allowed():
    target = np.zeros(30, dtype=np.uint8)
    loss = obj.shift_tolerant_wbce(Tensor(flat_logits(30)), target).item()
    assert 0.0 <= loss < 1e-3


def test_wbce_pos_weight_scales_positive_term():
    target = np.zeros(20, dtype=np.uint8)
    target[10] = 1
    logits = flat_logits(20)
    logits[10] = 0.0  # sigmoid 0.5 at the target
    l1 = obj.shift_tolerant_wbce(Tensor(logits), target, pos_weight=1.0).item()
    l2 = obj.shift_tolerant_wbce(Tensor(logits), target, pos_weight=10.0).item()
    assert l2 > l1


def test_wbce_valid_mask_excludes_padding():
    target = np.zeros(30, dtype=np.uint8)
    valid = np.ones(30, dtype=bool)
    valid[20:] = False
    logits = flat_logits(30)
    logits[25] = 20.0  # an awful prediction inside the padding
    masked = obj.shift_tolerant_wbce(Tensor(logits), target, valid=valid).item()
    clean = obj.shift_tolerant_wbce(Tensor(logits[:20]), target[:20]).item()
    assert abs(masked - clean) < 1e-9


def test_default_pos_weight_clamped():
    target = np.zeros(1000, dtype=np.uint8)
    target[0] = 1
    valid = np.ones(1000, dtype=bool)
    assert obj.default_pos_weight(target, valid) == 100.0
    half = np.zeros(10, dtype=np.uint8)
    half[:7] = 1
    assert obj.default_pos_weight(half, np.ones(10, dtype=bool)) == 1.0


def test_wbce_gradcheck():
    rng = np.random.default_rng(21)
    target = np.zeros(25, dtype=np.uint8)
    target[[6, 18]] = 1
    logits = Tensor(np.asarray(rng.standard_normal(25) * 2, dtype=np.float64), requires_grad=True)
    check_gradients(lambda l: obj.shift_tolerant_wbce(l, target, pos_weight=3.0), [logits])


def _loop_wbce(logits, target, tolerance, valid):
    """The per-positive loop that the vectorised loss replaced, as its reference."""
    b, t = target.shape
    pos_flat, excluded = [], np.zeros((b, t), dtype=bool)
    for i in range(b):
        for c in np.nonzero(target[i] & valid[i])[0]:
            lo, hi = max(0, c - tolerance), min(t, c + tolerance + 1)
            idx = np.arange(lo, hi)[valid[i, lo:hi]]
            pos_flat.append(i * t + idx[np.argmax(logits.data[i, idx])])
            excluded[i, lo:hi] = True
    neg_flat = np.nonzero((valid & ~target & ~excluded).reshape(-1))[0]
    terms = []
    if pos_flat:
        pos_weight = obj.default_pos_weight(target, valid)
        terms.append(ad.scale(ad.tsum(ad.softplus(ad.neg(ad.take(logits, pos_flat)))), pos_weight))
    if neg_flat.size:
        terms.append(ad.tsum(ad.softplus(ad.take(logits, neg_flat))))
    if not terms:
        return Tensor(np.zeros((), dtype=logits.data.dtype))
    total = terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])
    return ad.scale(total, 1.0 / (len(pos_flat) + neg_flat.size))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 40), st.integers(0, 4), st.data())
def test_wbce_matches_loop_reference_bit_for_bit(b, t, tolerance, data):
    # few distinct logit values, so windows hold ties; invalid frames anywhere
    frames = lambda elements: np.array(data.draw(st.lists(elements, min_size=b * t, max_size=b * t))).reshape(b, t)
    values = frames(st.integers(-3, 3)).astype(np.float32)
    target = frames(st.booleans())
    valid = frames(st.sampled_from([True, True, True, False]))
    results = []
    for loss_fn in (lambda x: obj.shift_tolerant_wbce(x, target, tolerance, valid=valid),
                    lambda x: _loop_wbce(x, target, tolerance, valid)):
        x = Tensor(values, requires_grad=True)
        loss = loss_fn(x)
        ad.backward(loss)
        results.append((loss.item(), x.grad))
    (got, got_grad), (want, want_grad) = results
    assert got == want
    assert (got_grad is None) == (want_grad is None)
    assert got_grad is None or np.array_equal(got_grad, want_grad)


# -- masked_ce ------------------------------------------------------------------

def test_masked_ce_correct_one_hot():
    t = 12
    classes = np.array([0, 0, 2, 2, 2, 5, 5, 1, 1, 3, 3, 4])
    mask = np.zeros(t, dtype=np.uint8)
    mask[[2, 5, 9]] = 1
    logits = np.full((t, 6), -10.0)
    logits[np.arange(t), classes] = 10.0
    loss = obj.masked_ce(Tensor(logits), classes, mask).item()
    assert loss < 1e-3


def test_masked_ce_empty_mask_is_zero():
    logits = Tensor(np.random.default_rng(0).standard_normal((8, 6)))
    classes = np.zeros(8, dtype=np.int64)
    assert obj.masked_ce(logits, classes, np.zeros(8, dtype=np.uint8)).item() == 0.0


@pytest.mark.parametrize("k", [1, 3, 8])
def test_masked_ce_uniform_logits_is_log6(k):
    t = 20
    classes = np.random.default_rng(k).integers(0, 6, size=t)
    mask = np.zeros(t, dtype=np.uint8)
    mask[:k] = 1
    loss = obj.masked_ce(Tensor(np.zeros((t, 6))), classes, mask).item()
    assert abs(loss - np.log(6.0)) < 1e-6


def test_masked_ce_rejects_bad_class():
    classes = np.array([0, 7, 1])
    with pytest.raises(ShapeError, match="class id"):
        obj.masked_ce(Tensor(np.zeros((3, 6))), classes, np.ones(3, dtype=np.uint8))


def test_masked_ce_locality():
    rng = np.random.default_rng(3)
    logits = np.asarray(rng.standard_normal((10, 6)), dtype=np.float64)
    classes = rng.integers(0, 6, size=10)
    mask = np.zeros(10, dtype=np.uint8)
    mask[[1, 4]] = 1
    base = obj.masked_ce(Tensor(logits), classes, mask).item()
    perturbed = logits.copy()
    perturbed[7] += 100.0  # unmasked frame
    after = obj.masked_ce(Tensor(perturbed), classes, mask).item()
    assert base == after


def test_masked_ce_gradcheck():
    rng = np.random.default_rng(17)
    logits = Tensor(np.asarray(rng.standard_normal((9, 6)), dtype=np.float64), requires_grad=True)
    classes = rng.integers(0, 6, size=9)
    mask = np.zeros(9, dtype=np.uint8)
    mask[[0, 3, 8]] = 1
    check_gradients(lambda l: obj.masked_ce(l, classes, mask), [logits])


# -- multitask_loss ---------------------------------------------------------------

def _toy_batch(rng, b=2, t=30):
    beat = np.zeros((b, t), dtype=np.uint8)
    beat[:, ::10] = 1
    downbeat = np.zeros_like(beat)
    downbeat[:, ::20] = 1
    cpt = np.zeros_like(beat)
    cpt[:, 10] = 1
    classes = np.zeros((b, t), dtype=np.int64)
    classes[:, 15:] = 3
    targets = obj.TargetBatch(beat=beat, downbeat=downbeat, change_point=cpt,
                              dynamic_class=classes, valid=np.ones((b, t), dtype=bool))
    logits = {task: Tensor(rng.standard_normal((b, t, 6) if task == "dynamics" else (b, t)))
              for task in obj.TASKS}
    return logits, targets


def test_multitask_total_is_sum_of_terms():
    logits, targets = _toy_batch(np.random.default_rng(5))
    total, report = obj.multitask_loss(logits, targets)
    terms = [getattr(report, task) for task in obj.TASKS]
    assert abs(report.total - sum(terms)) < 1e-6
    assert min(terms) >= 0.0
    assert abs(total.item() - report.total) < 1e-9


def test_multitask_perfect_fit_near_zero():
    b, t = 1, 40
    beat = np.zeros((b, t), dtype=np.uint8)
    beat[:, ::8] = 1
    classes = np.full((b, t), 2, dtype=np.int64)
    targets = obj.TargetBatch(beat=beat, downbeat=beat.copy(), change_point=beat.copy(),
                              dynamic_class=classes, valid=np.ones((b, t), dtype=bool))
    strong = np.where(beat == 1, 14.0, -14.0).astype(np.float64)
    dyn = np.full((b, t, 6), -14.0)
    dyn[:, :, 2] = 14.0
    logits = {"dynamics": Tensor(dyn), "change_point": Tensor(strong),
              "beat": Tensor(strong), "downbeat": Tensor(strong)}
    _, report = obj.multitask_loss(logits, targets)
    assert report.total < 4e-3


def test_multitask_rejects_logits_not_keyed_by_tasks():
    # a typed error, not an assert: ``python -O`` strips asserts
    logits, targets = _toy_batch(np.random.default_rng(7))
    for wrong in ({k: v for k, v in logits.items() if k != "beat"},
                  {**logits, "onset": logits["beat"]},
                  (logits, {})):  # forward(..., return_gates=True) passed whole
        with pytest.raises(ConfigError, match="keyed by dynamics, change_point, beat, downbeat"):
            obj.multitask_loss(wrong, targets)
