"""Network shapes, gate properties, MMoE semantics, parameter counts."""

import sys
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynamark import autodiff as ad
from dynamark import objectives as obj
from dynamark.audio import wav_features
from dynamark.autodiff import Tensor
from dynamark.dataset import load_annotation, time_to_frame
from dynamark.errors import ConfigError
from dynamark.network import DynamicsModel, ModelConfig, param_count
from dynamark.postprocess import markings_at_beats
from dynamark.trainer import load_checkpoint, model_from_checkpoint, predict_frames

import make_golden
from _synth import write_corpus
from test_autodiff import check_gradients

SMALL = dict(channels=4, blocks_per_branch=1, attention_dim=4)


def small_model(seed=86, **overrides):
    return DynamicsModel(ModelConfig(**{**SMALL, **overrides}), seed=seed)


def rand_features(rng, f=22, t=60):
    return rng.standard_normal((f, t)).astype(np.float32)


def test_encode_shapes_60s_s5():
    model = small_model(scaling_factor=5)
    rng = np.random.default_rng(0)
    latent = model.encode(rand_features(rng, t=3000))
    assert latent.shape == (1, 3000, 8)


def test_branch_lengths_3000_600_120():
    # the padded length divides cleanly through both pooling stages
    t = 3000
    s = 5
    assert t % s == 0 and t // s == 600
    assert (t // s) % s == 0 and t // s ** 2 == 120


def test_encode_s1_all_branches_full_length():
    model = small_model(scaling_factor=1)
    latent = model.encode(rand_features(np.random.default_rng(1), t=47))
    assert latent.shape == (1, 47, 8)


def test_encode_pads_and_crops():
    model = small_model(scaling_factor=5)
    latent = model.encode(rand_features(np.random.default_rng(2), t=7))
    assert latent.shape == (1, 7, 8)


def test_encode_rejects_wrong_bins():
    model = small_model()
    with pytest.raises(ConfigError, match="22"):
        model.encode(np.zeros((21, 40), dtype=np.float32))


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 4000), st.sampled_from([1, 2, 3, 5]))
def test_encode_output_length_matches_input(t, s):
    t = max(t, s * s)
    model = small_model(scaling_factor=s, channels=2, attention_dim=2)
    latent = model.encode(np.zeros((22, t), dtype=np.float32))
    assert latent.shape == (1, t, 8)


def test_gate_rows_sum_to_one():
    model = small_model()
    rng = np.random.default_rng(3)
    _, gates = model.forward(rand_features(rng, t=40), return_gates=True)
    for task, w in gates.items():
        rows = w.data.reshape(-1, 8)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-6)
        assert (rows > 0).all() and (rows < 1).all()


def test_mmoe_uniform_gates_give_expert_mean():
    model = small_model()
    # force all gate logits to zero -> uniform 1/8 weights
    for task in obj.TASKS:
        model.params[f"gate_{task}.w"].data[:] = 0.0
        model.params[f"gate_{task}.b"].data[:] = 0.0
    rng = np.random.default_rng(4)
    latent = model.encode(rand_features(rng, t=30))
    task_features, gates = model.mmoe(latent)
    experts = _expert_outputs(model, latent)
    mean = np.mean(experts, axis=0)
    for task in obj.TASKS:
        np.testing.assert_allclose(gates[task].data, 0.125, atol=1e-6)
        np.testing.assert_allclose(task_features[task].data, mean, atol=1e-5)


def _expert_outputs(model, latent):
    zc = ad.transpose(latent, (0, 2, 1))
    outs = []
    for e in range(8):
        h = ad.conv1d(zc, model.params[f"expert{e}.conv0.w"], model.params[f"expert{e}.conv0.b"])
        h = ad.conv1d(ad.relu(h), model.params[f"expert{e}.conv1.w"], model.params[f"expert{e}.conv1.b"])
        outs.append(ad.transpose(h, (0, 2, 1)).data)
    return np.stack(outs)


def test_mmoe_gradcheck():
    # the stacked experts concat one tensor 8 times and mask it block-diagonal
    model = small_model(seed=3)
    leaves = [t for name, t in model.params.items() if name.startswith(("expert", "gate_"))]
    for t in leaves:
        t.data = t.data.astype(np.float64)
    rng = np.random.default_rng(21)
    latent = Tensor(rng.standard_normal((2, 5, 8)))
    r = rng.standard_normal((2, 5, 2 * 8 * len(obj.TASKS)))

    def f(*_):
        task_features, gates = model.mmoe(latent)
        outputs = [task_features[task] for task in obj.TASKS] + [gates[task] for task in obj.TASKS]
        return ad.tsum(ad.mul_const(ad.concat(outputs, axis=-1), r))

    check_gradients(f, leaves)


def test_mmoe_saturated_gate_selects_expert():
    model = small_model()
    for task in obj.TASKS:
        model.params[f"gate_{task}.w"].data[:] = 0.0
        model.params[f"gate_{task}.b"].data[:] = -30.0
        model.params[f"gate_{task}.b"].data[3] = 30.0
    rng = np.random.default_rng(5)
    latent = model.encode(rand_features(rng, t=25))
    task_features, _ = model.mmoe(latent)
    experts = _expert_outputs(model, latent)
    for task in obj.TASKS:
        np.testing.assert_allclose(task_features[task].data, experts[3], atol=1e-4)


def test_mmoe_identical_experts_ignore_gates():
    model = small_model()
    for e in range(1, 8):
        for layer in ("conv0", "conv1"):
            model.params[f"expert{e}.{layer}.w"].data[:] = model.params[f"expert0.{layer}.w"].data
            model.params[f"expert{e}.{layer}.b"].data[:] = model.params[f"expert0.{layer}.b"].data
    rng = np.random.default_rng(6)
    latent = model.encode(rand_features(rng, t=25))
    task_features, _ = model.mmoe(latent)
    experts = _expert_outputs(model, latent)
    for task in obj.TASKS:
        np.testing.assert_allclose(task_features[task].data, experts[0], atol=1e-5)


def test_mmoe_convexity():
    model = small_model()
    rng = np.random.default_rng(7)
    latent = model.encode(rand_features(rng, t=35))
    task_features, _ = model.mmoe(latent)
    experts = _expert_outputs(model, latent)
    lo, hi = experts.min(axis=0), experts.max(axis=0)
    eps = 1e-5
    for task in obj.TASKS:
        y = task_features[task].data
        assert (y >= lo - eps).all() and (y <= hi + eps).all()


def test_forward_output_shapes():
    model = small_model()
    rng = np.random.default_rng(8)
    logits = model.forward(rand_features(rng, t=120))
    assert list(logits) == list(obj.TASKS)
    assert logits["dynamics"].shape == (1, 120, 6)
    assert logits["change_point"].shape == (1, 120)
    assert logits["beat"].shape == (1, 120)
    assert logits["downbeat"].shape == (1, 120)


def test_forward_without_mmoe_same_shapes_fewer_params():
    cfg_on = ModelConfig(**SMALL, use_mmoe=True)
    cfg_off = ModelConfig(**SMALL, use_mmoe=False)
    assert param_count(cfg_off) < param_count(cfg_on)
    model = DynamicsModel(cfg_off, seed=86)
    logits = model.forward(rand_features(np.random.default_rng(9), t=50))
    assert logits["dynamics"].shape == (1, 50, 6)
    assert logits["beat"].shape == (1, 50)


def test_forward_eval_mode_deterministic_bits():
    model = small_model()
    x = rand_features(np.random.default_rng(10), t=75)
    a = model.forward(x, training=False)
    b = model.forward(x, training=False)
    assert np.array_equal(a["dynamics"].data, b["dynamics"].data)
    assert np.array_equal(a["beat"].data, b["beat"].data)


def test_same_seed_same_init():
    m1 = small_model(seed=123)
    m2 = small_model(seed=123)
    for (n1, t1), (n2, t2) in zip(m1.params.items(), m2.params.items()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)


def test_head_parameter_arithmetic():
    model = small_model()
    head_sizes = {name: t.data.size for name, t in model.params.items() if name.startswith("head_")}
    assert sum(head_sizes.values()) == 6 * 8 + 6 + 3 * (8 + 1)  # 81


def test_param_count_monotone_in_channels():
    base = {**SMALL}
    a = param_count(ModelConfig(**{**base, "channels": 4}))
    b = param_count(ModelConfig(**{**base, "channels": 8}))
    assert b > a


def test_param_count_logmel_exceeds_bssl():
    a = param_count(ModelConfig(input_bins=22))
    b = param_count(ModelConfig(input_bins=128))
    assert b > a


def test_gradient_reaches_every_parameter():
    model = small_model()
    rng = np.random.default_rng(11)
    feats = np.stack([rand_features(rng, t=40), rand_features(rng, t=40)])
    t = 40
    beat = np.zeros((2, t), dtype=np.uint8)
    beat[:, ::10] = 1
    targets = obj.TargetBatch(beat=beat, downbeat=beat.copy(), change_point=beat.copy(),
                              dynamic_class=rng.integers(0, 6, size=(2, t)),
                              valid=np.ones((2, t), dtype=bool))
    logits = model.forward(feats, training=True)
    loss, _ = obj.multitask_loss(logits, targets)
    model.params.zero_grads()
    ad.backward(loss)
    for name, tensor in model.params.items():
        assert tensor.grad is not None and np.any(tensor.grad != 0.0), f"dead parameter {name}"


def test_pending_gradients_share_no_memory(monkeypatch):
    # each array that reaches the pending gradients of a training step is
    # its own: an in-place add into one never changes another
    accum, checked = ad._accum, []

    def checked_accum(grads, node, value):
        accum(grads, node, value)
        if node is not None:
            mine = grads[id(node)]
            assert not any(np.shares_memory(mine, other) for key, other in grads.items() if key != id(node))
            checked.append(node)

    monkeypatch.setattr(ad, "_accum", checked_accum)
    model = small_model()
    rng = np.random.default_rng(11)
    feats = np.stack([rand_features(rng, t=40), rand_features(rng, t=40)])
    beat = np.zeros((2, 40), dtype=np.uint8)
    beat[:, ::10] = 1
    targets = obj.TargetBatch(beat=beat, downbeat=beat.copy(), change_point=beat.copy(),
                              dynamic_class=rng.integers(0, 6, size=(2, 40)),
                              valid=np.ones((2, 40), dtype=bool))
    loss, _ = obj.multitask_loss(model.forward(feats, training=True), targets)
    model.params.zero_grads()
    ad.backward(loss)
    assert len(checked) > 100


def _inside(fn) -> bool:
    """Whether a call of ``fn`` is on the current stack."""
    frame = sys._getframe()
    while frame is not None and frame.f_code is not fn.__code__:
        frame = frame.f_back
    return frame is not None


def test_backward_frees_attention_probabilities_during_the_pass(monkeypatch):
    # each node lets go of its saved arrays once its gradient has run, so
    # attention's (T, T) probability buffer, which the forward kept for the
    # last batch item and the backward refilled for the others, is freed
    # inside backward, while the caller still holds the loss and the logits
    nodes = []
    fused = ad.attention

    def recorded(q, k, v):
        nodes.append(fused(q, k, v))
        return nodes[-1]

    monkeypatch.setattr(ad, "attention", recorded)
    model = small_model()
    rng = np.random.default_rng(13)
    feats = np.stack([rand_features(rng, t=40), rand_features(rng, t=40)])
    beat = np.zeros((2, 40), dtype=np.uint8)
    beat[:, ::10] = 1
    targets = obj.TargetBatch(beat=beat, downbeat=beat.copy(), change_point=beat.copy(),
                              dynamic_class=rng.integers(0, 6, size=(2, 40)),
                              valid=np.ones((2, 40), dtype=bool))
    logits = model.forward(feats, training=True)
    loss, _ = obj.multitask_loss(logits, targets)
    freed = []
    for node in nodes:
        back = node._backward
        saved = dict(zip(back.__code__.co_freevars, (cell.cell_contents for cell in back.__closure__)))
        weakref.finalize(saved["p"], lambda: freed.append(_inside(ad.backward)))
    del back, saved
    assert len(nodes) == 3 and not freed
    ad.backward(loss)
    assert freed == [True] * len(nodes)


def test_forward_frees_the_outputs_no_backward_reads(monkeypatch):
    # a graph node keeps only what its backward reads: the conv2d and add
    # outputs (relu saves a mask) and the batchnorm output (the next conv
    # or linear reads it again through its rebuild) are freed during the
    # forward, before backward runs
    made, freed = Counter(), Counter()

    def recorded(op):
        def call(*args, **kwargs):
            out = op(*args, **kwargs)
            made[op.__name__] += 1
            weakref.finalize(out.data, freed.update, [op.__name__])
            return out
        return call

    for op in (ad.conv2d, ad.add, ad.batchnorm2d):
        monkeypatch.setattr(ad, op.__name__, recorded(op))
    model = small_model(blocks_per_branch=2)
    rng = np.random.default_rng(13)
    feats = np.stack([rand_features(rng, t=40), rand_features(rng, t=40)])
    beat = np.zeros((2, 40), dtype=np.uint8)
    beat[:, ::10] = 1
    targets = obj.TargetBatch(beat=beat, downbeat=beat.copy(), change_point=beat.copy(),
                              dynamic_class=rng.integers(0, 6, size=(2, 40)),
                              valid=np.ones((2, 40), dtype=bool))
    logits = model.forward(feats, training=True)
    monkeypatch.undo()
    loss, _ = obj.multitask_loss(logits, targets)
    assert made == {"conv2d": 9, "add": 11, "batchnorm2d": 7}
    assert freed == made
    model.params.zero_grads()
    ad.backward(loss)
    assert all(np.isfinite(t.grad).all() for _, t in model.params.items())


def test_forward_holds_only_what_backward_reads():
    # bytes held after a training forward, in units of one branch-0 conv
    # output (B x C x F x T float32): about 13 when each node holds only what
    # its backward reads, 31 when every op output lives until backward
    model = small_model(blocks_per_branch=2)
    feats = np.random.default_rng(13).standard_normal((2, 22, 200)).astype(np.float32)
    tracemalloc.start()
    try:
        logits = model.forward(feats, training=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert logits["beat"].shape == (2, 200)
    assert held < 20 * feats.size * SMALL["channels"] * 4


def test_training_step_builds_no_whole_batch_buffer():
    # traced peak of a B=3 training step, in units of one branch-0 conv
    # output (B x C x F x T float32): about 11.5 when conv's im2col buffers
    # and attention's probabilities span one batch item; 13.3 with
    # whole-batch im2col buffers, 15.5 with whole-batch probabilities and
    # 17.2 with both
    model = small_model()
    rng = np.random.default_rng(13)
    bsz, t = 3, 500
    feats = rng.standard_normal((bsz, 22, t)).astype(np.float32)
    beat = np.zeros((bsz, t), dtype=np.uint8)
    beat[:, ::10] = 1
    targets = obj.TargetBatch(beat=beat, downbeat=beat.copy(), change_point=beat.copy(),
                              dynamic_class=rng.integers(0, 6, size=(bsz, t)),
                              valid=np.ones((bsz, t), dtype=bool))
    tracemalloc.start()
    try:
        logits = model.forward(feats, training=True)
        loss, _ = obj.multitask_loss(logits, targets)
        model.params.zero_grads()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12.5 * feats.size * SMALL["channels"] * 4


def _stock_step_memory(bsz, t):
    """Traced bytes that one training step of the stock model (seed 86) on
    random (bsz, 22, t) input holds after its forward, and its peak."""
    model = DynamicsModel(ModelConfig(), seed=86)
    rng = np.random.default_rng(14)
    feats = rng.standard_normal((bsz, 22, t)).astype(np.float32)
    beat = np.zeros((bsz, t), dtype=np.uint8)
    beat[:, ::50] = 1
    targets = obj.TargetBatch(beat=beat, downbeat=beat.copy(), change_point=beat.copy(),
                              dynamic_class=rng.integers(0, 6, size=(bsz, t)),
                              valid=np.ones((bsz, t), dtype=bool))
    model.params.zero_grads()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss, _ = obj.multitask_loss(model.forward(feats, training=True), targets)
        held = tracemalloc.get_traced_memory()[0] - base
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return held, peak


def test_stock_training_step_memory():
    # one stock B=2 x 22 x 3000 training step (seed 86): the graph holds
    # 80 MB after the forward and the step peaks at 86 MB traced, since
    # conv and linear read batchnorm outputs again through their rebuild
    # and conv buffers are bounded.  With padded and transposed copies of
    # the batchnorm outputs and one im2col buffer per item: 108.5 and
    # 131.9 MB.
    held, peak = _stock_step_memory(2, 3000)
    assert held < 90e6 and peak < 100e6, (held / 1e6, peak / 1e6)


def test_stock_training_step_frees_each_batch_sized_temporary_after_its_last_reader():
    # one stock B=2 x 22 x 1000 training step peaks at 6.6 branch-0
    # activations (B x C x F x T float32, 3.5 MB) over attention's (T, T)
    # buffer; 7.6 while a conv's backward built a fresh input gradient
    # beside the residual sum's pending one
    bsz, t = 2, 1000
    _, peak = _stock_step_memory(bsz, t)
    units = (peak - t * t * 4) / (bsz * ModelConfig().channels * 22 * t * 4)
    assert units < 7.0, units


def test_frozen_forward_builds_no_graph():
    model = small_model()
    rng = np.random.default_rng(21)
    model.forward(rand_features(rng, t=80), training=True)  # move the running statistics
    frozen = model.frozen()
    assert frozen.frozen() is frozen and model.params.trainable and not frozen.params.trainable
    state = model.state_dict()
    assert all(np.array_equal(state[name], arr) for name, arr in frozen.state_dict().items())
    logits, gates = frozen.forward(rand_features(rng, t=80), return_gates=True)
    assert all(out._node is None for out in [*logits.values(), *gates.values()])
    # the copy holds its own arrays: training the model leaves it as it was
    model.params["head_beat.b"].data += 1.0
    model.running_stats["input_bn.running_mean"] += 1.0
    assert np.array_equal(frozen.params["head_beat.b"].data, state["head_beat.b"])
    assert np.array_equal(frozen.running_stats["input_bn.running_mean"], state["input_bn.running_mean"])


@pytest.mark.parametrize("widths, limit_mb", [({}, 30.0), (dict(channels=8, blocks_per_branch=1), 15.0)],
                         ids=["stock", "fit_model"])
def test_one_window_eval_forward_peak(widths, limit_mb):
    # one 60 s window through a frozen model: the stock model peaks at
    # 25.4 MB traced (61.7 MB with its graph; 64.1 MB when its block convs
    # built one 47.5 MB im2col buffer), the benchmark's fit model at 8.7 MB
    # (48.0 MB with its graph)
    frozen = DynamicsModel(ModelConfig(**widths), seed=86).frozen()
    feats = rand_features(np.random.default_rng(3), t=3000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frozen.forward(feats, training=False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6, peak / 1e6


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(scaling_factor=0)


def _checkpoint_on_a_clip(tmp_path):
    """The committed checkpoint, frozen, and the bssl features of a 20 s
    synthetic clip (1000 frames, a multiple of s^2 = 25, so a pass over
    the whole clip has no pad of its own)."""
    (rec,) = write_corpus(tmp_path, n_clips=1, seconds=20.0, seed=make_golden.MODEL_SEED)
    features = wav_features(tmp_path / "audio" / f"{rec}.wav", ["bssl"])["bssl"]
    return model_from_checkpoint(load_checkpoint(make_golden.CHECKPOINT)).frozen(), features


@pytest.mark.xfail(strict=True, reason=(
    "padding leaks into valid frames: the encoder's attention, pooling and convolutions read "
    "the zero frames. Committed checkpoint, 20 s synthetic clip, 25 frames of padding: the "
    "valid-frame logits move by up to 10.1 (beat; mean |logit| 8.4), 11.5 (change point), "
    "7.3 (downbeat) and 4.6 (dynamics)"))
def test_padding_leaves_valid_frame_logits_unchanged(tmp_path):
    # a padding-invariant encoder gives the same logits up to float32
    # rounding, well inside 1e-3 of logits whose mean magnitude is 2-8
    model, features = _checkpoint_on_a_clip(tmp_path)
    t = features.shape[1]
    plain = model.forward(features, training=False)
    padded = model.forward(np.pad(features, ((0, 0), (0, 25))), training=False)
    gaps = {task: float(np.abs(padded[task].data[0, :t] - plain[task].data[0, :t]).max())
            for task in obj.TASKS}
    assert max(gaps.values()) <= 1e-3, gaps


@pytest.mark.xfail(strict=True, reason=(
    "the dynamics head was trained on beat frames only, so one or two frames off a beat it reads "
    "another class. Committed checkpoint, 20 s synthetic clip, 33 beats: the marking read 2, 1, "
    "1 and 2 frames before and after each annotated beat equals the one read on it at 21, 24, "
    "24 and 6 % of beats"))
def test_markings_hold_one_and_two_frames_off_the_beat(tmp_path):
    model, features = _checkpoint_on_a_clip(tmp_path)
    (beats,) = (tmp_path / "annotations").glob("*_beats.csv")
    ann = load_annotation(beats, beats.with_name(beats.name.replace("_beats", "_markings")))
    frames = np.array([time_to_frame(t) for t in ann.beat_times])
    frames = frames[(frames >= 2) & (frames < features.shape[1] - 2)]
    dynamics = predict_frames(model, features, window_s=60)["dynamics"]
    on_beat = markings_at_beats(dynamics, frames)
    held = {d: np.mean([a == b for a, b in zip(markings_at_beats(dynamics, frames + d), on_beat)])
            for d in (-2, -1, 1, 2)}
    assert min(held.values()) >= 0.9, held


SHIFT_WINDOW = 950  # frames per window: a multiple of s^2 = 25 that leaves room for d = 25
SHIFT_EDGE = 150  # frames kept clear of each window edge
# Mean |difference| of beat logits allowed: under twice the 25-frame shift's
# 0.28, which attention's changed context gives even a phase-free encoder.
SHIFT_TOLERANCE = 0.5


@pytest.fixture(scope="module")
def beat_logits_by_shift(tmp_path_factory):
    """Beat logits of the committed checkpoint for the window that starts
    d frames into the 20 s clip, for each d tried."""
    model, features = _checkpoint_on_a_clip(tmp_path_factory.mktemp("shift"))
    return {d: model.forward(features[:, d:d + SHIFT_WINDOW], training=False)["beat"].data[0]
            for d in (0, 1, 2, 3, 5, 25)}


def _shift_gap(logits, d):
    """Mean |difference| between the window shifted by d frames and the
    unshifted logits shifted by d, away from the window edges."""
    frames = np.arange(SHIFT_EDGE, SHIFT_WINDOW - SHIFT_EDGE - d)
    return float(np.abs(logits[d][frames] - logits[0][frames + d]).mean())


def test_a_whole_block_shift_moves_the_logits_with_it(beat_logits_by_shift):
    # the control: a shift by s^2 = 25 frames keeps every frame's phase in the pooling grid
    assert _shift_gap(beat_logits_by_shift, 25) <= SHIFT_TOLERANCE


@pytest.mark.xfail(strict=True, reason=(
    "the encoder sees time modulo s^2 = 25 frames: its strided max-pools and kernel = stride "
    "transposed convolutions give each frame phase its own weights. Committed checkpoint, 20 s "
    "synthetic clip, 950-frame windows: mean |delta beat logit| 3.4-3.6 at d = 1-3 frames and "
    "1.06 at d = 5, against 0.28 at d = 25 (mean |logit| 8.5); 60 s windows read 3.5-4.0 "
    "against 0.02-0.03"))
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_beat_logits_shift_with_the_audio(beat_logits_by_shift, d):
    assert _shift_gap(beat_logits_by_shift, d) <= SHIFT_TOLERANCE
