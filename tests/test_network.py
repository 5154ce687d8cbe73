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
from dynamark.errors import ConfigError
from dynamark.network import DynamicsModel, ModelConfig, param_count
from dynamark.trainer import load_checkpoint, model_from_checkpoint

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
    head_sizes = {name: t.size for name, t in model.params.items() if name.startswith("head_")}
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
    # pads its own copy) are freed during the forward, before backward runs
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


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(scaling_factor=0)


@pytest.mark.xfail(strict=True, reason=(
    "padding leaks into valid frames: the encoder's attention, pooling and convolutions read "
    "the zero frames. Committed checkpoint, 20 s synthetic clip, 25 frames of padding: the "
    "valid-frame logits move by up to 10.1 (beat; mean |logit| 8.4), 11.5 (change point), "
    "7.3 (downbeat) and 4.6 (dynamics)"))
def test_padding_leaves_valid_frame_logits_unchanged(tmp_path):
    # 1000 frames, a multiple of s^2 = 25, so the unpadded pass has no pad of its own; a
    # padding-invariant encoder gives the same logits up to float32 rounding, well
    # inside 1e-3 of logits whose mean magnitude is 2-8
    (rec,) = write_corpus(tmp_path, n_clips=1, seconds=20.0, seed=make_golden.MODEL_SEED)
    features = wav_features(tmp_path / "audio" / f"{rec}.wav", ["bssl"])["bssl"]
    model = model_from_checkpoint(load_checkpoint(make_golden.CHECKPOINT))
    t = features.shape[1]
    plain = model.forward(features, training=False)
    padded = model.forward(np.pad(features, ((0, 0), (0, 25))), training=False)
    gaps = {task: float(np.abs(padded[task].data[0, :t] - plain[task].data[0, :t]).max())
            for task in obj.TASKS}
    assert max(gaps.values()) <= 1e-3, gaps
