"""Tensor engine semantics and finite-difference gradient checks.

The oracle is central finite differences (step 1e-3) evaluated on the
float64 shadow path of the same ops; analytic gradients must agree to
relative error < 1e-3.
"""

import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import convolve, correlate

from dynamark import autodiff as ad
from dynamark.autodiff import Tensor
from dynamark.errors import GraphReleasedError, ShapeError

FD_STEP = 1e-3
RTOL = 1e-3
ATOL = 1e-5


def fd_gradient(f, leaves, index):
    """Central finite differences of scalar f w.r.t. leaves[index].data."""
    leaf = leaves[index]
    base = leaf.data
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        hi = f(*leaves).item()
        flat[i] = orig - FD_STEP
        lo = f(*leaves).item()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * FD_STEP)
    return grad


def check_gradients(f, leaves):
    """Compare analytic grads of scalar f against the FD oracle."""
    out = f(*leaves)
    for leaf in leaves:
        leaf.zero_grad()
    ad.backward(out)
    for i, leaf in enumerate(leaves):
        want = fd_gradient(f, leaves, i)
        got = leaf.grad
        err = np.abs(got - want)
        tol = RTOL * np.maximum(np.abs(got), np.abs(want)) + ATOL
        assert np.all(err <= tol), f"leaf {i}: max err {err.max()} vs tol {tol.flat[err.argmax()]}"


def rand_leaf(rng, shape, separate=False):
    """Random float64 leaf; `separate` spaces values to keep argmaxes stable."""
    data = rng.standard_normal(shape)
    if separate:
        flat = data.reshape(-1)
        order = np.argsort(flat)
        flat[order] = np.linspace(-1.0, 1.0, flat.size)
        data = rng.permutation(flat).reshape(shape)
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def stats(channels, dtype=np.float64):
    """Fresh batchnorm running statistics: means at 0, variances at 1."""
    return np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype)


def zero_bias(n, dtype=np.float64):
    return Tensor(np.zeros(n, dtype=dtype))


def scalarize(rng, t):
    w = Tensor(np.asarray(rng.standard_normal(t.shape), dtype=np.float64))
    return ad.tsum(ad.mul(t, w)), w


# one builder per layer kind: returns (f, leaves) with f scalar-valued
def _case_conv1d(rng):
    x = rand_leaf(rng, (2, 3, 7))
    w = rand_leaf(rng, (4, 3, 3))
    b = rand_leaf(rng, (4,))
    r = np.asarray(rng.standard_normal((2, 4, 7)), dtype=np.float64)
    return lambda x, w, b: ad.tsum(ad.mul_const(ad.conv1d(x, w, b), r)), [x, w, b]


def _case_conv2d(rng):
    x = rand_leaf(rng, (2, 2, 4, 5))
    w = rand_leaf(rng, (3, 2, 3, 3))
    b = rand_leaf(rng, (3,))
    r = np.asarray(rng.standard_normal((2, 3, 4, 5)), dtype=np.float64)
    return lambda x, w, b: ad.tsum(ad.mul_const(ad.conv2d(x, w, b), r)), [x, w, b]


def _case_conv_transpose1d(rng):
    x = rand_leaf(rng, (2, 3, 4))
    w = rand_leaf(rng, (3, 2, 5))
    b = rand_leaf(rng, (2,))
    r = np.asarray(rng.standard_normal((2, 2, 20)), dtype=np.float64)
    return lambda x, w, b: ad.tsum(ad.mul_const(ad.conv_transpose1d(x, w, b), r)), [x, w, b]


def _case_linear(rng):
    x = rand_leaf(rng, (3, 5, 4))
    w = rand_leaf(rng, (6, 4))
    b = rand_leaf(rng, (6,))
    r = np.asarray(rng.standard_normal((3, 5, 6)), dtype=np.float64)
    return lambda x, w, b: ad.tsum(ad.mul_const(ad.linear(x, w, b), r)), [x, w, b]


def _case_relu(rng):
    x = rand_leaf(rng, (4, 9), separate=True)
    r = np.asarray(rng.standard_normal((4, 9)), dtype=np.float64)
    return lambda x: ad.tsum(ad.mul_const(ad.relu(x), r)), [x]


def _case_softmax(rng):
    x = rand_leaf(rng, (3, 6))
    r = np.asarray(rng.standard_normal((3, 6)), dtype=np.float64)
    return lambda x: ad.tsum(ad.mul_const(ad.softmax(x), r)), [x]


def _case_batchnorm2d(rng):
    x = rand_leaf(rng, (3, 2, 4, 5))
    g = rand_leaf(rng, (2,))
    b = rand_leaf(rng, (2,))
    r = np.asarray(rng.standard_normal((3, 2, 4, 5)), dtype=np.float64)
    return lambda x, g, b: ad.tsum(ad.mul_const(ad.batchnorm2d(x, g, b, *stats(2), True), r)), [x, g, b]


def _case_maxpool1d(rng):
    x = rand_leaf(rng, (2, 3, 12), separate=True)
    r = np.asarray(rng.standard_normal((2, 3, 4)), dtype=np.float64)
    return lambda x: ad.tsum(ad.mul_const(ad.maxpool1d(x, 3), r)), [x]


def _case_add(rng):
    a = rand_leaf(rng, (3, 4))
    b = rand_leaf(rng, (4,))  # broadcast
    r = np.asarray(rng.standard_normal((3, 4)), dtype=np.float64)
    return lambda a, b: ad.tsum(ad.mul_const(ad.add(a, b), r)), [a, b]


def _case_concat(rng):
    a = rand_leaf(rng, (2, 3))
    b = rand_leaf(rng, (2, 5))
    r = np.asarray(rng.standard_normal((2, 8)), dtype=np.float64)
    return lambda a, b: ad.tsum(ad.mul_const(ad.concat([a, b], axis=1), r)), [a, b]


def _case_layernorm(rng):
    x = rand_leaf(rng, (3, 4, 6))
    g = rand_leaf(rng, (6,))
    b = rand_leaf(rng, (6,))
    r = np.asarray(rng.standard_normal((3, 4, 6)), dtype=np.float64)
    return lambda x, g, b: ad.tsum(ad.mul_const(ad.layernorm(x, g, b), r)), [x, g, b]


def _case_attention(rng):
    q = rand_leaf(rng, (2, 5, 3))
    k = rand_leaf(rng, (2, 5, 3))
    v = rand_leaf(rng, (2, 5, 3))
    r = np.asarray(rng.standard_normal((2, 5, 3)), dtype=np.float64)
    return lambda q, k, v: ad.tsum(ad.mul_const(ad.attention(q, k, v), r)), [q, k, v]


# keyed by the autodiff function each case checks
GRAD_CASES = {
    "conv1d": _case_conv1d,
    "conv2d": _case_conv2d,
    "conv_transpose1d": _case_conv_transpose1d,
    "linear": _case_linear,
    "relu": _case_relu,
    "softmax": _case_softmax,
    "batchnorm2d": _case_batchnorm2d,
    "maxpool1d": _case_maxpool1d,
    "add": _case_add,
    "concat": _case_concat,
    "layernorm": _case_layernorm,
    "attention": _case_attention,
}
# test ids of the two cases whose keys were once descriptive labels, kept
# so results stay comparable across versions of the suite
CASE_IDS = {"softmax": "softmax-over-last-dim", "attention": "scaled-dot-product-attention"}


# backward paths that one op alone does not take: a conv whose input
# gradient goes into one that is already pending, and a batchnorm of one
# item and of a residual block
def _case_conv2d_beside_residual(rng):
    x = rand_leaf(rng, (2, 2, 4, 5))
    w = rand_leaf(rng, (2, 2, 3, 3))
    b = rand_leaf(rng, (2,))
    r = np.asarray(rng.standard_normal((2, 2, 4, 5)), dtype=np.float64)
    return lambda x, w, b: ad.tsum(ad.mul_const(ad.add(ad.conv2d(x, w, b), x), r)), [x, w, b]


def _case_conv2d_beside_conv2d(rng):
    x = rand_leaf(rng, (2, 2, 4, 5))
    w = rand_leaf(rng, (3, 2, 3, 3))
    p = rand_leaf(rng, (3, 2, 1, 1))
    r = np.asarray(rng.standard_normal((2, 3, 4, 5)), dtype=np.float64)
    zero = zero_bias(3)
    return lambda x, w, p: ad.tsum(ad.mul_const(ad.add(ad.conv2d(x, w, zero), ad.conv2d(x, p, zero)), r)), [x, w, p]


def _case_batchnorm2d_one_item(rng):
    x = rand_leaf(rng, (1, 3, 2, 5))
    g = rand_leaf(rng, (3,))
    b = rand_leaf(rng, (3,))
    r = np.asarray(rng.standard_normal((1, 3, 2, 5)), dtype=np.float64)
    return lambda x, g, b: ad.tsum(ad.mul_const(ad.batchnorm2d(x, g, b, *stats(3), True), r)), [x, g, b]


def _case_residual_block(rng):
    # a network block without its relu: batchnorm(conv(h) + h) of a batchnorm output h
    x = rand_leaf(rng, (2, 2, 3, 4))
    w = rand_leaf(rng, (2, 2, 3, 3))
    g = rand_leaf(rng, (2,))
    ones, zeros = Tensor(np.ones(2)), Tensor(np.zeros(2))
    r = np.asarray(rng.standard_normal((2, 2, 3, 4)), dtype=np.float64)

    def f(x, w, g):
        h = ad.batchnorm2d(x, g, zeros, *stats(2), True)
        return ad.tsum(ad.mul_const(ad.batchnorm2d(ad.add(ad.conv2d(h, w, zeros), h), ones, zeros, *stats(2), True), r))

    return f, [x, w, g]


PATH_CASES = {
    "conv2d-beside-residual": _case_conv2d_beside_residual,
    "conv2d-beside-conv2d": _case_conv2d_beside_conv2d,
    "batchnorm2d-one-item": _case_batchnorm2d_one_item,
    "residual-block": _case_residual_block,
}


@pytest.mark.parametrize("kind", sorted(GRAD_CASES) + sorted(PATH_CASES), ids=lambda kind: CASE_IDS.get(kind, kind))
@pytest.mark.parametrize("seed", range(10))
def test_layer_gradcheck(kind, seed):
    rng = np.random.default_rng(1000 + seed)
    f, leaves = {**GRAD_CASES, **PATH_CASES}[kind](rng)
    check_gradients(f, leaves)


def test_layer_kinds_cover_vocabulary():
    for name in GRAD_CASES:
        fn = getattr(ad, name, None)
        assert callable(fn) and fn.__module__ == ad.__name__, name


# -- semantics ------------------------------------------------------------

def test_conv1d_identity_kernel():
    x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    w = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
    out = ad.conv1d(x, w, zero_bias(1))
    np.testing.assert_allclose(out.data, [[[1.0, 2.0, 3.0]]])


@pytest.mark.parametrize("x_shape, w_shape", [
    ((2, 3, 11), (4, 3, 3)),
    ((2, 3, 11), (4, 3, 5)),
    ((2, 3, 11), (4, 3, 1)),
    ((2, 1, 11), (4, 1, 3)),
    ((2, 2, 6, 7), (3, 2, 3, 3)),
    ((1, 2, 5, 9), (2, 2, 5, 5)),
    ((2, 3, 4, 6), (3, 3, 1, 1)),
    ((2, 1, 5, 7), (3, 1, 3, 3)),
    ((2, 1, 5, 7), (3, 1, 1, 1)),
], ids=["conv1d-k3", "conv1d-k5", "conv1d-k1", "conv1d-cin1", "conv2d-k3", "conv2d-k5",
        "conv2d-k1", "conv2d-cin1", "conv2d-k1-cin1"])
def test_conv_matches_correlate_oracle(x_shape, w_shape):
    # same-padded cross-correlation summed over input channels, plus bias;
    # the input gradient is the same-mode convolution of g with the kernel,
    # summed over output channels, and the weight gradient is the
    # valid-mode correlation of the padded input with g
    rng = np.random.default_rng(17)
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    b = rng.standard_normal(w_shape[0])
    g = rng.standard_normal((x_shape[0], w_shape[0]) + x_shape[2:])
    conv = ad.conv1d if len(x_shape) == 3 else ad.conv2d
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = conv(xt, wt, bt)
    ad.backward(ad.tsum(ad.mul_const(out, g)))
    (bsz, cin), (cout, ks) = x_shape[:2], (w_shape[0], w_shape[2:])
    pad = ((0, 0),) * 2 + tuple((k // 2, k // 2) for k in ks)
    xp = np.pad(x, pad)
    want = np.stack([[sum(correlate(x[n, c], w[o, c], mode="same", method="direct")
                          for c in range(cin)) + b[o]
                      for o in range(cout)] for n in range(bsz)])
    want_gx = np.stack([[sum(convolve(g[n, o], w[o, c], mode="same", method="direct")
                             for o in range(cout))
                         for c in range(cin)] for n in range(bsz)])
    want_gw = np.stack([[sum(correlate(xp[n, c], g[n, o], mode="valid", method="direct")
                             for n in range(bsz))
                         for c in range(cin)] for o in range(cout)])
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(xt.grad, want_gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(wt.grad, want_gw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bt.grad, g.sum(axis=(0,) + tuple(range(2, g.ndim))), rtol=0, atol=1e-12)


def _channel_last_conv(x, w, b, g):
    """The channel-last im2col kernel that the channel-first one replaced,
    as its reference: returns the output and the x, w and b gradients for
    the upstream gradient ``g``.  Like the kernel it checks, it runs one
    GEMM per batch item, and its weight gradient is the item-ordered sum
    of theirs."""
    (bsz, cin), spatial = x.shape[:2], x.shape[2:]
    (cout, _), ks = w.shape[:2], w.shape[2:]
    n = len(spatial)
    axes = tuple(range(2, 2 + n))
    length = int(np.prod(spatial))
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((k // 2, k // 2) for k in ks))

    def region(offsets):
        return (slice(None), slice(None)) + tuple(slice(o, o + s) for o, s in zip(offsets, spatial))

    win = np.lib.stride_tricks.sliding_window_view(xp, ks, axis=axes)  # (B, C, *S, *K)
    windows = np.ascontiguousarray(np.moveaxis(win, 1, n + 1)).reshape(bsz, length, -1)
    w2 = w.reshape(cout, -1)
    out = np.ascontiguousarray((windows @ w2.T).transpose(0, 2, 1)).reshape(bsz, cout, *spatial)
    out += b.reshape((cout,) + (1,) * n)
    g2 = np.ascontiguousarray(g.reshape(bsz, cout, length).transpose(0, 2, 1))  # (B, prod(S), O)
    gw = g2[0].T @ windows[0]
    for i in range(1, bsz):  # the weight gradient sums one GEMM per item, in item order
        gw += g2[i].T @ windows[i]
    gb = g.sum(axis=(0,) + axes)
    gxp = np.zeros_like(xp)
    for i in range(bsz):
        gcols = (g2[i] @ w2).reshape(*spatial, cin, *ks)
        for tap in np.ndindex(*ks):
            gxp[region(tap)][i] += np.moveaxis(gcols[(Ellipsis,) + tap], -1, 0)
    return out, gxp[region([k // 2 for k in ks])], gw.reshape(w.shape), gb


# The draws leave out three classes, where the two kernels take different
# BLAS paths and may differ in the last bits.  The model runs in float32
# and has no single-output-channel conv; only its one-channel first convs
# in the coarsest branch fall below the GEMM size bound.
# - A single output channel: numpy runs the GEMMs as matrix-vector
#   products, and the two kernels call different ones.
# - GEMMs below 10**6 multiply-adds: OpenBLAS on AVX-512 CPUs then picks a
#   small-matrix kernel by the operands' transposes, and each sums in its
#   own order.  The reference's forward runs one GEMM per batch item, of
#   cout * cin * prod(K) * prod(S) multiply-adds, and every draw sizes
#   that just above the bound.
# - The float64 output and input gradient: the channel-first layout swaps
#   which operand is the GEMM's row side, and the float64 GEMM kernel's
#   summation order depends on that side (float32's does not).  The float64
#   weight and bias gradients keep their operand roles and are checked.
MIN_GEMM_MACS = 10**6


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from([1, 3, 5]), st.integers(1, 24), st.integers(2, 24),
       st.integers(1, 3), st.sampled_from([np.float32, np.float64]), st.data())
def test_conv_matches_channel_last_reference_bit_for_bit(n, k, cin, cout, bsz, dtype, data):
    lead = data.draw(st.integers(1, 12)) if n == 2 else 1
    per_row = cout * cin * k**n * lead
    spatial = (lead,) * (n - 1) + (MIN_GEMM_MACS // per_row + 1 + data.draw(st.integers(0, 40)),)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x, g = (rng.standard_normal(shape).astype(dtype) for shape in ((bsz, cin) + spatial, (bsz, cout) + spatial))
    w = rng.standard_normal((cout, cin) + (k,) * n).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = (ad.conv1d if n == 1 else ad.conv2d)(xt, wt, bt)
    ad.backward(ad.tsum(ad.mul_const(out, g)))
    got = {"out": out.data, "x": xt.grad, "w": wt.grad, "b": bt.grad}
    want = dict(zip(got, _channel_last_conv(x, w, b, g)))
    for name in got if dtype == np.float32 else ("w", "b"):
        assert got[name].dtype == want[name].dtype and np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape, w_shape", [((3, 5, 400), (6, 5, 5)), ((3, 4, 8, 150), (5, 4, 3, 3))],
                         ids=["conv1d", "conv2d"])
def test_conv_batch_equals_its_items_bit_for_bit(x_shape, w_shape, dtype):
    # one im2col buffer and GEMM per item: output and input gradient of a
    # batch are its items' B=1 results, and the weight gradient is the
    # item-ordered sum of theirs
    rng = np.random.default_rng(23)
    x, g = (rng.standard_normal(shape).astype(dtype) for shape in (x_shape, (x_shape[0], w_shape[0]) + x_shape[2:]))
    w = rng.standard_normal(w_shape).astype(dtype)
    b = rng.standard_normal(w_shape[0]).astype(dtype)
    conv = ad.conv1d if len(x_shape) == 3 else ad.conv2d

    def run(xs, gs):
        xt, wt = Tensor(xs, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv(xt, wt, Tensor(b))
        ad.backward(ad.tsum(ad.mul_const(out, gs)))
        return out.data, xt.grad, wt.grad

    out, gx, gw = run(x, g)
    items = [run(x[i:i + 1], g[i:i + 1]) for i in range(len(x))]
    assert np.array_equal(out, np.concatenate([item[0] for item in items]))
    assert np.array_equal(gx, np.concatenate([item[1] for item in items]))
    want = items[0][2].copy()
    for item in items[1:]:
        want += item[2]
    assert np.array_equal(gw, want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 4), st.integers(1, 5), st.integers(1, 9), st.integers(1, 40),
       st.sampled_from(["sum", "conv"]), st.booleans(), st.booleans(), st.sampled_from([np.float32, np.float64]),
       st.integers(0, 2**32 - 1))
def test_conv_adds_into_a_pending_input_gradient_bit_for_bit(n, bsz, cin, lead, width, other, own_first,
                                                             residual, dtype, seed):
    # x feeds a conv and one other consumer, a sum (a residual block) or a
    # second conv (a block with a projection), whose outputs are added with
    # the conv's first or second; ``residual`` adds x to the loss's sum as
    # well, so that a gradient is pending before either conv runs.  The
    # conv adds each item's input gradient into the pending one, so x's
    # gradient must be the gradients each consumer gives alone, summed in
    # the order the backward runs them.
    shape = (bsz, cin) + ((lead,) if n == 2 else ()) + (width,)
    rng = np.random.default_rng(seed)
    x, r = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
    w, w2 = (rng.standard_normal((cin, cin) + (3,) * n).astype(dtype) for _ in range(2))
    conv = ad.conv1d if n == 1 else ad.conv2d

    def loss(xs):
        # xs: what the conv, the other consumer and the loss's sum read
        own = conv(xs[0], Tensor(w, requires_grad=True), zero_bias(cin, dtype))
        mate = xs[1] if other == "sum" else conv(xs[1], Tensor(w2, requires_grad=True), zero_bias(cin, dtype))
        y = ad.add(own, mate) if own_first else ad.add(mate, own)
        return ad.tsum(ad.mul_const(ad.add(y, xs[2]) if residual else y, r))

    one = Tensor(x, requires_grad=True)
    ad.backward(loss([one, one, one]))
    apart = [Tensor(x, requires_grad=True) for _ in range(3)]
    ad.backward(loss(apart))
    # an add's backward leaves its inputs' gradients pending, and then its
    # first input's ops run before its second's
    order = ([2] if residual else []) + ([1, 0] if other == "sum" or not own_first else [0, 1])
    want = apart[order[0]].grad.copy()
    for i in order[1:]:
        want += apart[i].grad
    assert one.grad.dtype == want.dtype and np.array_equal(one.grad, want)


def test_conv_weight_gradient_within_float32_tolerance_of_one_batch_gemm():
    # the per-item sum moves the last bits of a batch's weight gradient
    # against one GEMM over the whole batch's columns, by at most 1e-5 of
    # its largest magnitude (4.9e-6 on the stock B=4 training step)
    rng = np.random.default_rng(29)
    x = rng.standard_normal((4, 6, 12, 300)).astype(np.float32)
    w = rng.standard_normal((8, 6, 3, 3)).astype(np.float32)
    g = rng.standard_normal((4, 8, 12, 300)).astype(np.float32)
    wt = Tensor(w, requires_grad=True)
    ad.backward(ad.tsum(ad.mul_const(ad.conv2d(Tensor(x), wt, zero_bias(8, np.float32)), g)))
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))  # (B, C, H, W, 3, 3)
    cols = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3)).reshape(6 * 9, -1)
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, 8)
    one_gemm = (g2.T @ cols.T).reshape(w.shape)
    assert np.abs(wt.grad - one_gemm).max() <= 1e-5 * np.abs(one_gemm).max()


def _one_buffer_conv(x, w, b, g):
    """The one-buffer kernel that the split one replaced, as its reference:
    per batch item one im2col buffer over every kernel tap and output
    position, and one GEMM each for the output, the weight gradient and
    the column gradient.  Returns the output and the x, w and b gradients
    for the upstream gradient ``g``."""
    (bsz, cin), spatial = x.shape[:2], x.shape[2:]
    (cout, _), ks = w.shape[:2], w.shape[2:]
    axes = tuple(range(2, 2 + len(spatial)))
    length = int(np.prod(spatial))
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((k // 2, k // 2) for k in ks))

    def region(offsets):
        return (slice(None),) + tuple(slice(o, o + s) for o, s in zip(offsets, spatial))

    w2 = w.reshape(cout, -1)
    buf = np.empty((cin * int(np.prod(ks)), length), dtype=np.result_type(w2, xp))

    def columns(i):
        cols = buf.reshape(cin, *ks, *spatial)
        for tap in np.ndindex(*ks):
            cols[(slice(None),) + tap] = xp[i][region(tap)]
        return buf

    out = np.empty((bsz, cout, *spatial), dtype=buf.dtype)
    for i in range(bsz):
        np.matmul(w2, columns(i), out=out[i].reshape(cout, length))
    out += b.reshape((cout,) + (1,) * len(spatial))
    gxp = np.zeros_like(xp)
    for i in range(bsz):
        g2 = np.ascontiguousarray(g[i].reshape(cout, length).T)
        part = g2.T @ columns(i).T
        if i == 0:
            gw = part
        else:  # the weight gradient sums one GEMM per item, in item order
            gw += part
        gcols = np.matmul(w2.T, g2.T, out=buf).reshape(cin, *ks, *spatial)
        for tap in np.ndindex(*ks):
            gxp[i][region(tap)] += gcols[(slice(None),) + tap]
    gx = gxp[(slice(None),) + region([k // 2 for k in ks])]
    return out, gx, gw.reshape(w.shape), g.sum(axis=(0,) + axes)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from([1, 3, 5]), st.integers(1, 24), st.integers(2, 24),
       st.integers(1, 3), st.sampled_from([np.float32, np.float64]),
       st.sampled_from([2**18, 2**20, ad.CONV_BUFFER_BYTES]), st.booleans(), st.data())
def test_split_conv_keeps_the_one_buffer_bits(n, k, cin, cout, bsz, dtype, split_bytes, near_bound, data):
    # The draws put the unsplit im2col buffer on both sides of the split
    # size, up to 2.5 times it, or one kernel tap's GEMMs at or just under
    # the multiply-add floor.  At the stock split size every piece the byte
    # bound allows is far above the floor; at the smaller ones drawn here
    # only the floor keeps the pieces on OpenBLAS's GEMM path.  A single
    # output channel is left out, as in the channel-last reference's draws.
    size, taps = np.dtype(dtype).itemsize, k ** n
    if near_bound:
        length = ad.MIN_SPLIT_MACS // (cout * cin) - data.draw(st.integers(0, 40))
    else:
        length = int(data.draw(st.floats(0.5, 2.5)) * split_bytes) // (cin * taps * size)
    length = max(1, min(length, int(2.5 * split_bytes) // (cin * taps * size)))
    lead = data.draw(st.integers(1, 22)) if n == 2 else 1
    spatial = (lead,) * (n - 1) + (max(1, length // lead),)
    _assert_conv_keeps_the_one_buffer_bits(spatial, (cout, cin) + (k,) * n, bsz, dtype, split_bytes,
                                           data.draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("x_shape, w_shape, split_bytes", [
    ((1, 20, 22, 3000), (20, 20, 3, 3), ad.CONV_BUFFER_BYTES),  # 6 tiles, and taps one by one
    ((2, 20, 22, 600), (20, 20, 3, 3), ad.CONV_BUFFER_BYTES),  # 2 spans of taps
    ((4, 1, 22, 600), (20, 1, 3, 3), ad.CONV_BUFFER_BYTES),  # a kernel row is 792k multiply-adds
    ((1, 1, 200, 2400), (20, 1, 3, 3), 2**20),  # one tap's weight gradient would be a GEMV
    ((2, 8, 8, 3276), (4, 8, 5, 5), 2**20),  # one tap is 838k multiply-adds
], ids=["stock-block", "stock-branch1", "cin1-row", "cin1-tap", "tap-under-floor"])
def test_split_conv_keeps_the_one_buffer_bits_at_the_edges(x_shape, w_shape, split_bytes):
    _assert_conv_keeps_the_one_buffer_bits(x_shape[2:], w_shape, x_shape[0], np.float32, split_bytes, 5)


def _assert_conv_keeps_the_one_buffer_bits(spatial, w_shape, bsz, dtype, split_bytes, seed):
    rng = np.random.default_rng(seed)
    cout, cin = w_shape[:2]
    x, g = (rng.standard_normal(shape).astype(dtype) for shape in ((bsz, cin) + spatial, (bsz, cout) + spatial))
    w = rng.standard_normal(w_shape).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "CONV_BUFFER_BYTES", split_bytes)
        out = (ad.conv1d if len(spatial) == 1 else ad.conv2d)(xt, wt, bt)
        ad.backward(ad.tsum(ad.mul_const(out, g)))
        got = {"out": out.data, "x": xt.grad, "w": wt.grad, "b": bt.grad}
        want = dict(zip(got, _one_buffer_conv(x, w, b, g)))
    for name in got:
        assert got[name].dtype == want[name].dtype and np.array_equal(got[name], want[name]), name


def _largest_rise(fn) -> int:
    """Run ``fn`` under tracemalloc and return the largest rise of traced
    memory within one line of Python, which is at least the size of any
    one array allocated on that line (numpy reports its buffers)."""
    largest, start = 0, 0

    def trace(frame, event, arg):
        nonlocal largest, start
        current, peak = tracemalloc.get_traced_memory()
        largest = max(largest, peak - start)
        tracemalloc.reset_peak()
        start = current
        return trace

    tracemalloc.start()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return largest


def test_conv_allocates_no_array_above_the_split_size():
    # one stock block conv, forward and backward, on one 60 s item: the
    # forward's 47.5 MB im2col buffer is tiled and the backward's split by
    # tap, and the padded input and its gradient span one item (5.8 MB).
    # With one buffer per item the largest rise reads 47.5 MB.
    rng = np.random.default_rng(12)
    x, w, b = (Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
               for shape in ((1, 20, 22, 3000), (20, 20, 3, 3), (20,)))
    r = rng.standard_normal((1, 20, 22, 3000)).astype(np.float32)
    largest = _largest_rise(lambda: ad.backward(ad.tsum(ad.mul_const(ad.conv2d(x, w, b), r))))
    assert 0 < largest <= ad.CONV_BUFFER_BYTES, largest / 1e6
    assert x.grad.shape == x.shape and np.isfinite(w.grad).all()


def _composed_attention(q, k, v):
    """The five-node attention that the fused node replaced, as its
    reference: q @ k^T, scaled by 1/sqrt(D), softmax, then @ v."""
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(q.shape[-1]))
    return ad.matmul(ad.softmax(scores), v)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 500), st.integers(1, 9), st.integers(1, 9),
       st.sampled_from([np.float32, np.float64]),
       st.lists(st.booleans(), min_size=3, max_size=3), st.integers(0, 2**32 - 1))
# float32 rows in 7 spans, where MIN_SPLIT_MACS sets the span size, and in
# 16, where ATTENTION_SPAN_BYTES does; the score gradient in 32 pieces
@example(2, 1000, 8, 8, np.float32, [True, True, True], 0)
@example(1, 1000, 8, 64, np.float32, [True, True, True], 0)
# the backward overwrites the probabilities with the score gradient once
# v's gradient is taken: only v, only q and k, only k, all three; and no
# input needing a gradient, which holds no (T, T) buffer
@example(2, 1000, 8, 8, np.float32, [False, False, True], 0)
@example(2, 500, 8, 8, np.float64, [False, False, True], 0)
@example(2, 1000, 8, 8, np.float32, [True, True, False], 0)
@example(2, 500, 8, 8, np.float64, [True, True, False], 0)
@example(1, 500, 1, 8, np.float64, [False, True, False], 0)
@example(2, 500, 8, 8, np.float64, [True, True, True], 0)
@example(2, 1000, 8, 8, np.float32, [False, False, False], 0)
def test_attention_matches_composed_reference_bit_for_bit(bsz, t, d, dv, dtype, needs, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((bsz, t, width)).astype(dtype) for width in (d, d, dv)]
    g = rng.standard_normal((bsz, t, dv)).astype(dtype)
    results = []
    for attend in (ad.attention, _composed_attention):
        leaves = [Tensor(a, requires_grad=need) for a, need in zip(arrays, needs)]
        out = attend(*leaves)
        if any(needs):
            ad.backward(ad.tsum(ad.mul_const(out, g)))
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for name, got, want in zip(("out", "q", "k", "v"), *results):
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("needs", [needs for needs in np.ndindex(2, 2, 2) if any(needs)],
                         ids=lambda needs: "".join(name for name, need in zip("qkv", needs) if need))
def test_attention_batch_equals_its_items_bit_for_bit(needs, dtype):
    # the backward refills its one probability buffer for every item but the
    # last: the recomputed probabilities must equal the forward's, so a
    # batch's output and gradients equal its items' B=1 runs.  In float32
    # the rows make 2 spans, and the score gradient 12 pieces
    rng = np.random.default_rng(31)
    t = 601
    arrays = [rng.standard_normal((3, length, width)).astype(dtype)
              for length, width in ((t, 8), (t + 7, 8), (t + 7, 6))]
    g = rng.standard_normal((3, t, 6)).astype(dtype)

    def run(sl):
        leaves = [Tensor(a[sl], requires_grad=bool(need)) for a, need in zip(arrays, needs)]
        out = ad.attention(*leaves)
        ad.backward(ad.tsum(ad.mul_const(out, g[sl])))
        return [out.data] + [leaf.grad for leaf in leaves]

    batch = run(slice(None))
    items = [run(slice(i, i + 1)) for i in range(3)]
    for name, got, *want in zip(("out", "q", "k", "v"), batch, *items):
        if got is None:
            assert all(w is None for w in want), name
        else:
            assert np.array_equal(got, np.concatenate(want)), name


def test_attention_holds_one_score_buffer():
    # after the forward only the last item's probabilities are held (one
    # T*T buffer, whatever the batch size); the backward refills it for
    # the other items and turns it into the score gradient in place,
    # one span of rows at a time.  At B=1 the composed reference reads 3.0
    # and 6.0, and a second T*T buffer for the score gradient reads 2.1;
    # at B=3 a buffer per item reads 3.0 and 3.4.
    t = 1000
    buffer = t * t * 4
    rng = np.random.default_rng(0)
    for bsz in (1, 3):
        q, k, v = (Tensor(rng.standard_normal((bsz, t, 8)).astype(np.float32), requires_grad=True)
                   for _ in range(3))
        r = rng.standard_normal((bsz, t, 8)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.attention(q, k, v)
            held = tracemalloc.get_traced_memory()[0] - base
            ad.backward(ad.tsum(ad.mul_const(out, r)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * buffer, (bsz, held / buffer)
        assert peak <= 1.25 * buffer, (bsz, peak / buffer)


def _attention_spans(t: int, dv: int) -> list[tuple[int, int]]:
    """The spans of float32 rows that attention walks at T = ``t``."""
    return ad._spans(t, 4 * t, ad.ATTENTION_SPAN_BYTES, t * dv, least=2)


def test_graph_free_attention_gives_the_training_paths_bits():
    # with no input needing a gradient the spans share one span-sized buffer
    # of probabilities, so no (T, T) buffer is held, and each span's rows of
    # p @ v are the training path's bits.  T runs to one past the first T
    # whose rows make two spans (472 at D_v = 9, spans of the GEMM floor).
    rng = np.random.default_rng(17)
    two = next(t for t in range(2, 3000) if len(_attention_spans(t, 9)) == 2)
    for bsz in (1, 3):
        for t in [*range(1, two + 2), 120, 600, 1000, 3000]:
            q, k = (rng.standard_normal((bsz, t, 8)).astype(np.float32) for _ in range(2))
            v = rng.standard_normal((bsz, t, 9)).astype(np.float32)
            want = ad.attention(Tensor(q, requires_grad=True), Tensor(k), Tensor(v)).data
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                got = ad.attention(Tensor(q), Tensor(k), Tensor(v))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert got._node is None and got.data.dtype == want.dtype
            assert np.array_equal(got.data, want), (bsz, t)
            # the output, k^T and one span of probabilities, plus 64 KiB of
            # numpy temporaries and Python objects (at most 41 KB measured)
            span = max(hi - lo for lo, hi in _attention_spans(t, 9)) * t * 4
            assert peak <= want.nbytes + k.nbytes + span + 65536, (bsz, t, peak)
            if t == 3000:
                assert span < t * t * 4 / 50


@pytest.mark.parametrize("training", [True, False])
def test_graph_free_batchnorm_gives_the_same_bits(training):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32) * 3 + 1
    gamma, beta = (rng.standard_normal(3).astype(np.float32) for _ in range(2))
    outs = []
    for needs in (True, False):
        mean, var = stats(3, np.float32)
        mean += 0.5
        out = ad.batchnorm2d(Tensor(x), Tensor(gamma, requires_grad=needs), Tensor(beta), mean, var, training)
        assert (out._node is None) is not needs
        outs.append((out.data, mean, var))
    for got, want in zip(*outs):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_rebuild_gives_the_output_bits(training, dtype):
    # whole and per item, and through a reshape or transpose that keeps
    # the batch axis; one that moves it passes no rebuild on
    rng = np.random.default_rng(8)
    x = Tensor((rng.standard_normal((3, 4, 5, 6)) * 3 + 1).astype(dtype), requires_grad=True)
    gamma, beta = (Tensor(rng.standard_normal(4).astype(dtype), requires_grad=True) for _ in range(2))
    mean, var = stats(4, dtype)
    mean += 0.5
    out = ad.batchnorm2d(x, gamma, beta, mean, var, training)
    moved = ad.transpose(out, (0, 3, 1, 2))
    for view in (out, moved, ad.reshape(moved, (3, 6, 20)), ad.transpose(out, (0, 2, 1, 3))):
        assert view._rebuild().dtype == view.data.dtype and np.array_equal(view._rebuild(), view.data)
        for i in range(3):
            assert np.array_equal(view._rebuild(i), view.data[i])
    assert ad.transpose(out, (1, 0, 2, 3))._rebuild is None
    assert ad.reshape(out, (6, 2, 5, 6))._rebuild is None


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 7), st.integers(1, 9),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
def test_batchnorm_input_gradient_is_the_composed_formula_bit_for_bit(bsz, c, h, w, dtype, seed):
    # the training backward writes coeff * (g - gm - xhat * gx) one item
    # at a time into the buffer of g * xhat; it must be the whole-batch
    # expression's bits
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((bsz, c, h, w)) * 3 + 1).astype(dtype)
    gamma, beta = (rng.standard_normal(c).astype(dtype) for _ in range(2))
    g = rng.standard_normal(x.shape).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    ad.backward(ad.tsum(ad.mul_const(ad.batchnorm2d(xt, Tensor(gamma, requires_grad=True), Tensor(beta),
                                                    *stats(c, dtype), True), g)))
    axes, eps = (0, 2, 3), 1e-5
    inv = 1.0 / np.sqrt(x.var(axis=axes) + eps)
    xhat = (x - x.mean(axis=axes)[None, :, None, None]) * inv[None, :, None, None]
    gx = (g * xhat).mean(axis=axes)[None, :, None, None]
    gm = g.mean(axis=axes)[None, :, None, None]
    coeff = gamma[:, None, None] * inv[:, None, None]
    want = coeff * (g - gm - xhat * gx)
    assert xt.grad.dtype == want.dtype and np.array_equal(xt.grad, want)


# Paths from a (3, 4, 5, 6) batchnorm output to an op that reads its input
# in the backward: the path, the op and its weight's shape.
REBUILD_CASES = {
    "conv2d": (lambda h: h, ad.conv2d, (5, 4, 3, 3)),
    "conv2d-transposed": (lambda h: ad.transpose(h, (0, 2, 1, 3)), ad.conv2d, (2, 5, 3, 3)),
    "conv1d-reshaped": (lambda h: ad.reshape(h, (3, 4, 30)), ad.conv1d, (2, 4, 5)),
    "linear": (lambda h: h, ad.linear, (7, 6)),
    "linear-transposed-reshaped": (lambda h: ad.reshape(ad.transpose(h, (0, 3, 1, 2)), (3, 6, 20)),
                                   ad.linear, (7, 20)),
}


@pytest.mark.parametrize("case", sorted(REBUILD_CASES))
def test_a_batchnorm_input_gives_a_leafs_gradient_bits(case):
    # the op reads a batchnorm output again through its rebuild, and a
    # leaf's data directly: the output, the weight, bias and input
    # gradients must be the same bits
    path, op, w_shape = REBUILD_CASES[case]
    rng = np.random.default_rng(9)
    x = (rng.standard_normal((3, 4, 5, 6)) * 2 + 1).astype(np.float32)
    gamma, beta = (rng.standard_normal(4).astype(np.float32) for _ in range(2))
    w, b = rng.standard_normal(w_shape).astype(np.float32), rng.standard_normal(w_shape[0]).astype(np.float32)
    h = path(ad.batchnorm2d(Tensor(x), Tensor(gamma, requires_grad=True), Tensor(beta), *stats(4, np.float32), True))
    leaf = Tensor(h.data.copy(), requires_grad=True)
    assert h._rebuild is not None
    arriving = []
    back = h._backward
    h._backward = lambda g, grads: (arriving.append(g.copy()), back(g, grads))
    results = []
    for inp in (h, leaf):
        wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        out = op(inp, wt, bt)
        r = np.random.default_rng(10).standard_normal(out.shape).astype(np.float32)
        ad.backward(ad.tsum(ad.mul_const(out, r)))
        results.append((out.data, wt.grad, bt.grad))
    results[0] += (arriving[0],)
    results[1] += (leaf.grad,)
    for name, got, want in zip(("out", "w", "b", "x"), *results):
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_backward_frees_the_normalised_input():
    # xhat lives in the batchnorm's backward and in the rebuilds that a
    # conv and a linear keep in place of their own copies; once backward
    # has run, nothing holds it
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32), requires_grad=True)
    h = ad.batchnorm2d(x, Tensor(np.ones(3, np.float32), requires_grad=True),
                       Tensor(np.zeros(3, np.float32), requires_grad=True), *stats(3, np.float32), True)
    xhat = next(cell.cell_contents for cell in h._rebuild.__closure__
                if isinstance(cell.cell_contents, np.ndarray) and cell.cell_contents.shape == x.shape)
    freed = weakref.ref(xhat)
    w = Tensor(rng.standard_normal((2, 3, 3, 3)).astype(np.float32), requires_grad=True)
    v = Tensor(rng.standard_normal((4, 12)).astype(np.float32), requires_grad=True)
    flat = ad.reshape(ad.transpose(h, (0, 3, 1, 2)), (2, 5, 12))
    loss = ad.add(ad.tsum(ad.conv2d(h, w, zero_bias(2, np.float32))),
                  ad.tsum(ad.linear(flat, v, zero_bias(4, np.float32))))
    del xhat, h, flat  # as the forward code drops them
    assert freed() is not None
    ad.backward(loss)
    assert freed() is None


@pytest.mark.parametrize("shapes", [
    ((5, 3), (2, 5, 3), (2, 5, 3)),
    ((2, 5, 3), (5, 3), (2, 5, 3)),
    ((2, 5, 3), (2, 5, 3), (5, 3)),
    ((1, 2, 5, 3), (1, 2, 5, 3), (1, 2, 5, 3)),
    ((1, 5, 3), (2, 5, 3), (2, 5, 3)),
    ((2, 5, 3), (2, 5, 3), (3, 5, 3)),
    ((2, 5, 3), (2, 5, 4), (2, 5, 3)),
    ((2, 5, 3), (2, 5, 3), (2, 6, 3)),
], ids=["q-2d", "k-2d", "v-2d", "all-4d", "q-batch", "v-batch", "k-width", "v-length"])
def test_attention_shape_errors(shapes):
    q, k, v = (Tensor(np.zeros(shape)) for shape in shapes)
    with pytest.raises(ShapeError, match="attention"):
        ad.attention(q, k, v)


def test_softmax_of_zeros_is_uniform():
    out = ad.softmax(Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data, np.full(8, 0.125), atol=1e-7)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((17, 8)) * 10)
    y = ad.softmax(x).data
    np.testing.assert_allclose(y.sum(axis=-1), np.ones(17), atol=1e-6)
    assert (y > 0).all()


def test_maxpool_then_transpose_restores_length():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 2, 3000)).astype(np.float32))
    pooled = ad.maxpool1d(x, 5)
    assert pooled.shape == (1, 2, 600)
    w = Tensor(rng.standard_normal((2, 2, 5)).astype(np.float32))
    up = ad.conv_transpose1d(pooled, w, zero_bias(2, np.float32))
    assert up.shape == (1, 2, 3000)


def test_linearity_of_conv_and_linear():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 11)).astype(np.float32)
    w = Tensor(rng.standard_normal((4, 3, 3)).astype(np.float32))
    y1 = ad.conv1d(Tensor(x), w, zero_bias(4, np.float32)).data
    y2 = ad.conv1d(Tensor(2.0 * x), w, zero_bias(4, np.float32)).data
    np.testing.assert_allclose(y2, 2.0 * y1, rtol=1e-5)
    wl = Tensor(rng.standard_normal((5, 11)).astype(np.float32))
    z1 = ad.linear(Tensor(x), wl, zero_bias(5, np.float32)).data
    z2 = ad.linear(Tensor(2.0 * x), wl, zero_bias(5, np.float32)).data
    np.testing.assert_allclose(z2, 2.0 * z1, rtol=1e-5)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(ad.relu(x))


def test_backward_accumulates_and_doubles():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def loss():
        return ad.tsum(ad.matmul(w, x))

    ad.backward(loss())
    once = w.grad.copy()
    ad.backward(loss())
    np.testing.assert_allclose(w.grad, 2 * once)
    # closed form: d(sum(Wx))/dW[i,j] = sum_k x[j,k]
    np.testing.assert_allclose(once, np.tile(x.data.sum(axis=1), (2, 1)))


def test_add_gives_its_inputs_separate_gradients():
    # the add's term comes first, so its backward runs first and leaves
    # both inputs pending; then each input's other consumer adds into that
    # input's gradient in place.  Had the add given both the same array,
    # the other input's gradient (and the leaf's, a view through reshape)
    # would change with it.
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    c = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    u, v = ad.reshape(x, (3, 2)), ad.reshape(x, (3, 2))
    loss = ad.add(ad.add(ad.tsum(ad.add(u, v)), ad.tsum(ad.mul_const(v, c))),
                  ad.tsum(ad.mul_const(u, 10.0 * c)))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 + 11.0 * c.reshape(2, 3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elementwise_ops_give_the_numpy_formulas_bits(dtype):
    # mul's backward writes one input's gradient into its incoming one, and
    # sub, neg and scale are add and mul_const; each output and gradient
    # still has the bits of its numpy formula, signed zeros included
    rng = np.random.default_rng(0)
    a0, b0 = rng.standard_normal((3, 4)).astype(dtype), rng.standard_normal(4).astype(dtype)
    a0[0, :2], b0[:2] = (0.0, -0.0), (-0.0, 0.0)
    r = rng.standard_normal((3, 4)).astype(dtype)  # the gradient each output gets
    r[1, :2] = (0.0, -0.0)

    def run(f, *leaves):
        ts = [Tensor(x.copy(), requires_grad=needs) for x, needs in leaves]
        out = f(*ts)
        ad.backward(ad.tsum(ad.mul_const(out, r)))
        return [out.data] + [t.grad for t, (_, needs) in zip(ts, leaves) if needs]

    def same(got, want):
        assert [x.dtype for x in got] == [dtype] * len(want)
        assert [x.tobytes() for x in got] == [np.asarray(x, dtype).tobytes() for x in want]

    zero = np.zeros_like(a0)  # a leaf's gradient starts at +0
    same(run(ad.mul, (a0, True), (b0, True)), [a0 * b0, zero + r * b0, 0 * b0 + (r * a0).sum(axis=0)])
    same(run(ad.mul, (a0, False), (b0, True)), [a0 * b0, 0 * b0 + (r * a0).sum(axis=0)])
    same(run(ad.mul, (a0, True), (b0, False)), [a0 * b0, zero + r * b0])
    same(run(lambda a: ad.mul(a, a), (a0, True)), [a0 * a0, zero + r * a0 + r * a0])
    same(run(ad.sub, (a0, True), (b0, True)), [a0 - b0, zero + r, 0 * b0 + (-r).sum(axis=0)])
    same(run(ad.neg, (a0, True)), [-a0, zero - r])
    for c in (0.125, 1 / 3, -1.0, 1 / np.sqrt(8), 7.0):
        same(run(lambda a: ad.scale(a, c), (a0, True)), [a0 * dtype(c), zero + r * dtype(c)])


def test_shape_only_backward_holds_one_gradient():
    # tsum's backward builds the one gradient buffer; reshape and a
    # layout-keeping transpose hand views of it on, and the zero-grad leaf
    # adds it in place.  Copying each gradient on arrival reads 2.0 buffers.
    x = Tensor(np.ones((1024, 2048), dtype=np.float32), requires_grad=True)
    x.zero_grad()
    y = ad.reshape(ad.transpose(ad.reshape(x, (1, 1024, 2048)), (1, 0, 2)), (1024, 2048))
    loss = ad.tsum(y)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(x.grad, 1.0)
    assert peak < 1.5 * x.data.nbytes, peak / x.data.nbytes


def test_gradient_flag_is_set_once():
    x = Tensor(np.ones(3), requires_grad=True)
    assert "requires_grad=True" in repr(x)
    assert "requires_grad=False" in repr(ad.relu(Tensor(np.ones(3))))
    with pytest.raises(AttributeError):
        x.requires_grad = False  # the flag is fixed at construction or by ParameterStore.add


def test_second_backward_over_one_graph_raises():
    # the first pass releases the graph and overwrites attention's saved
    # probabilities; a second pass must not read what is left
    rng = np.random.default_rng(4)
    q, k, v = (Tensor(rng.standard_normal((1, 5, 3)), requires_grad=True) for _ in range(3))
    loss = ad.tsum(ad.attention(q, k, v))
    ad.backward(loss)
    with pytest.raises(GraphReleasedError, match="released by an earlier backward pass"):
        ad.backward(loss)
    # two losses sharing one forward: the second reaches released nodes
    out = ad.attention(q, k, v)
    first, second = ad.tsum(out), ad.tsum(ad.mul(out, out))
    ad.backward(first)
    with pytest.raises(GraphReleasedError):
        ad.backward(second)


def test_unreachable_parameter_keeps_zero_grad():
    used = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    unused.zero_grad()
    ad.backward(ad.tsum(used))
    np.testing.assert_array_equal(unused.grad, np.zeros(3))
    np.testing.assert_array_equal(used.grad, np.ones(3))


def test_zero_grads_idempotent():
    store = ad.ParameterStore()
    w = store.add("w", np.ones((2, 3)))
    ad.backward(ad.tsum(w))
    assert w.grad.any()
    store.zero_grads()
    np.testing.assert_array_equal(w.grad, 0.0)
    store.zero_grads()
    np.testing.assert_array_equal(w.grad, 0.0)
    empty = ad.ParameterStore()
    empty.zero_grads()  # no-op


def test_parameter_store_order_and_uniqueness():
    store = ad.ParameterStore()
    store.add("b", np.zeros(2))
    store.add("a", np.zeros(3))
    assert store.names() == ["a", "b"]
    assert store.total_parameters() == 5
    with pytest.raises(ValueError, match="duplicate"):
        store.add("a", np.zeros(1))


def test_shape_errors_name_op_and_shapes():
    x = Tensor(np.zeros((1, 2, 5)))
    w = Tensor(np.zeros((3, 4, 3)))
    with pytest.raises(ShapeError, match="conv1d"):
        ad.conv1d(x, w, zero_bias(3))
    with pytest.raises(ShapeError, match="linear"):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), zero_bias(4))


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((2, 3, 16)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3)).astype(np.float32), requires_grad=True)
        out = ad.conv1d(x, w, zero_bias(4, np.float32))
        loss = ad.tsum(ad.mul(out, out))
        w.zero_grad()
        ad.backward(loss)
        return out.data.copy(), w.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2) and np.array_equal(g1, g2)


def test_batchnorm_running_stats_and_eval_mode():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((8, 3, 4, 4)).astype(np.float32) * 2 + 1)
    gamma = Tensor(np.ones(3, dtype=np.float32))
    beta = Tensor(np.zeros(3, dtype=np.float32))
    mean, var = stats(3, np.float32)
    out = ad.batchnorm2d(x, gamma, beta, mean, var, True)
    np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)
    # running estimates moved toward batch stats with momentum 0.1, in place
    batch_mean = x.data.mean(axis=(0, 2, 3))
    np.testing.assert_allclose(mean, 0.1 * batch_mean, rtol=1e-5)
    # eval mode uses the running estimates, not the batch
    out_eval = ad.batchnorm2d(x, gamma, beta, mean, var, False)
    expect = (x.data - mean[None, :, None, None]) / np.sqrt(var[None, :, None, None] + 1e-5)
    np.testing.assert_allclose(out_eval.data, expect, rtol=1e-5)
