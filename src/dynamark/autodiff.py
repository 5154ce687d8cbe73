"""Dense float tensors with reverse-mode automatic differentiation.

The engine is deliberately small: numpy arrays wrapped in a ``Tensor``
node, a handful of elementwise/reduction primitives, and exactly the
layer vocabulary the dynamics network needs (convolutions, pooling,
normalisation, attention).  Compute dtype is float32; float64 inputs
are preserved end to end so the gradient-check harness can run the
same code path in 64-bit.

Gradients accumulate with ``+=`` into ``Tensor.grad`` of every
reachable ``requires_grad`` tensor; call ``ParameterStore.zero_grads``
(or ``Tensor.zero_grad``) between backward passes.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

Array = np.ndarray


def _coerce(data) -> Array:
    arr = np.asarray(data)
    if arr.dtype == np.float64:
        return np.ascontiguousarray(arr)
    return np.ascontiguousarray(arr, dtype=np.float32)


class Tensor:
    """A numpy array plus autodiff bookkeeping.

    ``data`` is row-major float32 (or float64 on the shadow path),
    ``grad`` is lazily allocated with the same shape and dtype.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_needs")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _coerce(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._needs = self.requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _node(data: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    needs = any(p._needs for p in parents)
    out._needs = needs
    out._parents = parents if needs else ()
    out._backward = backward if needs else None
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accum(grads: dict, t: Tensor, value: Array) -> None:
    if not t._needs:
        return
    key = id(t)
    if key in grads:
        grads[key] += value
    else:
        grads[key] = value.astype(t.data.dtype, copy=True) if value.dtype != t.data.dtype else value.copy()


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, accumulating into ``.grad``."""
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
        if node._backward is not None:
            node._backward(g, grads)


class ParameterStore:
    """Named trainable tensors with deterministic (lexicographic) order."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name!r}")
        t = data if isinstance(data, Tensor) else Tensor(data)
        t.requires_grad = True
        t._needs = True
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self):
        for name in self.names():
            yield name, self._entries[name]

    def zero_grads(self) -> None:
        for _, t in self.items():
            t.zero_grad()

    def total_parameters(self) -> int:
        return sum(t.size for _, t in self.items())


# --------------------------------------------------------------------------
# elementwise / reduction primitives
# --------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def back(g, grads):
        _accum(grads, a, _unbroadcast(g, a.data.shape))
        _accum(grads, b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def back(g, grads):
        _accum(grads, a, _unbroadcast(g, a.data.shape))
        _accum(grads, b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def back(g, grads):
        _accum(grads, a, _unbroadcast(g * b.data, a.data.shape))
        _accum(grads, b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), back)


def scale(x: Tensor, c: float) -> Tensor:
    c = x.data.dtype.type(c)
    data = x.data * c

    def back(g, grads):
        _accum(grads, x, g * c)

    return _node(data, (x,), back)


def mul_const(x: Tensor, c: Array) -> Tensor:
    """Multiply by a constant array (no gradient into ``c``)."""
    c = np.asarray(c, dtype=x.data.dtype)
    data = x.data * c

    def back(g, grads):
        _accum(grads, x, _unbroadcast(g * c, x.data.shape))

    return _node(data, (x,), back)


def neg(x: Tensor) -> Tensor:
    def back(g, grads):
        _accum(grads, x, -g)

    return _node(-x.data, (x,), back)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def back(g, grads):
        if axis is None:
            _accum(grads, x, np.broadcast_to(g, x.data.shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accum(grads, x, np.broadcast_to(ge, x.data.shape).copy())

    return _node(np.asarray(data), (x,), back)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return scale(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def back(g, grads):
        _accum(grads, x, g * (x.data > 0))

    return _node(data, (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    data = sigmoid_np(x.data)

    def back(g, grads):
        _accum(grads, x, g * data * (1 - data))

    return _node(data, (x,), back)


def sigmoid_np(x: Array) -> Array:
    """Overflow-free logistic function of a numpy array (same dtype)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: Tensor) -> Tensor:
    # log(1 + e^x), stable for large |x|
    data = np.maximum(x.data, 0) + np.log1p(np.exp(-np.abs(x.data)))

    def back(g, grads):
        _accum(grads, x, g * sigmoid_np(x.data))

    return _node(data, (x,), back)


def tlog(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def back(g, grads):
        _accum(grads, x, g / x.data)

    return _node(data, (x,), back)


def texp(x: Tensor) -> Tensor:
    data = np.exp(x.data)

    def back(g, grads):
        _accum(grads, x, g * data)

    return _node(data, (x,), back)


def softmax_np(x: Array) -> Array:
    """Max-shifted softmax of a numpy array over its last dimension."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last dimension."""
    data = softmax_np(x.data)

    def back(g, grads):
        dot = (g * data).sum(axis=-1, keepdims=True)
        _accum(grads, x, (g - dot) * data)

    return _node(data, (x,), back)


def log_softmax(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    data = z - lse

    def back(g, grads):
        sm = np.exp(data)
        _accum(grads, x, g - sm * g.sum(axis=-1, keepdims=True))

    return _node(data, (x,), back)


def take(x: Tensor, flat_indices) -> Tensor:
    """Gather entries of the flattened tensor; backward scatter-adds."""
    idx = np.asarray(flat_indices, dtype=np.intp)
    data = x.data.reshape(-1)[idx].copy()

    def back(g, grads):
        gx = np.zeros(x.data.size, dtype=x.data.dtype)
        np.add.at(gx, idx, g.reshape(-1))
        _accum(grads, x, gx.reshape(x.data.shape))

    return _node(data, (x,), back)


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)

    def back(g, grads):
        _accum(grads, x, g.reshape(x.data.shape))

    return _node(data, (x,), back)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = np.ascontiguousarray(x.data.transpose(axes))

    def back(g, grads):
        _accum(grads, x, np.ascontiguousarray(g.transpose(inv)))

    return _node(data, (x,), back)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries along ``axis`` starting at ``start``."""
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = np.ascontiguousarray(x.data[sl])

    def back(g, grads):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        _accum(grads, x, gx)

    return _node(data, (x,), back)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g, grads):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(grads, t, np.ascontiguousarray(g[tuple(sl)]))

    return _node(data, tuple(tensors), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix multiplication with numpy broadcasting semantics."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: expected inner dims to match, got {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def back(g, grads):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        _accum(grads, a, _unbroadcast(ga, a.data.shape))
        _accum(grads, b, _unbroadcast(gb, b.data.shape))

    return _node(data, (a, b), back)


# --------------------------------------------------------------------------
# layers
# --------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w.T + b`` over the last dimension; ``w`` is (out, in)."""
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"linear: expected input dim {w.data.shape[1]}, got {x.data.shape}")
    data = x.data @ w.data.T
    if b is not None:
        data += b.data

    def back(g, grads):
        g2 = g.reshape(-1, g.shape[-1])
        x2 = x.data.reshape(-1, x.data.shape[-1])
        _accum(grads, w, g2.T @ x2)
        if b is not None:
            _accum(grads, b, g2.sum(axis=0))
        _accum(grads, x, (g @ w.data).reshape(x.data.shape))

    parents = (x, w) if b is None else (x, w, b)
    return _node(data, parents, back)


def _conv_same(op: str, x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """Same-size convolution over the trailing axes of ``x`` (B, C, *S)
    with ``w`` (O, C, *K), every K odd: one im2col buffer and one GEMM.

    The buffer is channel-first, (C*prod(K), B*prod(S)): row ``c, tap``
    holds the padded input of channel ``c`` shifted by ``tap``, for every
    batch item and output position.  It is filled by one block copy per
    kernel tap, each of which moves whole rows of the last spatial axis,
    and is rebuilt in the backward rather than held."""
    (bsz, cin), spatial = x.data.shape[:2], x.data.shape[2:]
    (cout, win_c), ks = w.data.shape[:2], w.data.shape[2:]
    if win_c != cin:
        raise ShapeError(f"{op}: expected {win_c} input channels, got {cin}")
    if any(k % 2 != 1 for k in ks):
        raise ShapeError(f"{op}: same padding requires odd kernel, got {ks}")
    n = len(spatial)
    axes = tuple(range(2, 2 + n))
    length = int(np.prod(spatial))
    xp = np.pad(x.data, ((0, 0), (0, 0)) + tuple((k // 2, k // 2) for k in ks))

    def region(offsets) -> tuple:
        # index of the S-sized block of the padded input that starts at ``offsets``
        return (slice(None), slice(None)) + tuple(slice(o, o + s) for o, s in zip(offsets, spatial))

    def columns() -> Array:
        # (B, C, *S+K-1) -> (C*prod(K), B*prod(S)) contiguous im2col buffer
        cols = np.empty((cin, *ks, bsz, *spatial), dtype=xp.dtype)
        for tap in np.ndindex(*ks):
            cols[(slice(None),) + tap] = np.swapaxes(xp[region(tap)], 0, 1)
        return cols.reshape(-1, bsz * length)

    w2 = w.data.reshape(cout, -1)
    data = np.ascontiguousarray(np.swapaxes((w2 @ columns()).reshape(cout, bsz, *spatial), 0, 1))
    if b is not None:
        data += b.data.reshape((cout,) + (1,) * n)

    def back(g, grads):
        g2 = np.ascontiguousarray(g.reshape(bsz, cout, length).transpose(0, 2, 1)).reshape(bsz * length, cout)
        _accum(grads, w, (g2.T @ columns().T).reshape(w.data.shape))
        if b is not None:
            _accum(grads, b, g.sum(axis=(0,) + axes))
        if x._needs:
            gcols = (w2.T @ g2.T).reshape(cin, *ks, bsz, *spatial)
            gxp = np.zeros_like(xp)
            for tap in np.ndindex(*ks):
                gxp[region(tap)] += np.swapaxes(gcols[(slice(None),) + tap], 0, 1)
            _accum(grads, x, gxp[region([k // 2 for k in ks])])

    parents = (x, w) if b is None else (x, w, b)
    return _node(data, parents, back)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Same-length 1D convolution over the last axis.

    ``x`` is (B, C_in, T), ``w`` is (C_out, C_in, K) with odd K.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d: expected x (B,C,T) and w (O,I,K), got {x.data.shape} and {w.data.shape}")
    return _conv_same("conv1d", x, w, b)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Same-size 2D convolution; ``x`` (B,C,H,W), ``w`` (O,I,K,K), odd K."""
    if x.data.ndim != 4 or w.data.ndim != 4 or w.data.shape[2] != w.data.shape[3]:
        raise ShapeError(f"conv2d: expected x (B,C,H,W) and w (O,I,K,K), got {x.data.shape} and {w.data.shape}")
    return _conv_same("conv2d", x, w, b)


def conv_transpose1d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1) -> Tensor:
    """Transposed 1D convolution with kernel size == stride.

    ``x`` is (B, C_in, T), ``w`` is (C_in, C_out, K) with K == stride, so
    the output length is exactly ``T * stride`` (inverse of a stride-K
    max-pool's length change).
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv_transpose1d: expected x (B,C,T) and w (I,O,K), got {x.data.shape} and {w.data.shape}")
    bsz, cin, t = x.data.shape
    win_c, cout, k = w.data.shape
    if win_c != cin:
        raise ShapeError(f"conv_transpose1d: expected {win_c} input channels, got {cin}")
    if k != stride:
        raise ShapeError(f"conv_transpose1d: kernel size {k} must equal stride {stride}")
    x2 = x.data.transpose(0, 2, 1).reshape(bsz * t, cin)
    w2 = w.data.reshape(cin, cout * k)
    y = (x2 @ w2).reshape(bsz, t, cout, k)
    data = np.ascontiguousarray(y.transpose(0, 2, 1, 3)).reshape(bsz, cout, t * k)
    if b is not None:
        data += b.data[None, :, None]

    def back(g, grads):
        g4 = np.ascontiguousarray(g.reshape(bsz, cout, t, k).transpose(0, 2, 1, 3)).reshape(bsz * t, cout * k)
        _accum(grads, w, (x2.T @ g4).reshape(cin, cout, k))
        if b is not None:
            _accum(grads, b, g.sum(axis=(0, 2)))
        if x._needs:
            gx = (g4 @ w2.T).reshape(bsz, t, cin).transpose(0, 2, 1)
            _accum(grads, x, np.ascontiguousarray(gx))

    parents = (x, w) if b is None else (x, w, b)
    return _node(data, parents, back)


def maxpool1d(x: Tensor, stride: int) -> Tensor:
    """Non-overlapping max pooling over the last axis (kernel == stride)."""
    t = x.data.shape[-1]
    if t % stride != 0:
        raise ShapeError(f"maxpool1d: length {t} not divisible by stride {stride}")
    if stride == 1:
        return x
    lead = x.data.shape[:-1]
    xr = x.data.reshape(*lead, t // stride, stride)
    idx = xr.argmax(axis=-1)
    data = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]

    def back(g, grads):
        gr = np.zeros_like(xr)
        np.put_along_axis(gr, idx[..., None], g[..., None], axis=-1)
        _accum(grads, x, gr.reshape(x.data.shape))

    return _node(np.ascontiguousarray(data), (x,), back)


class BatchNormState:
    """Running mean/variance for one batchnorm2d layer."""

    def __init__(self, channels: int, dtype=np.float32):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState | None = None,
                training: bool = True, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Channelwise batch normalisation of a (B, C, H, W) tensor.

    Training mode normalises with batch statistics and, when ``state``
    is given, updates running estimates with the stated momentum; eval
    mode normalises with the running estimates.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm2d: expected (B,C,H,W), got {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"batchnorm2d: expected scale/shift of shape ({c},), got {gamma.data.shape} and {beta.data.shape}")
    axes = (0, 2, 3)
    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        if state is not None:
            n = x.data.size // c
            unbiased = var * (n / max(n - 1, 1))
            state.running_mean *= 1.0 - momentum
            state.running_mean += momentum * mean.astype(state.running_mean.dtype)
            state.running_var *= 1.0 - momentum
            state.running_var += momentum * unbiased.astype(state.running_var.dtype)
    else:
        if state is None:
            raise ShapeError("batchnorm2d: eval mode requires running statistics")
        mean = state.running_mean.astype(x.data.dtype)
        var = state.running_var.astype(x.data.dtype)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None, None]) * inv[None, :, None, None]
    data = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def back(g, grads):
        _accum(grads, gamma, (g * xhat).sum(axis=axes))
        _accum(grads, beta, g.sum(axis=axes))
        if x._needs:
            coeff = (gamma.data * inv)[None, :, None, None]
            if training:
                gm = g.mean(axis=axes)[None, :, None, None]
                gx = (g * xhat).mean(axis=axes)[None, :, None, None]
                _accum(grads, x, coeff * (g - gm - xhat * gx))
            else:
                _accum(grads, x, coeff * g)

    return _node(data, (x, gamma, beta), back)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension."""
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"layernorm: expected scale/shift of shape ({d},), got {gamma.data.shape} and {beta.data.shape}")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    data = gamma.data * xhat + beta.data

    def back(g, grads):
        red = tuple(range(g.ndim - 1))
        _accum(grads, gamma, (g * xhat).sum(axis=red))
        _accum(grads, beta, g.sum(axis=red))
        if x._needs:
            gg = g * gamma.data
            gm = gg.mean(axis=-1, keepdims=True)
            gx = (gg * xhat).mean(axis=-1, keepdims=True)
            _accum(grads, x, inv * (gg - gm - xhat * gx))

    return _node(data, (x, gamma, beta), back)


ROW_BLOCK = 64  # score rows per pass of the attention backward's row sums


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Single-head scaled dot-product attention over the time axis.

    ``q`` and ``k`` are (B, T, D) and ``v`` is (B, T, D_v).  One fused node:
    the forward turns a single (B, T, T) score buffer into the softmax
    probabilities in place, and the backward keeps only those
    probabilities (plus k^T); it takes the row sums of the probabilities'
    gradient ``ROW_BLOCK`` rows at a time.  Each gradient is computed in
    the operand order of ``matmul``, ``scale`` and ``softmax`` applied in
    turn, so outputs and gradients equal that composition bit for bit;
    the tests keep it as the reference.
    """
    shapes = (q.data.shape, k.data.shape, v.data.shape)
    if (any(len(s) != 3 for s in shapes) or len({s[0] for s in shapes}) != 1
            or k.data.shape[2] != q.data.shape[2] or v.data.shape[1] != k.data.shape[1]):
        raise ShapeError(f"attention: expected q/k (B,T,D) and v (B,T,D_v) with one B, "
                         f"got q={q.data.shape}, k={k.data.shape}, v={v.data.shape}")
    kt = np.ascontiguousarray(np.swapaxes(k.data, 1, 2))
    p = q.data @ kt
    c = p.dtype.type(1.0 / np.sqrt(q.data.shape[2]))
    p *= c
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    data = p @ v.data

    def back(g, grads):
        if v._needs:
            _accum(grads, v, np.swapaxes(p, 1, 2) @ g)
        if q._needs or k._needs:
            ds = g @ np.swapaxes(v.data, 1, 2)  # gradient of the probabilities
            for lo in range(0, ds.shape[1], ROW_BLOCK):  # no (B, T, T) temporary
                rows = ds[:, lo:lo + ROW_BLOCK]
                rows -= (rows * p[:, lo:lo + ROW_BLOCK]).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= c  # gradient of the unscaled scores q @ k^T
            _accum(grads, q, ds @ np.swapaxes(kt, 1, 2))
            _accum(grads, k, np.ascontiguousarray(np.swapaxes(np.swapaxes(q.data, 1, 2) @ ds, 1, 2)))

    return _node(data, (q, k, v), back)
