"""Dense float tensors with reverse-mode automatic differentiation.

The engine is deliberately small: numpy arrays wrapped in a ``Tensor``
node, a handful of elementwise/reduction primitives, and exactly the
layer vocabulary the dynamics network needs (convolutions, pooling,
normalisation, attention).  Compute dtype is float32; float64 inputs
are preserved end to end so the gradient-check harness can run the
same code path in 64-bit.

Gradients accumulate with ``+=`` into ``Tensor.grad`` of every
reachable ``requires_grad`` tensor; call ``ParameterStore.zero_grads``
(or ``Tensor.zero_grad``) between backward passes.  A backward pass
consumes the graph it runs over, so each pass needs its own forward.

A gradient changes hands once.  An op's backward gives ``_accum`` an
array that no other pending gradient shares, and ``_accum`` keeps the
first one that arrives for a node and adds later ones into it in place.
A conv whose input already has a pending gradient (a residual sum's, or
another conv's) takes that sum itself: it adds each batch item's input
gradient into the pending array in place, and builds no batch-sized
input gradient of its own.
Most backwards build a fresh array; ``reshape``, and ``transpose`` or
``concat`` where the layout allows, hand on views of their incoming
gradient (disjoint ones for ``concat``'s inputs), which nothing else
holds once the engine has popped it, and ``mul`` writes its second
input's gradient into that array.  ``add`` is the one op whose two
inputs would get the same array (``_unbroadcast`` returns ``g`` itself
when the shapes match), so when both need a gradient its second input
gets a copy.

A node holds only what its backward reads.  The graph links small
``_Node`` objects, not tensors: each keeps its op's backward closure,
which captures only the arrays that backward reads, and the nodes of
the inputs that need a gradient, never its op's output.  So an output
that no backward reads (a conv output that only feeds a sum, a sum that
feeds a relu saving a boolean mask) is freed as soon as the forward code
drops it.  A batchnorm output is not copied either: a conv or linear
that reads it, directly or through a reshape or transpose, keeps the
output's ``_rebuild`` instead, which recomputes it, whole or one batch
item at a time, with the forward's own ops from the normalised input
that the batchnorm's backward keeps anyway.  Those consumers' backwards
run before the batchnorm's, so the rebuild always finds it.  Conv keeps
each of its buffers within ``CONV_BUFFER_BYTES`` where that keeps the
bits.

An op none of whose inputs needs a gradient links no node at all, so a
forward over tensors that need none (``ParameterStore.frozen``) builds
no graph.  Then ``relu`` keeps no mask, ``batchnorm2d`` normalises in
place and ``attention`` holds no (T, T) buffer, each with the same bits
as the forward that builds a graph.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphReleasedError, ShapeError

Array = np.ndarray


def _coerce(data) -> Array:
    arr = np.asarray(data)
    if arr.dtype == np.float64:
        return np.ascontiguousarray(arr)
    return np.ascontiguousarray(arr, dtype=np.float32)


class Tensor:
    """A numpy array plus autodiff bookkeeping.

    ``data`` is row-major float32 (or float64 on the shadow path),
    ``grad`` is lazily allocated with the same shape and dtype.  The
    output of an op that needs a gradient links to its graph node in
    ``_node``; a leaf that needs one is its own graph node.  A batchnorm
    output that needs a gradient, and a reshape or transpose of one that
    keeps the batch axis, carries ``_rebuild``: ``_rebuild()`` recomputes ``data``
    and ``_rebuild(i)`` its batch item ``i``, bit for bit, from what the
    batchnorm's backward keeps anyway.
    """

    __slots__ = ("data", "grad", "_node", "_needs", "_rebuild")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _coerce(data)
        self.grad: Array | None = None
        self._node: _Node | None = None
        self._needs = bool(requires_grad)
        self._rebuild = None

    # The graph as seen from a tensor: its node's parents and backward
    # closure (empty for a leaf).  ``bench/tracing.py`` wraps the closure
    # of each op's output and walks the parents.
    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, back) -> None:
        self._node._backward = back

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
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self._needs})"


class _Node:
    """One op of the graph: its backward closure and the graph nodes of
    the inputs that need a gradient.  It holds no output array (``data``
    is None), so an op output that no backward reads is freed as soon as
    the forward code drops its ``Tensor``."""

    __slots__ = ("_parents", "_backward")
    data = None

    def __init__(self, parents: tuple, backward):
        self._parents = parents
        self._backward = backward


def _node_of(t: Tensor):
    """The graph node a gradient for ``t`` goes to: its op's node, ``t``
    itself for a leaf that needs a gradient, or None."""
    return t._node or (t if t._needs else None)


def _output(data: Array, parents: tuple, backward) -> Tensor:
    """The ``Tensor`` of an op's output; ``parents`` are the ``_node_of``
    its inputs, and ``backward(g, grads)`` reads only what it captured."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._rebuild = None
    if None in parents:
        parents = tuple(p for p in parents if p is not None)
    out._needs = bool(parents)
    out._node = _Node(parents, backward) if parents else None
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


def _accum(grads: dict, node, value: Array) -> None:
    # ``value`` shares no memory with another pending gradient (see the
    # module docstring), so the first arrival keeps it and later ones add
    if node is None:
        return
    key = id(node)
    if key in grads:
        grads[key] += value
    else:
        grads[key] = value


def _released(g, grads) -> None:
    raise GraphReleasedError("backward: this graph was released by an earlier backward pass; "
                             "run the forward again for a second pass")


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, accumulating into ``.grad``.

    The pass consumes the graph: once a node's backward has run, or the
    node got no gradient, it drops its closure and its parents, so its
    saved arrays are freed as soon as nothing further down needs them.
    A second pass over the same graph raises ``GraphReleasedError``."""
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    root = _node_of(loss)
    if root is None:
        return
    topo: list = []
    visited: set[int] = set()
    stack: list = [(root, False)]
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

    grads: dict[int, Array] = {id(root): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if type(node) is Tensor:  # a leaf
            if g is not None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            continue
        back = node._backward
        node._backward, node._parents = _released, ()
        if g is not None:
            back(g, grads)


class ParameterStore:
    """Named trainable tensors with deterministic (lexicographic) order."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name!r}")
        t = data if isinstance(data, Tensor) else Tensor(data)
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

    def frozen(self) -> "ParameterStore":
        """A store of copies of every tensor, none of which needs a
        gradient; ``trainable`` is False."""
        store = ParameterStore()
        store._entries = {name: Tensor(t.data.copy()) for name, t in self._entries.items()}
        return store

    @property
    def trainable(self) -> bool:
        """Whether every tensor needs a gradient, as :meth:`add` makes it."""
        return all(t._needs for t in self._entries.values())

    def total_parameters(self) -> int:
        return sum(t.size for _, t in self.items())


# --------------------------------------------------------------------------
# elementwise / reduction primitives
# --------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    na, nb, sa, sb = _node_of(a), _node_of(b), a.data.shape, b.data.shape

    def back(g, grads):
        ga, gb = _unbroadcast(g, sa), _unbroadcast(g, sb)
        if gb is ga and na is not None and nb is not None:  # both would get ``g`` itself
            gb = g.copy()
        _accum(grads, na, ga)
        _accum(grads, nb, gb)

    return _output(data, (na, nb), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    da, db = a.data, b.data
    data = da * db
    na, nb = _node_of(a), _node_of(b)

    def back(g, grads):
        if na is not None:
            _accum(grads, na, _unbroadcast(g * db, da.shape))
        if nb is not None:
            g *= da  # ``g`` is this node's own, and nothing reads it after
            _accum(grads, nb, _unbroadcast(g, db.shape))

    return _output(data, (na, nb), back)


def scale(x: Tensor, c: float) -> Tensor:
    return mul_const(x, c)


def mul_const(x: Tensor, c: Array) -> Tensor:
    """Multiply by a constant array (no gradient into ``c``)."""
    c = np.asarray(c, dtype=x.data.dtype)
    data = x.data * c
    nx, shape = _node_of(x), x.data.shape

    def back(g, grads):
        _accum(grads, nx, _unbroadcast(g * c, shape))

    return _output(data, (nx,), back)


def neg(x: Tensor) -> Tensor:
    return mul_const(x, -1.0)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)
    nx, shape = _node_of(x), x.data.shape

    def back(g, grads):
        if axis is None:
            _accum(grads, nx, np.broadcast_to(g, shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accum(grads, nx, np.broadcast_to(ge, shape).copy())

    return _output(np.asarray(data), (nx,), back)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return scale(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)
    nx = _node_of(x)
    mask = None if nx is None else x.data > 0

    def back(g, grads):
        _accum(grads, nx, g * mask)

    return _output(data, (nx,), back)


def sigmoid(x: Tensor) -> Tensor:
    data = sigmoid_np(x.data)
    nx = _node_of(x)

    def back(g, grads):
        _accum(grads, nx, g * data * (1 - data))

    return _output(data, (nx,), back)


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
    xd = x.data
    data = np.maximum(xd, 0) + np.log1p(np.exp(-np.abs(xd)))
    nx = _node_of(x)

    def back(g, grads):
        _accum(grads, nx, g * sigmoid_np(xd))

    return _output(data, (nx,), back)


def tlog(x: Tensor) -> Tensor:
    xd = x.data
    data = np.log(xd)
    nx = _node_of(x)

    def back(g, grads):
        _accum(grads, nx, g / xd)

    return _output(data, (nx,), back)


def texp(x: Tensor) -> Tensor:
    data = np.exp(x.data)
    nx = _node_of(x)

    def back(g, grads):
        _accum(grads, nx, g * data)

    return _output(data, (nx,), back)


def softmax_np(x: Array) -> Array:
    """Max-shifted softmax of a numpy array over its last dimension."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last dimension."""
    data = softmax_np(x.data)
    nx = _node_of(x)

    def back(g, grads):
        dot = (g * data).sum(axis=-1, keepdims=True)
        _accum(grads, nx, (g - dot) * data)

    return _output(data, (nx,), back)


def log_softmax(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    data = z - lse
    nx = _node_of(x)

    def back(g, grads):
        sm = np.exp(data)
        _accum(grads, nx, g - sm * g.sum(axis=-1, keepdims=True))

    return _output(data, (nx,), back)


def take(x: Tensor, flat_indices) -> Tensor:
    """Gather entries of the flattened tensor; backward scatter-adds."""
    idx = np.asarray(flat_indices, dtype=np.intp)
    data = x.data.reshape(-1)[idx]
    nx, size, shape, dtype = _node_of(x), x.data.size, x.data.shape, x.data.dtype

    def back(g, grads):
        gx = np.zeros(size, dtype=dtype)
        np.add.at(gx, idx, g.reshape(-1))
        _accum(grads, nx, gx.reshape(shape))

    return _output(data, (nx,), back)


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)
    nx, xshape = _node_of(x), x.data.shape

    def back(g, grads):
        _accum(grads, nx, g.reshape(xshape))

    out = _output(data, (nx,), back)
    if x._rebuild is not None and data.shape[:1] == xshape[:1]:  # items stay items
        parent, shape = x._rebuild, data.shape
        out._rebuild = lambda i=None: parent().reshape(shape) if i is None else parent(i).reshape(shape[1:])
    return out


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = np.ascontiguousarray(x.data.transpose(axes))
    nx = _node_of(x)

    def back(g, grads):
        _accum(grads, nx, np.ascontiguousarray(g.transpose(inv)))

    out = _output(data, (nx,), back)
    if x._rebuild is not None and axes[0] == 0:  # items stay items
        parent, item_axes, shape, dtype = x._rebuild, [a - 1 for a in axes[1:]], data.shape, data.dtype

        def rebuild(i=None):
            if i is not None:
                return parent(i).transpose(item_axes)
            whole = np.empty(shape, dtype=dtype)  # filled item by item: one item's rebuild at a time
            for j in range(shape[0]):
                whole[j] = parent(j).transpose(item_axes)
            return whole

        out._rebuild = rebuild
    return out


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries along ``axis`` starting at ``start``."""
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = np.ascontiguousarray(x.data[sl])
    nx, shape, dtype = _node_of(x), x.data.shape, x.data.dtype

    def back(g, grads):
        gx = np.zeros(shape, dtype=dtype)
        gx[sl] = g
        _accum(grads, nx, gx)

    return _output(data, (nx,), back)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    nodes = [_node_of(t) for t in tensors]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def back(g, grads):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(grads, node, np.ascontiguousarray(g[tuple(sl)]))

    return _output(data, tuple(nodes), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix multiplication with numpy broadcasting semantics."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: expected inner dims to match, got {a.data.shape} @ {b.data.shape}")
    da, db = a.data, b.data
    data = da @ db
    na, nb = _node_of(a), _node_of(b)

    def back(g, grads):
        ga = g @ np.swapaxes(db, -1, -2)
        gb = np.swapaxes(da, -1, -2) @ g
        _accum(grads, na, _unbroadcast(ga, da.shape))
        _accum(grads, nb, _unbroadcast(gb, db.shape))

    return _output(data, (na, nb), back)


# --------------------------------------------------------------------------
# layers
# --------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w.T + b`` over the last dimension; ``w`` is (out, in)."""
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"linear: expected input dim {w.data.shape[1]}, got {x.data.shape}")
    wd = w.data
    data = x.data @ wd.T
    if b is not None:
        data += b.data
    nx, nw, nb = _node_of(x), _node_of(w), None if b is None else _node_of(b)
    # the weight gradient reads x again: through its rebuild if it has one, so no copy is kept
    rebuild = None if nw is None else x._rebuild
    xd, xshape = None if nw is None or rebuild else x.data, x.data.shape

    def back(g, grads):
        g2 = g.reshape(-1, g.shape[-1])
        if nw is not None:
            _accum(grads, nw, g2.T @ (xd if rebuild is None else rebuild()).reshape(-1, xshape[-1]))
        if nb is not None:
            _accum(grads, nb, g2.sum(axis=0))
        _accum(grads, nx, (g @ wd).reshape(xshape))

    return _output(data, (nx, nw, nb), back)


# Largest im2col buffer that ``_conv_same`` builds where the split rules
# below allow.  The stock block conv's unsplit buffer is 47.5 MB per item;
# its other per-item arrays (padded input and its gradient, one item's
# output gradient) are 5.3-5.8 MB, so a smaller bound would not lower the
# step's peak much and would only add GEMM calls.
CONV_BUFFER_BYTES = 8 << 20
# A GEMM is split only in float32, and only into pieces of more than this
# many multiply-adds with no dimension of 1; each piece then keeps the
# unsplit GEMM's bits at one BLAS thread, which the package sets on import
# (``parallel``).  At or below 10**6, OpenBLAS on AVX-512 CPUs picks a
# small-matrix kernel, and numpy runs a dimension of 1 as a matrix-vector
# product; both sum in another order.  Float64 pieces changed the bits of a
# few elements even at 8 * 10**6 multiply-adds (float64 is the
# gradient-check path, whose buffers are small).
MIN_SPLIT_MACS = 10**6


def _spans(n: int, unit_bytes: int, bound: int, unit_macs: int = 0, least: int = 1) -> list[tuple[int, int]]:
    """Even spans of ``n`` units of a buffer (an im2col buffer's output
    columns or kernel taps, attention's rows), each of at most ``bound``
    bytes where every span can keep at least ``least`` units and, given
    ``unit_macs``, more than ``MIN_SPLIT_MACS`` multiply-adds of its GEMM;
    one unit takes ``unit_bytes`` of the buffer and ``unit_macs`` of the
    GEMM."""
    if unit_macs:
        least = max(least, MIN_SPLIT_MACS // unit_macs + 1)
    count = max(1, min(-(-n // max(1, bound // unit_bytes)), n // least))
    edges = [n * j // count for j in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _conv_same(op: str, x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """Same-size convolution over the trailing axes of ``x`` (B, C, *S)
    with ``w`` (O, C, *K), every K odd, by im2col and GEMM, one batch item
    at a time and with no buffer over ``CONV_BUFFER_BYTES`` where the
    split rules allow.

    An im2col buffer is channel-first: row ``c, tap`` holds one item's
    padded input of channel ``c`` shifted by ``tap``, for every output
    position.  Each item's input is copied into one zero-bordered padded
    buffer.  The forward builds the item's columns one tile of the last
    spatial axis at a time, and each tile's GEMM gives those output
    columns.  The backward keeps no padded copy of the input, and for a
    batchnorm output no copy at all (it calls its ``_rebuild``); it pads
    the input one item at a time.  It builds the columns of one span of
    kernel taps at a time (all of them when they fit), adds that span's
    GEMM to the item's weight gradient, and scatters that span's column
    gradient into the item's padded input gradient, whose centre is the
    item's input gradient.

    A split GEMM gives the unsplit one's bits only while every piece stays
    on its BLAS path (see ``MIN_SPLIT_MACS``), so a tile keeps every output
    channel and kernel tap, and a span of taps every input channel.  Output
    and input gradient equal the item-by-item B=1 results bit for bit; the
    weight gradient is the item-ordered sum of theirs."""
    (bsz, cin), spatial = x.data.shape[:2], x.data.shape[2:]
    (cout, win_c), ks = w.data.shape[:2], w.data.shape[2:]
    if win_c != cin:
        raise ShapeError(f"{op}: expected {win_c} input channels, got {cin}")
    if any(k % 2 != 1 for k in ks):
        raise ShapeError(f"{op}: same padding requires odd kernel, got {ks}")
    axes = tuple(range(2, 2 + len(spatial)))
    taps = list(np.ndindex(*ks))
    width, rows = spatial[-1], int(np.prod(spatial[:-1]))  # the last spatial axis, and the rest
    w2 = w.data.reshape(cout, -1)
    dtype = np.result_type(w2, x.data)
    size, xdtype = np.dtype(dtype).itemsize, x.data.dtype
    centre = (slice(None),) + tuple(slice(k // 2, k // 2 + s) for k, s in zip(ks, spatial))

    def padded() -> Array:
        # one item's zero-bordered padded input, or its padded input gradient
        return np.zeros((cin,) + tuple(s + k - 1 for s, k in zip(spatial, ks)), dtype=xdtype)

    def region(tap, lo: int, hi: int) -> tuple:
        # the block of an item's padded input that starts at ``tap`` and spans output columns lo:hi
        return ((slice(None),) + tuple(slice(o, o + s) for o, s in zip(tap[:-1], spatial[:-1]))
                + (slice(tap[-1] + lo, tap[-1] + hi),))

    def columns(buf: Array, xp: Array, t0: int, t1: int, lo: int, hi: int) -> Array:
        # rows (c, tap) for taps t0:t1 and output columns lo:hi of padded item ``xp``, in ``buf``
        cols = buf[:cin * (t1 - t0) * rows * (hi - lo)].reshape(cin, t1 - t0, *spatial[:-1], hi - lo)
        for j in range(t0, t1):
            cols[:, j - t0] = xp[region(taps[j], lo, hi)]
        return cols.reshape(cin * (t1 - t0), rows * (hi - lo))

    kk, split = cin * len(taps), dtype == np.float32  # see MIN_SPLIT_MACS
    tiles = (_spans(width, kk * rows * size, CONV_BUFFER_BYTES, cout * kk * rows, least=2 if rows == 1 else 1)
             if split and cout > 1 and kk > 1 else [(0, width)])
    most = max(hi - lo for lo, hi in tiles) * rows
    data = np.empty((bsz, cout, *spatial), dtype=dtype)
    xp, buf = padded(), np.empty(kk * most, dtype=dtype)
    out = np.empty(cout * most, dtype=dtype) if len(tiles) > 1 else None
    for i in range(bsz):
        xp[centre] = x.data[i]
        for lo, hi in tiles:
            cols = columns(buf, xp, 0, len(taps), lo, hi)
            if out is None:
                np.matmul(w2, cols, out=data[i].reshape(cout, -1))
            else:
                tile = np.matmul(w2, cols, out=out[:cout * cols.shape[1]].reshape(cout, -1))
                data[i][..., lo:hi] = tile.reshape(cout, *spatial[:-1], hi - lo)
    if b is not None:
        data += b.data.reshape((cout,) + (1,) * len(spatial))

    nx, nw, nb, wshape = _node_of(x), _node_of(w), None if b is None else _node_of(b), w.data.shape
    rebuild = None if nw is None else x._rebuild  # as in ``linear``
    xd = None if nw is None or rebuild else x.data
    length = rows * width
    groups = (_spans(len(taps), cin * length * size, CONV_BUFFER_BYTES, cout * cin * length)
              if split and cin > 1 and cout > 1 and length > 1 else [(0, len(taps))])
    w3 = w.data.reshape(cout, cin, len(taps))
    wt = [np.ascontiguousarray(w3[:, :, t0:t1]).reshape(cout, -1).T for t0, t1 in groups]

    def back(g, grads):
        # x's pending gradient (a residual sum's, or another conv's) takes each
        # item's input gradient in place, the sum ``_accum`` would take; like
        # any pending gradient, it shares no memory with ``g`` (module docstring)
        gx = None if nx is None else grads.get(id(nx))
        pending = gx is not None and gx.dtype == xdtype
        if nx is not None and not pending:
            gx = np.empty((bsz, cin, *spatial), dtype=xdtype)
        xp = None if nw is None else padded()
        gxp = None if nx is None else padded()
        # unmapped until written, so untouched when only the bias needs a gradient
        buf = np.empty(cin * max(t1 - t0 for t0, t1 in groups) * length, dtype=dtype)
        for i in range(bsz):
            g2 = np.ascontiguousarray(g[i].reshape(cout, length).T)  # (prod(S), O)
            if xp is not None:  # the weight gradient sums one GEMM per item, in item order
                xp[centre] = xd[i] if rebuild is None else rebuild(i)
                gw = np.empty((cout, cin, len(taps)), dtype=np.result_type(g2, dtype))
                for t0, t1 in groups:
                    part = g2.T @ columns(buf, xp, t0, t1, 0, width).T
                    gw[:, :, t0:t1] = part.reshape(cout, cin, t1 - t0)
                _accum(grads, nw, gw.reshape(wshape))
            if gxp is not None:
                gxp.fill(0)
                for (t0, t1), a in zip(groups, wt):
                    gcols = np.matmul(a, g2.T, out=buf[:a.shape[0] * length].reshape(-1, length))
                    gcols = gcols.reshape(cin, t1 - t0, *spatial)
                    for j in range(t0, t1):
                        gxp[region(taps[j], 0, width)] += gcols[:, j - t0]
                if pending:
                    gx[i] += gxp[centre]
                else:
                    gx[i] = gxp[centre]
        if nb is not None:
            _accum(grads, nb, g.sum(axis=(0,) + axes))
        if not pending:
            _accum(grads, nx, gx)

    return _output(data, (nx, nw, nb), back)


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


def conv_transpose1d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Transposed 1D convolution whose stride is its kernel size.

    ``x`` is (B, C_in, T), ``w`` is (C_in, C_out, K), so the output length
    is exactly ``T * K`` (inverse of a stride-K max-pool's length change).
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv_transpose1d: expected x (B,C,T) and w (I,O,K), got {x.data.shape} and {w.data.shape}")
    bsz, cin, t = x.data.shape
    win_c, cout, k = w.data.shape
    if win_c != cin:
        raise ShapeError(f"conv_transpose1d: expected {win_c} input channels, got {cin}")
    x2 = x.data.transpose(0, 2, 1).reshape(bsz * t, cin)
    w2 = w.data.reshape(cin, cout * k)
    y = (x2 @ w2).reshape(bsz, t, cout, k)
    data = np.ascontiguousarray(y.transpose(0, 2, 1, 3)).reshape(bsz, cout, t * k)
    if b is not None:
        data += b.data[None, :, None]

    nx, nw, nb = _node_of(x), _node_of(w), None if b is None else _node_of(b)

    def back(g, grads):
        g4 = np.ascontiguousarray(g.reshape(bsz, cout, t, k).transpose(0, 2, 1, 3)).reshape(bsz * t, cout * k)
        _accum(grads, nw, (x2.T @ g4).reshape(cin, cout, k))
        if nb is not None:
            _accum(grads, nb, g.sum(axis=(0, 2)))
        if nx is not None:
            gx = (g4 @ w2.T).reshape(bsz, t, cin).transpose(0, 2, 1)
            _accum(grads, nx, np.ascontiguousarray(gx))

    return _output(data, (nx, nw, nb), back)


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
    nx, shape, rshape, dtype = _node_of(x), x.data.shape, xr.shape, x.data.dtype

    def back(g, grads):
        gr = np.zeros(rshape, dtype=dtype)
        np.put_along_axis(gr, idx[..., None], g[..., None], axis=-1)
        _accum(grads, nx, gr.reshape(shape))

    return _output(np.ascontiguousarray(data), (nx,), back)


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
    mode normalises with the running estimates.  The normalised input,
    ``xhat``, is one new array computed in place.  When no input needs a
    gradient the output overwrites it; otherwise the backward keeps
    ``xhat``, and the output's ``_rebuild`` recomputes the output from it,
    so that a consumer's backward (conv, linear) need not keep a copy.
    The training backward builds one batch-sized array, ``g * xhat``, and
    writes the input gradient into it one batch item at a time.
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
    xhat = x.data - mean[None, :, None, None]
    xhat *= inv[None, :, None, None]
    gd, bd = gamma.data[:, None, None], beta.data[:, None, None]
    nx, ngamma, nbeta = _node_of(x), _node_of(gamma), _node_of(beta)
    if nx is ngamma is nbeta is None:  # the output in xhat's place: the same bits
        xhat *= gd
        xhat += bd
        return _output(xhat, (), None)

    def rebuild(i=None):
        # the forward's own ops on what the backward keeps: the output, or its item ``i``
        out = gd * (xhat if i is None else xhat[i])
        out += bd
        return out

    def back(g, grads):
        gxhat = g * xhat  # one product for gamma's gradient and the input's
        _accum(grads, ngamma, gxhat.sum(axis=axes))
        _accum(grads, nbeta, g.sum(axis=axes))
        if nx is None:
            return
        coeff = gd * inv[:, None, None]
        if not training:
            del gxhat
            _accum(grads, nx, coeff * g)
            return
        # coeff * (g - gm - xhat * gx): the same ops in the same order, one
        # item at a time into gxhat, which nothing reads after its sum and mean
        gx, gm = gxhat.mean(axis=axes)[:, None, None], g.mean(axis=axes)[:, None, None]
        for i in range(len(g)):
            gi = np.subtract(g[i], gm, out=gxhat[i])
            gi -= xhat[i] * gx
            gi *= coeff
        _accum(grads, nx, gxhat)

    out = _output(rebuild(), (nx, ngamma, nbeta), back)
    out._rebuild = rebuild
    return out


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension."""
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"layernorm: expected scale/shift of shape ({d},), got {gamma.data.shape} and {beta.data.shape}")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    gd = gamma.data
    data = gd * xhat + beta.data
    nx, ngamma, nbeta = _node_of(x), _node_of(gamma), _node_of(beta)

    def back(g, grads):
        red = tuple(range(g.ndim - 1))
        _accum(grads, ngamma, (g * xhat).sum(axis=red))
        _accum(grads, nbeta, g.sum(axis=red))
        if nx is not None:
            gg = g * gd
            gm = gg.mean(axis=-1, keepdims=True)
            gx = (gg * xhat).mean(axis=-1, keepdims=True)
            _accum(grads, nx, inv * (gg - gm - xhat * gx))

    return _output(data, (nx, ngamma, nbeta), back)


# Largest span of attention's rows, in bytes of probabilities (forward) or
# of the two score-gradient temporaries (backward): a span's scores,
# softmax and ``p @ v`` run while it sits in a core's L2 cache.
# ``MIN_SPLIT_MACS`` can make a forward span larger: at T = 3000 and
# D_v = 8 a span is 42 or 43 rows, about 0.5 MB.
ATTENTION_SPAN_BYTES = 1 << 18


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Single-head scaled dot-product attention over the time axis.

    ``q`` and ``k`` are (B, T, D) and ``v`` is (B, T, D_v).  One fused node
    with one forward loop, graph or not: for each batch item it walks spans
    of rows, and for each span computes scores, scale, max-shift, exp and
    normalisation while the span is in cache, then the span's rows of
    ``p @ v``.  In float32 a span holds at most ``ATTENTION_SPAN_BYTES`` of
    probabilities, but keeps more than ``MIN_SPLIT_MACS`` multiply-adds in
    its ``p @ v``, which then gives the unsplit product's bits (``_spans``);
    float64 is one span.  With no input needing a gradient (inference) the
    spans share one span-sized buffer; otherwise they fill one (T, T)
    buffer, whatever the batch size, and the node keeps the last item's
    probabilities (plus k^T).  Either way the outputs are the same bits.

    The backward walks the items from last to first: it uses the kept
    buffer first, then refills it for each earlier item with the forward's
    exact ops.  For each item it takes the gradient of v from the
    probabilities, then turns them into the gradient of the scores in
    place, in pieces whose two temporaries stay within
    ``ATTENTION_SPAN_BYTES`` (float32), so it allocates no second (T, T)
    buffer and can run only once, which ``backward`` ensures.  Outputs and
    gradients equal ``matmul``, ``scale`` and ``softmax`` composed, bit for
    bit; the tests keep that composition as the reference.
    """
    shapes = (q.data.shape, k.data.shape, v.data.shape)
    if (any(len(s) != 3 for s in shapes) or len({s[0] for s in shapes}) != 1
            or k.data.shape[2] != q.data.shape[2] or v.data.shape[1] != k.data.shape[1]):
        raise ShapeError(f"attention: expected q/k (B,T,D) and v (B,T,D_v) with one B, "
                         f"got q={q.data.shape}, k={k.data.shape}, v={v.data.shape}")
    qd, vd = q.data, v.data
    kt = np.ascontiguousarray(np.swapaxes(k.data, 1, 2))
    (bsz, t, _), (tk, dv) = qd.shape, vd.shape[1:]
    nq, nk, nv = _node_of(q), _node_of(k), _node_of(v)
    dtype = np.result_type(qd, kt)
    c = dtype.type(1.0 / np.sqrt(qd.shape[2]))
    data = np.empty((bsz, t, dv), dtype=np.result_type(dtype, vd))
    if data.dtype == np.float32 and dv > 1:  # see MIN_SPLIT_MACS
        row = tk * dtype.itemsize
        spans = _spans(t, row, ATTENTION_SPAN_BYTES, tk * dv, least=2)
        pieces = _spans(t, 2 * row, ATTENTION_SPAN_BYTES, least=2)  # the backward's two temporaries
    else:
        spans = pieces = [(0, t)]
    graph = not (nq is nk is nv is None)
    # all of one item's probabilities when a backward reads them, else one span's
    p = np.empty((t if graph else max(hi - lo for lo, hi in spans), tk), dtype=dtype)

    def probabilities(i: int, out: Array | None = None) -> None:
        # item ``i``'s softmax probabilities into ``p``, and with ``out`` its ``p @ v``
        for lo, hi in spans:
            rows = p[lo:hi] if graph else p[:hi - lo]
            np.matmul(qd[i, lo:hi], kt[i], out=rows)
            rows *= c
            rows -= rows.max(axis=-1, keepdims=True)
            np.exp(rows, out=rows)
            rows /= rows.sum(axis=-1, keepdims=True)
            if out is not None:
                np.matmul(rows, vd[i], out=out[lo:hi])

    for i in range(bsz):
        probabilities(i, data[i])
    if not graph:
        return _output(data, (), None)

    def back(g, grads):
        gq = None if nq is None else np.empty(qd.shape, dtype=p.dtype)
        gk = None if nk is None else np.empty((bsz, tk, kt.shape[1]), dtype=p.dtype)
        gv = None if nv is None else np.empty(vd.shape, dtype=np.result_type(p, g))
        for i in reversed(range(bsz)):
            if i < bsz - 1:
                probabilities(i)
            if gv is not None:  # before p is overwritten below
                np.matmul(p.T, g[i], out=gv[i])
            if gq is None and gk is None:
                continue
            vt = vd[i].T
            for lo, hi in pieces:
                rows = p[lo:hi]
                ds = g[i, lo:hi] @ vt  # gradient of these rows' probabilities
                ds -= (ds * rows).sum(axis=-1, keepdims=True)
                rows *= ds
                rows *= c  # gradient of the unscaled scores q @ k^T, in p's place
            if gq is not None:
                np.matmul(p, kt[i].T, out=gq[i])
            if gk is not None:
                gk[i] = (qd[i].T @ p).T
        _accum(grads, nq, gq)
        _accum(grads, nk, gk)
        _accum(grads, nv, gv)

    return _output(data, (nq, nk, nv), back)
