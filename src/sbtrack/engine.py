"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy float arrays (float32 for runtime, float64 for
verification) and record the operations applied to them.  The arrays may
have any strides: `transpose` and `reshape` return views of their input
where numpy can, so a channels-first map and its token matrix can share one
channels-last buffer.  An op therefore writes in place only into arrays it
allocated itself, never into an input's data.

Ops take Tensors.  The binary arithmetic ops (`add`, `sub`, `mul`, `div`,
`maximum`, `minimum`) also take a number for either operand, which becomes
a tensor of the other operand's dtype.

An op is its forward array plus one partial per operand: a function from
the output gradient to that operand's gradient.  Graph bookkeeping is kept
apart from values.  When grad is enabled and some operand requires grad,
`_op` gives the output Tensor a graph node, which holds the gradient during
backward and, for each operand that requires grad, an edge: that operand's
node (a leaf is its own entry) and its partial.  The partial of an operand
that needs no gradient is not kept.  A node holds no Tensor and no forward
array, so an op's output array is freed as soon as its caller drops the
Tensor, unless some partial reads it.  A partial captures only what it
reads: shapes and dtypes rather than operands, relu's mask rather than its
input, and `conv2d`'s padded input rather than its im2col matrix, which the
weight partial rebuilds.  Nothing in the graph points back at a consumer,
so the graph holds no reference cycle and is freed by reference counting.

Release rule: ``backward`` on a scalar walks the nodes once in reverse
topological order, runs each edge's partial and sums the result back over
the axes that operand was broadcast along.  Then it releases the node: its
gradient and edges are dropped, and with them the arrays that only its
partials held, so after the sweep only leaves hold a gradient.  A second
``backward`` through a released node raises ``ValueError``; build the loss
again.  The finite-difference check of these partials lives with the tests
(`tests/oracle_helpers.py`), not here.

No-write rule: a partial never writes into its `g`, and an interior node's
gradient is never written in place.  `backward` relies on it: a node keeps
the first gradient it receives without a copy (`add` hands one array to
both operands) and adds any later one out of place.  A leaf takes a copy of
its first gradient and sums later ones into it in place, and callers may
scale a leaf's gradient in place (`clip_global_norm` does).

The memory-bound ops (GELU, layer norm, softmax) walk their input in its
own memory order, one block of rows of about `_BLOCK_BYTES` at a time, and
run all of a block's passes before the next block, so a block's arrays stay
in cache.  Each row is computed from its own values alone, so the blocking
changes no bit of the forward.

Short axes, long loops: numpy pays a fixed cost per row when a reduction,
or an einsum's inner loop, runs along a trailing axis of tens to hundreds
of floats, and the attention rows (16-256 keys) and depthwise maps (64-640
channels) are that short.  So the softmax takes each row's max as the value
at the row's `argmax`, which costs about a third of ``max`` over the same
rows and is the same float: `argmax` returns the first NaN of a row that
has one, and where -0.0 and 0.0 tie for the max, the two differ only in
the sign of a zero difference, which `exp` maps to 1 either way.
And the depthwise tap sums run over runs of adjacent output columns merged
with the channels, about `_TAP_RUN` floats long (`_column_runs`), instead
of over the channels alone.  Each output element still sums the same
products in the same order, so both stay bit-equal to the short-axis forms.

Thread-safety contract: a single forward/backward graph is owned by one
thread; tensors that do not require grad are never mutated by the engine
and may be shared freely; independent graphs may run concurrently.

Memory policy: importing this module tells glibc's allocator to keep freed
heap memory in the process.  A forward pass frees tens of megabytes of
temporaries at its end.  By default glibc serves large blocks with fresh
mappings and trims the freed heap top back to the kernel, so the next pass
faults every page in again and the kernel zeroes it: about 40k minor faults
and a fifth of the CPU time of a `light` frame.  With the policy, blocks
below 32 MiB come from the heap, and the heap is trimmed only when more
than 256 MiB of its top is free.  The setting is process-wide: it holds for
every allocation in the process, not only the engine's, and can keep up to
that much freed memory resident.  Where the C library has no `mallopt`
(not glibc), nothing is set.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Tensor",
    "PadMode",
    "ShapeError",
    "no_grad",
    "tensor",
    "parameter",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "transpose",
    "reshape",
    "tensor_slice",
    "sum_",
    "mean_",
    "abs_",
    "log",
    "maximum",
    "minimum",
    "clip",
    "relu",
    "leaky_relu",
    "gelu",
    "sigmoid",
    "softmax_last_dim",
    "layer_norm",
    "linear",
    "conv2d",
    "depthwise_conv2d",
    "depthwise_xcorr",
    "backward",
    "zero_grads",
]


# glibc's mallopt parameter numbers, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Set the allocator policy the module docstring describes, if glibc's."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_heap()


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Tensor:
    """Dense n-d float array with an optional same-shape gradient; `data` of
    a dtype other than float32 or float64 is cast to float32.

    A tensor that requires grad is a leaf, which owns `grad`, or an op's
    output, whose `_node` holds its place in the graph (None otherwise)."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def shape(self):
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
        return self.data.item()

    def _accumulate(self, g: np.ndarray) -> None:
        """Add `g` to a leaf's gradient: a leaf owns its gradient buffer."""
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={'set' if self.grad is not None else 'none'})"

    def __getitem__(self, idx):
        return tensor_slice(self, idx)


class _Node:
    """An op output's place in the graph: its gradient during backward, its
    shape and dtype, and one (entry, partial) edge per operand that requires
    grad, the entry being that operand's node, or the operand itself for a
    leaf.  `edges` is None once backward has released the node."""

    __slots__ = ("grad", "shape", "dtype", "edges")

    def __init__(self, shape: tuple, dtype, edges: list):
        self.grad = None
        self.shape = shape
        self.dtype = dtype
        self.edges = edges

    def _accumulate(self, g: np.ndarray) -> None:
        """Add `g` to the gradient under the module's no-write rule."""
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.dtype)
        else:
            self.grad = (self.grad + g).astype(self.dtype, copy=False)


def tensor(data, dtype=np.float32) -> Tensor:
    """Constant (non-trained) tensor of `data` cast to `dtype`, float32 by default."""
    return Tensor(np.asarray(data, dtype=dtype))


def parameter(data) -> Tensor:
    """Trainable tensor (receives a gradient on backward) of `data`'s dtype, as for `Tensor`."""
    return Tensor(data, requires_grad=True)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of a binary op as tensors: a number takes the other
    operand's dtype, float32 when both are numbers."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype if isinstance(b, Tensor) else np.float32))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    return a, b


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _op(data: np.ndarray, operands, *partials):
    """The result of an op with forward array `data`.

    ``partials[i](g)`` maps the output gradient `g` to the gradient of
    ``operands[i]`` at the output's shape.  Only the partials of operands
    that require grad are kept; `backward` sums each one's result back to
    that operand's shape.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._node = None
    if not _grad_enabled():
        return out
    edges = []  # a loop rather than a comprehension: this runs once per op
    for t, partial in zip(operands, partials):
        if t.requires_grad:
            edges.append((t if t._node is None else t._node, partial))
    if edges:
        out.requires_grad = True
        out._node = _Node(data.shape, data.dtype, edges)
    return out


# -- padding -------------------------------------------------------------


@dataclass(frozen=True)
class PadMode:
    """Spatial padding policy for convolutions: `amount` pixels of "zeros"
    or of "circular" wrap-around on each side; ``zeros(0)`` pads nothing."""

    kind: str
    amount: int

    def __post_init__(self):
        if self.kind not in ("zeros", "circular"):
            raise ValueError(f"unknown pad kind {self.kind!r}")
        if type(self.amount) is not int or self.amount < 0:
            raise ValueError(f"pad amount must be an int >= 0, got {self.amount!r}")

    @staticmethod
    def zeros(p: int) -> "PadMode":
        return PadMode("zeros", p)

    @staticmethod
    def same(kind: str, kernel: int) -> "PadMode":
        """Padding of `kind` ("zeros" or "circular") that preserves spatial
        extent at stride 1 (odd kernel)."""
        return PadMode(kind, (kernel - 1) // 2)


def _channels_last(x: np.ndarray, pad: PadMode) -> np.ndarray:
    """The [c, h, w] map `x` padded by `pad`, as a C-contiguous channels-last
    [h + 2p, w + 2p, c] buffer, filled in place: the input once, then the
    border.  Unpadded, it may be a view of `x`."""
    c, h, w = x.shape
    p = pad.amount
    if pad.kind == "circular" and p > min(h, w):
        # the border would wrap more than once, which `_unpad_adjoint` cannot fold back
        raise ShapeError("circular pad wider than the input is unsupported")
    if p == 0:  # a channels-last view of a contiguous buffer is not copied
        return np.ascontiguousarray(x.transpose(1, 2, 0))
    xl = np.empty((h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    xl[p : p + h, p : p + w] = x.transpose(1, 2, 0)
    if pad.kind == "circular":
        # padded row i holds input row (i - p) mod h, which sits at buffer row
        # i + h above the input and i - h below it; then the same for columns
        xl[:p, p : p + w] = xl[h : h + p, p : p + w]
        xl[p + h :, p : p + w] = xl[p : 2 * p, p : p + w]
        xl[:, :p] = xl[:, w : w + p]
        xl[:, p + w :] = xl[:, p : 2 * p]
    else:
        xl[:p] = 0
        xl[p + h :] = 0
        xl[p : p + h, :p] = 0
        xl[p : p + h, p + w :] = 0
    return xl


def _unpad_adjoint(gp: np.ndarray, pad: PadMode, h: int, w: int) -> np.ndarray:
    """Adjoint of the circular padding in `_channels_last`, on a
    channels-first [..., h + 2p, w + 2p] gradient: fold the padded border
    back inside."""
    p = pad.amount
    if p == 0:
        return gp
    g = gp[..., p : p + h, :].copy()
    g[..., h - p :, :] += gp[..., :p, :]
    g[..., :p, :] += gp[..., p + h :, :]
    out = g[..., :, p : p + w].copy()
    out[..., :, w - p :] += g[..., :, :p]
    out[..., :, :p] += g[..., :, p + w :]
    return out


# -- arithmetic ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(a.data + b.data, (a, b), lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(a.data - b.data, (a, b), lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(a.data * b.data, (a, b), lambda g: g * b.data, lambda g: g * a.data)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(a.data / b.data, (a, b), lambda g: g / b.data,
               lambda g: -g * a.data / (b.data * b.data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 2-d operands or 3-d operands with equal batch."""
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"matmul needs matching 2d/3d ranks, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2] or (a.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    return _op(a.data @ b.data, (a, b), lambda g: g @ b.data.swapaxes(-1, -2),
               lambda g: a.data.swapaxes(-1, -2) @ g)


@lru_cache(maxsize=256)
def _inverse(axes: tuple) -> tuple:
    """The permutation that undoes ``transpose(axes)``."""
    inv = [0] * len(axes)
    for i, a in enumerate(axes):
        inv[a] = i
    return tuple(inv)


def transpose(t: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    return _op(t.data.transpose(axes), (t,), lambda g: g.transpose(_inverse(axes)))


def reshape(t: Tensor, shape) -> Tensor:
    before = t.shape
    return _op(t.data.reshape(shape), (t,), lambda g: g.reshape(before))


def tensor_slice(t: Tensor, idx) -> Tensor:
    """Any numpy index, its result copied.  The gradient is added back into
    place: an element that the index selects more than once receives the
    sum of its gradients."""
    axes = _memory_order(t.data.strides)
    shape, dtype = [t.shape[i] for i in axes], t.dtype

    def scatter(g):  # into zeros laid out as t is
        full = np.zeros(shape, dtype=dtype).transpose(_inverse(axes))
        np.add.at(full, idx, g)
        return full

    return _op(np.ascontiguousarray(t.data[idx]), (t,), scatter)


def sum_(t: Tensor, axis=None) -> Tensor:
    shape, dtype = t.shape, t.dtype

    def spread(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).astype(dtype)

    return _op(np.asarray(t.data.sum(axis=axis)), (t,), spread)


def mean_(t: Tensor, axis=None) -> Tensor:
    n = t.size if axis is None else t.shape[axis]
    return mul(sum_(t, axis=axis), 1.0 / n)


def abs_(t: Tensor) -> Tensor:
    sign = np.sign(t.data)
    return _op(np.abs(t.data), (t,), lambda g: g * sign)


def log(t: Tensor) -> Tensor:
    return _op(np.log(t.data), (t,), lambda g: g / t.data)


def _pick(a, b, pick, a_wins, b_wins) -> Tensor:
    """`pick` (np.maximum or np.minimum) of two operands.  The gradient goes
    to the operand that `a_wins`/`b_wins` names; exact ties and NaNs split it
    evenly."""
    a, b = _operands(a, b)
    out_data = pick(a.data, b.data)
    wa = np.where(a_wins(a.data, b.data), 1.0,
                  np.where(b_wins(a.data, b.data), 0.0, 0.5)).astype(out_data.dtype)
    return _op(out_data, (a, b), lambda g: g * wa, lambda g: g * (1.0 - wa))


def maximum(a, b) -> Tensor:
    """Elementwise max; exact ties split the gradient evenly."""
    return _pick(a, b, np.maximum, np.greater, np.less)


def minimum(a, b) -> Tensor:
    return _pick(a, b, np.minimum, np.less, np.greater)


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    inside = (t.data >= lo) & (t.data <= hi)
    return _op(np.clip(t.data, lo, hi), (t,), lambda g: g * inside)


# -- activations ----------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-5  # added to layer norm's variance
# bytes of rows one block of GELU, layer norm or softmax covers: a block's
# input, output and scratch rows stay in a 1-2 MiB L2 cache across its passes
_BLOCK_BYTES = 256 << 10


@lru_cache(maxsize=256)
def _memory_order(strides: tuple, last: int | None = None) -> tuple:
    """The axes of an array with `strides` from the largest stride to the
    smallest, with axis `last` (if given) moved to the end.  When the array
    is a permuted view of a contiguous buffer, transposing it by these axes
    gives that buffer in its order."""
    axes = sorted(range(len(strides)), key=lambda i: -abs(strides[i]))
    if last is not None:
        axes.remove(last)
        axes.append(last)
    return tuple(axes)


def _rows(a: np.ndarray, axes: tuple) -> np.ndarray:
    """``a.transpose(axes)`` as a C-contiguous [rows, a.shape[axes[-1]]]
    matrix: a view when `a` is laid out in that order, else a copy."""
    return np.ascontiguousarray(a.transpose(axes)).reshape(-1, a.shape[axes[-1]] if axes else 1)


def _unrows(rows: np.ndarray, shape: tuple, axes: tuple) -> np.ndarray:
    """The inverse of `_rows`: the [rows, n] matrix as an array of `shape`."""
    return rows.reshape([shape[i] for i in axes]).transpose(_inverse(axes))


def _blocks(rows: np.ndarray) -> list:
    """Row slices of the [rows, n] matrix `rows`, each about `_BLOCK_BYTES`."""
    step = max(1, _BLOCK_BYTES // max(1, rows.shape[1] * rows.itemsize))
    return [slice(i, i + step) for i in range(0, rows.shape[0], step)]


def relu(t: Tensor) -> Tensor:
    positive = t.data > 0
    return _op(np.maximum(t.data, 0.0), (t,), lambda g: g * positive)


def leaky_relu(t: Tensor, slope: float) -> Tensor:
    """x where x > 0, else slope * x; like relu, the slope-1 branch is x > 0 only."""
    positive = t.data > 0
    return _op(np.where(positive, t.data, slope * t.data), (t,),
               lambda g: np.where(positive, g, slope * g))


def gelu(t: Tensor) -> Tensor:
    """GELU, tanh approximation: x * (1 + tanh(u)) / 2 with
    u = c (x + 0.044715 x^3).  The backward keeps tanh(u) alone and derives
    the rest from x."""
    shape = t.shape
    axes = _memory_order(t.data.strides)
    x = _rows(t.data, axes)
    th = np.empty_like(x)
    out = np.empty_like(x)
    blocks = _blocks(x)
    for b in blocks:
        xb, tb, ob = x[b], th[b], out[b]
        np.multiply(xb, xb, out=ob)
        np.multiply(ob, xb, out=tb)
        tb *= 0.044715
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=ob)
        ob *= 0.5
        ob *= xb

    def grad_x(g):
        # d/dx = (1 + tanh) / 2 + x (1 - tanh^2) / 2 * du/dx
        #      = (1 + tanh) / 2 * (1 + x (1 - tanh) du/dx),  du/dx = c (1 + 3 * 0.044715 x^2)
        g = _rows(g, axes)
        dx = np.empty_like(x)
        for b in blocks:
            xb, tb, d = x[b], th[b], dx[b]
            tmp = np.empty_like(xb)
            np.multiply(xb, xb, out=d)
            d *= 3 * 0.044715 * _GELU_C
            d += _GELU_C
            d *= xb
            np.subtract(1.0, tb, out=tmp)
            d *= tmp
            d += 1.0
            np.add(tb, 1.0, out=tmp)
            d *= tmp
            d *= 0.5
            d *= g[b]
        return _unrows(dx, shape, axes)

    return _op(_unrows(out, shape, axes), (t,), grad_x)


def sigmoid(t: Tensor) -> Tensor:
    x = t.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)
    return _op(out_data, (t,), lambda g: g * out_data * (1.0 - out_data))


def _row_sums(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """The sum of each row of `a`, or of ``a * b``.

    An einsum sums each row on its own.  A GEMV with a ones vector is
    faster per pass, but BLAS kernels group rows, and a one-row block came
    out rounded differently from the same row in a taller block: the
    blocked forward would have depended on the blocking."""
    return np.einsum("ij->i", a) if b is None else np.einsum("ij,ij->i", a, b)


def softmax_last_dim(t: Tensor) -> Tensor:
    """Softmax over the trailing axis, stabilized by max subtraction."""
    shape = t.shape
    axes = _memory_order(t.data.strides, t.ndim - 1)
    x = _rows(t.data, axes)
    s = np.empty_like(x)
    blocks = _blocks(x)
    for b in blocks:
        xb, sb = x[b], s[b]
        # the row max, taken at its argmax (see the module docstring)
        np.subtract(xb, np.take_along_axis(xb, xb.argmax(axis=1)[:, None], 1), out=sb)
        np.exp(sb, out=sb)
        sb *= (1.0 / _row_sums(sb))[:, None]

    def grad_t(g):
        g = _rows(g, axes)
        dt = np.empty_like(s)
        for b in blocks:
            gb, sb, db = g[b], s[b], dt[b]
            np.subtract(gb, _row_sums(gb, sb)[:, None], out=db)
            db *= sb
        return _unrows(dt, shape, axes)

    return _op(_unrows(s, shape, axes), (t,), grad_t)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, axis: int) -> Tensor:
    """Normalize `axis` to zero mean / unit population variance (plus
    `_LN_EPS`), then affine.

    `gamma`/`beta` are 1-d with the size of `axis` and broadcast across the
    remaining dimensions.  The work runs on the [rows, c] matrix of `x` in
    its memory order, with `axis` last.
    """
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"layer_norm axis {axis} out of range for {x.ndim}-d input")
    ax = axis % x.ndim
    c = x.shape[ax]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm affine must have shape ({c},)")
    shape = x.shape
    axes = _memory_order(x.data.strides, ax)
    xr = _rows(x.data, axes)
    xhat = np.empty_like(xr)
    out = np.empty_like(xr)
    inv = np.empty((len(xr), 1), dtype=xr.dtype)  # 1 / std per row
    blocks = _blocks(xr)
    for b in blocks:
        xb, hb, ob, ib = xr[b], xhat[b], out[b], inv[b]
        np.subtract(xb, (_row_sums(xb) / c)[:, None], out=hb)
        np.divide(1.0, np.sqrt(_row_sums(hb, hb) / c + _LN_EPS)[:, None], out=ib)
        hb *= ib
        np.multiply(hb, gamma.data, out=ob)
        ob += beta.data

    shared = [None, None]  # the three partials share one row view of g

    def rows_of(g):
        if shared[0] is not g:
            shared[:] = g, _rows(g, axes)
        return shared[1]

    def grad_x(g):
        g = rows_of(g)
        dx = np.empty_like(xhat)
        for b in blocks:
            hb, d = xhat[b], dx[b]
            dxhat = np.multiply(g[b], gamma.data)  # the gradient of xhat
            m1 = _row_sums(dxhat) / c
            m2 = _row_sums(dxhat, hb) / c
            dxhat -= m1[:, None]
            np.multiply(hb, m2[:, None], out=d)
            np.subtract(dxhat, d, out=d)
            d *= inv[b]
        return _unrows(dx, shape, axes)

    return _op(_unrows(out, shape, axes), (x, gamma, beta), grad_x,
               lambda g: np.einsum("ij,ij->j", rows_of(g), xhat),
               lambda g: rows_of(g).sum(axis=0))


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map on the trailing feature axis: x[..., din] -> [..., dout]."""
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear: {x.shape} with weight {weight.shape}")
    shape, dout = x.shape, weight.shape[1]
    x2 = x.data.reshape(-1, shape[-1])
    out = x2 @ weight.data
    out += bias.data
    return _op(out.reshape(*shape[:-1], dout), (x, weight, bias),
               lambda g: (g.reshape(-1, dout) @ weight.data.T).reshape(shape),
               lambda g: x2.T @ g.reshape(-1, dout),
               lambda g: g.reshape(-1, dout).sum(axis=0))


# -- convolutions ----------------------------------------------------------

# floats in the innermost run of a depthwise tap sum (see `_column_runs`)
_TAP_RUN = 1024


def _conv_out_extent(size: int, k: int, stride: int, p: int) -> int:
    return (size + 2 * p - k) // stride + 1


def _windows(xl: np.ndarray, kh: int, kw: int, ho: int, wo: int, stride: int = 1) -> np.ndarray:
    """Read-only view [kh, kw, ho, wo, c] of a channels-last [hp, wp, c]
    buffer: element [i, j, y, x] is pixel (y * stride + i, x * stride + j),
    the one that tap (i, j) of output position (y, x) reads."""
    sh, sw, sc = xl.strides
    return np.lib.stride_tricks.as_strided(
        xl, (kh, kw, ho, wo, xl.shape[2]), (sh, sw, sh * stride, sw * stride, sc), writeable=False)


def _taps_inside(shift: int, stride: int, n: int, size: int) -> tuple[slice, slice]:
    """For a tap that output position y reads at pixel y * stride + shift:
    the slice of positions y < n whose pixel lies in [0, size), and the
    slice of those pixels."""
    lo = max(0, -(shift // stride))
    hi = max(lo, min(n, (size - 1 - shift) // stride + 1))
    return slice(lo, hi), slice(lo * stride + shift, hi * stride + shift, stride)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int, pad: PadMode) -> Tensor:
    """2-d convolution (cross-correlation) on a CHW map, im2col-backed.

    x: [c_in, h, w]; weight: [c_out, c_in, k, k]; output [c_out, h', w'] with
    h' = floor((h + 2p - k)/stride) + 1.  The im2col rows are copied from the
    padded channels-last input in its memory order, (ki, kj, c_in), and the
    weight is permuted to match.
    """
    if type(stride) is not int:
        raise ShapeError(f"conv2d stride must be an int, got {stride!r}")
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    if x.ndim != 3 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects CHW input and OIKK weight, got {x.shape}, {weight.shape}")
    c_out, c_in, k, k2 = weight.shape
    if k != k2:
        raise ShapeError("conv2d kernels must be square")
    if x.shape[0] != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape[0]} vs weight {c_in}")
    h, w = x.shape[1:]
    p = pad.amount
    if h + 2 * p < k or w + 2 * p < k:
        raise ShapeError(f"kernel {k} larger than padded input {h + 2 * p}x{w + 2 * p}")

    xl = _channels_last(x.data, pad)
    ho = _conv_out_extent(h, k, stride, p)
    wo = _conv_out_extent(w, k, stride, p)

    def im2col():  # [ho*wo, k*k*c_in], k*k/stride^2 times the size of xl
        return _windows(xl, k, k, ho, wo, stride).transpose(2, 3, 0, 1, 4).reshape(ho * wo, k * k * c_in)

    wmat = weight.data.transpose(0, 2, 3, 1).reshape(c_out, k * k * c_in)
    out = im2col() @ wmat.T
    out += bias.data

    hp, wp = xl.shape[:2]
    dtype = xl.dtype  # so that only the weight partial keeps the padded input
    circular = pad.kind == "circular"

    def rows(g):  # [ho*wo, c_out]
        return g.reshape(c_out, ho * wo).T

    def grad_x(g):
        gtaps = (rows(g) @ wmat).reshape(ho, wo, k, k, c_in).transpose(2, 3, 0, 1, 4)
        if circular:  # the border gradient is folded back in below
            gxl, shift = np.zeros((hp, wp, c_in), dtype=dtype), 0
        else:  # no border gradient is kept: an unpadded buffer takes the taps that land inside
            gxl, shift = np.zeros((h, w, c_in), dtype=dtype), -p
        if stride == k and shift == 0:
            # the windows tile the input, so each pixel takes at most one
            # tap: one strided assignment
            gxl[: ho * k, : wo * k].reshape(ho, k, wo, k, c_in)[...] = gtaps.transpose(2, 0, 3, 1, 4)
        else:
            across = [_taps_inside(kj + shift, stride, wo, gxl.shape[1]) for kj in range(k)]
            for ki in range(k):
                ys, rows_in = _taps_inside(ki + shift, stride, ho, gxl.shape[0])
                for kj, (xs, cols_in) in enumerate(across):
                    gxl[rows_in, cols_in] += gtaps[ki, kj, ys, xs]
        if circular:
            return _unpad_adjoint(gxl.transpose(2, 0, 1), pad, h, w)
        return gxl.transpose(2, 0, 1)  # compact, so a reshape of it is a view

    # the output is a channels-last view of the GEMM output; the weight
    # partial rebuilds the im2col matrix from the padded input it keeps
    return _op(out.T.reshape(c_out, ho, wo), (x, weight, bias), grad_x,
               lambda g: (rows(g).T @ im2col()).reshape(c_out, k, k, c_in).transpose(0, 3, 1, 2),
               lambda g: rows(g).sum(axis=0))


@lru_cache(maxsize=256)
def _merged_columns(wo: int, c: int) -> int:
    """The largest divisor g of wo with g * c <= `_TAP_RUN`, or 1."""
    return max((g for g in range(1, wo + 1) if wo % g == 0 and g * c <= _TAP_RUN), default=1)


def _column_runs(win: np.ndarray) -> np.ndarray:
    """The windows `win` [kh, kw, ho, wo, c] of a channels-last buffer as a
    view [kh, kw, ho, wo / g, g * c] with g = `_merged_columns` (wo, c): g
    adjacent output columns merged with the channels into one run.  A
    window's g columns of c channels are adjacent in the buffer, so the
    merge copies nothing."""
    kh, kw, ho, wo, c = win.shape
    g = _merged_columns(wo, c)
    return win.reshape(kh, kw, ho, wo // g, g * c)


def _tap_sums(win: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """``einsum("ijyxc,ijc->yxc", win, taps)`` for windows `win`
    [kh, kw, ho, wo, c] and per-channel taps [kh, kw, c], over the column
    runs of `_column_runs`: the taps are tiled once per merged column."""
    *_, ho, wo, c = win.shape
    runs = _column_runs(win)
    return np.einsum("ijyxc,ijc->yxc", runs, np.tile(taps, runs.shape[-1] // c)).reshape(ho, wo, c)


def _per_channel_xcorr(x: Tensor, kernel: Tensor, pad: PadMode):
    """The kernel behind both depthwise ops: channel c of x [c, h, w], padded
    by `pad`, cross-correlated with kernel[c] of kernel [c, kh, kw].

    Returns the output channels-last, [h + 2p - kh + 1, w + 2p - kw + 1, c],
    and the partials of `x` and of `kernel`.

    Output position (y, x) sums xl[y + i, x + j] * kernel[:, i, j] over the
    taps (i, j), where xl is the padded input held channels-last.
    `_windows` views those pixels as [kh, kw, ho, wo, c], so the forward and
    both partials are einsums over that view.  With every operand
    C-contiguous and channels innermost, numpy's einsum keeps the axes in
    the order written: it starts each output element from zero and adds one
    rounded product per tap, (0, 0) first and then in row-major order.  That
    is the sum a tap-by-tap loop computes, so the forward and the input
    gradient are bit-equal to one.

    The forward and the input gradient run that einsum over `_column_runs`
    of the view: g output columns of c channels become one inner axis of
    g * c floats, and the taps [kh, kw, c] are tiled g times to match, so
    element (y, x', u * c + ch) of the grouped sum reads the pixels and the
    tap values of element (y, x' * g + u, ch) of the plain one.  Only the
    length of einsum's inner loop changes, not the terms of any output
    element or their order: each still starts from zero and adds its
    kh * kw products in row-major tap order, so the grouped sums are
    bit-equal to the plain ones.  The kernel gradient sums over output
    positions, not taps; it keeps the plain view, where grouping measured
    slower and further from float64.
    """
    c, kh, kw = kernel.shape
    h, w = x.shape[1:]
    hp, wp = h + 2 * pad.amount, w + 2 * pad.amount
    ho, wo = hp - kh + 1, wp - kw + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError("kernel larger than padded input")
    xl = _channels_last(x.data, pad)
    dtype = xl.dtype  # so that only the kernel partial keeps the padded input
    taps = np.ascontiguousarray(kernel.data.transpose(1, 2, 0))  # [kh, kw, c]
    out = _tap_sums(_windows(xl, kh, kw, ho, wo), taps)

    def grad_x(g):
        # tap (i, j) carries g[y, x] to xl[y + i, x + j]: pixel (y', x') of
        # xl gathers g[y' - i, x' - j], the windows of g zero-padded by k - 1
        # and read backwards, which keeps the taps in forward order
        gl = np.zeros((ho + 2 * (kh - 1), wo + 2 * (kw - 1), c), dtype=dtype)
        gl[kh - 1 : kh - 1 + ho, kw - 1 : kw - 1 + wo] = g.transpose(1, 2, 0)
        win = _windows(gl, kh, kw, hp, wp)[::-1, ::-1]
        if pad.kind != "circular":  # no border gradient is kept: gather the inside only
            p = pad.amount
            return _tap_sums(win[:, :, p : p + h, p : p + w], taps).transpose(2, 0, 1)
        return _unpad_adjoint(_tap_sums(win, taps).transpose(2, 0, 1), pad, h, w)

    def grad_kernel(g):
        # each output row first, then the rows: two short float32 sums stay
        # closer to the exact one than a single sum over all ho * wo terms
        gl = np.ascontiguousarray(g.transpose(1, 2, 0))
        per_row = np.einsum("ijyxc,yxc->ijyc", _windows(xl, kh, kw, ho, wo), gl)
        return per_row.sum(axis=2).transpose(2, 0, 1)

    return out, grad_x, grad_kernel


def depthwise_conv2d(x: Tensor, weight: Tensor, bias: Tensor, pad: PadMode) -> Tensor:
    """Per-channel odd square convolution at stride 1; weight is [c, k, k]
    (shape preserved for p = (k - 1) / 2)."""
    if weight.ndim != 3:
        raise ShapeError(f"depthwise weight must be [c, k, k], got {weight.shape}")
    c, k, k2 = weight.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError("depthwise kernels must be square and odd")
    if x.ndim != 3 or x.shape[0] != c:
        raise ShapeError(f"depthwise channel mismatch: {x.shape} vs {weight.shape}")
    out_data, grad_x, grad_weight = _per_channel_xcorr(x, weight, pad)
    out_data += bias.data  # on the kernel's own channels-last buffer
    return _op(out_data.transpose(2, 0, 1), (x, weight, bias), grad_x, grad_weight,
               lambda g: g.sum(axis=(1, 2)))


def depthwise_xcorr(template: Tensor, search: Tensor, pad: PadMode) -> Tensor:
    """Per-channel cross-correlation with the template as a dynamic kernel.

    template: [c, hz, wz]; search: [c, hx, wx]; output
    [c, hx + 2p - hz + 1, wx + 2p - wz + 1].  Differentiable in both inputs.
    """
    if template.ndim != 3 or search.ndim != 3 or template.shape[0] != search.shape[0]:
        raise ShapeError(f"xcorr operands disagree: {template.shape} vs {search.shape}")
    out_data, grad_search, grad_template = _per_channel_xcorr(search, template, pad)
    return _op(out_data.transpose(2, 0, 1), (template, search), grad_template, grad_search)


# -- backward pass ----------------------------------------------------------


def _topo_order(root: _Node) -> list:
    """The nodes that `root` reaches, `root` included, each after the nodes
    of its operands: popped from the end, a node comes before them."""
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.edges is None:
            raise ValueError("backward reached a tensor whose graph an earlier backward "
                             "released; build the loss again")
        seen.add(id(node))
        stack.append((node, True))
        for entry, _ in node.edges:
            if type(entry) is _Node and id(entry) not in seen:
                stack.append((entry, False))
    return order


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar; accumulates into `.grad` fields.

    Leaf tensors keep their gradient across calls (so per-example losses in
    a batch may be backpropagated one after another).  Every node is
    released right after its partials run: its gradient and edges are
    dropped.  A sweep that reaches a released node raises `ValueError`
    before it touches any gradient: build the loss again.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    if loss._node is None:  # the loss is a leaf
        loss._accumulate(np.ones_like(loss.data))
        return
    order = _topo_order(loss._node)
    loss._node._accumulate(np.ones_like(loss.data))
    while order:
        node = order.pop()  # popped, so a released node's partials can go at once
        g = node.grad
        for entry, partial in node.edges:
            entry._accumulate(_unbroadcast(partial(g), entry.shape))
        node.grad = node.edges = None


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
