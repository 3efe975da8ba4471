"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every differentiable operation in execution order
(define-by-run); :func:`backward` replays the tape once in reverse and
accumulates into leaf tensors that require gradients; frozen operands get no
gradient work; a node keeps only the arrays its backward reads and drops
them once run. Everything is 64-bit. Elementwise operations broadcast by
NumPy rules, so a batch of windows runs through the same operations as a
single one; the backward pass sums each gradient back down to its operand's
shape.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from typing import Callable, Sequence

import numpy as np

# tanh GELU approximation, cubic term coefficient
GELU_CUBIC_COEFF = 0.044715
_GELU_SCALE = np.sqrt(2.0 / np.pi)
# elements per block of the slope's scratch array on a tape (64 KiB)
_GELU_BLOCK = 8192

# glibc mallopt parameters and the values this process runs with
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20    # the dynamic threshold's 64-bit maximum
_TRIM_THRESHOLD_BYTES = 256 << 20


def _keep_step_buffers_on_heap() -> None:
    """Keep freed activation and gradient buffers in glibc's heap.

    A training step allocates and frees many ~1 MiB float64 arrays. Under
    glibc's defaults such a buffer may be mmapped, or trimmed from the top of
    the heap when freed, so the next step faults its pages in afresh.
    Fixing the mmap threshold at 32 MiB and then raising the trim threshold
    keeps them in the heap for reuse. The trim threshold is set only once
    the mmap threshold is: set alone, it disables the dynamic mmap threshold
    and every such buffer is mmapped. Outside glibc nothing is done.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_step_buffers_on_heap()


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class AutodiffError(ValueError):
    """Misuse of the tape machinery (non-scalar loss, detached loss, ...)."""


class _Node:
    """A recorded op, and the gradient key of the tensor it produced."""
    __slots__ = ("kind", "inputs", "backward_fn")
    requires_grad = True    # as the key of a recorded output

    def __init__(self, kind, inputs, backward_fn):
        self.kind, self.inputs, self.backward_fn = kind, inputs, backward_fn


class Tape:
    """Append-only record of operations; reverse append order is a valid
    topological order for backpropagation. A tape records the operations
    of the thread that entered it.

    ``shares`` is set by :func:`sum_shares`: the node count before the sum
    and the summed outputs of other threads' tapes, which :func:`backward`
    replays once their gradients are known."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.shares: tuple[int, list[Tensor]] | None = None

    def __enter__(self) -> "Tape":
        global _open_tapes
        _TAPE_STACK.tapes.append(self)
        with _open_lock:
            _open_tapes += 1
        return self

    def __exit__(self, *exc) -> bool:
        global _open_tapes
        with _open_lock:
            _open_tapes -= 1
        _TAPE_STACK.tapes.pop()
        return False

    def __len__(self) -> int:
        return len(self.nodes)


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_TAPE_STACK = _TapeStack()  # each thread's entered tapes, innermost last
# tapes entered and not exited, in every thread: while none is, an op reads
# no thread-local state
_open_tapes = 0
_open_lock = threading.Lock()
_FLOAT64 = np.dtype(np.float64)


def active_tape() -> Tape | None:
    """The innermost tape this thread entered, if any."""
    tapes = _TAPE_STACK.tapes if _open_tapes else None
    return tapes[-1] if tapes else None


def in_threads(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, the first on the caller's thread
    and each other on a thread of its own, started and joined within the
    call. Each thread runs in a copy of the caller's context, so
    ``np.errstate`` holds in it. Once every thread has finished, the error
    of the first item that failed is raised."""
    if len(items) == 1:
        return [fn(items[0])]
    results, errors = [None] * len(items), {}

    def run(i):
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            errors[i] = exc

    workers = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run, i)) for i in range(1, len(items))]
    try:
        for worker in workers:
            worker.start()
        run(0)
    finally:
        for worker in workers:
            if worker.ident is not None:
                worker.join()
    if errors:
        raise errors[min(errors)]
    return results


class Tensor:
    """A dense float64 array plus gradient metadata.

    ``requires_grad`` marks trainable leaves; tensors produced by recorded
    operations inherit it, with their tape and the node that recorded them.
    :func:`backward` writes ``grad`` into leaves only.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape", "node")

    def __init__(self, data, requires_grad: bool = False):
        # a float64 C-contiguous ndarray is kept as is, the same object
        # np.asarray would return; anything else is copied. np.asarray with
        # order="C" keeps 0-d arrays 0-d (ascontiguousarray silently promotes
        # them to 1-d). An equal dtype that is not the canonical float64
        # object takes the np.asarray path, which keeps the array too
        if not (type(data) is np.ndarray and data.dtype is _FLOAT64
                and data.flags.c_contiguous):
            data = np.asarray(data, dtype=np.float64, order="C")
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None
        self.node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_CONSTANT = Tensor(0.0)  # the tape key of every input that gets no gradient


def as_tensor(value) -> Tensor:
    """Wrap a scalar or array as a constant (non-trainable) tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _keys(*inputs: Tensor) -> tuple | None:
    """Each input's key on the active tape (a trainable leaf itself, a
    recorded output its node, else ``_CONSTANT``); None if not recorded."""
    if (_open_tapes and _TAPE_STACK.tapes
            and any(t.requires_grad for t in inputs)):
        return tuple((t.node or t) if t.requires_grad else _CONSTANT for t in inputs)
    return None


def _record(kind: str, keys: tuple, out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], list[tuple[object, np.ndarray]]]) -> Tensor:
    out = Tensor(out_data, requires_grad=True)
    out.tape, out.node = _TAPE_STACK.tapes[-1], _Node(kind, keys, backward_fn)
    out.tape.nodes.append(out.node)
    return out


# ---------------------------------------------------------------------------
# broadcasting (NumPy rules)
# ---------------------------------------------------------------------------

def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    if math.prod(shape) == 1:
        return np.sum(grad).reshape(shape)
    lead = grad.ndim - len(shape)
    if lead > 0:
        grad = grad.sum(axis=tuple(range(lead)))
    for axis, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _binary(kind: str, a, b, forward, da, db, reads_operands=False) -> Tensor:
    if type(a) is not Tensor:
        a = as_tensor(a)
    if type(b) is not Tensor:
        b = as_tensor(b)
    try:
        out = forward(a.data, b.data)
    except ValueError:  # float64 arithmetic raises it only for broadcasting
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not "
                         "broadcast") from None
    if (keys := _keys(a, b)) is None:
        return Tensor(out)
    ka, kb = keys
    x, y = (a.data, b.data) if reads_operands else (None, None)

    def backward_fn(g, sa=a.shape, sb=b.shape):
        grads = []
        if ka.requires_grad:
            grads.append((ka, _unbroadcast(da(g, x, y), sa)))
        if kb.requires_grad:
            grads.append((kb, _unbroadcast(db(g, x, y), sb)))
        return grads

    return _record(kind, keys, out, backward_fn)


# ---------------------------------------------------------------------------
# elementwise operations
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply,
                   lambda g, x, y: g * y, lambda g, x, y: g * x, True)


def _quiet_div(x, y):
    with np.errstate(divide="ignore"):
        return x / y


def div(a, b) -> Tensor:
    # division by exact zero propagates inf, as documented
    return _binary("div", a, b, _quiet_div,
                   lambda g, x, y: _quiet_div(g, y),
                   lambda g, x, y: _quiet_div(-g * x, y * y), True)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    if (keys := _keys(a)) is None:
        return Tensor(out)

    def backward_fn(g):
        return [(keys[0], g * 0.5 / out)]

    return _record("sqrt", keys, out, backward_fn)


def gelu(a, overwrite: bool = False) -> Tensor:
    # one buffer t: the cube is (x * x) * x (``x ** 3`` goes through pow,
    # ~100x slower), then tanh, then the output, all in place. It rounds as
    # 0.5 * x * (1 + tanh(s (x + c x^3))) does: it only commutes products
    # and scales by 0.5. On a tape the local slope is formed from tanh
    # before t becomes the output, and the node keeps only the slope.
    # ``overwrite`` lets a call with no active tape write its output over
    # ``a``'s array, _GELU_BLOCK elements at a time through one scratch
    # block, so no second full-size buffer is live; on a tape it is ignored
    a = as_tensor(a)
    x = a.data
    if overwrite and active_tape() is None:
        xs = x.reshape(-1)
        scratch = np.empty(min(xs.size, _GELU_BLOCK))
        for start in range(0, xs.size, _GELU_BLOCK):
            xb = xs[start:start + _GELU_BLOCK]
            t = scratch[:xb.size]
            _gelu_inner(xb, t)
            t += 1.0
            t *= xb
            np.multiply(t, 0.5, out=xb)
        return Tensor(x)
    t = np.empty_like(x)
    _gelu_inner(x, t)
    keys = _keys(a)
    if keys is not None:
        # 0.5 (1 + t) + 0.5 x (1 - t^2) dinner. The node keeps the slope, a
        # full buffer; dinner and 0.5 (1 + t) are formed a block at a time in
        # one scratch array, and the 1 + t of each block serves the output
        # too. x, t and slope are C-contiguous, so reshape(-1) gives views
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        slope *= x
        slope *= 0.5
        xs, ts, ss = x.reshape(-1), t.reshape(-1), slope.reshape(-1)
        scratch = np.empty(min(xs.size, _GELU_BLOCK))
        for start in range(0, xs.size, _GELU_BLOCK):
            stop = start + _GELU_BLOCK
            xb, tb, sb = xs[start:stop], ts[start:stop], ss[start:stop]
            d = scratch[:xb.size]
            np.multiply(xb, xb, out=d)
            d *= 3.0 * GELU_CUBIC_COEFF
            d += 1.0
            d *= _GELU_SCALE
            sb *= d
            tb += 1.0
            np.multiply(tb, 0.5, out=d)
            sb += d
    else:
        t += 1.0
    t *= x
    t *= 0.5
    if keys is None:
        return Tensor(t)

    def backward_fn(g):
        # a node runs once, so the slope can take the product in place
        np.multiply(slope, g, out=slope)
        return [(keys[0], slope)]

    return _record("gelu", keys, t, backward_fn)


def _gelu_inner(x: np.ndarray, t: np.ndarray) -> None:
    """tanh(s (x + c x^3)) of ``x`` into ``t``, in place."""
    np.multiply(x, x, out=t)
    t *= x
    t *= GELU_CUBIC_COEFF
    t += x
    t *= _GELU_SCALE
    np.tanh(t, out=t)


# ---------------------------------------------------------------------------
# matrix and reduction operations
# ---------------------------------------------------------------------------

def matmul(a, b, transpose_b: bool = False) -> Tensor:
    """Matrix product with optional equal leading batch dims (or a 2-D side
    shared over the batch). With ``transpose_b`` the right operand is ``b``
    with its last two axes swapped, read as a view: a C-order copy would
    round the product differently."""
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {x.shape} @ {y.shape}")
    if transpose_b:
        y = np.swapaxes(y, -1, -2)
    if x.shape[-1] != y.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {x.shape} @ {y.shape}")
    la, lb = x.shape[:-2], y.shape[:-2]
    if la and lb and la != lb:
        raise ShapeError(f"matmul batch dims disagree: {x.shape} @ {y.shape}")
    out = np.matmul(x, y)
    if (keys := _keys(a, b)) is None:
        return Tensor(out)
    ka, kb = keys
    x, y = (x if kb.requires_grad else None), (y if ka.requires_grad else None)

    def backward_fn(g, na=a.ndim, nb=b.ndim):
        grads = []
        if ka.requires_grad:
            ga = np.matmul(g, np.swapaxes(y, -1, -2))
            if ga.ndim > na:
                ga = ga.sum(axis=tuple(range(ga.ndim - na)))
            grads.append((ka, ga))
        if kb.requires_grad:
            gb = (np.matmul(np.swapaxes(g, -1, -2), x) if transpose_b
                  else np.matmul(np.swapaxes(x, -1, -2), g))
            if gb.ndim > nb:
                gb = gb.sum(axis=tuple(range(gb.ndim - nb)))
            grads.append((kb, gb))
        return grads

    return _record("matmul", keys, out, backward_fn)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for a ``(..., k)`` input, a ``(k, n)`` weight and an
    ``(n,)`` bias, as one tape node.

    The bias is added in place into the product, which rounds as the two
    separate operations do. The backward folds the leading dims into rows,
    so each operand's gradient is one 2-D product (or sum) over all rows.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: input {x.shape}, weight {w.shape} and "
                         f"bias {b.shape} do not fit")
    out = np.matmul(x.data, w.data)
    out += b.data
    if (keys := _keys(x, w, b)) is None:
        return Tensor(out)
    kx, kw, kb = keys
    wt = w.data.T if kx.requires_grad else None
    rows = x.data.reshape(-1, x.shape[-1]) if kw.requires_grad else None

    def backward_fn(g, shape=x.shape):
        g2 = g.reshape(-1, g.shape[-1])
        grads = []
        if kx.requires_grad:
            grads.append((kx, np.matmul(g2, wt).reshape(shape)))
        if kw.requires_grad:
            grads.append((kw, np.matmul(rows.T, g2)))
        if kb.requires_grad:
            grads.append((kb, np.add.reduce(g2, axis=0)))
        return grads

    return _record("linear", keys, out, backward_fn)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """A ``(B, L, H * hd)`` array as a ``(B, H, L, hd)`` view."""
    b, length, d = x.shape
    return x.reshape(b, length, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """A ``(B, H, L, hd)`` array as a new ``(B, L, H * hd)`` array."""
    b, heads, length, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, heads * hd)


def _check_heads(kind: str, shape: tuple[int, ...], heads: int) -> None:
    if len(shape) != 3 or heads < 1 or shape[-1] % heads:
        raise ShapeError(f"{kind}: need (B, L, D) with D divisible by "
                         f"{heads} heads, got {shape}")


def attention_scores(q, k, mask, heads: int) -> Tensor:
    """Scaled dot-product scores ``q kᵀ / sqrt(hd) + mask`` per head, as one
    tape node.

    ``q`` and ``k`` are ``(B, L, D)``, split into ``heads`` heads of width
    ``hd = D / heads``; the output is ``(B, heads, L, L)``. ``mask`` is a
    constant that broadcasts against it (an ``(L, L)`` causal mask, say)
    and gets no gradient. Scale and mask are applied in place on the
    product, which rounds as the separate operations do.
    """
    q, k = as_tensor(q), as_tensor(k)
    _check_heads("attention_scores", q.shape, heads)
    if k.shape != q.shape:
        raise ShapeError(f"attention_scores: q {q.shape} and k {k.shape} differ")
    scale = 1.0 / np.sqrt(q.shape[-1] // heads)
    q4, k4 = _split_heads(q.data, heads), _split_heads(k.data, heads)
    out = np.matmul(q4, np.swapaxes(k4, -1, -2))
    out *= scale
    out += as_tensor(mask).data
    if (keys := _keys(q, k)) is None:
        return Tensor(out)
    kq, kk = keys
    q4, k4 = (q4 if kk.requires_grad else None), (k4 if kq.requires_grad else None)

    def backward_fn(g):
        gs = g * scale
        grads = []
        if kq.requires_grad:
            grads.append((kq, _merge_heads(np.matmul(gs, k4))))
        if kk.requires_grad:
            grads.append((kk, _merge_heads(np.matmul(np.swapaxes(gs, -1, -2),
                                                     q4))))
        return grads

    return _record("attention_scores", keys, out, backward_fn)


def attention_context(weights, v, heads: int) -> Tensor:
    """Attention ``weights @ v`` per head, merged back to ``(B, L, D)``, as
    one tape node; ``weights`` is ``(B, heads, L, L)`` and ``v`` is
    ``(B, L, D)``."""
    weights, v = as_tensor(weights), as_tensor(v)
    _check_heads("attention_context", v.shape, heads)
    b, length, _ = v.shape
    if weights.shape != (b, heads, length, length):
        raise ShapeError(f"attention_context: weights {weights.shape} do not "
                         f"fit v {v.shape} with {heads} heads")
    v4 = _split_heads(v.data, heads)
    out = _merge_heads(np.matmul(weights.data, v4))
    if (keys := _keys(weights, v)) is None:
        return Tensor(out)
    kw, kv = keys
    w4 = weights.data if kv.requires_grad else None
    v4 = v4 if kw.requires_grad else None

    def backward_fn(g):
        g4 = _split_heads(g, heads)
        grads = []
        if kw.requires_grad:
            grads.append((kw, np.matmul(g4, np.swapaxes(v4, -1, -2))))
        if kv.requires_grad:
            grads.append((kv, _merge_heads(np.matmul(
                np.swapaxes(w4, -1, -2), g4))))
        return grads

    return _record("attention_context", keys, out, backward_fn)


def _normalize_axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    return _reduce("sum", a, axis, keepdims)


def tmean(a, axis=None, keepdims: bool = False, count: int | None = None
          ) -> Tensor:
    """The mean over ``axis``; given ``count``, the sum divided by it: a
    share's part of the mean over a larger batch."""
    return _reduce("mean", a, axis, keepdims, count)


def _reduce(kind: str, a, axis, keepdims: bool, count: int | None = None
            ) -> Tensor:
    # np.add.reduce and a division in place are what ndarray.sum and
    # ndarray.mean compute, without their Python wrappers
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    out = np.add.reduce(a.data, axes, None, None, keepdims)
    if count is None:
        count = math.prod([a.shape[ax] for ax in axes]) if kind == "mean" else 1
    if count != 1:  # a full reduction without keepdims gives a scalar
        out = np.true_divide(out, count,
                             out=out if type(out) is np.ndarray else None)
    if (keys := _keys(a)) is None:
        return Tensor(out)
    kept = tuple(1 if ax in axes else s for ax, s in enumerate(a.shape))

    def backward_fn(g, shape=a.shape):
        # a sum's gradient is divided by 1, which copies it exactly
        return [(keys[0], np.broadcast_to(g.reshape(kept), shape) / count)]

    return _record(kind, keys, out, backward_fn)


def softmax(a, axis: int = -1) -> Tensor:
    """Shift-by-max stabilized softmax along ``axis``."""
    # shift, exponentiate and normalize in one buffer; the backward forms
    # (g - sum(g * out)) * out in the buffer of g * out. Both round as the
    # plain expressions do, operation for operation
    a = as_tensor(a)
    ax = axis % a.ndim if a.ndim else 0
    out = a.data - a.data.max(axis=ax, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=ax, keepdims=True)
    if (keys := _keys(a)) is None:
        return Tensor(out)

    def backward_fn(g):
        dx = g * out
        dot = dx.sum(axis=ax, keepdims=True)
        np.subtract(g, dot, out=dx)
        dx *= out
        return [(keys[0], dx)]

    return _record("softmax", keys, out, backward_fn)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to zero mean / unit variance, then apply
    the affine map ``gain * xhat + bias``."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm affine params must be ({d},), got "
                         f"{gain.shape} and {bias.shape}")
    # x is centered once: the variance is the mean of the centered squares,
    # the arithmetic np.var does, and the squares' buffer then holds the
    # output. Every step rounds as (x - mu) / sqrt(var + eps) * gain + bias
    # does; each mean is the sum over d then a division by d, which is what
    # np.mean computes
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xhat = x.data - mu
    out = xhat * xhat
    var = np.add.reduce(out, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data
    if (keys := _keys(x, gain, bias)) is None:
        return Tensor(out)
    kx, kg, kb = keys
    gd, inv = (gain.data, inv) if kx.requires_grad else (None, None)
    xhat = xhat if kx.requires_grad or kg.requires_grad else None

    def backward_fn(g):
        grads = []
        if kx.requires_grad:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), built
            # in dxhat's buffer with one scratch buffer
            dxhat = g * gd
            scratch = dxhat * xhat
            proj = np.add.reduce(scratch, axis=-1, keepdims=True) / d
            np.multiply(xhat, proj, out=scratch)
            dxhat -= np.add.reduce(dxhat, axis=-1, keepdims=True) / d
            dxhat -= scratch
            dxhat *= inv
            grads.append((kx, dxhat))
        lead = tuple(range(g.ndim - 1))
        if kg.requires_grad:
            grads.append((kg, (g * xhat).sum(axis=lead)))
        if kb.requires_grad:
            grads.append((kb, g.sum(axis=lead)))
        return grads

    return _record("layer_norm", keys, out, backward_fn)


# ---------------------------------------------------------------------------
# shape operations
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)
    if (keys := _keys(a)) is None:
        return Tensor(out)

    def backward_fn(g, shape=a.shape):
        return [(keys[0], g.reshape(shape))]

    return _record("reshape", keys, out, backward_fn)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    perm = tuple(axes) if axes is not None else tuple(reversed(range(a.ndim)))
    out = a.data.transpose(perm)
    if (keys := _keys(a)) is None:
        return Tensor(out)
    inv = np.argsort([ax % len(perm) for ax in perm])

    def backward_fn(g):
        return [(keys[0], g.transpose(inv))]

    return _record("transpose", keys, out, backward_fn)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([t.data for t in ts], axis=axis)
    if (keys := _keys(*ts)) is None:
        return Tensor(out)
    offsets = np.cumsum([0] + [t.shape[axis] for t in ts])

    def backward_fn(g):
        grads = []
        for key, start, stop in zip(keys, offsets[:-1], offsets[1:]):
            if not key.requires_grad:
                continue
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            grads.append((key, g[tuple(idx)]))
        return grads

    return _record("concat", keys, out, backward_fn)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` elements along ``axis``."""
    a = as_tensor(a)
    ax = axis % a.ndim
    if start < 0 or start + length > a.shape[ax]:
        raise ShapeError(f"narrow [{start}:{start + length}) out of range for "
                         f"axis {ax} of shape {a.shape}")
    idx = [slice(None)] * a.ndim
    idx[ax] = slice(start, start + length)
    idx = tuple(idx)
    out = a.data[idx].copy()
    if (keys := _keys(a)) is None:
        return Tensor(out)

    def backward_fn(g, shape=a.shape):
        full = np.zeros(shape)
        full[idx] = g
        return [(keys[0], full)]

    return _record("narrow", keys, out, backward_fn)


def gather_rows(a, indices) -> Tensor:
    """Select rows along axis 0; duplicate indices accumulate gradient."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out = a.data[idx]
    if (keys := _keys(a)) is None:
        return Tensor(out)

    def backward_fn(g, shape=a.shape):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        return [(keys[0], full)]

    return _record("gather_rows", keys, out, backward_fn)


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def sum_shares(parts: Sequence[Tensor]) -> Tensor:
    """The sum of ``parts`` on the active tape, which recorded the first;
    each other was recorded on a tape of another thread, and
    :func:`backward` replays it on a thread of its own."""
    tape = active_tape()
    mark, total = len(tape.nodes), parts[0]
    for part in parts[1:]:
        total = add(total, part)
    tape.shares = (mark, list(parts[1:]))
    return total


def _replay(nodes: list[_Node], grads: dict) -> None:
    """Run ``nodes``' backward functions in reverse, from and into ``grads``."""
    for node in reversed(nodes):
        fn, node.backward_fn = node.backward_fn, None
        if fn is None:
            raise AutodiffError("this tape was already replayed by backward")
        g_out = grads.pop(node, None)
        if g_out is None:
            continue
        for key, g in fn(g_out):
            if key.requires_grad:
                grads[key] = grads[key] + g if key in grads else g


def backward(loss: Tensor, seed: np.ndarray | None = None,
             into: dict | None = None) -> None:
    """Backpropagate from a scalar loss through its tape, which replays once.

    Gradients accumulate into leaf tensors that require gradients (tensors
    that no node on the tape produced); frozen operands get no gradient work.
    Gradients accumulate (+=) across fan-out, and a leaf's ``.grad``
    accumulates across backward calls on separate tapes. Each node drops its
    backward function, and the arrays it saved, once it has run, so a second
    backward on the same tape raises :class:`AutodiffError`. Each
    intermediate gradient is freed as soon as the node that produced its
    tensor has consumed it, so intermediate tensors never carry ``.grad``.

    A tape's :func:`sum_shares` parts are replayed through this function,
    each on a thread of its own, once the nodes recorded from their sum on
    have run; their leaf gradients are added in share order after the
    caller's. ``seed`` is the loss's gradient (ones by default), and with
    ``into`` the leaf gradients go into that dict instead of ``.grad``.
    """
    if loss.size != 1:
        raise AutodiffError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss.tape is None:
        raise AutodiffError("loss is not attached to a tape (no recorded operations)")
    # keyed by leaf tensors and by the nodes of recorded outputs
    grads: dict[object, np.ndarray] = {
        loss.node: np.ones_like(loss.data) if seed is None else seed}
    nodes = loss.tape.nodes
    mark, parts = loss.tape.shares or (0, ())
    _replay(nodes[mark:], grads)
    seeds = [(part, grads.pop(part.node)) for part in parts
             if part.node in grads]

    def replay(share):
        leaves = {}
        if share is None:
            _replay(nodes[:mark], grads)
            # what is left is keyed by leaves, and by outputs of other tapes
            for key, g in grads.items():
                if isinstance(key, Tensor):
                    leaves[key] = np.asarray(g, dtype=np.float64).reshape(key.shape)
        else:  # looked up when called, so a wrapper of backward sees it
            backward(*share, leaves)
        return leaves

    leaves, *others = in_threads(replay, [None, *seeds])
    for share in others:
        for key, g in share.items():
            leaves[key] = leaves[key] + g if key in leaves else g
    if into is not None:
        into.update(leaves)
        return
    for key, g in leaves.items():
        key.grad = g.copy() if key.grad is None else key.grad + g


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float = 1e-5) -> float:
    """Compare backward gradients of ``f()`` against central differences.

    Returns the max over all coordinates of |a - n| / max(1e-12, |a| + |n|).
    ``f`` must be deterministic; numeric evaluations run tape-free.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    saved = [p.grad for p in params]
    for p in params:
        p.grad = None
    with Tape():
        loss = f()
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    for p, g in zip(params, saved):
        p.grad = g

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f().data)
            flat[i] = orig - eps
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(aflat[i] - numeric) / max(1e-12, abs(aflat[i]) + abs(numeric))
            worst = max(worst, rel)
    return worst
