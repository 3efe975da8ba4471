"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every differentiable operation in execution order
(define-by-run); :func:`backward` replays the tape once in reverse and
accumulates into leaf tensors that require gradients; frozen operands get no
gradient work. Everything is 64-bit. Elementwise operations broadcast by
NumPy rules, so a batch of windows runs through the same operations as a
single one; the backward pass sums each gradient back down to its operand's
shape.
"""

from __future__ import annotations

import ctypes
import io
import math
import os
import struct
from typing import BinaryIO, Callable, Sequence

import numpy as np

# tanh GELU approximation, cubic term coefficient
GELU_CUBIC_COEFF = 0.044715
_GELU_SCALE = np.sqrt(2.0 / np.pi)

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
    __slots__ = ("kind", "inputs", "output", "backward_fn")

    def __init__(self, kind, inputs, output, backward_fn):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Append-only record of operations; reverse append order is a valid
    topological order for backpropagation."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self.nodes)


_TAPE_STACK: list[Tape] = []
_FLOAT64 = np.dtype(np.float64)


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A dense float64 array plus gradient metadata.

    ``requires_grad`` marks trainable leaves; tensors produced by recorded
    operations inherit it and remember the tape they were recorded on.
    :func:`backward` writes ``grad`` into leaves only.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        # a float64 C-contiguous ndarray is kept as is, the same object
        # np.asarray would return; anything else is copied. np.asarray with
        # order="C" keeps 0-d arrays 0-d (ascontiguousarray silently promotes
        # them to 1-d). An equal dtype that is not the canonical float64
        # object takes the np.asarray path, which keeps the array too
        if not (type(data) is np.ndarray and data.dtype is _FLOAT64
                and data.flags.c_contiguous):
            data = np.asarray(data, dtype=np.float64, order="C")
            if not data.flags.c_contiguous:
                data = np.ascontiguousarray(data)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None

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


def as_tensor(value) -> Tensor:
    """Wrap a scalar or array as a constant (non-trainable) tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _record(kind: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]]) -> Tensor:
    out = Tensor(out_data)
    if _TAPE_STACK:
        for t in inputs:
            if t.requires_grad:
                tape = _TAPE_STACK[-1]
                out.requires_grad = True
                out.tape = tape
                tape.nodes.append(_Node(kind, tuple(inputs), out, backward_fn))
                break
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


def _binary(kind: str, a, b, forward, da, db) -> Tensor:
    if type(a) is not Tensor:
        a = as_tensor(a)
    if type(b) is not Tensor:
        b = as_tensor(b)
    try:
        out = forward(a.data, b.data)
    except ValueError:  # float64 arithmetic raises it only for broadcasting
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not "
                         "broadcast") from None
    if not (_TAPE_STACK and (a.requires_grad or b.requires_grad)):
        return Tensor(out)      # nothing to record, as in a tape-free forward

    def backward_fn(g):
        grads = []
        if a.requires_grad:
            grads.append((a, _unbroadcast(da(g, a.data, b.data), a.shape)))
        if b.requires_grad:
            grads.append((b, _unbroadcast(db(g, a.data, b.data), b.shape)))
        return grads

    return _record(kind, (a, b), out, backward_fn)


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
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def _quiet_div(x, y):
    with np.errstate(divide="ignore"):
        return x / y


def div(a, b) -> Tensor:
    # division by exact zero propagates inf, as documented
    return _binary("div", a, b, _quiet_div,
                   lambda g, x, y: _quiet_div(g, y),
                   lambda g, x, y: _quiet_div(-g * x, y * y))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def backward_fn(g):
        return [(a, g * 0.5 / out)]

    return _record("sqrt", (a,), out, backward_fn)


def gelu(a) -> Tensor:
    # the cube is x2 * x: ``x ** 3`` goes through pow, about 100x slower on
    # an activation-sized array; the backward reuses the forward's x2 and
    # tanh. The forward runs in place on those two buffers plus the output,
    # three live arrays; it rounds as 0.5 * x * (1 + tanh(s (x + c x^3)))
    # does, since it only commutes products and scales by 0.5
    a = as_tensor(a)
    x = a.data
    x2 = x * x
    t = x2 * x
    t *= GELU_CUBIC_COEFF
    t += x
    t *= _GELU_SCALE
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

    def backward_fn(g):
        # g * (0.5 (1 + t) + 0.5 x (1 - t^2) dinner), evaluated in place on
        # two buffers
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        slope *= x
        slope *= 0.5
        dinner = x2 * (3.0 * GELU_CUBIC_COEFF)
        dinner += 1.0
        dinner *= _GELU_SCALE
        slope *= dinner
        np.add(t, 1.0, out=dinner)
        dinner *= 0.5
        slope += dinner
        slope *= g
        return [(a, slope)]

    return _record("gelu", (a,), out, backward_fn)


# ---------------------------------------------------------------------------
# matrix and reduction operations
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product with optional equal leading batch dims (or a 2-D side
    shared over the batch)."""
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {x.shape} @ {y.shape}")
    if x.shape[-1] != y.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {x.shape} @ {y.shape}")
    la, lb = x.shape[:-2], y.shape[:-2]
    if la and lb and la != lb:
        raise ShapeError(f"matmul batch dims disagree: {x.shape} @ {y.shape}")
    out = np.matmul(x, y)

    def backward_fn(g):
        grads = []
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            if ga.ndim > a.ndim:
                ga = ga.sum(axis=tuple(range(ga.ndim - a.ndim)))
            grads.append((a, ga))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            if gb.ndim > b.ndim:
                gb = gb.sum(axis=tuple(range(gb.ndim - b.ndim)))
            grads.append((b, gb))
        return grads

    return _record("matmul", (a, b), out, backward_fn)


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

    def backward_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        grads = []
        if x.requires_grad:
            grads.append((x, np.matmul(g2, w.data.T).reshape(x.shape)))
        if w.requires_grad:
            rows = x.data.reshape(-1, x.shape[-1])
            grads.append((w, np.matmul(rows.T, g2)))
        if b.requires_grad:
            grads.append((b, np.add.reduce(g2, axis=0)))
        return grads

    return _record("linear", (x, w, b), out, backward_fn)


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

    def backward_fn(g):
        gs = g * scale
        grads = []
        if q.requires_grad:
            grads.append((q, _merge_heads(np.matmul(gs, k4))))
        if k.requires_grad:
            grads.append((k, _merge_heads(np.matmul(np.swapaxes(gs, -1, -2),
                                                    q4))))
        return grads

    return _record("attention_scores", (q, k), out, backward_fn)


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

    def backward_fn(g):
        g4 = _split_heads(g, heads)
        grads = []
        if weights.requires_grad:
            grads.append((weights, np.matmul(g4, np.swapaxes(v4, -1, -2))))
        if v.requires_grad:
            grads.append((v, _merge_heads(np.matmul(
                np.swapaxes(weights.data, -1, -2), g4))))
        return grads

    return _record("attention_context", (weights, v), out, backward_fn)


def _normalize_axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _kept_shape(shape: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if ax in axes else s for ax, s in enumerate(shape))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    kept = _kept_shape(a.shape, axes)

    def backward_fn(g):
        return [(a, np.broadcast_to(g.reshape(kept), a.shape).copy())]

    return _record("sum", (a,), out, backward_fn)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    count = math.prod(a.shape[ax] for ax in axes)
    out = a.data.mean(axis=axes, keepdims=keepdims)
    kept = _kept_shape(a.shape, axes)

    def backward_fn(g):
        return [(a, np.broadcast_to(g.reshape(kept), a.shape) / count)]

    return _record("mean", (a,), out, backward_fn)


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

    def backward_fn(g, _out=out):
        dx = g * _out
        dot = dx.sum(axis=ax, keepdims=True)
        np.subtract(g, dot, out=dx)
        dx *= _out
        return [(a, dx)]

    return _record("softmax", (a,), out, backward_fn)


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

    def backward_fn(g):
        grads = []
        if x.requires_grad:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), built
            # in dxhat's buffer with one scratch buffer
            dxhat = g * gain.data
            scratch = dxhat * xhat
            proj = np.add.reduce(scratch, axis=-1, keepdims=True) / d
            np.multiply(xhat, proj, out=scratch)
            dxhat -= np.add.reduce(dxhat, axis=-1, keepdims=True) / d
            dxhat -= scratch
            dxhat *= inv
            grads.append((x, dxhat))
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            grads.append((gain, (g * xhat).sum(axis=lead)))
        if bias.requires_grad:
            grads.append((bias, g.sum(axis=lead)))
        return grads

    return _record("layer_norm", (x, gain, bias), out, backward_fn)


# ---------------------------------------------------------------------------
# shape operations
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def backward_fn(g):
        return [(a, g.reshape(a.shape))]

    return _record("reshape", (a,), out, backward_fn)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    perm = tuple(axes) if axes is not None else tuple(reversed(range(a.ndim)))
    out = a.data.transpose(perm)
    inv = [0] * len(perm)
    for i, ax in enumerate(perm):
        inv[ax % len(perm)] = i

    def backward_fn(g):
        return [(a, g.transpose(inv))]

    return _record("transpose", (a,), out, backward_fn)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        grads = []
        for t, start, stop in zip(ts, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            grads.append((t, g[tuple(idx)]))
        return grads

    return _record("concat", tuple(ts), out, backward_fn)


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

    def backward_fn(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return [(a, full)]

    return _record("narrow", (a,), out, backward_fn)


def gather_rows(a, indices) -> Tensor:
    """Select rows along axis 0; duplicate indices accumulate gradient."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out = a.data[idx]

    def backward_fn(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return [(a, full)]

    return _record("gather_rows", (a,), out, backward_fn)


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through its tape.

    Gradients accumulate into leaf tensors that require gradients (tensors
    that no node on the tape produced); frozen operands get no gradient work.
    Gradients accumulate (+=) across fan-out and across repeated backward
    calls. Each intermediate gradient is freed as soon as the node that
    produced its tensor has consumed it, so intermediate tensors never carry
    ``.grad``.
    """
    if loss.size != 1:
        raise AutodiffError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss.tape is None:
        raise AutodiffError("loss is not attached to a tape (no recorded operations)")
    nodes = loss.tape.nodes
    produced = {id(node.output) for node in nodes}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    for node in reversed(nodes):
        g_out = grads.pop(id(node.output), None)
        if g_out is None:
            continue
        for tensor, g in node.backward_fn(g_out):
            if not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
                if key not in produced:
                    leaves[key] = tensor
    for key, tensor in leaves.items():
        g = np.asarray(grads[key], dtype=np.float64).reshape(tensor.shape)
        tensor.grad = g.copy() if tensor.grad is None else tensor.grad + g


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


# ---------------------------------------------------------------------------
# serialization: row-major float64 little-endian, rank and dims as u64
# ---------------------------------------------------------------------------

def write_array(fh: BinaryIO, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    fh.write(struct.pack("<Q", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(arr.astype("<f8", copy=False).tobytes())


def read_array(fh: BinaryIO) -> np.ndarray:
    raw = fh.read(8)
    if len(raw) != 8:
        raise IOError("truncated tensor record (rank)")
    rank = struct.unpack("<Q", raw)[0]
    dims = []
    for _ in range(rank):
        raw = fh.read(8)
        if len(raw) != 8:
            raise IOError("truncated tensor record (dims)")
        dims.append(struct.unpack("<Q", raw)[0])
    # Python ints: a product of u64 dims can wrap around in int64
    count = math.prod(dims)
    if count * 8 > _bytes_left(fh):
        raise IOError("truncated tensor record (data)")
    raw = fh.read(count * 8)
    try:
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
    except ValueError as exc:  # an empty record with dims numpy cannot hold
        raise IOError(f"invalid tensor record dims {dims}: {exc}") from exc


def _bytes_left(fh: BinaryIO) -> int:
    pos = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(pos)
    return end - pos


def write_named_array(fh: BinaryIO, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<Q", len(encoded)))
    fh.write(encoded)
    write_array(fh, arr)


def read_named_array(fh: BinaryIO) -> tuple[str, np.ndarray]:
    raw = fh.read(8)
    if len(raw) != 8:
        raise IOError("truncated named record (name length)")
    n = struct.unpack("<Q", raw)[0]
    if n > _bytes_left(fh):
        raise IOError("truncated named record (name)")
    try:
        name = fh.read(n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IOError(f"named record name is not UTF-8: {exc}") from exc
    return name, read_array(fh)
