"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every differentiable operation in execution order
(define-by-run); :func:`backward` replays the tape once in reverse and
accumulates gradients into every tensor that requires them.  Everything is
64-bit. Elementwise operations broadcast by NumPy rules, so a batch of
windows runs through the same operations as a single one; the backward pass
sums each gradient back down to its operand's shape.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Callable, Sequence

import numpy as np

# tanh GELU approximation, cubic term coefficient
GELU_CUBIC_COEFF = 0.044715
_GELU_SCALE = np.sqrt(2.0 / np.pi)


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


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A dense float64 array plus gradient metadata.

    ``requires_grad`` marks trainable leaves; tensors produced by recorded
    operations inherit it and remember the tape they were recorded on.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        # np.asarray with order="C" keeps 0-d arrays 0-d (ascontiguousarray
        # silently promotes them to 1-d)
        arr = np.asarray(data, dtype=np.float64, order="C")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; the module-level functions do the real work
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(value) -> Tensor:
    """Wrap a scalar or array as a constant (non-trainable) tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _record(kind: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]]) -> Tensor:
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape = tape
        tape.nodes.append(_Node(kind, tuple(inputs), out, backward_fn))
    return out


# ---------------------------------------------------------------------------
# broadcasting (NumPy rules)
# ---------------------------------------------------------------------------

def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    if int(np.prod(shape)) == 1:
        return np.sum(grad).reshape(shape)
    lead = grad.ndim - len(shape)
    if lead > 0:
        grad = grad.sum(axis=tuple(range(lead)))
    for axis, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _binary(kind: str, a, b, forward, da, db) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not "
                         "broadcast") from None
    out = forward(a.data, b.data)

    def backward_fn(g):
        return [(a, _unbroadcast(da(g, a.data, b.data), a.shape)),
                (b, _unbroadcast(db(g, a.data, b.data), b.shape))]

    return _record(kind, (a, b), out, backward_fn)


# ---------------------------------------------------------------------------
# elementwise operations
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def _quiet_div(x, y):
    with np.errstate(divide="ignore"):
        return x / y


def div(a, b) -> Tensor:
    # division by exact zero propagates inf, as documented
    return _binary("div", a, b, _quiet_div,
                   lambda g, x, y: _quiet_div(g, y),
                   lambda g, x, y: _quiet_div(-g * x, y * y))


def _unary(kind: str, a, forward, dfn) -> Tensor:
    a = as_tensor(a)
    out = forward(a.data)

    def backward_fn(g, _out=out):
        return [(a, dfn(g, a.data, _out))]

    return _record(kind, (a,), out, backward_fn)


def neg(a) -> Tensor:
    return _unary("neg", a, lambda x: -x, lambda g, x, o: -g)


def exp(a) -> Tensor:
    return _unary("exp", a, np.exp, lambda g, x, o: g * o)


def sqrt(a) -> Tensor:
    return _unary("sqrt", a, np.sqrt, lambda g, x, o: g * 0.5 / o)


def tanh(a) -> Tensor:
    return _unary("tanh", a, np.tanh, lambda g, x, o: g * (1.0 - o * o))


def relu(a) -> Tensor:
    return _unary("relu", a, lambda x: np.maximum(x, 0.0),
                  lambda g, x, o: g * (x > 0.0))


def gelu(a) -> Tensor:
    def forward(x):
        inner = _GELU_SCALE * (x + GELU_CUBIC_COEFF * x ** 3)
        return 0.5 * x * (1.0 + np.tanh(inner))

    def dfn(g, x, o):
        inner = _GELU_SCALE * (x + GELU_CUBIC_COEFF * x ** 3)
        t = np.tanh(inner)
        dinner = _GELU_SCALE * (1.0 + 3.0 * GELU_CUBIC_COEFF * x ** 2)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)

    return _unary("gelu", a, forward, dfn)


# ---------------------------------------------------------------------------
# matrix and reduction operations
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product with optional equal leading batch dims (or a 2-D side
    shared over the batch)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    la, lb = a.shape[:-2], b.shape[:-2]
    if la and lb and la != lb:
        raise ShapeError(f"matmul batch dims disagree: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        if ga.ndim > a.ndim:
            ga = ga.sum(axis=tuple(range(ga.ndim - a.ndim)))
        if gb.ndim > b.ndim:
            gb = gb.sum(axis=tuple(range(gb.ndim - b.ndim)))
        return [(a, ga), (b, gb)]

    return _record("matmul", (a, b), out, backward_fn)


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
    count = int(np.prod([a.shape[ax] for ax in axes])) if a.ndim else 1
    out = a.data.mean(axis=axes, keepdims=keepdims)
    kept = _kept_shape(a.shape, axes)

    def backward_fn(g):
        return [(a, np.broadcast_to(g.reshape(kept), a.shape) / count)]

    return _record("mean", (a,), out, backward_fn)


def softmax(a, axis: int = -1) -> Tensor:
    """Shift-by-max stabilized softmax along ``axis``."""
    a = as_tensor(a)
    ax = axis % a.ndim if a.ndim else 0
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=ax, keepdims=True)

    def backward_fn(g, _out=out):
        dot = (g * _out).sum(axis=ax, keepdims=True)
        return [(a, (g - dot) * _out)]

    return _record("softmax", (a,), out, backward_fn)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to zero mean / unit variance, then apply
    the affine map ``gain * xhat + bias``."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine params must be ({d},), got "
                         f"{gain.shape} and {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxhat = g * gain.data
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return [(x, dx), (gain, dgain), (bias, dbias)]

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
    out = np.transpose(a.data, perm)
    inv = tuple(np.argsort(perm))

    def backward_fn(g):
        return [(a, np.transpose(g, inv))]

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

    Gradients accumulate (+=) across fan-out and across repeated backward
    calls; tensors with ``requires_grad=False`` are left untouched.
    """
    if loss.size != 1:
        raise AutodiffError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss.tape is None:
        raise AutodiffError("loss is not attached to a tape (no recorded operations)")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(loss.tape.nodes):
        g_out = grads.get(id(node.output))
        if g_out is None:
            continue
        for tensor, g in node.backward_fn(g_out):
            if not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = np.asarray(g, dtype=np.float64)
                holders[key] = tensor
    for key, tensor in holders.items():
        g = grads[key].reshape(tensor.shape)
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
    count = int(np.prod(dims)) if dims else 1
    raw = fh.read(count * 8)
    if len(raw) != count * 8:
        raise IOError("truncated tensor record (data)")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)


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
    raw = fh.read(n)
    if len(raw) != n:
        raise IOError("truncated named record (name)")
    return raw.decode("utf-8"), read_array(fh)
