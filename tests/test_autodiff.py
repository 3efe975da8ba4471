import threading
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

import s2ip.autodiff as ad
from s2ip.autodiff import Tape, Tensor, backward, grad_check
from s2ip.backbone import (MASK_FILL, Backbone, BackboneConfig,
                           TrainabilityPolicy)


def central_diff(f, arrays, eps=1e-6):
    """Independent finite-difference oracle: gradient of scalar f(arrays)
    w.r.t. every entry of every array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f()
            flat[i] = orig - eps
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def rel_err(a, b):
    """Largest entry-wise error of ``a`` against ``b``, relative to the
    entry's magnitude but never to less than 1e-3 of the largest entry: a
    central difference errs by about 1e-10 absolutely, which an entry near
    zero would read as a relative error of up to 1."""
    scale = np.abs(a) + np.abs(b)
    return np.max(np.abs(a - b) / np.maximum(max(1e-12, 1e-3 * scale.max()),
                                             scale))


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_add_vectors():
    out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_mul_scalar_broadcast():
    out = ad.mul(Tensor(2.0), Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(out.data, [[2.0, 4.0], [6.0, 8.0]])


def test_trailing_row_broadcast():
    out = ad.add(Tensor(np.zeros((2, 3))), Tensor([1.0, 2.0, 3.0]))
    assert np.array_equal(out.data, [[1, 2, 3], [1, 2, 3]])


def test_incompatible_shapes_rejected():
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        name = op.__name__
        with pytest.raises(ad.ShapeError, match=rf"^{name}: shapes \(2, 3\) "
                           r"and \(3, 2\) do not broadcast$"):
            op(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


@pytest.mark.parametrize("data", [
    np.arange(6, dtype=np.float32).reshape(2, 3),
    [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]],
    np.arange(12.0).reshape(3, 4)[:, ::2],
    np.arange(6.0).reshape(3, 2).T,
], ids=["float32", "list", "strided", "transposed"])
def test_tensor_copies_to_float64_c_contiguous(data):
    t = Tensor(data)
    assert t.data.dtype == np.float64 and t.data.flags.c_contiguous
    assert np.array_equal(t.data, np.asarray(data))
    if isinstance(data, np.ndarray):
        assert not np.shares_memory(t.data, data)


def test_tensor_keeps_float64_c_contiguous_array():
    for arr in (np.ones((2, 3)), np.array(2.5), np.arange(4.0)[1:]):
        assert Tensor(arr).data is arr
    assert Tensor(np.float64(2.5)).data.shape == ()


def test_div_by_zero_propagates_inf():
    out = ad.div(Tensor([1.0]), Tensor([0.0]))
    assert np.isinf(out.data[0])


def test_gelu_zero_fixed_point():
    assert ad.gelu(Tensor([0.0])).data[0] == 0.0


def test_matmul_hand_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    out = ad.matmul(Tensor(a), Tensor(np.eye(4)))
    assert np.allclose(out.data, a)


def test_matmul_dot_product():
    out = ad.matmul(Tensor([[1.0, 2.0, 3.0]]), Tensor([[4.0], [5.0], [6.0]]))
    assert out.shape == (1, 1)
    assert out.data[0, 0] == 32.0


def test_matmul_shape_errors():
    with pytest.raises(ad.ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ad.ShapeError):
        ad.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 4))))


def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [1 / 3] * 3)


def test_softmax_large_inputs_stable():
    out = ad.softmax(Tensor([1000.0, 1000.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_log3():
    out = ad.softmax(Tensor([0.0, np.log(3.0)]), axis=0)
    assert np.allclose(out.data, [0.25, 0.75])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(scale=50.0, size=(3, 5))
        out = ad.softmax(Tensor(x), axis=-1)
        assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-12)


def test_layer_norm_constant_row():
    out = ad.layer_norm(Tensor([[1.0, 1.0, 1.0]]), Tensor(np.ones(3)),
                        Tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_two_points():
    out = ad.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)),
                        Tensor(np.zeros(2)), eps=1e-14)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_zero_gain_collapses_to_bias():
    bias = np.array([2.0, -1.0, 0.5])
    out = ad.layer_norm(Tensor(np.random.default_rng(2).normal(size=(4, 3))),
                        Tensor(np.zeros(3)), Tensor(bias))
    assert np.allclose(out.data, np.broadcast_to(bias, (4, 3)))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_quadratic():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape():
        loss = ad.tsum(ad.mul(x, x))
    backward(loss)
    assert np.array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_fanout_accumulates():
    y = Tensor([1.0, 1.0], requires_grad=True)
    with Tape():
        loss = ad.add(ad.tsum(y), ad.tsum(y))
    backward(loss)
    assert np.array_equal(y.grad, [2.0, 2.0])


def test_backward_matmul_matches_finite_differences():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    with Tape():
        loss = ad.tsum(ad.matmul(a, b))
    backward(loss)

    def f():
        return float(np.sum(a.data @ b.data))

    expected = central_diff(f, [a.data, b.data])
    assert rel_err(a.grad, expected[0]) <= 1e-6
    assert rel_err(b.grad, expected[1]) <= 1e-6


def test_backward_frozen_gets_no_grad():
    frozen = Tensor([1.0, 2.0], requires_grad=False)
    live = Tensor([3.0, 4.0], requires_grad=True)
    with Tape():
        loss = ad.tsum(ad.mul(frozen, live))
    backward(loss)
    assert frozen.grad is None
    assert np.array_equal(live.grad, [1.0, 2.0])


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        out = ad.mul(x, x)
    with pytest.raises(ad.AutodiffError):
        backward(out)


@pytest.mark.parametrize("axis", [None, 1, -1, (0, 2), (-1, 0), ()])
@pytest.mark.parametrize("keepdims", [False, True])
def test_tape_free_reductions_match_ndarray_methods(axis, keepdims):
    data = np.random.default_rng(8).normal(size=(3, 32, 64))
    for op, method in ((ad.tsum, np.ndarray.sum), (ad.tmean, np.ndarray.mean)):
        got = op(Tensor(data), axis=axis, keepdims=keepdims).data
        want = np.asarray(method(data, axis=axis, keepdims=keepdims))
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_backward_requires_tape():
    x = Tensor([1.0], requires_grad=True)
    out = ad.tsum(ad.mul(x, x))  # no active tape
    with pytest.raises(ad.AutodiffError):
        backward(out)


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(4)
    a_data = rng.normal(size=(5, 5))
    grads = []
    for _ in range(2):
        a = Tensor(a_data.copy(), requires_grad=True)
        with Tape():
            loss = ad.tsum(ad.mul(ad.softmax(a, axis=1), a))
        backward(loss)
        grads.append(a.grad.copy())
    assert np.array_equal(grads[0], grads[1])


OPS = [
    ("add", lambda rng: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4))),
     lambda a, b: ad.add(a, b)),
    ("sub", lambda rng: (rng.normal(size=(3, 4)), rng.normal(size=(4,))),
     lambda a, b: ad.sub(a, b)),
    ("mul", lambda rng: (rng.normal(size=(2, 3)), rng.normal(size=(3,))),
     lambda a, b: ad.mul(a, b)),
    ("div", lambda rng: (rng.normal(size=(3, 3)), rng.normal(size=(3, 3)) + 3.0),
     lambda a, b: ad.div(a, b)),
    ("matmul", lambda rng: (rng.normal(size=(3, 4)), rng.normal(size=(4, 2))),
     lambda a, b: ad.matmul(a, b)),
    ("matmul_batched", lambda rng: (rng.normal(size=(2, 3, 4)),
                                    rng.normal(size=(4, 5))),
     lambda a, b: ad.matmul(a, b)),
    # general NumPy broadcasting: per-window scalars, a shared table, and
    # per-row offsets over a batch
    ("mul_batch_scalars", lambda rng: (rng.normal(size=(3, 1, 1)),
                                       rng.normal(size=(3, 4, 2))),
     lambda a, b: ad.mul(a, b)),
    ("add_shared_table", lambda rng: (rng.normal(size=(4, 2)),
                                      rng.normal(size=(3, 4, 2))),
     lambda a, b: ad.add(a, b)),
    ("sub_row_offsets", lambda rng: (rng.normal(size=(3, 1)),
                                     rng.normal(size=(3, 5))),
     lambda a, b: ad.sub(a, b)),
]

UNARY_OPS = [
    ("sqrt", ad.sqrt, lambda rng: rng.uniform(0.5, 3.0, size=(5,))),
    ("gelu", ad.gelu, lambda rng: rng.normal(size=(6,))),
    ("softmax", lambda t: ad.softmax(t, axis=-1),
     lambda rng: rng.normal(size=(2, 5))),
    ("sum_axis", lambda t: ad.tsum(ad.mul(t, t), axis=0),
     lambda rng: rng.normal(size=(3, 4))),
    ("mean_keep", lambda t: ad.tmean(ad.mul(t, t), axis=1, keepdims=True),
     lambda rng: rng.normal(size=(3, 4))),
    ("reshape", lambda t: ad.reshape(ad.mul(t, t), (6,)),
     lambda rng: rng.normal(size=(2, 3))),
    ("transpose", lambda t: ad.mul(ad.transpose(t), 2.0),
     lambda rng: rng.normal(size=(2, 3))),
    ("narrow", lambda t: ad.mul(ad.narrow(t, 0, 1, 2), ad.narrow(t, 0, 0, 2)),
     lambda rng: rng.normal(size=(4, 3))),
    ("gather", lambda t: ad.mul(ad.gather_rows(t, [0, 2, 0]), 3.0),
     lambda rng: rng.normal(size=(3, 2))),
]


def functional_gradients(op, arrays, rng):
    """The tape gradients of a random linear functional of ``op(*arrays)``
    and their central differences, one pair per input."""
    inputs = [Tensor(x, requires_grad=True) for x in arrays]
    weight = rng.normal(size=op(*[Tensor(x) for x in arrays]).shape)
    with Tape():
        loss = ad.tsum(ad.mul(op(*inputs), Tensor(weight)))
    backward(loss)

    def f():
        return float(np.sum(op(*[Tensor(t.data) for t in inputs]).data * weight))

    return ([t.grad for t in inputs],
            central_diff(f, [t.data for t in inputs]))


def op_seed(name):
    """The same seed in every process: ``hash`` of a str is salted per
    process, and about one suite run in 200 drew an entry whose gradient is
    so near zero that the finite difference's relative error exceeds the
    bound."""
    return zlib.crc32(name.encode())


@pytest.mark.parametrize("name,make,op", OPS, ids=[o[0] for o in OPS])
def test_binary_op_gradients(name, make, op):
    rng = np.random.default_rng(op_seed(name))
    grads, expected = functional_gradients(op, make(rng), rng)
    for grad, oracle in zip(grads, expected):
        assert rel_err(grad, oracle) <= 1e-5


@pytest.mark.parametrize("name,op,make", UNARY_OPS, ids=[o[0] for o in UNARY_OPS])
def test_unary_op_gradients(name, op, make):
    rng = np.random.default_rng(op_seed(name))
    grads, expected = functional_gradients(op, [make(rng)], rng)
    assert rel_err(grads[0], expected[0]) <= 1e-5


def test_oracle_passes_a_correct_gradient_with_an_entry_near_zero():
    # this draw gives b an entry of -1.4e-10 whose central difference is
    # 0.0, which an element-wise relative error reads as 1
    _, make, op = next(case for case in OPS if case[0] == "mul_batch_scalars")
    rng = np.random.default_rng(1056)
    grads, expected = functional_gradients(op, make(rng), rng)
    assert np.min(np.abs(grads[1])) < 1e-9
    for grad, oracle in zip(grads, expected):
        assert rel_err(grad, oracle) <= 1e-5


@pytest.mark.parametrize("name, op, arrays", [
    (name, op, make) for name, make, op in OPS] + [
    (name, op, lambda rng, make=make: [make(rng)]) for name, op, make in UNARY_OPS],
    ids=[o[0] for o in OPS] + [o[0] for o in UNARY_OPS])
def test_oracle_fails_a_derivative_off_by_0_3_percent(name, op, arrays):
    rng = np.random.default_rng(op_seed(name))
    grads, expected = functional_gradients(op, arrays(rng), rng)
    for grad, oracle in zip(grads, expected):
        assert rel_err(grad * 1.003, oracle) > 1e-5


def test_layer_norm_gradients():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    gain = Tensor(rng.normal(size=6), requires_grad=True)
    bias = Tensor(rng.normal(size=6), requires_grad=True)
    weight = rng.normal(size=(4, 6))
    with Tape():
        loss = ad.tsum(ad.mul(ad.layer_norm(x, gain, bias), Tensor(weight)))
    backward(loss)

    def f():
        return float(np.sum(ad.layer_norm(Tensor(x.data), Tensor(gain.data),
                                          Tensor(bias.data)).data * weight))

    expected = central_diff(f, [x.data, gain.data, bias.data])
    assert rel_err(x.grad, expected[0]) <= 1e-5
    assert rel_err(gain.grad, expected[1]) <= 1e-5
    assert rel_err(bias.grad, expected[2]) <= 1e-5


def test_concat_gradients():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    weight = rng.normal(size=(6, 3))
    with Tape():
        loss = ad.tsum(ad.mul(ad.concat([a, b], axis=0), Tensor(weight)))
    backward(loss)
    assert np.allclose(a.grad, weight[:2])
    assert np.allclose(b.grad, weight[2:])


# ---------------------------------------------------------------------------
# GELU against the pow formula; frozen operands; leaf-only gradients
# ---------------------------------------------------------------------------

def pow_gelu(x):
    """The GELU as first written, with ``x ** 3``; the differential oracle."""
    return 0.5 * x * (1.0 + np.tanh(ad._GELU_SCALE
                                    * (x + ad.GELU_CUBIC_COEFF * x ** 3)))


def pow_gelu_derivative(x):
    t = np.tanh(ad._GELU_SCALE * (x + ad.GELU_CUBIC_COEFF * x ** 3))
    dinner = ad._GELU_SCALE * (1.0 + 3.0 * ad.GELU_CUBIC_COEFF * x ** 2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner


def test_gelu_matches_pow_formula():
    x = np.random.default_rng(20).normal(0.0, 3.0, size=(64, 256))
    assert np.max(np.abs(ad.gelu(Tensor(x)).data - pow_gelu(x))) <= 1e-15
    a = Tensor(x, requires_grad=True)
    g = np.random.default_rng(21).normal(size=x.shape)
    with Tape():
        loss = ad.tsum(ad.mul(ad.gelu(a), Tensor(g)))
    backward(loss)
    assert np.max(np.abs(a.grad - g * pow_gelu_derivative(x))) <= 1e-14


# on a tape GELU forms its slope _GELU_BLOCK elements at a time: shapes
# under, at, just past and between block boundaries, and the feed-forward
# activations of a default step
GELU_SHAPES = {
    "64x256": (64, 256),
    "under_a_block": (7, 13),
    "one_block": (ad._GELU_BLOCK,),
    "one_past_a_block": (ad._GELU_BLOCK + 1,),
    "uneven_blocks": (3, ad._GELU_BLOCK // 2 + 3),
    "32x15x256": (32, 15, 256),
    "32x11x256": (32, 11, 256),
}


@pytest.mark.parametrize("shape", GELU_SHAPES.values(), ids=GELU_SHAPES)
def test_gelu_in_place_forward_rounds_as_the_expression(shape):
    x = np.random.default_rng(23).normal(0.0, 3.0, size=shape)
    x.reshape(-1)[:4] = [0.0, -40.0, 40.0, 1e-300]
    c, s = ad.GELU_CUBIC_COEFF, ad._GELU_SCALE
    expected = 0.5 * x * (1.0 + np.tanh(s * (x + c * (x * x * x))))
    assert np.array_equal(ad.gelu(Tensor(x)).data, expected)
    with Tape():
        y = ad.gelu(Tensor(x, requires_grad=True))
    assert np.array_equal(y.data, expected)


def test_gelu_grad_check():
    # clipped to |x| <= 3: further out, 1 + tanh cancels to a few digits and
    # central differences of the loss carry no usable derivative
    x = Tensor(np.clip(np.random.default_rng(22).normal(0.0, 3.0, size=(24,)),
                       -3.0, 3.0), requires_grad=True)
    assert grad_check(lambda: ad.tsum(ad.gelu(x)), [x], eps=1e-5) <= 1e-6


def separate_pass_gelu_slope(x):
    """The local GELU slope as a separate backward pass formed it, from the
    forward's input and tanh, in place on two buffers; the oracle of the
    slope the forward forms now."""
    c, s = ad.GELU_CUBIC_COEFF, ad._GELU_SCALE
    x2 = x * x
    t = x2 * x
    t *= c
    t += x
    t *= s
    np.tanh(t, out=t)
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    slope *= x
    slope *= 0.5
    dinner = x * x
    dinner *= 3.0 * c
    dinner += 1.0
    dinner *= s
    slope *= dinner
    np.add(t, 1.0, out=dinner)
    dinner *= 0.5
    slope += dinner
    return slope


@pytest.mark.parametrize("shape", GELU_SHAPES.values(), ids=GELU_SHAPES)
def test_gelu_backward_bit_identical_to_the_separate_pass(shape):
    x = np.random.default_rng(24).normal(0.0, 3.0, size=shape)
    x.reshape(-1)[:5] = [0.0, -40.0, 40.0, 1e-300, -1e-300]
    g = np.random.default_rng(26).normal(size=x.shape)
    a = Tensor(x, requires_grad=True)
    with Tape():
        loss = ad.tsum(ad.mul(ad.gelu(a), Tensor(g)))
    backward(loss)
    assert np.array_equal(a.grad, separate_pass_gelu_slope(x) * g)


def test_gelu_node_keeps_only_its_slope():
    # on a tape GELU retains its output and the slope its backward reads,
    # not its input or tanh
    a = Tensor(np.random.default_rng(29).normal(size=(64, 1024)),
               requires_grad=True)
    size = a.data.nbytes
    tracemalloc.start()
    try:
        with Tape():
            y = ad.gelu(ad.add(a, 0.0))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert y.shape == a.shape
    assert 2 * size <= retained < 2.5 * size


def test_gelu_on_a_tape_peaks_below_two_and_a_half_inputs():
    # the output and the kept slope are full buffers; the slope's other
    # factors take one block-sized scratch array (a full-size one read 3x)
    a = Tensor(np.random.default_rng(30).normal(size=(32, 15, 256)),
               requires_grad=True)
    tracemalloc.start()
    try:
        with Tape():
            ad.gelu(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * a.data.nbytes


FROZEN_CASES = [
    ("matmul", {"x": (2, 3, 4), "w": (4, 5)},
     lambda t: ad.matmul(t["x"], t["w"])),
    ("add_broadcast", {"x": (2, 3, 4), "row": (4,)},
     lambda t: ad.add(t["x"], t["row"])),
    ("mul_broadcast", {"row": (4,), "x": (2, 3, 4)},
     lambda t: ad.mul(t["row"], t["x"])),
    ("layer_norm", {"x": (2, 3, 4), "gain": (4,), "bias": (4,)},
     lambda t: ad.layer_norm(t["x"], t["gain"], t["bias"])),
]


@pytest.mark.parametrize("shapes, build", [case[1:] for case in FROZEN_CASES],
                         ids=[case[0] for case in FROZEN_CASES])
def test_backward_fn_skips_frozen_operands(shapes, build):
    # one operand at a time requires gradients; the node's backward_fn
    # returns a pair for that operand only
    rng = np.random.default_rng(23)
    arrays = {key: rng.normal(size=shape) for key, shape in shapes.items()}
    for live in arrays:
        tensors = {key: Tensor(arr, requires_grad=(key == live))
                   for key, arr in arrays.items()}
        with Tape() as tape:
            out = build(tensors)
        (node,) = tape.nodes
        pairs = node.backward_fn(np.ones_like(out.data))
        assert [t for t, _ in pairs] == [tensors[live]], live
        assert pairs[0][1].shape == tensors[live].shape


def test_backward_writes_grad_only_into_leaves():
    rng = np.random.default_rng(24)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    gain = Tensor(np.ones(3), requires_grad=True)
    frozen = Tensor(rng.normal(size=(3,)))
    x = Tensor(rng.normal(size=(5, 4)))
    with Tape():
        h = ad.matmul(x, w)
        z = ad.gelu(ad.layer_norm(h, gain, frozen))
        loss = ad.tmean(ad.mul(z, z))
    backward(loss)
    assert w.grad is not None and gain.grad is not None
    assert frozen.grad is None and x.grad is None
    for intermediate in (h, z, loss):
        assert intermediate.requires_grad and intermediate.grad is None


def test_backward_twice_on_one_tape_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.mul(x, x))
    backward(loss)
    assert np.array_equal(x.grad, [2.0, 4.0])
    with pytest.raises(ad.AutodiffError, match="already replayed"):
        backward(loss)
    # the nodes stay on the tape, each without its backward function
    assert len(tape) == 2
    assert all(node.backward_fn is None for node in tape.nodes)
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_grad_accumulates_across_separate_tapes():
    x = Tensor([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        with Tape():
            loss = ad.tsum(ad.mul(x, x))
        backward(loss)
    assert np.array_equal(x.grad, [4.0, 8.0])


def in_thread(fn):
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join()
    return out[0]


def test_a_tape_records_only_its_own_threads_operations():
    x = Tensor([1.0, 2.0], requires_grad=True)

    def untaped():
        return ad.active_tape(), ad.mul(x, x).tape

    def taped():
        with Tape() as tape:
            return ad.active_tape() is tape, ad.mul(x, x).tape is tape

    with Tape() as tape:
        assert in_thread(untaped) == (None, None)
        assert in_thread(taped) == (True, True)
        assert ad.active_tape() is tape and len(tape) == 0
    assert ad._open_tapes == 0 and ad.active_tape() is None


def test_backward_replays_the_shares_of_a_sum():
    """A sum of parts recorded on other threads' tapes backpropagates into
    each part's tape, its leaf gradients added in share order."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, -1.0], requires_grad=True)

    def part(scale):
        with Tape():
            return ad.tsum(ad.mul(ad.mul(x, w), scale))

    with Tape() as tape:
        own = ad.tsum(ad.mul(x, x))
        total = ad.sum_shares([own, in_thread(lambda: part(2.0)),
                               in_thread(lambda: part(5.0))])
        loss = ad.mul(total, 3.0)   # recorded after the sum
    assert tape.shares[0] == 2 and len(tape) == 2 + 2 + 1
    backward(loss)
    assert np.array_equal(x.grad, 3.0 * (2 * x.data + 7.0 * w.data))
    assert np.array_equal(w.grad, 3.0 * 7.0 * x.data)
    assert all(node.backward_fn is None for share in tape.shares[1]
               for node in share.tape.nodes)


# ---------------------------------------------------------------------------
# what a recorded node keeps alive
# ---------------------------------------------------------------------------

def kept_alive(build):
    """Record ``build()``, which returns a tensor to watch and a loss, and
    report whether the tape alone keeps the watched array alive; the tape
    then replays."""
    with Tape():
        watched, loss = build()
    ref = weakref.ref(watched.data)
    del watched
    alive = ref() is not None
    backward(loss)
    return alive


def test_linear_with_frozen_weight_keeps_no_input():
    rng = np.random.default_rng(25)
    x0 = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)))
    b = Tensor(rng.normal(size=5))

    def build():
        x = ad.add(x0, x0)
        return x, ad.tsum(ad.linear(x, w, b))

    assert not kept_alive(build)
    # the input gradient needs only the weight
    assert np.allclose(x0.grad, np.broadcast_to(2.0 * w.data.sum(axis=1),
                                                (2, 3, 4)))


def test_softmax_keeps_no_input():
    # the attention scores feed only softmax, whose backward reads its output
    rng = np.random.default_rng(27)
    q = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)

    def build():
        scores = ad.attention_scores(q, k, np.zeros((5, 5)), heads=2)
        weights = ad.softmax(scores)
        return scores, ad.tsum(ad.mul(weights, weights))

    assert not kept_alive(build)
    assert q.grad is not None and k.grad is not None


def test_gelu_keeps_no_output():
    x = Tensor(np.random.default_rng(28).normal(size=(3, 8)),
               requires_grad=True)

    def build():
        y = ad.gelu(x)
        return y, ad.tsum(y)

    assert not kept_alive(build)
    assert x.grad is not None


# ---------------------------------------------------------------------------
# grad_check
# ---------------------------------------------------------------------------

def test_grad_check_quadratic_tiny_error():
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)

    def f():
        return ad.tsum(ad.mul(x, x))

    assert grad_check(f, [x], eps=1e-5) <= 1e-9


def test_grad_check_composite():
    rng = np.random.default_rng(13)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 4)))

    def f():
        h = ad.gelu(ad.add(ad.matmul(x, w), b))
        return ad.tmean(ad.mul(h, h))

    assert grad_check(f, [w, b], eps=1e-5) <= 1e-6


def test_grad_check_rejects_bad_eps():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: ad.tsum(x), [x], eps=0.0)


# ---------------------------------------------------------------------------
# in-place kernels against the plain expressions they replaced
# ---------------------------------------------------------------------------

def plain_layer_norm(x, gain, bias, g, eps=1e-5):
    """Forward value and (x, gain, bias) gradients as plain expressions."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gain + bias
    dxhat = g * gain
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    lead = tuple(range(g.ndim - 1))
    return out, [dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)]


def plain_softmax(a, g, axis=-1):
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)
    dot = (g * out).sum(axis=axis, keepdims=True)
    return out, [(g - dot) * out]


def node_outputs(op, *arrays):
    """The op's forward value and the gradients its node hands back for a
    random upstream gradient, which is returned too."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*tensors)
    g = np.random.default_rng(out.size).normal(size=out.shape)
    grads = tape.nodes[-1].backward_fn(g)
    assert [t for t, _ in grads] == tensors
    return out.data, [dx for _, dx in grads], g


KERNEL_SHAPES = [(2, 3, 8), (32, 15, 64), (32, 4, 15, 15)]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_layer_norm_bit_identical_to_plain_expressions(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(3.0, 2.0, size=shape)
    x[0, 0] = 1.5  # a constant row: var 0, xhat 0
    gain = rng.normal(1.0, 0.3, size=shape[-1])
    bias = rng.normal(0.0, 0.3, size=shape[-1])
    out, grads, g = node_outputs(ad.layer_norm, x, gain, bias)
    expected, expected_grads = plain_layer_norm(x, gain, bias, g)
    assert np.array_equal(out, expected)
    for got, want in zip(grads, expected_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_softmax_bit_identical_to_plain_expressions(shape, masked):
    a = np.random.default_rng(sum(shape)).normal(0.0, 4.0, size=shape)
    if masked:
        a += np.triu(np.full(shape[-2:], MASK_FILL), k=1)
    out, grads, g = node_outputs(ad.softmax, a)
    expected, expected_grads = plain_softmax(a, g)
    assert np.array_equal(out, expected)
    assert np.array_equal(grads[0], expected_grads[0])
    if masked:
        assert not np.triu(out[(0,) * (out.ndim - 2)], k=1).any()


# ---------------------------------------------------------------------------
# fused linear and attention ops against the compositions they replaced
# ---------------------------------------------------------------------------

def composed_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def split_heads(x, heads):
    b, length, d = x.shape
    return ad.transpose(ad.reshape(x, (b, length, heads, d // heads)),
                        (0, 2, 1, 3))


def composed_scores(q, k, mask, heads):
    scores = ad.matmul(split_heads(q, heads),
                       ad.transpose(split_heads(k, heads), (0, 1, 3, 2)))
    return ad.add(ad.mul(scores, 1.0 / np.sqrt(q.shape[-1] // heads)), mask)


def composed_context(weights, v, heads):
    b, length, d = v.shape
    context = ad.matmul(weights, split_heads(v, heads))
    return ad.reshape(ad.transpose(context, (0, 2, 1, 3)), (b, length, d))


def tape_gradients(op, arrays):
    """The op's forward value and the gradient of sum(out * g) with respect
    to each operand, through a full backward, for a fixed random g."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape():
        out = op(*tensors)
        g = np.random.default_rng(out.size).normal(size=out.shape)
        loss = ad.tsum(ad.mul(out, Tensor(g)))
    backward(loss)
    return out.data, [t.grad for t in tensors]


def assert_grads_close(got, want):
    # relative to the largest entry, with an absolute floor for gradients
    # that are analytically zero and read ~1e-20 on both sides
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= max(1e-12 * np.max(np.abs(b)), 1e-15)


def assert_matches_composition(fused, composed, arrays):
    out, grads = tape_gradients(fused, arrays)
    expected, expected_grads = tape_gradients(composed, arrays)
    assert np.array_equal(out, expected)
    assert_grads_close(grads, expected_grads)


@pytest.mark.parametrize("x_shape, n", [((32, 15, 64), 64), ((2, 3, 8), 5),
                                        ((32, 768), 72), ((4, 48), 64)])
def test_linear_matches_matmul_plus_bias(x_shape, n):
    rng = np.random.default_rng(sum(x_shape) + n)
    arrays = [rng.normal(size=x_shape), rng.normal(0.0, 0.1, size=(x_shape[-1], n)),
              rng.normal(size=n)]
    assert_matches_composition(ad.linear, composed_linear, arrays)


ATTENTION_SHAPES = [(32, 15, 64, 4), (2, 5, 8, 2), (1, 7, 6, 1)]


@pytest.mark.parametrize("b, length, d, heads", ATTENTION_SHAPES)
def test_attention_scores_match_composition(b, length, d, heads):
    rng = np.random.default_rng(b + length + d)
    mask = Tensor(np.triu(np.full((length, length), MASK_FILL), k=1))
    arrays = [rng.normal(size=(b, length, d)), rng.normal(size=(b, length, d))]
    assert_matches_composition(
        lambda q, k: ad.attention_scores(q, k, mask, heads),
        lambda q, k: composed_scores(q, k, mask, heads), arrays)


@pytest.mark.parametrize("b, length, d, heads", ATTENTION_SHAPES)
def test_attention_context_matches_composition(b, length, d, heads):
    rng = np.random.default_rng(b + length + d)
    weights = rng.uniform(size=(b, heads, length, length))
    weights /= weights.sum(axis=-1, keepdims=True)
    arrays = [weights, rng.normal(size=(b, length, d))]
    assert_matches_composition(
        lambda w, v: ad.attention_context(w, v, heads),
        lambda w, v: composed_context(w, v, heads), arrays)


@pytest.mark.parametrize("op, shapes", [
    (ad.linear, [(2, 3, 4), (5, 6), (6,)]),
    (ad.linear, [(2, 3, 4), (4, 6), (4,)]),
    (lambda q, k: ad.attention_scores(q, k, 0.0, 3), [(2, 3, 4), (2, 3, 4)]),
    (lambda q, k: ad.attention_scores(q, k, 0.0, 2), [(2, 3, 4), (2, 4, 4)]),
    (lambda w, v: ad.attention_context(w, v, 2), [(2, 2, 3, 3), (2, 4, 4)]),
])
def test_fused_ops_reject_mismatched_shapes(op, shapes):
    with pytest.raises(ad.ShapeError):
        op(*[Tensor(np.ones(s)) for s in shapes])


ALL_TRAINABLE = TrainabilityPolicy(True, True, True, True)


def composed_backbone_forward(model, x):
    """Backbone.forward written with the composed ops: the reference for the
    fused ones."""
    _, length, _ = x.shape
    heads = model.config.n_heads
    p = model.params
    mask = Tensor(np.triu(np.full((length, length), MASK_FILL), k=1))
    x = ad.add(x, ad.narrow(p["positional"], 0, 0, length))
    for i in range(model.config.n_layers):
        h = ad.layer_norm(x, p[f"layer.{i}.ln1.gain"], p[f"layer.{i}.ln1.bias"])
        q, k, v = (composed_linear(h, p[f"layer.{i}.attn.w{n}"],
                                   p[f"layer.{i}.attn.b{n}"]) for n in "qkv")
        weights = ad.softmax(composed_scores(q, k, mask, heads))
        x = ad.add(x, composed_linear(composed_context(weights, v, heads),
                                      p[f"layer.{i}.attn.wo"],
                                      p[f"layer.{i}.attn.bo"]))
        h = ad.layer_norm(x, p[f"layer.{i}.ln2.gain"], p[f"layer.{i}.ln2.bias"])
        inner = ad.gelu(composed_linear(h, p[f"layer.{i}.ffn.w1"],
                                        p[f"layer.{i}.ffn.b1"]))
        x = ad.add(x, composed_linear(inner, p[f"layer.{i}.ffn.w2"],
                                      p[f"layer.{i}.ffn.b2"]))
    return ad.layer_norm(x, p["final_ln.gain"], p["final_ln.bias"])


def backbone_gradients(model, forward, x, weight):
    for tensor in model.params.values():
        tensor.grad = None
    with Tape():
        out = forward(Tensor(x))
        loss = ad.tsum(ad.mul(out, Tensor(weight)))
    backward(loss)
    return out.data, {name: t.grad for name, t in model.params.items()}


def test_backbone_matches_the_composed_ops():
    model = Backbone(BackboneConfig(embed_dim=64, n_layers=2, n_heads=4,
                                    max_seq_len=20), seed=3)
    trained = [name for name, _ in model.apply_policy(ALL_TRAINABLE)]
    rng = np.random.default_rng(4)
    for tensor in model.params.values():  # nonzero biases and gains
        if tensor.ndim == 1:
            tensor.data = tensor.data + rng.normal(0.0, 0.1, size=tensor.shape)
    x, weight = rng.normal(size=(2, 2, 15, 64))
    out, grads = backbone_gradients(model, model.forward, x, weight)
    expected, expected_grads = backbone_gradients(
        model, lambda t: composed_backbone_forward(model, t), x, weight)
    assert np.array_equal(out, expected)
    # every parameter but the key biases, which no policy trains
    assert set(model.params) - set(trained) == {"layer.0.attn.bk",
                                                "layer.1.attn.bk"}
    assert_grads_close([grads[n] for n in trained],
                       [expected_grads[n] for n in trained])


def test_backbone_grad_check_with_every_group_trainable():
    model = Backbone(BackboneConfig(embed_dim=8, n_layers=1, n_heads=2,
                                    max_seq_len=6, ffn_mult=2), seed=5)
    trainable = [t for _, t in model.apply_policy(ALL_TRAINABLE)]
    rng = np.random.default_rng(6)
    x, weight = rng.normal(size=(2, 2, 5, 8))

    def f():
        return ad.tsum(ad.mul(model.forward(Tensor(x)), Tensor(weight)))

    assert ad.grad_check(f, trainable, eps=1e-5) <= 1e-4
