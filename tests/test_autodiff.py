import numpy as np
import pytest

import s2ip.autodiff as ad
from s2ip.autodiff import Tape, Tensor, backward, grad_check


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
    return np.max(np.abs(a - b) / np.maximum(1e-12, np.abs(a) + np.abs(b)))


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
    with pytest.raises(ad.ShapeError):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


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
    ("neg", ad.neg, lambda rng: rng.normal(size=(3, 3))),
    ("exp", ad.exp, lambda rng: rng.normal(size=(4,))),
    ("sqrt", ad.sqrt, lambda rng: rng.uniform(0.5, 3.0, size=(5,))),
    ("tanh", ad.tanh, lambda rng: rng.normal(size=(3, 2))),
    ("relu", ad.relu, lambda rng: rng.normal(size=(6,)) + 0.3),
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


@pytest.mark.parametrize("name,make,op", OPS, ids=[o[0] for o in OPS])
def test_binary_op_gradients(name, make, op):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    a_data, b_data = make(rng)
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    weight = rng.normal(size=op(a, b).shape)  # random linear functional
    with Tape():
        loss = ad.tsum(ad.mul(op(a, b), Tensor(weight)))
    backward(loss)

    def f():
        av, bv = Tensor(a.data), Tensor(b.data)
        return float(np.sum(op(av, bv).data * weight))

    expected = central_diff(f, [a.data, b.data])
    assert rel_err(a.grad, expected[0]) <= 1e-5
    assert rel_err(b.grad, expected[1]) <= 1e-5


@pytest.mark.parametrize("name,op,make", UNARY_OPS, ids=[o[0] for o in UNARY_OPS])
def test_unary_op_gradients(name, op, make):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    x = Tensor(make(rng), requires_grad=True)
    weight = rng.normal(size=op(Tensor(x.data)).shape)
    with Tape():
        loss = ad.tsum(ad.mul(op(x), Tensor(weight)))
    backward(loss)

    def f():
        return float(np.sum(op(Tensor(x.data)).data * weight))

    expected = central_diff(f, [x.data])
    assert rel_err(x.grad, expected[0]) <= 1e-5


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
# serialization
# ---------------------------------------------------------------------------

def test_array_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    arr = rng.normal(size=(3, 4, 2))
    path = tmp_path / "t.bin"
    with open(path, "wb") as fh:
        ad.write_array(fh, arr)
    with open(path, "rb") as fh:
        back = ad.read_array(fh)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_named_array_round_trip(tmp_path):
    arr = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "named.bin"
    with open(path, "wb") as fh:
        ad.write_named_array(fh, "layer.0.attn.wq", arr)
    with open(path, "rb") as fh:
        name, back = ad.read_named_array(fh)
    assert name == "layer.0.attn.wq"
    assert np.array_equal(back, arr)


def test_truncated_record_raises(tmp_path):
    path = tmp_path / "trunc.bin"
    with open(path, "wb") as fh:
        ad.write_array(fh, np.arange(10.0))
    blob = path.read_bytes()[:-8]
    path.write_bytes(blob)
    with open(path, "rb") as fh:
        with pytest.raises(IOError):
            ad.read_array(fh)
