import gc
import math
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from vidembed import tensor as tn
from vidembed.data import l2_normalize
from vidembed.errors import IndexOutOfRange, NonScalarLoss, ShapeMismatch, TapeConsumed
from vidembed.optim import grad_check
from vidembed.tensor import GradTape, Tensor, backward


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(tn.matmul(a, b).data, b.data)


def test_matmul_hand_arithmetic():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    assert np.array_equal(tn.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_zero():
    z = Tensor(np.zeros((2, 3)))
    b = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(tn.matmul(z, b).data, np.zeros((2, 4)))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        tn.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_associative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 5)))
        c = Tensor(rng.standard_normal((5, 2)))
        left = tn.matmul(tn.matmul(a, b), c).data
        right = tn.matmul(a, tn.matmul(b, c)).data
        assert np.allclose(left, right, rtol=1e-5)


def test_cross_entropy_uniform():
    z = Tensor(np.zeros(4))
    loss = tn.softmax_cross_entropy(z, 2)
    assert loss.item() == pytest.approx(math.log(4), abs=1e-12)


def test_cross_entropy_peaked():
    z = Tensor([10.0, 0.0, 0.0, 0.0])
    loss = tn.softmax_cross_entropy(z, 0)
    assert loss.item() == pytest.approx(math.log(1 + 3 * math.exp(-10)), rel=1e-9)


def test_cross_entropy_gradient_uniform():
    z = Tensor(np.zeros(2), requires_grad=True)
    with GradTape() as tape:
        loss = tn.softmax_cross_entropy(z, 0)
    backward(tape, loss)
    assert np.allclose(z.grad, [-0.5, 0.5])


def test_cross_entropy_bad_target():
    with pytest.raises(IndexOutOfRange):
        tn.softmax_cross_entropy(Tensor(np.zeros(3)), 3)


def test_cross_entropy_nonnegative_and_uniform_only():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.standard_normal(5) * 3
        loss = tn.softmax_cross_entropy(Tensor(z), int(rng.integers(5)))
        # strictly above ln C unless logits are uniform
        assert loss.item() >= 0.0
        if np.ptp(z) > 1e-6:
            losses = [
                tn.softmax_cross_entropy(Tensor(z), t).item() for t in range(5)
            ]
            assert max(losses) > math.log(5)
    uniform = tn.softmax_cross_entropy(Tensor(np.full(5, 1.7)), 3)
    assert uniform.item() == pytest.approx(math.log(5), abs=1e-12)


def test_backward_elementwise_square():
    a = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]), requires_grad=True)
    with GradTape() as tape:
        loss = tn.sum_all(tn.mul(a, a))
    backward(tape, loss)
    assert np.allclose(a.grad, 2 * a.data)


def test_backward_matmul_sum():
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    with GradTape() as tape:
        loss = tn.sum_all(tn.matmul(a, b))
    backward(tape, loss)
    ones = np.ones((3, 2))
    assert np.allclose(a.grad, ones @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ ones)


def test_backward_sigmoid_at_zero():
    x = Tensor(np.zeros(1), requires_grad=True)
    with GradTape() as tape:
        loss = tn.sum_all(tn.sigmoid(x))
    backward(tape, loss)
    assert x.grad[0] == pytest.approx(0.25)


def _value_and_grad(op, data, weights):
    x = Tensor(data, requires_grad=True)
    with GradTape() as tape:
        y = op(x)
        loss = tn.sum_all(tn.mul(y, Tensor(weights)))
    backward(tape, loss)
    return y.data, x.grad


@pytest.mark.filterwarnings("error")
def test_sigmoid_and_l2norm_rows_huge_inputs_without_warning():
    x = np.array([[-1e4, 0.0, 1e4], [-200.0, 3.0, 200.0]], np.float32)
    y, grad = _value_and_grad(tn.sigmoid, x, np.ones_like(x))
    assert np.array_equal(y[:, [0, 2]], [[0.0, 1.0], [0.0, 1.0]])  # the limits
    assert np.array_equal(grad[:, [0, 2]], np.zeros((2, 2)))

    for dtype, big in ((np.float32, 3e30), (np.float64, 3e200)):
        rows = np.array([[big, -4 / 3 * big, 0.0], [1.0, 2.0, 2.0]], dtype)
        g = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]], dtype)
        y, grad = _value_and_grad(tn.l2norm_rows, rows, g)
        assert y.dtype == dtype
        assert np.allclose(y, [[0.6, -0.8, 0.0], [1 / 3, 2 / 3, 2 / 3]])
        small = _value_and_grad(tn.l2norm_rows, rows[1:], g[1:])
        assert np.array_equal(y[1], small[0][0]) and np.array_equal(grad[1], small[1][0])
        # d(x/|x|) = (g - y (g.y)) / |x|, with |x| = 5/3 big
        expect = (g[0] - y[0] * (g[0] @ y[0])) / (5 / 3 * big)
        assert np.allclose(grad[0], expect, rtol=1e-5, atol=0)
    top = np.finfo(np.float64).max
    y, grad = _value_and_grad(tn.l2norm_rows, np.array([[top, top]]), np.ones((1, 2)))
    assert np.allclose(y, np.sqrt(0.5)) and np.array_equal(grad, np.zeros((1, 2)))  # |x| = inf


def test_sigmoid_and_l2norm_rows_unchanged_on_moderate_inputs():
    rng = np.random.default_rng(8)
    for dtype in (np.float32, np.float64):
        x = (rng.standard_normal((4, 5)) * 30).astype(dtype)
        g = rng.standard_normal((4, 5)).astype(dtype)
        y, grad = _value_and_grad(tn.sigmoid, x, g)
        ref = 1.0 / (1.0 + np.exp(-x))
        assert np.array_equal(y, ref) and np.array_equal(grad, g * ref * (1.0 - ref))
        y, grad = _value_and_grad(tn.l2norm_rows, x, g)
        norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
        ref = x / norms
        assert np.array_equal(y, ref)
        assert np.array_equal(grad, (g - ref * (g * ref).sum(axis=1, keepdims=True)) / norms)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6, 16), (2, 3, 7)], ids=["rank_2", "rank_3"])
def test_l2norm_rows_equals_l2_normalize(dtype, shape):
    """The tape op and the loaders' normalization are one computation."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal(shape).astype(dtype)
    assert np.array_equal(tn.l2norm_rows(Tensor(x)).data, l2_normalize(x))
    huge = x.copy()
    huge[..., 1, :] *= np.finfo(dtype).max / 8  # these rows' squared norms overflow
    y = tn.l2norm_rows(Tensor(huge)).data
    assert y.dtype == dtype and np.array_equal(y, l2_normalize(huge))
    assert np.array_equal(np.delete(y, 1, axis=-2), np.delete(l2_normalize(x), 1, axis=-2))


def test_backward_fanout_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with GradTape() as tape:
        loss = tn.sum_all(tn.add(tn.mul(x, x), tn.mul(x, x)))
    backward(tape, loss)
    assert x.grad[0] == pytest.approx(12.0)


def test_double_backward_raises():
    x = Tensor(np.ones(2), requires_grad=True)
    with GradTape() as tape:
        loss = tn.sum_all(tn.mul(x, x))
    backward(tape, loss)
    with pytest.raises(TapeConsumed):
        backward(tape, loss)


def test_backward_nonscalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with GradTape() as tape:
        y = tn.mul(x, x)
    with pytest.raises(NonScalarLoss):
        backward(tape, y)


def test_backward_foreign_loss_rejected():
    x = Tensor(np.ones(2), requires_grad=True)
    with GradTape() as tape:
        tn.sum_all(tn.mul(x, x))
    stray = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        backward(tape, stray)


def test_cross_entropy_rows_are_per_sample_losses():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 5))
    targets = [0, 4, 2, 2]
    losses = tn.softmax_cross_entropy(Tensor(z), targets)
    assert losses.shape == (4,)
    for i, t in enumerate(targets):
        single = tn.softmax_cross_entropy(Tensor(z[i]), t).item()
        assert losses.data[i] == pytest.approx(single, rel=1e-12)


def test_cross_entropy_target_count_must_match_rows():
    with pytest.raises(ShapeMismatch):
        tn.softmax_cross_entropy(Tensor(np.zeros((3, 4))), [0, 1])
    with pytest.raises(IndexOutOfRange):
        tn.softmax_cross_entropy(Tensor(np.zeros((2, 4))), [0, -1])


def test_batched_matmul_rank_and_batch_checks():
    with pytest.raises(ShapeMismatch):  # a rank-2 left operand needs a rank-2 right one
        tn.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3, 2))))
    with pytest.raises(ShapeMismatch):  # batch extents differ
        tn.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((4, 3, 2))))
    with pytest.raises(ShapeMismatch):
        tn.reshape(Tensor(np.ones((2, 3))), (4, 2))


def test_rank3_row_ops_treat_rank2_as_batch_of_one():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3))
    for op in (lambda t: tn.row(t, 2), tn.mean_rows):
        single = op(Tensor(x)).data
        batched = op(Tensor(np.stack([x, x + 1.0]))).data
        assert single.shape == (1, 3) and batched.shape == (2, 3)
        assert np.array_equal(batched[0], single[0])


def test_tape_frees_intermediates_no_adjoint_needs():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    bias = Tensor(rng.standard_normal((1, 2)), requires_grad=True)
    with GradTape() as tape:
        y = tn.matmul(a, w)
        freed = weakref.ref(y.data)
        loss = tn.sum_all(tn.tanh(tn.add(y, bias)))
    del y
    gc.collect()
    # matmul's adjoint needs a and w, add's needs only shapes: y's array is dead
    assert freed() is None
    backward(tape, loss)
    pre = a.data @ w.data + bias.data
    dpre = 1.0 - np.tanh(pre) ** 2
    assert np.allclose(w.grad, a.data.T @ dpre)
    assert np.allclose(bias.grad, dpre.sum(axis=0, keepdims=True))


def test_output_of_another_tape_is_a_leaf():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with GradTape():
        y = tn.mul(x, x)
    with GradTape() as tape:
        loss = tn.sum_all(tn.scale(y, 3.0))
    backward(tape, loss)
    assert y.grad[0] == pytest.approx(3.0)
    assert x.grad is None


def test_rank_cap():
    with pytest.raises(ShapeMismatch):
        Tensor(np.zeros((2, 2, 2, 2)))


def _lstm_steps(x, w, u, b):
    """Reference: the LSTM recurrence built from primitives, step by step."""
    hid = u.shape[0]
    batch = x.shape[0] if x.data.ndim == 3 else 1
    h = c = Tensor(np.zeros((batch, hid), dtype=x.dtype))
    for t in range(x.shape[-2]):
        z = tn.add(tn.add(tn.matmul(tn.row(x, t), w), tn.matmul(h, u)), b)
        s = tn.sigmoid(z)  # the g columns are unused
        i, f, o = (tn.col_slice(s, k * hid, (k + 1) * hid) for k in (0, 1, 3))
        g = tn.tanh(tn.col_slice(z, 2 * hid, 3 * hid))
        c = tn.add(tn.mul(f, c), tn.mul(i, g))
        h = tn.mul(o, tn.tanh(c))
    return h


def _lstm_inputs(rng, x_shape, hid, dtype, x_grad):
    x = Tensor((rng.standard_normal(x_shape) * 0.7).astype(dtype), requires_grad=x_grad)
    d = x_shape[-1]
    w, u, b = (
        Tensor((rng.standard_normal(shape) * 0.6).astype(dtype), requires_grad=True)
        for shape in ((d, 4 * hid), (hid, 4 * hid), (1, 4 * hid))
    )
    return x, w, u, b


def _bits(arr):
    return arr.dtype, arr.shape, np.ascontiguousarray(arr).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape, hid", [
    ((4, 6, 5), 3), ((3, 1, 4), 4), ((7, 3), 5), ((1, 6), 2), ((2, 9, 8), 8),
])
@pytest.mark.parametrize("x_grad", [False, True])
def test_lstm_sequence_matches_step_loop_bit_for_bit(dtype, x_shape, hid, x_grad):
    rng = np.random.default_rng(zlib.crc32(repr((x_shape, hid)).encode()))
    inputs = _lstm_inputs(rng, x_shape, hid, dtype, x_grad)
    wfit = Tensor(rng.standard_normal((x_shape[0] if len(x_shape) == 3 else 1, hid)).astype(dtype))
    results = []
    for op in (tn.lstm_sequence, _lstm_steps):
        for t in inputs:
            t.grad = None
        with GradTape() as tape:
            h = op(*inputs)
            loss = tn.sum_all(tn.mul(h, wfit))
        backward(tape, loss)
        results.append([_bits(h.data)] + [_bits(t.grad) for t in inputs if t.requires_grad])
    assert len(results[0]) == 4 + x_grad
    assert results[0] == results[1]


def test_lstm_sequence_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for x_shape, hid in (((3, 4, 2), 3), ((5, 3), 2)):
        x, w, u, b = _lstm_inputs(rng, x_shape, hid, np.float64, True)
        wfit = Tensor(rng.standard_normal((x_shape[0] if len(x_shape) == 3 else 1, hid)))

        def loss(p):
            return tn.sum_all(tn.mul(tn.lstm_sequence(p["x"], p["w"], p["u"], p["b"]), wfit))

        report = grad_check(loss, {"x": x, "w": w, "u": u, "b": b})
        assert report.passed, str(report)


def test_lstm_sequence_shape_checks():
    rng = np.random.default_rng(13)
    x, w, u, b = _lstm_inputs(rng, (2, 3, 4), 3, np.float64, False)
    for bad in ((x, u, u, b), (x, w, w, b), (x, w, u, Tensor(np.zeros((1, 8)))),
                (Tensor(np.zeros(4)), w, u, b)):
        with pytest.raises(ShapeMismatch):
            tn.lstm_sequence(*bad)


def test_lstm_sequence_without_tape_keeps_no_step_arrays():
    rng = np.random.default_rng(14)
    x, w, u, b = _lstm_inputs(rng, (200, 20, 32), 32, np.float32, False)
    step_arrays = 20 * 200 * 8 * 32 * 4  # s (4H), g, c, tanh(c), h per step: ~4 MB

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    out = []
    untaped = peak(lambda: out.append(tn.lstm_sequence(x, w, u, b)))
    assert out[0]._node is None
    assert untaped < step_arrays / 4

    def taped():
        with GradTape() as tape:
            out.append(tn.lstm_sequence(x, w, u, b))
        assert len(tape._records) == 1

    assert peak(taped) > step_arrays * 3 / 4  # the measure sees the arrays a tape keeps
    assert np.array_equal(out[0].data, out[1].data)


def _fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f()
        flat_x[i] = orig - h
        fm = f()
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2 * h)
    return g


@pytest.mark.parametrize(
    "opname",
    ["add", "mul", "matmul", "sigmoid", "tanh", "relu", "softmax_rows",
     "l2norm_rows", "layer_norm_rows", "transpose", "concat", "row", "col_slice",
     "mean_rows",
     # ops on rank-3 (batch, time, features) data
     "reshape", "matmul_batched", "matmul_rank3_rank2", "transpose_rank3",
     "concat_rows_shared", "row_rank3", "row_slice", "mean_rows_rank3",
     "layer_norm_rows_rank3", "softmax_cross_entropy_rows"],
)
def test_autodiff_matches_finite_differences(opname):
    rng = np.random.default_rng(zlib.crc32(opname.encode()))
    for trial in range(5):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = Tensor(rng.standard_normal((m, n)), requires_grad=True)
        b = Tensor(rng.standard_normal((m, n)), requires_grad=True)
        c = Tensor(rng.standard_normal((n, m)), requires_grad=True)
        a3 = Tensor(rng.standard_normal((3, m, n)), requires_grad=True)
        c3 = Tensor(rng.standard_normal((3, n, m)), requires_grad=True)
        ln_gain = Tensor(rng.standard_normal((1, n)), requires_grad=True)
        ln_bias = Tensor(rng.standard_normal((1, n)), requires_grad=True)
        targets = rng.integers(0, n, size=m)

        def build():
            if opname == "add":
                return tn.add(a, b)
            if opname == "mul":
                return tn.mul(a, b)
            if opname == "matmul":
                return tn.matmul(a, c)
            if opname == "sigmoid":
                return tn.sigmoid(a)
            if opname == "tanh":
                return tn.tanh(a)
            if opname == "relu":
                return tn.relu(a)
            if opname == "softmax_rows":
                return tn.softmax_rows(a)
            if opname == "l2norm_rows":
                return tn.l2norm_rows(a)
            if opname == "layer_norm_rows":
                gain = Tensor(np.ones((1, n)))
                bias = Tensor(np.zeros((1, n)))
                return tn.layer_norm_rows(a, gain, bias)
            if opname == "transpose":
                return tn.transpose(a)
            if opname == "concat":
                return tn.concat_cols([a, b])
            if opname == "row":
                return tn.row(a, 0)
            if opname == "col_slice":
                return tn.col_slice(a, 0, max(1, n - 1))
            if opname == "mean_rows":
                return tn.mean_rows(a)
            if opname == "reshape":
                return tn.reshape(a3, (-1, n))
            if opname == "matmul_batched":
                return tn.matmul(a3, c3)
            if opname == "matmul_rank3_rank2":
                return tn.matmul(a3, c)
            if opname == "transpose_rank3":
                return tn.transpose(a3)
            if opname == "concat_rows_shared":
                return tn.concat_rows([b, a3])  # b is shared by the 3 batch items
            if opname == "row_rank3":
                return tn.row(a3, m - 1)
            if opname == "row_slice":
                return tn.row_slice(a3, 1, m)
            if opname == "mean_rows_rank3":
                return tn.mean_rows(a3)
            if opname == "layer_norm_rows_rank3":
                return tn.layer_norm_rows(a3, ln_gain, ln_bias)
            if opname == "softmax_cross_entropy_rows":
                return tn.softmax_cross_entropy(a, targets)
            raise AssertionError(opname)

        # weight the output elementwise so the scalar depends on every entry
        build_shape = build().shape
        wfit = Tensor(rng.standard_normal(build_shape) * 0.5)

        def loss_value():
            return float((build().data * wfit.data).sum())

        checked = (a, b, c, a3, c3, ln_gain, ln_bias)
        for t in checked:
            t.grad = None
        with GradTape() as tape:
            loss = tn.sum_all(tn.mul(build(), wfit))
        backward(tape, loss)

        for t in checked:
            if t.grad is None:
                continue
            fd = _fd_grad(loss_value, t.data)
            denom = np.maximum(1.0, np.abs(t.grad) + np.abs(fd))
            assert (np.abs(t.grad - fd) / denom).max() < 1e-4


def test_no_nan_inf_fuzz():
    rng = np.random.default_rng(99)
    for _ in range(100):
        a = Tensor(rng.standard_normal((3, 4)) * rng.uniform(0.01, 50))
        b = Tensor(rng.standard_normal((3, 4)) * rng.uniform(0.01, 50))
        c = Tensor(rng.standard_normal((4, 3)))
        outs = [
            tn.add(a, b),
            tn.mul(a, b),
            tn.matmul(a, c),
            tn.sigmoid(a),
            tn.tanh(a),
            tn.relu(a),
            tn.softmax_rows(a),
            tn.layer_norm_rows(a, Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4)))),
            tn.softmax_cross_entropy(tn.row(a, 0), 1),
        ]
        for out in outs:
            assert np.all(np.isfinite(out.data))
