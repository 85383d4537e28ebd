"""Dense tensors with reverse-mode differentiation on a gradient tape.

Tensors wrap numpy arrays of rank 1-3 (float32 for training, float64 for
gradient verification).  Operations record their adjoint rules on the
currently active GradTape; backward() replays the tape in reverse and
accumulates gradients into the .grad slot of every requires_grad tensor.

Rank-3 data is a batch on the leading axis: (B, T, n), with T the time
(row) axis.  The row ops treat a rank-2 (T, n) tensor as a batch of one.

Besides the primitives, `lstm_sequence` runs a whole LSTM recurrence as one
op: one tape record, whose adjoint is a hand-written backprop through time.
"""

from __future__ import annotations

import itertools

import numpy as np

from .data import unit_rows
from .errors import (
    IndexOutOfRange,
    NonScalarLoss,
    ShapeMismatch,
    TapeConsumed,
)

_ACTIVE_TAPE = None
_TAPE_SERIALS = itertools.count()


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim > 3:
            raise ShapeMismatch(f"rank {arr.ndim} > 3 not supported")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """Stands on the tape for a recorded op's output.  The tape holds nodes,
    not output tensors, so an intermediate array stays alive only while the
    caller or an adjoint closure needs it."""

    __slots__ = ("serial",)

    def __init__(self, serial):
        self.serial = serial  # of the recording tape


class GradTape:
    """Ordered record of primitive ops; replayed in reverse by backward()."""

    def __init__(self):
        self._records = []
        self._consumed = False
        self._serial = next(_TAPE_SERIALS)

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a GradTape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


def _record(out, inputs, backfn):
    """Put an op on the active tape.  An input recorded on the same tape is
    held by its node; any other input (a leaf) by the tensor itself."""
    tape = _ACTIVE_TAPE
    if tape is not None and out.requires_grad:
        serial = tape._serial
        refs = tuple(
            t._node if t._node is not None and t._node.serial == serial else t for t in inputs
        )
        out._node = _Node(serial)
        tape._records.append((out._node, refs, backfn))


def _needs_grad(*tensors):
    return any(t.requires_grad for t in tensors)


def _unbroadcast(g, shape):
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(tape, loss):
    """Accumulate d(loss)/d(tensor) into .grad for every recorded tensor."""
    if tape._consumed:
        raise TapeConsumed("tape already consumed; record a new GradTape")
    if loss.data.size != 1:
        raise NonScalarLoss(f"loss has shape {loss.shape}")
    if loss._node is None or loss._node.serial != tape._serial:
        raise ValueError("loss was not produced under this tape")
    tape._consumed = True

    records = tape._records
    grads = {loss._node: np.ones_like(loss.data)}
    while records:
        # popping frees each op's saved arrays once its adjoint has run
        out, inputs, backfn = records.pop()
        g = grads.pop(out, None)
        if g is None:
            continue
        for inp, gi in zip(inputs, backfn(g)):
            if gi is None:
                continue
            if type(inp) is _Node:
                acc = grads.get(inp)
                grads[inp] = gi if acc is None else acc + gi
            elif inp.requires_grad:
                # leaf: gradients accumulate by addition across fan-out
                inp.grad = gi if inp.grad is None else inp.grad + gi


# ---------------------------------------------------------------------------
# primitive operations
#
# Each adjoint closure captures only the arrays and shapes it needs, so that
# an intermediate nothing needs is freed while the forward pass still runs.


def add(a, b):
    sa, sb = a.shape, b.shape
    out = Tensor(a.data + b.data, requires_grad=_needs_grad(a, b))
    _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def mul(a, b):
    ad, bd = a.data, b.data
    out = Tensor(ad * bd, requires_grad=_needs_grad(a, b))
    _record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)),
    )
    return out


def scale(a, c):
    c = float(c)
    out = Tensor(a.data * c, requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g * c,))
    return out


def matmul(a, b):
    """(m, k) @ (k, n), (B, m, k) @ (k, n) or (B, m, k) @ (B, k, n)."""
    ranks = (a.data.ndim, b.data.ndim)
    if ranks not in ((2, 2), (3, 2), (3, 3)):
        raise ShapeMismatch(f"matmul needs rank-2 or rank-3 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2] or ranks == (3, 3) and a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"inner extents differ: {a.shape} x {b.shape}")
    bd = b.data
    if ranks == (3, 2):  # one GEMM over every row of the batch
        shape = a.shape
        a2 = a.data.reshape(-1, shape[-1])
        out = Tensor((a2 @ bd).reshape(shape[:-1] + bd.shape[1:]),
                     requires_grad=_needs_grad(a, b))

        def back(g):
            g2 = g.reshape(-1, g.shape[-1])
            return ((g2 @ bd.T).reshape(shape), a2.T @ g2)

    else:
        ad = a.data
        out = Tensor(ad @ bd, requires_grad=_needs_grad(a, b))

        def back(g):
            return (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g)

    _record(out, (a, b), back)
    return out


def transpose(a):
    """Swap the last two axes."""
    out = Tensor(a.data.swapaxes(-1, -2), requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g.swapaxes(-1, -2),))
    return out


def reshape(a, shape):
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeMismatch(f"cannot reshape {a.shape} to {shape}") from exc
    old = a.shape
    out = Tensor(data, requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g.reshape(old),))
    return out


def sigmoid(a):
    with np.errstate(over="ignore"):  # exp(-a) = inf gives 1 / (1 + inf) = 0, the limit
        y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y, requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g * y * (1.0 - y),))
    return out


def tanh(a):
    y = np.tanh(a.data)
    out = Tensor(y, requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g * (1.0 - y * y),))
    return out


def relu(a):
    y = np.maximum(a.data, 0)
    out = Tensor(y, requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g * (y > 0),))
    return out


def sum_all(a):
    shape, dtype = a.shape, a.dtype
    out = Tensor(np.array([a.data.sum()], dtype=dtype), requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (np.full(shape, g.reshape(-1)[0], dtype),))
    return out


def _select(a, sel):
    """a.data[sel] for a basic index; the adjoint scatters g into zeros."""
    shape, dtype = a.shape, a.dtype
    out = Tensor(a.data[sel], requires_grad=a.requires_grad)

    def back(g):
        full = np.zeros(shape, dtype)
        full[sel] = g
        return (full,)

    _record(out, (a,), back)
    return out


def row(a, i):
    """Time step i: (T, n) -> (1, n), (B, T, n) -> (B, n)."""
    if a.data.ndim not in (2, 3):
        raise ShapeMismatch("row() needs a rank-2 or rank-3 tensor")
    if not 0 <= i < a.shape[-2]:
        raise IndexOutOfRange(f"row {i} out of range for {a.shape}")
    return _select(a, (slice(None), i) if a.data.ndim == 3 else (slice(i, i + 1),))


def row_slice(a, i0, i1):
    """Time steps i0..i1-1, keeping the time axis."""
    return _select(a, (Ellipsis, slice(i0, i1), slice(None)))


def col_slice(a, j0, j1):
    return _select(a, (Ellipsis, slice(j0, j1)))


def concat_rows(tensors):
    """Concatenate along the time axis; beside rank-3 parts, a rank-2 part is
    shared by every batch item (its gradient sums over the batch)."""
    shapes = [t.shape for t in tensors]
    lead = max((s[:-2] for s in shapes), key=len)
    out = Tensor(
        np.concatenate([np.broadcast_to(t.data, lead + t.shape[-2:]) for t in tensors], axis=-2),
        requires_grad=_needs_grad(*tensors),
    )
    offs = np.cumsum([0] + [s[-2] for s in shapes])

    def back(g):
        return tuple(
            _unbroadcast(g[..., offs[i] : offs[i + 1], :], s) for i, s in enumerate(shapes)
        )

    _record(out, tuple(tensors), back)
    return out


def concat_cols(tensors):
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=-1),
        requires_grad=_needs_grad(*tensors),
    )
    offs = np.cumsum([0] + [t.shape[-1] for t in tensors])

    def back(g):
        return tuple(g[..., offs[i] : offs[i + 1]] for i in range(len(offs) - 1))

    _record(out, tuple(tensors), back)
    return out


def mean_rows(a):
    """Mean over the time axis: (T, n) -> (1, n), (B, T, n) -> (B, n)."""
    n = a.shape[-2]
    out = Tensor(a.data.mean(axis=-2).reshape(-1, a.shape[-1]), requires_grad=a.requires_grad)
    lead = a.shape[:-2] + (1, a.shape[-1])
    _record(out, (a,), lambda g: (np.repeat(g.reshape(lead) / n, n, axis=-2),))
    return out


def softmax_rows(a):
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, requires_grad=a.requires_grad)

    def back(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    _record(out, (a,), back)
    return out


def layer_norm_rows(x, gain, bias, eps=1e-5):
    """Per-row normalization with learnable gain and bias (shape (1, d))."""
    xd, gd, bias_shape = x.data, gain.data, bias.shape
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = Tensor((xd - mu) * inv * gd + bias.data, requires_grad=_needs_grad(x, gain, bias))

    def back(g):
        xhat = (xd - mu) * inv  # recomputed rather than kept on the tape
        gx_hat = g * gd
        gx = inv * (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
        )
        return (gx, _unbroadcast(g * xhat, gd.shape), _unbroadcast(g, bias_shape))

    _record(out, (x, gain, bias), back)
    return out


def l2norm_rows(x, min_norm=1e-12):
    """Normalize each row to unit L2 norm with data.unit_rows; NormUnderflow
    on vanishing rows. A row whose norm is past the float range gets a zero
    gradient."""
    y, norms = unit_rows(x.data, min_norm)
    out = Tensor(y, requires_grad=x.requires_grad)

    def back(g):
        proj = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * proj) / norms,)

    _record(out, (x,), back)
    return out


def lstm_sequence(x, w, u, b):
    """Final hidden state (1, H) or (B, H) of an LSTM run over the time axis
    of x, (T, D) or (B, T, D); w (D, 4H), u (H, 4H) and b (1, 4H) hold the
    gates in the column order i, f, g, o. One tape record; its adjoint is
    backprop through time and gives dx only when x requires a gradient. Each
    step's arithmetic and the order the adjoint sums over steps are those of
    the recurrence built from the primitives, so results agree bit for bit.
    """
    hid = u.shape[0]
    if not (x.data.ndim in (2, 3) and w.shape == (x.shape[-1], 4 * hid)
            and u.shape == (hid, 4 * hid) and b.shape[-1] == 4 * hid):
        raise ShapeMismatch(f"lstm_sequence: x {x.shape}, w {w.shape}, u {u.shape}, b {b.shape}")
    xd, wd, ud, bd = x.data, w.data, u.data, b.data
    rank3 = xd.ndim == 3
    steps = [(slice(None), t) if rank3 else slice(t, t + 1) for t in range(xd.shape[-2])]
    out_grad = _needs_grad(x, w, u, b)
    # per-step arrays are kept only for an adjoint that will run
    saved = [] if out_grad and _ACTIVE_TAPE is not None else None
    h = c = np.zeros((xd.shape[0] if rank3 else 1, hid), dtype=xd.dtype)
    for sel in steps:
        z = xd[sel] @ wd + h @ ud + bd
        with np.errstate(over="ignore"):  # exp(-z) = inf gives the limit 0, as sigmoid does
            s = 1.0 / (1.0 + np.exp(-z))  # over all 4H columns; the g block is unused
        g = np.tanh(z[:, 2 * hid : 3 * hid])
        c_prev, h_prev = c, h
        c = s[:, hid : 2 * hid] * c + s[:, :hid] * g
        tc = np.tanh(c)
        h = s[:, 3 * hid :] * tc
        if saved is not None:
            saved.append((s, g, c_prev, tc, h_prev))
    out = Tensor(h, requires_grad=out_grad)

    def back(dh):
        dx = np.empty(xd.shape, xd.dtype) if x.requires_grad else None
        dw = du = db = dc = None
        for t in range(len(steps) - 1, -1, -1):
            s, g, c_prev, tc, h_prev = saved[t]
            i, f, o = s[:, :hid], s[:, hid : 2 * hid], s[:, 3 * hid :]
            dc_t = dh * o * (1.0 - tc * tc)
            dc = dc_t if dc is None else dc + dc_t  # the term from step t + 1 first
            ds = np.concatenate([dc * g, dc * c_prev, np.zeros_like(g), dh * tc], axis=1)
            # the g block's adjoint, then the sigmoid's: the order the primitives sum in
            dz = np.zeros_like(s)
            dz[:, 2 * hid : 3 * hid] = dc * i * (1.0 - g * g)
            dz += ds * s * (1.0 - s)
            xt = xd[steps[t]]
            dw = xt.T @ dz if dw is None else dw + xt.T @ dz
            du = h_prev.T @ dz if du is None else du + h_prev.T @ dz
            db_t = _unbroadcast(dz, bd.shape)
            db = db_t if db is None else db + db_t
            if dx is not None:
                dx[steps[t]] = dz @ wd.T
            dh = dz @ ud.T
            dc = dc * f
        return dx, dw, du, db

    _record(out, (x, w, u, b), back)
    return out


def softmax_cross_entropy(logits, target):
    """Cross-entropy of softmax over each row of logits against a class index.

    logits (B, C) with B targets gives the B per-sample losses; a rank-1
    (C,) or (1, C) logits tensor with one target gives shape (1,).
    Stabilized via log-sum-exp: loss = log sum_c exp(z_c) - z_target.
    """
    shape, c = logits.shape, logits.shape[-1]
    z = logits.data.reshape(-1, c)
    target = np.asarray(target, dtype=np.int64).reshape(-1)
    if target.shape[0] != z.shape[0]:
        raise ShapeMismatch(f"{target.shape[0]} targets for {z.shape[0]} rows of logits")
    if np.any((target < 0) | (target >= c)):
        raise IndexOutOfRange(f"target {target.tolist()} out of range for {c} classes")
    rows = np.arange(z.shape[0])
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    out = Tensor(lse[:, 0] - z[rows, target], requires_grad=logits.requires_grad)

    def back(g):
        p = np.exp(z - lse)
        p[rows, target] -= 1.0
        return ((g[:, None] * p).reshape(shape),)

    _record(out, (logits,), back)
    return out
