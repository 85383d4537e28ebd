"""Adam optimizer and a finite-difference gradient checker."""

from __future__ import annotations

import numpy as np

from .errors import NonScalarLoss, ShapeMismatch
from .tensor import GradTape, Tensor, backward


class AdamState:
    """First/second moments and step counter for one parameter tensor."""

    def __init__(self, shape, dtype=np.float32, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.t = 0
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps


def adam_step(param, grad, state):
    """One Adam update with bias correction; mutates param.data and state."""
    g = grad.data if isinstance(grad, Tensor) else np.asarray(grad)
    if param.shape != g.shape or state.m.shape != g.shape:
        raise ShapeMismatch(
            f"param {param.shape}, grad {g.shape}, state {state.m.shape} must agree"
        )
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    param.data = param.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return param, state


class GradCheckEntry:
    def __init__(self, name, max_rel_err, passed):
        self.name = name
        self.max_rel_err = max_rel_err
        self.passed = passed


class GradCheckReport:
    def __init__(self, entries):
        self.entries = entries

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def __str__(self):
        lines = [
            f"{e.name}: max rel err {e.max_rel_err:.3e} "
            f"{'PASS' if e.passed else 'FAIL'}"
            for e in self.entries
        ]
        return "\n".join(lines)


def grad_check(function, params, h=1e-5, tol=1e-4):
    """Compare autodiff gradients of function(params) to central differences.

    params maps names to float64 requires_grad tensors.  The relative error
    per element is |g_ad - g_fd| / max(1, |g_ad| + |g_fd|); an entry passes
    when its max over elements is below tol.
    """
    for name, p in params.items():
        if p.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 params, got {name}: {p.dtype}")
        p.grad = None

    with GradTape() as tape:
        loss = function(params)
    if loss.data.size != 1:
        raise NonScalarLoss(f"function output has shape {loss.shape}")
    backward(tape, loss)

    entries = []
    for name, p in params.items():
        g_ad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        g_fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = function(params).item()
            flat[i] = orig - h
            f_minus = function(params).item()
            flat[i] = orig
            g_fd[i] = (f_plus - f_minus) / (2.0 * h)
        g_fd = g_fd.reshape(p.shape)
        denom = np.maximum(1.0, np.abs(g_ad) + np.abs(g_fd))
        rel = np.abs(g_ad - g_fd) / denom
        max_rel = float(rel.max()) if rel.size else 0.0
        entries.append(GradCheckEntry(name, max_rel, max_rel < tol))
    return GradCheckReport(entries)
