"""Dense float64 tensors with reverse-mode differentiation on a global tape.

Every operation records a backward rule onto the active tape while grad
recording is enabled. ``backward(loss)`` replays the tape in reverse and
accumulates gradients into ``Tensor.grad`` for every leaf. The tape persists
until ``clear_tape()`` (the training loop clears it once per step), so
calling ``backward`` twice doubles the accumulated grads.

Outputs of ``reshape`` and ``transpose`` are views of their input, and
backward rules keep references to the arrays they were recorded with. That
is safe because no op writes into an input or output array: every op and
every backward rule builds new arrays. The one writer of parameter storage
is ``training.AdamW``, which owns it and updates it in place after the
backward pass has finished with the tape.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import ContractError, DimensionError


class Tensor:
    """A dense float64 array plus an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_TAPE: list[tuple[Tensor, tuple[Tensor, ...], object]] = []  # (out, inputs, backward rule)
_GRAD_ENABLED = True


def active_tape() -> list:
    return _TAPE


def clear_tape() -> None:
    _TAPE.clear()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / oracles)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """Register ``backward`` for ``out`` if any input participates in grads.

    ``backward(g)`` receives the upstream gradient for ``out`` and must
    return one gradient array (or None) per input, in order. Custom
    primitives outside this module (e.g. the fused cross-entropy) use this
    entry point directly.
    """
    if _GRAD_ENABLED:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                _TAPE.append((out, inputs, backward))
                break
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from loss.

    A leaf is a requires_grad tensor, or the loss, that no tape record
    produced. Gradients accumulate across calls; the caller zeroes them
    between optimization steps.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    grads = {id(loss): (loss, np.ones_like(loss.data))}  # id -> (tensor, gradient so far)
    for out, inputs, back in reversed(_TAPE):
        if id(out) in grads:  # a record's output leaves the map as its record replays
            for t, ig in zip(inputs, back(grads.pop(id(out))[1])):
                if ig is not None and t.requires_grad:
                    key = id(t)
                    grads[key] = (t, grads[key][1] + ig if key in grads else ig)
    for t, g in grads.values():
        t.grad = g.copy() if t.grad is None else t.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    return record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    return record(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a Python scalar (not differentiated w.r.t. ``s``)."""
    a = _as_tensor(a)
    out = Tensor(a.data * s)
    return record(out, (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; batch axes broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not align")
    try:
        out = Tensor(np.matmul(a.data, b.data))
    except ValueError:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not align")

    def back(g):
        if b.data.ndim == 2:
            # a 2-D weight: fold a's batch axes into rows, one GEMM per grad
            d, k = b.data.shape
            g2 = g.reshape(-1, k)
            return (g2 @ b.data.T).reshape(a.data.shape), a.data.reshape(-1, d).T @ g2
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return record(out, (a, b), back)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    return record(out, (a,), lambda g: (g * (a.data > 0.0),))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.log(a.data))
    return record(out, (a,), lambda g: (g / a.data,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``; each slice sums to 1."""
    a = _as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise DimensionError(f"softmax: axis {axis} invalid for shape {a.shape}")
    e = np.exp(a.data - np.maximum.reduce(a.data, axis=axis, keepdims=True))
    y = e / np.add.reduce(e, axis=axis, keepdims=True)
    out = Tensor(y)

    def back(g):
        dot = np.add.reduce(g * y, axis=axis, keepdims=True)
        return (y * (g - dot),)

    return record(out, (a,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    dim = x.data.shape[-1]
    if gamma.data.shape != (dim,) or beta.data.shape != (dim,):
        raise DimensionError(
            f"layer_norm: gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not match last dimension {dim}"
        )
    # np.add.reduce(..) / dim is what .mean computes, without its overhead
    centred = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / dim
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / dim
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = Tensor(gamma.data * xhat + beta.data)

    def back(g):
        axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - np.add.reduce(dxhat, axis=-1, keepdims=True) / dim
            - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / dim)
        )
        return dx, dgamma, dbeta

    return record(out, (x, gamma, beta), back)


def transpose(a: Tensor, axis0: int = -2, axis1: int = -1) -> Tensor:
    """Swap two axes; the output is a view of the input (see module docstring)."""
    a = _as_tensor(a)
    out = Tensor(np.swapaxes(a.data, axis0, axis1))
    return record(out, (a,), lambda g: (np.swapaxes(g, axis0, axis1),))


def reshape(a: Tensor, shape) -> Tensor:
    """Reshape; the output is a view of the input where numpy allows one."""
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
    return record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def concat_last_axis(parts: list[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    parts = [_as_tensor(p) for p in parts]
    lead = parts[0].data.shape[:-1]
    if any(p.data.shape[:-1] != lead for p in parts):
        raise DimensionError(
            "concat_last_axis: leading shapes differ: "
            + ", ".join(str(p.shape) for p in parts)
        )
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    sizes = [p.data.shape[-1] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, bounds, axis=-1))

    return record(out, tuple(parts), back)


def mean_all(a: Tensor) -> Tensor:
    """Mean over every element, yielding a scalar tensor."""
    a = _as_tensor(a)
    out = Tensor(a.data.mean())
    n = a.data.size
    return record(out, (a,), lambda g: (np.full(a.data.shape, float(g) / n),))


def sum_all(a: Tensor) -> Tensor:
    """Sum over every element, yielding a scalar tensor."""
    a = _as_tensor(a)
    out = Tensor(a.data.sum())
    return record(out, (a,), lambda g: (np.full(a.data.shape, float(g)),))


@lru_cache(maxsize=16)
def _lower_triangle(n: int) -> np.ndarray:
    """Read-only (n, n) boolean mask of the diagonal and below, shared per size."""
    keep = np.tril(np.ones((n, n), dtype=bool))
    keep.flags.writeable = False
    return keep


def causal_mask(scores: Tensor) -> Tensor:
    """Set entries above the diagonal of the last two axes to -inf.

    Applied to attention scores before softmax so position i can only
    attend to positions <= i; the masked weights come out exactly 0.
    """
    scores = _as_tensor(scores)
    rows, cols = scores.data.shape[-2], scores.data.shape[-1]
    if rows != cols:
        raise DimensionError(f"causal_mask: last two axes must be square, got {scores.shape}")
    keep = _lower_triangle(rows)
    out = Tensor(np.where(keep, scores.data, -np.inf))
    return record(out, (scores,), lambda g: (g * keep,))
