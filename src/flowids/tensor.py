"""Dense float64 tensors with reverse-mode differentiation on a global tape.

Every operation records a backward rule onto the active tape while grad
recording is enabled. ``backward(loss)`` replays the tape in reverse and
accumulates gradients into ``Tensor.grad`` for every leaf. The tape persists
until ``clear_tape()`` (the training loop clears it once per step), so
calling ``backward`` twice doubles the accumulated grads.

The tape holds keys, not tensors. Each record is (output node, input keys,
rule): an op's output gets a node number, an input made on the current tape
is keyed by its node number, and any other input that requires grad is a
leaf keyed by the ``Tensor`` itself (parameters, or a tensor made before the
last ``clear_tape()``). A rule captures only what it reads when it runs:
shapes, axes, or the input or output arrays its formula uses. So an
activation that no rule reads, such as the attention scores before softmax,
is freed as soon as the forward pass drops it.

Outputs of ``reshape`` and ``transpose`` are views of their input, and
backward rules keep references to the arrays they read. That is safe
because no op writes into an input or output array: every op and every
backward rule builds new arrays or returns views of ``g``. The one writer
of parameter storage is ``training.AdamW``, which owns it and updates it in
place after the backward pass has finished with the tape; it also writes
its flat gradient and scratch buffers in place, and no tensor views those.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from itertools import count

import numpy as np

from .errors import ContractError, DimensionError


class Tensor:
    """A dense float64 array plus an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node = -1  # set by record() when an op's output goes on the tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_TAPE: list[tuple[int, list, object]] = []  # (output node, input keys, backward rule)
_NODES = count()  # node numbers only grow, so a tape's nodes are >= its first record's
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
    return one gradient array (or None) per input, in order. A rule may
    return None for an input that does not require grad, so it need not
    compute a gradient that nothing reads. Custom
    primitives outside this module (e.g. the fused cross-entropy) use this
    entry point directly.

    The tape keeps ``out``'s node number and a key per input (its node
    number, the leaf ``Tensor``, or None if it does not require grad), not
    the tensors. ``backward`` must therefore capture only what it reads:
    whatever else the op used is freed once the caller drops it.
    """
    if _GRAD_ENABLED:
        node = next(_NODES)  # a number left unused when nothing is recorded is harmless
        base = _TAPE[0][0] if _TAPE else node
        keys, live = [], False  # a loop: on Python 3.11 a comprehension costs more than the rest
        for t in inputs:
            if t.node >= base:
                keys.append(t.node)
                live = True
            elif t.requires_grad:
                keys.append(t)
                live = True
            else:
                keys.append(None)
        if live:
            _TAPE.append((node, keys, backward))
            out.node = node
            out.requires_grad = True
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from loss.

    A leaf is a requires_grad tensor, or the loss, that no record on the
    current tape produced. Gradients accumulate across calls; the caller
    zeroes them between optimization steps.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    on_tape = bool(_TAPE) and loss.node >= _TAPE[0][0]
    grads = {loss.node if on_tape else loss: np.ones_like(loss.data)}  # key -> gradient so far
    for node, keys, back in reversed(_TAPE):
        g = grads.pop(node, None)  # a record's output leaves the map as its record replays
        if g is not None:
            for key, ig in zip(keys, back(g)):
                if ig is not None and key is not None:
                    grads[key] = grads[key] + ig if key in grads else ig
    for t, g in grads.items():  # only leaf Tensor keys are left
        t.grad = g.copy() if t.grad is None else t.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    sa, sb = a.data.shape, b.data.shape
    return record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    # each gradient reads the other input, and only if its own input requires grad
    sa, sb = a.data.shape, b.data.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    return record(
        out,
        (a, b),
        lambda g: (
            None if bd is None else _unbroadcast(g * bd, sa),
            None if ad is None else _unbroadcast(g * ad, sb),
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

    # each gradient reads the other input, and only if its own input requires grad
    sa, sb = a.data.shape, b.data.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def back(g):
        ga = gb = None  # an input that does not require grad gets no gradient
        if len(sb) == 2:
            # a 2-D weight: fold a's batch axes into rows, one GEMM per grad
            d, k = sb
            g2 = g.reshape(-1, k)
            if bd is not None:
                ga = (g2 @ bd.T).reshape(sa)
            if ad is not None:
                gb = ad.reshape(-1, d).T @ g2
        else:
            if bd is not None:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), sa)
            if ad is not None:
                gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), sb)
        return ga, gb

    return record(out, (a, b), back)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.maximum(a.data, 0.0)  # y > 0 exactly where a > 0, so the rule reads y
    return record(Tensor(y), (a,), lambda g: (g * (y > 0.0),))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    return record(Tensor(np.log(x)), (a,), lambda g: (g / x,))


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
    gain = gamma.data
    out = Tensor(gain * xhat + beta.data)

    def back(g):
        axes = tuple(range(g.ndim - 1))
        dgamma = np.add.reduce(g * xhat, axis=axes)
        dbeta = np.add.reduce(g, axis=axes)
        dxhat = g * gain
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
    source = a.data.shape
    return record(out, (a,), lambda g: (g.reshape(source),))


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
    edges = [0]
    for p in parts:
        edges.append(edges[-1] + p.data.shape[-1])

    def back(g):
        return tuple(g[..., lo:hi] for lo, hi in zip(edges, edges[1:]))

    return record(out, tuple(parts), back)


def mean_all(a: Tensor) -> Tensor:
    """Mean over every element, yielding a scalar tensor."""
    a = _as_tensor(a)
    out = Tensor(a.data.mean())
    shape, n = a.data.shape, a.data.size
    return record(out, (a,), lambda g: (np.full(shape, float(g) / n),))


def sum_all(a: Tensor) -> Tensor:
    """Sum over every element, yielding a scalar tensor."""
    a = _as_tensor(a)
    out = Tensor(a.data.sum())
    shape = a.data.shape
    return record(out, (a,), lambda g: (np.full(shape, float(g)),))


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
