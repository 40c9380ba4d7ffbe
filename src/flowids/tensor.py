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
because an op, a backward rule and ``backward`` write only into arrays they
allocated in the same call (``softmax`` and ``layer_norm`` reuse their own
temporaries with ``out=``, and ``backward`` adds in place only into a
gradient sum it made itself); they never write into an input, an upstream
``g`` or an array another call returned, which may be views of each other.
The one writer of parameter storage is ``training.AdamW``, which owns it
and updates it in place after the backward pass has finished with the
tape; it also writes its flat gradient and scratch buffers in place, and no
tensor views those.
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


_TAPE: list[tuple[int, list, object]] = []  # (output node, input keys, backward rule)
_NODES = count()  # node numbers only grow, so a tape's nodes are >= its first record's
_GRAD_ENABLED = True


def active_tape() -> list:
    return _TAPE


def clear_tape() -> None:
    _TAPE.clear()


def is_grad_enabled() -> bool:
    """Whether ops record onto the tape: False inside ``no_grad``."""
    return _GRAD_ENABLED


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
    primitives outside this module (the fused cross-entropy, the FNN) use this
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
    # keys whose gradient is a sum this loop allocated; any other may be a rule's
    # view of g, or the very array another key holds, so it is never written
    owned = set()
    for node, keys, back in reversed(_TAPE):
        g = grads.pop(node, None)  # a record's output leaves the map as its record replays
        if g is not None:
            for key, ig in zip(keys, back(g)):
                if ig is None or key is None:
                    continue
                if key in owned:
                    np.add(grads[key], ig, out=grads[key])
                elif key in grads:
                    grads[key] = grads[key] + ig
                    owned.add(key)
                else:
                    grads[key] = ig
    for t, g in grads.items():  # only leaf Tensor keys are left
        if t.grad is None:
            t.grad = g if t in owned else g.copy()
        else:
            t.grad = t.grad + g


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


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b)``, with each row of a 2-D product independent of the other rows.

    A 2-D ``a`` times a weight of fewer than four columns is taken row by
    row, one (1, d) @ (d, k) product per row: under OpenBLAS a flat product
    that narrow changes a row's last bits with the number of rows in the
    call. A flat product with 4 to 128 columns over at most 128 inputs
    changed them only in a 1-row call, so a 1-row ``a`` is stacked on
    itself and its product is the first row of that 2-row product: it runs
    the same flat GEMM as every larger call. A product over a leading batch
    axis runs a fixed matrix per leading index and is not split.
    """
    if a.ndim == 2 and b.ndim == 2:
        if b.shape[1] < 4:
            return np.matmul(a[:, None, :], b)[:, 0, :]
        if len(a) == 1:
            return np.matmul(np.vstack((a, a)), b)[:1]
    return np.matmul(a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; batch axes broadcast. See ``product``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not align")
    try:
        out = Tensor(product(a.data, b.data))
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

    def back(g):
        mask = (y > 0.0).astype(np.float64)  # 1.0 or 0.0: a float product, faster than one with a bool array
        return (np.multiply(g, mask, out=mask),)

    return record(Tensor(y), (a,), back)


def softmax(a: Tensor) -> Tensor:
    """Stable softmax along the last axis; each row sums to 1.

    The sums are BLAS products with a ones column (see ``_column``). The row
    max is taken across the leading axis of a copy with the last axis moved
    first, an elementwise ``np.maximum`` of whole rows rather than a
    reduction over a short strided axis; a max is exact, so its order does
    not matter. Forward and backward each write their later steps into the
    array their first step allocated.
    """
    a = _as_tensor(a)
    x = a.data
    if not x.ndim:
        raise DimensionError("softmax: needs at least one axis, got a 0-d tensor")
    ones = _column(x.shape[-1], 1.0)
    peak = np.maximum.reduce(np.ascontiguousarray(np.moveaxis(x, -1, 0)), axis=0)
    y = np.subtract(x, peak[..., None])
    np.exp(y, out=y)
    np.divide(y, y @ ones, out=y)

    def back(g):
        dx = np.multiply(g, y)
        np.subtract(g, dx @ ones, out=dx)
        np.multiply(y, dx, out=dx)
        return (dx,)

    return record(Tensor(y), (a,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Every sum over the last axis is a BLAS product with a cached constant:
    ``@ _centring(dim)`` subtracts the row means and ``@ _column(dim, 1/dim)``
    takes a row mean. The forward products take ``x`` unflattened, so numpy
    makes one BLAS call per leading index and a row's bits do not depend on
    how many rows share the batch; one product over all rows would let them.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    dim = x.data.shape[-1]
    if gamma.data.shape != (dim,) or beta.data.shape != (dim,):
        raise DimensionError(
            f"layer_norm: gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not match last dimension {dim}"
        )
    centre, mean = _centring(dim), _column(dim, 1.0 / dim)
    xhat = x.data @ centre  # centred, then scaled in place
    y = np.multiply(xhat, xhat)
    inv = y @ mean  # the variance, then 1 / sqrt(var + eps) in place
    np.add(inv, eps, out=inv)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    np.multiply(xhat, inv, out=xhat)
    gain = gamma.data
    np.multiply(gain, xhat, out=y)
    np.add(y, beta.data, out=y)
    out = Tensor(y)

    def back(g):
        g2 = g.reshape(-1, dim)
        ones = _column(len(g2), 1.0)[:, 0]
        t = np.multiply(g, xhat)
        dgamma = ones @ t.reshape(-1, dim)
        dbeta = ones @ g2
        dxhat = np.multiply(g, gain)
        np.multiply(dxhat, xhat, out=t)
        row = t @ mean
        dx = dxhat @ centre
        np.multiply(xhat, row, out=t)
        np.subtract(dx, t, out=dx)
        np.multiply(inv, dx, out=dx)
        return dx, dgamma, dbeta

    return record(out, (x, gamma, beta), back)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes; the output is a view of the input (see module docstring)."""
    a = _as_tensor(a)
    out = Tensor(np.swapaxes(a.data, -2, -1))
    return record(out, (a,), lambda g: (np.swapaxes(g, -2, -1),))


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


@lru_cache(maxsize=32)
def _lower_triangle(n: int, dtype=bool) -> np.ndarray:
    """Read-only (n, n) mask, ones on and below the diagonal and zeros above, shared per size and dtype."""
    keep = np.tril(np.ones((n, n), dtype=dtype))
    keep.flags.writeable = False
    return keep


@lru_cache(maxsize=32)
def _column(n: int, value: float) -> np.ndarray:
    """Read-only (n, 1) column of ``value``, shared per size.

    ``m @ _column(n, 1.0)`` sums the last axis of ``m`` as a BLAS product,
    several times faster than ``np.add.reduce`` over a short axis.
    """
    column = np.full((n, 1), value)
    column.flags.writeable = False
    return column


@lru_cache(maxsize=16)
def _centring(n: int) -> np.ndarray:
    """Read-only (n, n) centring matrix ``I - 1/n``: ``m @ _centring(n)`` subtracts row means."""
    centre = np.eye(n) - 1.0 / n
    centre.flags.writeable = False
    return centre


def causal_mask(scores: Tensor) -> Tensor:
    """Set entries above the diagonal of the last two axes to -inf.

    Applied to attention scores before softmax so position i can only
    attend to positions <= i; the masked weights come out exactly 0.
    """
    scores = _as_tensor(scores)
    rows, cols = scores.data.shape[-2], scores.data.shape[-1]
    if rows != cols:
        raise DimensionError(f"causal_mask: last two axes must be square, got {scores.shape}")
    out = Tensor(np.where(_lower_triangle(rows), scores.data, -np.inf))
    # a float64 triangle: the product a bool one gives, without casting it each backward
    keep = _lower_triangle(rows, np.float64)
    return record(out, (scores,), lambda g: (g * keep,))
