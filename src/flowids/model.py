"""Masked transformer encoder over feature tokens, plus an MLP baseline.

The encoder follows a pre-norm layout. Each block applies, in order:
layer norm, causally masked multi-head attention, residual add; layer norm,
two-layer ReLU MLP, residual add; and a final layer norm. Attention scores
are scaled by the square root of the per-head dimension. After the block
stack, the token matrix is flattened and a single linear head maps it to
two class logits.

The causal mask restricts position i to attend to positions <= i. It is not
needed for whole-record classification, but it is part of the architecture
being reproduced. It is the ``mask`` entry of the transformer's hyper dict,
so a model always scores the way it was trained; build with mask false to
ablate it.

The MLP baseline (``fnn_forward``) is three dense layers with ReLU between
them, run as one taped primitive, as ``training.cross_entropy`` is: one
record per forward pass, whose hand-written backward repeats the generic
ops' rules so its bytes are the op-by-op graph's. The encoder is built from
the generic ops in ``tensor``.

A model's shape has one statement, its hyper dict: the checkpoint's
``hyper`` header field, what ``TrainConfig.hyper`` gives, and what a built
model's ``hyper()`` returns, a copy of the dict it was built from. Its
parameters have one statement too, its kind's layout ``shapes``: a built model
is its hyper dict plus ``tensors``, one dict from each layout name to its
Tensor in layout order, and the forward code reads each parameter by that name.
The base class ``Params`` holds both, with ``hyper``, ``named_parameters`` and
the one builder ``from_arrays`` (which both init and checkpoint load go
through). Each model kind is one subclass owning ``logits``, its ``shapes``,
its ``init`` from a hyper dict and a seed, and whether ``threaded_chunks`` may
spread its inference chunks over threads (see ``training._batched_logits``).
``shapes`` is the only home of a kind's size rules: no field but the kind's
own, every size a positive integer (a bool is none), the kind's own rules, and
at most ``MAX_PARAMETERS`` parameters, counted without allocating. ``KINDS`` is
the only map from a kind name to its class.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, IncompatibilityError
from .sentencing import sentence
from .tensor import Tensor


class Params:
    """A built model: the hyper dict it was built from, and its parameters by layout name.

    ``tensors`` maps each name that ``shapes(h)`` lays out to its trainable Tensor, in
    that order. Each kind is a subclass giving ``kind``, ``threaded_chunks``, ``shapes``,
    ``init`` and ``logits``."""

    kind: str
    threaded_chunks: bool

    def __init__(self, h: dict, tensors: dict[str, Tensor]):
        self._hyper = copy.deepcopy({**h, "kind": self.kind})
        self.tensors = tensors

    def hyper(self) -> dict:
        """A copy of the hyper dict the model was built from, its kind set to the class's."""
        return copy.deepcopy(self._hyper)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

    @classmethod
    def from_arrays(cls, h: dict, arrays: dict):
        """The model that shapes(h) lays out, each parameter taken from arrays by its name."""
        return cls(h, _parameters(cls.shapes(h), arrays))


class ModelParams(Params):
    """The token encoder: sentencing, a stack of pre-norm blocks, and a linear head."""

    kind = "transformer"
    threaded_chunks = True

    def logits(self, x: np.ndarray | Tensor) -> Tensor:
        return forward(x, self)

    @staticmethod
    def shapes(h: dict):
        """(name, shape) of each parameter that from_arrays(h, ...) builds, in order; checks h
        at once (no field but its own, sizes positive integers, heads dividing dim, mask true
        or false, the parameter budget), then yields the layout lazily, allocating nothing."""
        t, d, heads, blocks, m, mask = _fields(h, "tokens", "dim", "heads", "blocks", "mlp_dim", "mask")
        _refuse_nonpositive(dim=d, heads=heads, blocks=blocks, mlp_dim=m, tokens=t)
        if d % heads != 0:  # so that d // heads is the head width
            raise ConfigError(f"heads {heads} does not divide dim {d}")
        if not isinstance(mask, bool):
            raise ConfigError(f"mask must be true or false, got {mask!r}")
        # the layout, counted without walking it: sentencing and head 5td + 2, and per
        # block the heads' 3d^2, w_out d^2, the MLP 2dm + m + d and the layer norms 6d
        _refuse_oversized(5 * t * d + 2 + blocks * (4 * d * d + 2 * d * m + m + 7 * d),
                          dim=d, blocks=blocks, mlp_dim=m, tokens=t)

        def layout():
            yield from ((f"sentencing.{name}", (t, d)) for name in ("embed", "bias", "position"))
            for i in range(blocks):
                for k in range(heads):
                    yield from ((f"block{i}.attn.head{k}.{w}", (d, d // heads)) for w in ("w_q", "w_k", "w_v"))
                rest = [("attn.w_out", (d, d)), ("mlp_w1", (d, m)), ("mlp_b1", (m,)), ("mlp_w2", (m, d)), ("mlp_b2", (d,))]
                rest += [(f"ln{k}_{w}", (d,)) for k in (1, 2, 3) for w in ("gamma", "beta")]
                yield from ((f"block{i}.{name}", shape) for name, shape in rest)
            yield "head.w", (t * d, 2)
            yield "head.b", (2,)

        return layout()

    @classmethod
    def init(cls, h: dict, seed: int) -> "ModelParams":
        """Glorot-uniform weights, zero biases and positional table, unit layer-norm gains; seed-determined.

        The weights are drawn in this order: the sentencing embedding; per block,
        every head's w_q, then every head's w_k, then every head's w_v, then
        w_out, mlp_w1 and mlp_w2; last the head."""
        layout = cls.shapes(h)  # checks h
        drawn = ["sentencing.embed"]
        for i in range(h["blocks"]):
            drawn += [f"block{i}.attn.head{k}.{w}" for w in ("w_q", "w_k", "w_v") for k in range(h["heads"])]
            drawn += [f"block{i}.{name}" for name in ("attn.w_out", "mlp_w1", "mlp_w2")]
        drawn.append("head.w")
        return cls.from_arrays(h, _init_arrays(layout, drawn, seed))


class FnnParams(Params):
    """Three linear layers with ReLU between them; runs on encoded vectors."""

    kind = "fnn"
    threaded_chunks = False  # too little work per chunk to pay for a thread handoff

    def logits(self, x: np.ndarray | Tensor) -> Tensor:
        return fnn_forward(x, self)

    @staticmethod
    def shapes(h: dict) -> list[tuple[str, tuple]]:
        """(name, shape) of each parameter, in order: the layout that from_arrays(h, ...) builds; checks
        h first (no field but its own, hidden a list of two sizes, sizes positive integers, the budget)."""
        features, hidden = _fields(h, "features", "hidden")
        if not (isinstance(hidden, list) and len(hidden) == 2):
            raise ConfigError(f"hidden must be a list of two sizes, got hidden={hidden!r}")
        _refuse_nonpositive(features=features, hidden=hidden)
        h1, h2 = hidden
        layout = [("w1", (features, h1)), ("b1", (h1,)), ("w2", (h1, h2)), ("b2", (h2,)), ("w3", (h2, 2)), ("b3", (2,))]
        _refuse_oversized(sum(math.prod(shape) for _, shape in layout), features=features, hidden=hidden)
        return layout

    @classmethod
    def init(cls, h: dict, seed: int) -> "FnnParams":
        """Glorot-uniform weights drawn in the order w1, w2, w3, and zero biases; seed-determined."""
        return cls.from_arrays(h, _init_arrays(cls.shapes(h), ["w1", "w2", "w3"], seed))


def attention(z: Tensor, tensors: dict[str, Tensor], prefix: str, heads: int, mask: bool) -> Tensor:
    """Multi-head scaled dot-product attention on (..., tokens, dim), its weights named
    prefix + "head{k}.w_q" (and w_k, w_v) for each head k, and prefix + "w_out"."""
    head_dim = tensors[prefix + "head0.w_q"].data.shape[1]
    inv_scale = 1.0 / math.sqrt(head_dim)
    head_outputs = []
    for h in range(heads):
        q = T.matmul(z, tensors[f"{prefix}head{h}.w_q"])
        k = T.matmul(z, tensors[f"{prefix}head{h}.w_k"])
        v = T.matmul(z, tensors[f"{prefix}head{h}.w_v"])
        scores = T.scale(T.matmul(q, T.transpose(k)), inv_scale)
        if mask:
            scores = T.causal_mask(scores)
        weights = T.softmax(scores)
        head_outputs.append(T.matmul(weights, v))
    return T.matmul(T.concat_last_axis(head_outputs), tensors[prefix + "w_out"])


def encoder_block(z: Tensor, tensors: dict[str, Tensor], prefix: str, heads: int, mask: bool) -> Tensor:
    """One pre-norm block, its tensors named prefix + their layout name (as "attn.w_out",
    "mlp_w1" or "ln1_gamma"): masked attention, MLP, each with residual, then LN."""

    def p(name: str) -> Tensor:
        return tensors[prefix + name]

    attended = attention(T.layer_norm(z, p("ln1_gamma"), p("ln1_beta")), tensors, prefix + "attn.", heads, mask)
    z = T.add(attended, z)
    hidden = T.relu(T.add(T.matmul(T.layer_norm(z, p("ln2_gamma"), p("ln2_beta")), p("mlp_w1")), p("mlp_b1")))
    z = T.add(T.add(T.matmul(hidden, p("mlp_w2")), p("mlp_b2")), z)
    return T.layer_norm(z, p("ln3_gamma"), p("ln3_beta"))


def forward(x: np.ndarray | Tensor, params: ModelParams) -> Tensor:
    """Encoded batch (batch, features) -> raw logits (batch, 2), masked as the hyper dict's mask says.

    Softmax is applied only inside the loss and the score computation,
    never here.
    """
    h, p = params._hyper, params.tensors
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 2:
        raise IncompatibilityError(f"forward expects a (batch, features) matrix, got {x.shape}")
    if x.data.shape[1] != h["tokens"]:
        raise IncompatibilityError(
            f"input has {x.data.shape[1]} features but the model was built for {h['tokens']}"
        )
    z = sentence(x, p["sentencing.embed"], p["sentencing.bias"], p["sentencing.position"])
    for i in range(h["blocks"]):
        z = encoder_block(z, p, f"block{i}.", h["heads"], h["mask"])
    flat = T.reshape(z, (z.shape[0], z.shape[1] * z.shape[2]))
    return T.add(T.matmul(flat, p["head.w"]), p["head.b"])


def fnn_forward(x: np.ndarray | Tensor, params: FnnParams) -> Tensor:
    """Encoded batch (batch, features) -> raw logits (batch, 2).

    One taped primitive with inputs (x, w1, b1, w2, b2, w3, b3). Forward and
    backward make the numpy calls that the matmul, add and relu ops and
    their rules would make, in the same order, so every logit and gradient
    has the bytes of the op-by-op graph. The rule computes a gradient only
    for an input that requires one.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    inputs = (x, *(params.tensors[name] for name in ("w1", "b1", "w2", "b2", "w3", "b3")))
    w1, b1, w2, b2, w3, b3 = (t.data for t in inputs[1:])
    if x.data.ndim != 2 or x.data.shape[1] != w1.shape[0]:
        raise IncompatibilityError(f"input shape {x.shape} does not match first layer {w1.shape}")
    h1 = np.maximum(T.product(x.data, w1) + b1, 0.0)
    h2 = np.maximum(T.product(h1, w2) + b2, 0.0)
    out = Tensor(T.product(h2, w3) + b3)

    needs = [t.requires_grad for t in inputs]  # x, w1, b1, w2, b2, w3, b3
    # layer k = 1, 2, 3 reads its input acts[k - 1]; for k > 1 that is the ReLU output below it
    acts = (x.data if needs[1] else None, h1, h2)
    weights = (w1, w2, w3)

    def back(g):
        grads = [None] * 7
        for k in (3, 2, 1):
            a = acts[k - 1]
            if needs[2 * k]:
                grads[2 * k] = np.add.reduce(g, axis=0)  # the bias: what _unbroadcast computes
            if needs[2 * k - 1]:
                grads[2 * k - 1] = a.T @ g
            if not any(needs[: 2 * k - 1]):  # nothing below layer k needs a gradient
                break
            g = g @ weights[k - 1].T
            if k > 1:
                g = g * (a > 0.0)  # the relu rule, which reads the ReLU output
        else:
            grads[0] = g
        return grads

    return T.record(out, inputs, back)


def _fields(h: dict, *names: str) -> list:
    """h's values at names, in that order; a ConfigError naming the first field of h that is
    neither kind nor one of names, and a KeyError for a name that h lacks."""
    unknown = sorted(h.keys() - {"kind", *names})
    if unknown:
        raise ConfigError(f"{unknown[0]!r} is not a field of a {h.get('kind')!r} model")
    return [h[name] for name in names]


def _refuse_nonpositive(**sizes) -> None:
    """A ConfigError naming, by its repr, each size that is not an int of at least 1 (a bool is
    not one), a list when any of its entries is not."""
    bad = [f"{name}={size!r}" for name, size in sizes.items()
           if not all(type(n) is int and n >= 1 for n in (size if isinstance(size, list) else [size]))]
    if bad:
        raise ConfigError(f"sizes must be positive integers, got {', '.join(bad)}")


def _parameters(layout, arrays: dict) -> dict[str, Tensor]:
    """{name: trainable Tensor over arrays[name]} for each entry of layout, in its order; no array is copied."""
    tensors = {}
    for name, shape in layout:
        if arrays[name].shape != shape:
            raise ConfigError(f"array {name!r} has shape {arrays[name].shape}, the layout needs {shape}")
        tensors[name] = Tensor(arrays[name], requires_grad=True)
    return tensors


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:  # shape is (fan_in, fan_out)
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _init_arrays(layout, drawn: list[str], seed: int) -> dict[str, np.ndarray]:
    """Glorot weights for the names in drawn, drawn in that order; every other
    entry of layout is a unit layer-norm gain or a zero bias."""
    shapes = dict(layout)
    rng = np.random.default_rng(seed)
    weights = {name: _glorot(rng, shapes[name]) for name in drawn}
    return {name: weights[name] if name in weights else (np.ones if name.endswith("_gamma") else np.zeros)(shape)
            for name, shape in shapes.items()}


# The most parameters a model may hold. Its parameters and AdamW's five
# buffers of the same size take 48 bytes each, 805 MB at this count, before
# any activation; a larger model is refused before anything is allocated.
MAX_PARAMETERS = 2**24


def _refuse_oversized(total: int, **sizes) -> None:
    """A ConfigError giving the count and naming each size it comes from, if it is over the budget."""
    if total > MAX_PARAMETERS:
        named = ", ".join(f"{name}={size!r}" for name, size in sizes.items())
        raise ConfigError(f"{named} would make a model of {total:,} parameters, more than {MAX_PARAMETERS:,}")


KINDS: dict[str, type] = {"transformer": ModelParams, "fnn": FnnParams}
