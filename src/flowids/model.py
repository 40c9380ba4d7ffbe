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
``hyper`` header field, what ``TrainConfig.hyper`` gives, and what ``hyper()``
derives back from a built model's arrays. Each model kind is one parameter
class owning ``logits``, ``hyper``, its layout ``shapes``, its ``init`` from a
hyper dict and a seed, its one builder ``from_arrays`` (which both init and
checkpoint load go through), and whether ``threaded_chunks`` may spread its
inference chunks over threads (see ``training._batched_logits``). ``shapes``
is the only home of a kind's size rules: every size a positive integer (a
bool is none), the kind's own rules, and at most ``MAX_PARAMETERS``
parameters, counted without allocating. ``KINDS`` is the only map from a kind
name to its class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError, IncompatibilityError
from .sentencing import SentencingParams, sentence
from .tensor import Tensor


@dataclass
class AttentionParams:
    """Per-head query/key/value projections plus the output mix."""

    w_q: list[Tensor]  # each (dim, dim // heads)
    w_k: list[Tensor]
    w_v: list[Tensor]
    w_out: Tensor  # (dim, dim)

    @property
    def heads(self) -> int:
        return len(self.w_q)


@dataclass
class EncoderBlockParams:
    attn: AttentionParams
    mlp_w1: Tensor  # (dim, mlp_dim)
    mlp_b1: Tensor
    mlp_w2: Tensor  # (mlp_dim, dim)
    mlp_b2: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    ln3_gamma: Tensor
    ln3_beta: Tensor


@dataclass
class ModelParams:
    """Every learned weight of the token encoder pipeline."""

    sentencing: SentencingParams
    blocks: list[EncoderBlockParams]
    head_w: Tensor  # (tokens * dim, 2)
    head_b: Tensor  # (2,)
    mask: bool  # causal attention mask on or off

    kind = "transformer"
    threaded_chunks = True

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._named)  # in shapes order, recorded by from_arrays

    def logits(self, x: np.ndarray | Tensor) -> Tensor:
        return forward(x, self)

    def hyper(self) -> dict:
        (tokens, dim), block = self.sentencing.embed.data.shape, self.blocks[0]
        return {"kind": self.kind, "dim": dim, "heads": block.attn.heads, "blocks": len(self.blocks),
                "mlp_dim": block.mlp_w1.data.shape[1], "tokens": tokens, "mask": self.mask}

    @staticmethod
    def shapes(h: dict):
        """(name, shape) of each parameter that from_arrays(h, ...) builds, in order; checks h
        at once (sizes positive integers, heads dividing dim, mask true or false, the
        parameter budget), then yields the layout lazily, allocating nothing."""
        t, d, heads, blocks, m = h["tokens"], h["dim"], h["heads"], h["blocks"], h["mlp_dim"]
        _refuse_nonpositive(dim=d, heads=heads, blocks=blocks, mlp_dim=m, tokens=t)
        if d % heads != 0:  # so that d // heads is the head width
            raise ConfigError(f"head count {heads} does not divide token dim {d}")
        if not isinstance(h["mask"], bool):
            raise ConfigError(f"mask must be true or false, got {h['mask']!r}")
        # the layout, counted without walking it: sentencing and head 5td + 2, and per
        # block the heads' 3d^2, w_out d^2, the MLP 2dm + m + d and the layer norms 6d
        _refuse_oversized(5 * t * d + 2 + blocks * (4 * d * d + 2 * d * m + m + 7 * d))

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

    @classmethod
    def from_arrays(cls, h: dict, arrays: dict) -> "ModelParams":
        """The model that shapes(h) lays out, each parameter taken from arrays by its name."""
        named = _parameters(cls.shapes(h), arrays)
        p = dict(named)

        def block(i: int) -> EncoderBlockParams:
            heads = [f"block{i}.attn.head{k}." for k in range(h["heads"])]
            attn = AttentionParams(*([p[head + w] for head in heads] for w in ("w_q", "w_k", "w_v")), p[f"block{i}.attn.w_out"])
            return EncoderBlockParams(attn, *(p[f"block{i}.{f.name}"] for f in fields(EncoderBlockParams)[1:]))

        sent = SentencingParams(*(p[f"sentencing.{f.name}"] for f in fields(SentencingParams)))
        params = cls(sent, [block(i) for i in range(h["blocks"])], p["head.w"], p["head.b"], h["mask"])
        params._named = named
        return params


@dataclass
class FnnParams:
    """Three linear layers with ReLU between them; runs on encoded vectors."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    kind = "fnn"
    threaded_chunks = False  # too little work per chunk to pay for a thread handoff

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._named)  # in shapes order, recorded by from_arrays

    def logits(self, x: np.ndarray | Tensor) -> Tensor:
        return fnn_forward(x, self)

    def hyper(self) -> dict:
        (features, h1), h2 = self.w1.data.shape, self.w2.data.shape[1]
        return {"kind": self.kind, "features": features, "hidden": [h1, h2]}

    @staticmethod
    def shapes(h: dict) -> list[tuple[str, tuple]]:
        """(name, shape) of each parameter, in order: the layout that from_arrays(h, ...) builds;
        checks h first (sizes positive integers, the parameter budget)."""
        features, (h1, h2) = h["features"], h["hidden"]
        _refuse_nonpositive(features=features, hidden=h["hidden"])
        layout = [("w1", (features, h1)), ("b1", (h1,)), ("w2", (h1, h2)), ("b2", (h2,)), ("w3", (h2, 2)), ("b3", (2,))]
        _refuse_oversized(sum(math.prod(shape) for _, shape in layout))
        return layout

    @classmethod
    def init(cls, h: dict, seed: int) -> "FnnParams":
        """Glorot-uniform weights drawn in the order w1, w2, w3, and zero biases; seed-determined."""
        return cls.from_arrays(h, _init_arrays(cls.shapes(h), ["w1", "w2", "w3"], seed))

    @classmethod
    def from_arrays(cls, h: dict, arrays: dict) -> "FnnParams":
        """The model that shapes(h) lays out, each parameter taken from arrays by its name."""
        named = _parameters(cls.shapes(h), arrays)
        params = cls(**dict(named))
        params._named = named
        return params


def attention(z: Tensor, params: AttentionParams, mask: bool = True) -> Tensor:
    """Multi-head scaled dot-product attention on (..., tokens, dim)."""
    head_dim = params.w_q[0].data.shape[1]
    inv_scale = 1.0 / math.sqrt(head_dim)
    head_outputs = []
    for h in range(params.heads):
        q = T.matmul(z, params.w_q[h])
        k = T.matmul(z, params.w_k[h])
        v = T.matmul(z, params.w_v[h])
        scores = T.scale(T.matmul(q, T.transpose(k)), inv_scale)
        if mask:
            scores = T.causal_mask(scores)
        weights = T.softmax(scores)
        head_outputs.append(T.matmul(weights, v))
    return T.matmul(T.concat_last_axis(head_outputs), params.w_out)


def encoder_block(z: Tensor, params: EncoderBlockParams, mask: bool = True) -> Tensor:
    """One pre-norm block: masked attention, MLP, each with residual, then LN."""
    attended = attention(T.layer_norm(z, params.ln1_gamma, params.ln1_beta), params.attn, mask)
    z = T.add(attended, z)
    hidden = T.relu(T.add(T.matmul(T.layer_norm(z, params.ln2_gamma, params.ln2_beta), params.mlp_w1), params.mlp_b1))
    z = T.add(T.add(T.matmul(hidden, params.mlp_w2), params.mlp_b2), z)
    return T.layer_norm(z, params.ln3_gamma, params.ln3_beta)


def forward(x: np.ndarray | Tensor, params: ModelParams) -> Tensor:
    """Encoded batch (batch, features) -> raw logits (batch, 2), masked per params.mask.

    Softmax is applied only inside the loss and the score computation,
    never here.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 2:
        raise IncompatibilityError(f"forward expects a (batch, features) matrix, got {x.shape}")
    if x.data.shape[1] != params.sentencing.width:
        raise IncompatibilityError(
            f"input has {x.data.shape[1]} features but the model was built for "
            f"{params.sentencing.width}"
        )
    z = sentence(x, params.sentencing)
    for block in params.blocks:
        z = encoder_block(z, block, params.mask)
    flat = T.reshape(z, (z.shape[0], z.shape[1] * z.shape[2]))
    return T.add(T.matmul(flat, params.head_w), params.head_b)


def fnn_forward(x: np.ndarray | Tensor, params: FnnParams) -> Tensor:
    """Encoded batch (batch, features) -> raw logits (batch, 2).

    One taped primitive with inputs (x, w1, b1, w2, b2, w3, b3). Forward and
    backward make the numpy calls that the matmul, add and relu ops and
    their rules would make, in the same order, so every logit and gradient
    has the bytes of the op-by-op graph. The rule computes a gradient only
    for an input that requires one.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != params.w1.data.shape[0]:
        raise IncompatibilityError(
            f"input shape {x.shape} does not match first layer "
            f"{params.w1.data.shape}"
        )
    inputs = (x, params.w1, params.b1, params.w2, params.b2, params.w3, params.b3)
    w1, w2, w3 = params.w1.data, params.w2.data, params.w3.data
    h1 = np.maximum(T.product(x.data, w1) + params.b1.data, 0.0)
    h2 = np.maximum(T.product(h1, w2) + params.b2.data, 0.0)
    out = Tensor(T.product(h2, w3) + params.b3.data)

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


def _refuse_nonpositive(**sizes) -> None:
    """A ConfigError naming, by its repr, each size that is not an int of at least 1 (a bool is
    not one), a list when any of its entries is not."""
    bad = [f"{name}={size!r}" for name, size in sizes.items()
           if not all(type(n) is int and n >= 1 for n in (size if isinstance(size, list) else [size]))]
    if bad:
        raise ConfigError(f"sizes must be positive integers, got {', '.join(bad)}")


def _parameters(layout, arrays: dict) -> list[tuple[str, Tensor]]:
    """(name, trainable Tensor over arrays[name]) for each entry of layout, in its order; no array is copied."""
    named = []
    for name, shape in layout:
        if arrays[name].shape != shape:
            raise ConfigError(f"array {name!r} has shape {arrays[name].shape}, the layout needs {shape}")
        named.append((name, Tensor(arrays[name], requires_grad=True)))
    return named


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


def _refuse_oversized(total: int) -> None:
    if total > MAX_PARAMETERS:
        raise ConfigError(f"the model would hold {total:,} parameters, more than {MAX_PARAMETERS:,}")


KINDS: dict[str, type] = {"transformer": ModelParams, "fnn": FnnParams}
