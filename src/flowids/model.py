"""Masked transformer encoder over feature tokens, plus an MLP baseline.

The encoder follows a pre-norm layout. Each block applies, in order:
layer norm, causally masked multi-head attention, residual add; layer norm,
two-layer ReLU MLP, residual add; and a final layer norm. Attention scores
are scaled by the square root of the per-head dimension. After the block
stack, the token matrix is flattened and a single linear head maps it to
two class logits.

The causal mask restricts position i to attend to positions <= i. It is not
needed for whole-record classification, but it is part of the architecture
being reproduced. It is a field of the architecture, ``EncoderConfig.mask``,
so a model always scores the way it was trained; build with mask=False to
ablate it.

The MLP baseline (``fnn_forward``) is three dense layers with ReLU between
them, run as one taped primitive, as ``training.cross_entropy`` is: one
record per forward pass, whose hand-written backward repeats the generic
ops' rules so its bytes are the op-by-op graph's. The encoder is built from
the generic ops in ``tensor``.

Each model kind is one parameter class owning ``logits``, ``hyper``,
``shapes`` and ``from_hyper``, and how it is scored: ``chunk_rows`` rows per
inference chunk, and whether ``threaded_chunks`` may spread the chunks over
threads (see ``training._batched_logits``). ``KINDS`` is the only map from a
kind name to its class.
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
class EncoderConfig:
    """Shape of the encoder: token dim, head count, block count, MLP width, mask."""

    dim: int = 32
    heads: int = 4
    blocks: int = 2
    mlp_dim: int | None = None  # defaults to 4 * dim
    mask: bool = True  # causal attention mask on or off

    def resolved_mlp_dim(self) -> int:
        return 4 * self.dim if self.mlp_dim is None else self.mlp_dim

    def validate(self) -> None:
        if self.dim < 1 or self.heads < 1 or self.blocks < 1 or self.resolved_mlp_dim() < 1:
            raise ConfigError(f"encoder sizes must be positive: {self}")
        if self.dim % self.heads != 0:
            raise ConfigError(
                f"head count {self.heads} does not divide token dim {self.dim}"
            )
        if not isinstance(self.mask, bool):
            raise ConfigError(f"mask must be true or false, got {self.mask!r}")


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

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = []
        for h in range(self.heads):
            out.append((f"{prefix}.head{h}.w_q", self.w_q[h]))
            out.append((f"{prefix}.head{h}.w_k", self.w_k[h]))
            out.append((f"{prefix}.head{h}.w_v", self.w_v[h]))
        out.append((f"{prefix}.w_out", self.w_out))
        return out


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

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = self.attn.named(f"{prefix}.attn")
        for f in fields(self)[1:]:  # every field after attn is one tensor
            out.append((f"{prefix}.{f.name}", getattr(self, f.name)))
        return out


@dataclass
class ModelParams:
    """Every learned weight of the token encoder pipeline."""

    sentencing: SentencingParams
    blocks: list[EncoderBlockParams]
    head_w: Tensor  # (tokens * dim, 2)
    head_b: Tensor  # (2,)
    config: EncoderConfig

    kind = "transformer"
    # A 64-row chunk is big enough to pay for a thread handoff, and small
    # enough that a worker thread's heap stays near one chunk's working set.
    chunk_rows = 64
    threaded_chunks = True

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = self.sentencing.named()
        for i, block in enumerate(self.blocks):
            out.extend(block.named(f"block{i}"))
        out.append(("head.w", self.head_w))
        out.append(("head.b", self.head_b))
        return out

    def logits(self, x: np.ndarray | Tensor) -> Tensor:
        return forward(x, self)

    def hyper(self) -> dict:
        cfg = self.config
        return {
            "kind": self.kind,
            "dim": cfg.dim,
            "heads": cfg.heads,
            "blocks": cfg.blocks,
            "mlp_dim": cfg.resolved_mlp_dim(),
            "tokens": self.sentencing.width,
            "mask": cfg.mask,
        }

    @staticmethod
    def shapes(h: dict):
        """Yield (name, shape) of each parameter that from_hyper(h) builds, in order, allocating nothing."""
        cfg = EncoderConfig(h["dim"], h["heads"], h["blocks"], h["mlp_dim"], h["mask"])
        cfg.validate()  # so that dim // heads is defined
        t, d, m = h["tokens"], cfg.dim, cfg.resolved_mlp_dim()
        yield from ((f"sentencing.{name}", (t, d)) for name in ("embed", "bias", "position"))
        for i in range(cfg.blocks):
            for k in range(cfg.heads):
                yield from ((f"block{i}.attn.head{k}.{w}", (d, d // cfg.heads)) for w in ("w_q", "w_k", "w_v"))
            rest = [("attn.w_out", (d, d)), ("mlp_w1", (d, m)), ("mlp_b1", (m,)), ("mlp_w2", (m, d)), ("mlp_b2", (d,))]
            rest += [(f"ln{k}_{w}", (d,)) for k in (1, 2, 3) for w in ("gamma", "beta")]
            yield from ((f"block{i}.{name}", shape) for name, shape in rest)
        yield "head.w", (t * d, 2)
        yield "head.b", (2,)

    @staticmethod
    def from_hyper(h: dict) -> "ModelParams":
        cfg = EncoderConfig(h["dim"], h["heads"], h["blocks"], h["mlp_dim"], h["mask"])
        return init_params(cfg, tokens=h["tokens"], seed=0)


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
    # Too little work per chunk to pay for a thread handoff: chunks run on
    # the calling thread.
    chunk_rows = 128
    threaded_chunks = False

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def logits(self, x: np.ndarray | Tensor) -> Tensor:
        return fnn_forward(x, self)

    def hyper(self) -> dict:
        return {
            "kind": self.kind,
            "features": self.w1.data.shape[0],
            "hidden": [self.w1.data.shape[1], self.w2.data.shape[1]],
        }

    @staticmethod
    def shapes(h: dict):
        """Yield (name, shape) of each parameter that from_hyper(h) builds, in order, allocating nothing."""
        features, (h1, h2) = h["features"], h["hidden"]
        yield from [("w1", (features, h1)), ("b1", (h1,)), ("w2", (h1, h2)), ("b2", (h2,)), ("w3", (h2, 2)), ("b3", (2,))]

    @staticmethod
    def from_hyper(h: dict) -> "FnnParams":
        return init_fnn(h["features"], hidden=tuple(h["hidden"]), seed=0)


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
        weights = T.softmax(scores, axis=-1)
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
    """Encoded batch (batch, features) -> raw logits (batch, 2), masked per params.config.

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
        z = encoder_block(z, block, params.config.mask)
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
    h1 = np.maximum(np.matmul(x.data, w1) + params.b1.data, 0.0)
    h2 = np.maximum(np.matmul(h1, w2) + params.b2.data, 0.0)
    out = Tensor(np.matmul(h2, w3) + params.b3.data)

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


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# The most parameters a model may hold. Its parameters and AdamW's five
# buffers of the same size take 48 bytes each, 805 MB at this count, before
# any activation; a larger model is refused before anything is allocated.
MAX_PARAMETERS = 2**24


def _refuse_oversized(total: int) -> None:
    if total > MAX_PARAMETERS:
        raise ConfigError(f"the model would hold {total:,} parameters, more than {MAX_PARAMETERS:,}")


def init_params(config: EncoderConfig, tokens: int, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases and positional table; seed-determined."""
    config.validate()
    if tokens < 1:
        raise ConfigError(f"token count must be positive, got {tokens}")
    dim, heads = config.dim, config.heads
    head_dim = dim // heads
    mlp_dim = config.resolved_mlp_dim()
    # the layout below, counted first: sentencing and head 5td + 2, and per block
    # the heads' 3d^2, w_out d^2, the MLP 2dm + m + d and the layer norms 6d
    _refuse_oversized(5 * tokens * dim + 2 + config.blocks * (4 * dim * dim + 2 * dim * mlp_dim + mlp_dim + 7 * dim))
    rng = np.random.default_rng(seed)

    def weight(fan_in, fan_out, shape=None):
        return Tensor(_glorot(rng, fan_in, fan_out, shape or (fan_in, fan_out)), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape), requires_grad=True)

    sent = SentencingParams(
        embed=weight(tokens, dim),
        bias=zeros((tokens, dim)),
        position=zeros((tokens, dim)),
    )
    blocks = []
    for _ in range(config.blocks):
        attn = AttentionParams(
            w_q=[weight(dim, head_dim) for _ in range(heads)],
            w_k=[weight(dim, head_dim) for _ in range(heads)],
            w_v=[weight(dim, head_dim) for _ in range(heads)],
            w_out=weight(dim, dim),
        )
        blocks.append(
            EncoderBlockParams(
                attn=attn,
                mlp_w1=weight(dim, mlp_dim),
                mlp_b1=zeros(mlp_dim),
                mlp_w2=weight(mlp_dim, dim),
                mlp_b2=zeros(dim),
                ln1_gamma=ones(dim),
                ln1_beta=zeros(dim),
                ln2_gamma=ones(dim),
                ln2_beta=zeros(dim),
                ln3_gamma=ones(dim),
                ln3_beta=zeros(dim),
            )
        )
    return ModelParams(
        sentencing=sent,
        blocks=blocks,
        head_w=weight(tokens * dim, 2),
        head_b=zeros(2),
        config=config,
    )


def init_fnn(features: int, hidden: tuple[int, int] = (64, 64), seed: int = 0) -> FnnParams:
    if features < 1 or min(hidden) < 1:
        raise ConfigError(f"layer sizes must be positive: features={features}, hidden={hidden}")
    h1, h2 = hidden
    _refuse_oversized(features * h1 + h1 + h1 * h2 + h2 + 2 * h2 + 2)
    rng = np.random.default_rng(seed)

    def weight(fan_in, fan_out):
        return Tensor(_glorot(rng, fan_in, fan_out, (fan_in, fan_out)), requires_grad=True)

    return FnnParams(
        w1=weight(features, h1),
        b1=Tensor(np.zeros(h1), requires_grad=True),
        w2=weight(h1, h2),
        b2=Tensor(np.zeros(h2), requires_grad=True),
        w3=weight(h2, 2),
        b3=Tensor(np.zeros(2), requires_grad=True),
    )


KINDS: dict[str, type] = {"transformer": ModelParams, "fnn": FnnParams}


def parameter_count(params) -> int:
    return sum(t.data.size for _, t in params.named_parameters())
