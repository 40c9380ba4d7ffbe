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

Each model kind is one parameter class owning ``logits``, ``hyper`` and
``from_hyper``; ``KINDS`` is the only map from a kind name to its class.
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
    """Encoded batch (batch, features) -> raw logits (batch, 2)."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != params.w1.data.shape[0]:
        raise IncompatibilityError(
            f"input shape {x.shape} does not match first layer "
            f"{params.w1.data.shape}"
        )
    h = T.relu(T.add(T.matmul(x, params.w1), params.b1))
    h = T.relu(T.add(T.matmul(h, params.w2), params.b2))
    return T.add(T.matmul(h, params.w3), params.b3)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: EncoderConfig, tokens: int, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases and positional table; seed-determined."""
    config.validate()
    if tokens < 1:
        raise ConfigError(f"token count must be positive, got {tokens}")
    rng = np.random.default_rng(seed)
    dim, heads = config.dim, config.heads
    head_dim = dim // heads
    mlp_dim = config.resolved_mlp_dim()

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
    rng = np.random.default_rng(seed)
    h1, h2 = hidden

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
