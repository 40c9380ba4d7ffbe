"""Poke at multi-head self-attention and its causal mask.

The mask zeroes attention from token i to any token j > i by writing -inf
into the score matrix before softmax. So output row i is a function of
tokens 0..i only. We verify that directly by perturbing a late token and
watching which rows move, then peek at the attention pattern itself.
"""

import numpy as np

from flowids import tensor as T
from flowids.model import AttentionParams, ModelParams, attention
from flowids.tensor import Tensor

rng = np.random.default_rng(7)

dim, heads, tokens = 8, 2, 5
head_dim = dim // heads

params = AttentionParams(
    w_q=[Tensor(rng.normal(size=(dim, head_dim)), requires_grad=True) for _ in range(heads)],
    w_k=[Tensor(rng.normal(size=(dim, head_dim)), requires_grad=True) for _ in range(heads)],
    w_v=[Tensor(rng.normal(size=(dim, head_dim)), requires_grad=True) for _ in range(heads)],
    w_out=Tensor(rng.normal(size=(dim, dim)), requires_grad=True),
)

z = rng.normal(size=(1, tokens, dim))

with T.no_grad():
    base = attention(Tensor(z), params, mask=True).data[0]

# bump only the last token
z_bump = z.copy()
z_bump[0, -1] += 1.0
with T.no_grad():
    bumped = attention(Tensor(z_bump), params, mask=True).data[0]

print("=== causal mask in action ===")
print("perturbed token index:", tokens - 1)
for i in range(tokens):
    delta = np.max(np.abs(bumped[i] - base[i]))
    print(f"  row {i}: max |change| = {delta:.3e}")
print("rows before the perturbed index are bit-identical:",
      bool(np.all(bumped[:-1] == base[:-1])))

with T.no_grad():
    um_base = attention(Tensor(z), params, mask=False).data[0]
    um_bumped = attention(Tensor(z_bump), params, mask=False).data[0]
print("without the mask every row moves:",
      bool(np.all(np.max(np.abs(um_bumped - um_base), axis=1) > 0)))

print()
print("=== what one head actually attends to ===")

# recompute head 0's weights by hand to display them
q = z[0] @ params.w_q[0].data
k = z[0] @ params.w_k[0].data
scores = q @ k.T / np.sqrt(head_dim)
masked = np.where(np.tril(np.ones((tokens, tokens), dtype=bool)), scores, -np.inf)
weights = np.exp(masked - masked.max(axis=-1, keepdims=True))
weights /= weights.sum(axis=-1, keepdims=True)

print("attention weights, head 0 (rows sum to 1, upper triangle forced to 0):")
for row in weights:
    print("  " + " ".join(f"{w:6.3f}" for w in row))

print()
print("=== the same mask inside a full encoder ===")

hyper = {"kind": "transformer", "dim": 8, "heads": 2, "blocks": 2, "mlp_dim": 32, "tokens": tokens, "mask": True}
model = ModelParams.init(hyper, seed=1)

x = rng.uniform(size=(1, tokens))
x_late = x.copy()
x_late[0, -1] += 0.3

from flowids.sentencing import sentence
from flowids.model import encoder_block

def stack(vec):
    with T.no_grad():
        h = sentence(Tensor(vec), params=model.sentencing)
        for block in model.blocks:
            h = encoder_block(h, block, mask=True)
    return h.data[0]

a, b = stack(x), stack(x_late)
print("after 2 stacked blocks, rows 0..3 still bit-identical:",
      bool(np.all(a[:-1] == b[:-1])))
print("row 4 moved:", bool(np.any(a[-1] != b[-1])))
