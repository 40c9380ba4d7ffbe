"""Poke at multi-head self-attention and its causal mask.

The mask zeroes attention from token i to any token j > i by writing -inf
into the score matrix before softmax. So output row i is a function of
tokens 0..i only. We verify that directly by perturbing a late token and
watching which rows move, then peek at the attention pattern itself.
"""

import numpy as np

from flowids import tensor as T
from flowids.model import ModelParams, attention, encoder_block
from flowids.sentencing import sentence
from flowids.tensor import Tensor

rng = np.random.default_rng(7)

dim, heads, tokens = 8, 2, 5
head_dim = dim // heads

# one attention layer's weights by their layout names: head{k}.w_q, .w_k and
# .w_v for each head k, then w_out (in a model each name starts "block{i}.attn.")
params = {f"head{k}.{w}": Tensor(rng.normal(size=(dim, head_dim)), requires_grad=True)
          for w in ("w_q", "w_k", "w_v") for k in range(heads)}
params["w_out"] = Tensor(rng.normal(size=(dim, dim)), requires_grad=True)

z = rng.normal(size=(1, tokens, dim))

with T.no_grad():
    base = attention(Tensor(z), params, "", heads, mask=True).data[0]

# bump only the last token
z_bump = z.copy()
z_bump[0, -1] += 1.0
with T.no_grad():
    bumped = attention(Tensor(z_bump), params, "", heads, mask=True).data[0]

print("=== causal mask in action ===")
print("perturbed token index:", tokens - 1)
for i in range(tokens):
    delta = np.max(np.abs(bumped[i] - base[i]))
    print(f"  row {i}: max |change| = {delta:.3e}")
print("rows before the perturbed index are bit-identical:",
      bool(np.all(bumped[:-1] == base[:-1])))

with T.no_grad():
    um_base = attention(Tensor(z), params, "", heads, mask=False).data[0]
    um_bumped = attention(Tensor(z_bump), params, "", heads, mask=False).data[0]
print("without the mask every row moves:",
      bool(np.all(np.max(np.abs(um_bumped - um_base), axis=1) > 0)))

print()
print("=== what one head actually attends to ===")

# recompute head 0's weights by hand to display them
q = z[0] @ params["head0.w_q"].data
k = z[0] @ params["head0.w_k"].data
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


def stack(vec):
    """The token matrix after both blocks, each reading its tensors by name under its block{i}. prefix."""
    t = model.tensors
    with T.no_grad():
        h = sentence(Tensor(vec), t["sentencing.embed"], t["sentencing.bias"], t["sentencing.position"])
        for i in range(hyper["blocks"]):
            h = encoder_block(h, t, f"block{i}.", hyper["heads"], hyper["mask"])
    return h.data[0]

a, b = stack(x), stack(x_late)
print("after 2 stacked blocks, rows 0..3 still bit-identical:",
      bool(np.all(a[:-1] == b[:-1])))
print("row 4 moved:", bool(np.any(a[-1] != b[-1])))
