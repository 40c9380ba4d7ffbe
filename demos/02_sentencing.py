"""Show how raw flow records become token sequences the encoder can read.

Two stages. First each cell is squashed to a scalar in [0, 1]: nominal
values get a vocabulary index scaled by vocabulary size, numeric and
timestamp values are min-max scaled from the ranges seen at fit time.
Second, each scalar gains a learned direction, bias and position, giving
one token vector per feature: token_j = x_j * embed_j + bias_j + pos_j.
"""

import numpy as np

from flowids import dataio, sentencing
from flowids import tensor as T
from flowids.tensor import Tensor

rng = np.random.default_rng(3)

# a handful of synthetic flow records, labelled 0 (normal) / 1 (attack)
ds = dataio.synth(40, seed=3)
columns = sentencing.profile_columns(ds.profile)
print("profile:", ds.profile)
print("features:", [name for name, _ in columns["features"]])
print()

schema = sentencing.fit_schema(ds.records, ds.profile)
print("fit a schema on", len(ds.records), "records")
for spec in schema.features[:5]:
    if spec.kind == sentencing.NOMINAL:
        print(f"  {spec.name:8s} nominal, vocab size {len(spec.vocab)}")
    else:
        print(f"  {spec.name:8s} {spec.kind}, range [{spec.lo:.6g}, {spec.hi:.6g}]")
print("  ...")
print()

# ds.records is a table by column; a one-row take of it holds that row's cells as read
first = ds.records.take([0])
print("one raw record:")
for name in ("srcip", "proto", "Sload", "Stime"):
    print(f"  {name:6s} = {first.cells[name][0]}")

(x,), _ = sentencing.encode_batch(first, schema)  # the one row of a (1, width) matrix
print()
print("encoded to", x.shape[0], "scalars, all inside [0, 1]:")
print(" ", np.round(x, 4))

# unseen nominal values fall back to index 0 rather than failing
# (a table built from raw cells checks every cell as it is built)
stranger = dataio.FlowTable(dict(first.cells, srcip=["10.99.99.99"]), first.kinds, first.labels)
(x2,), _ = sentencing.encode_batch(stranger, schema)
print()
print("srcip never seen at fit time encodes to", x2[0], "(index 0 fallback)")

print()
print("=== the sentence lift ===")

# the three (width, dim) tables that a transformer holds as sentencing.embed,
# sentencing.bias and sentencing.position, and passes to sentence by name
dim = 6
tables = {name: Tensor(rng.normal(size=(schema.width, dim)), requires_grad=True)
          for name in ("embed", "bias", "position")}


def lift(vec):
    """Sentencing for one encoded record, outside any gradient tape."""
    with T.no_grad():
        return sentencing.sentence(Tensor(vec), **tables).data


tokens = lift(x)
print("token matrix shape:", tokens.shape, "(features x embedding dim)")
print("first token:", np.round(tokens[0], 4))

# with the scalar zeroed, the token collapses to bias + position
x_zero = x.copy()
x_zero[0] = 0.0
t0 = lift(x_zero)[0]
expected = tables["bias"].data[0] + tables["position"].data[0]
print("zeroed scalar leaves bias + position:", np.allclose(t0, expected))

# each feature only touches its own token row
x_bump = x.copy()
x_bump[4] += 0.25
moved = lift(x_bump) - tokens
print("bumping feature 4 changes row 4 only:",
      bool(np.all(moved[4] != 0) and np.all(moved[np.arange(len(x)) != 4] == 0)))
