"""Round-trip a trained model through the binary checkpoint format.

The file layout is: magic, format version, a JSON header (the model's
shape in `hyper`, each column's fitted state in `schema`, and the training
recipe, `TrainConfig.recipe()`, in `train_config`), every parameter's
float64 values as one block in the order that shape lays them out, then a
SHA-256 over everything before it. Loading verifies the checksum first, so any bit
damage surfaces as IntegrityError before bytes are interpreted.
"""

import os
import tempfile

import numpy as np

from flowids import dataio, sentencing, training
from flowids.errors import IntegrityError

ds = dataio.synth(400, seed=9)
cfg = training.TrainConfig(model="transformer", dim=8, heads=2, blocks=1, lr=1e-3, epochs=4)
result = training.train(ds, cfg)
print("trained a small encoder, final val acc:", f"{result.log[-1].val_acc:.4f}")

with tempfile.TemporaryDirectory() as workdir:  # removed, with every file in it, when the demo ends
    path = os.path.join(workdir, "model.ckpt")

    dataio.save_checkpoint(result.params, result.schema, result.config.recipe(), path)
    size = os.path.getsize(path)
    print("saved", size, "bytes to", path)

    with open(path, "rb") as fh:
        head = fh.read(16)
    print("file starts with magic + version:", head[:4], "...")

    print()
    print("=== reload and compare ===")

    ckpt = dataio.load_checkpoint(path)
    print("model kind :", ckpt.params.kind)
    print("config     : lr =", ckpt.config["lr"], ", epochs =", ckpt.config["epochs"])
    print("schema     :", ckpt.schema.width, "features")

    x, y = sentencing.encode_batch(result.test.records, result.schema)  # the test split's column table
    before = training.predict_scores(result.params, x)
    after = training.predict_scores(ckpt.params, x)
    print("scores identical after round trip:", bool(np.array_equal(before, after)))

    # same inputs, same bytes: saves are deterministic
    path2 = os.path.join(workdir, "again.ckpt")
    dataio.save_checkpoint(result.params, result.schema, result.config.recipe(), path2)
    print("second save is byte-identical:",
          open(path, "rb").read() == open(path2, "rb").read())

    print()
    print("=== corruption is caught before anything is parsed ===")

    blob = bytearray(open(path, "rb").read())
    blob[size // 2] ^= 0x01  # flip one bit in the middle
    broken = os.path.join(workdir, "broken.ckpt")
    with open(broken, "wb") as fh:
        fh.write(blob)

    try:
        dataio.load_checkpoint(broken)
    except IntegrityError as exc:
        print("load_checkpoint raised IntegrityError:", exc)
