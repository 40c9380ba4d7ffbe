"""Checkpoint header surgery for the corruption tests.

Each defect rewrites the JSON header of a valid checkpoint, or the array
bytes after it, and re-signs the file, so the checksum passes and only
validation of the header and the array layout can catch it.
"""

import hashlib
import json
import struct

import pytest


def _dump(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _other_kind(header: dict) -> str:
    return {"transformer": "fnn", "fnn": "transformer"}[header["model_kind"]]


def _header(edit):
    """A defect of the header alone: the array bytes stay as they are."""
    return lambda h, arrays: (edit(h), arrays)


def _schema(h: dict, **fields) -> bytes:
    """The header with `fields` set in its schema."""
    return _dump({**h, "schema": {**h["schema"], **fields}})


def _feature(h: dict, j: int, **fields) -> bytes:
    """The header with `fields` set in feature `j` of its schema."""
    return _schema(h, features=[dict(f, **fields) if i == j else f for i, f in enumerate(h["schema"]["features"])])


def _features(h: dict, edit) -> bytes:
    """The header with the feature list of its schema replaced by `edit(features)`."""
    return _schema(h, features=edit(h["schema"]["features"]))


def _vocab(h: dict, j: int, edit) -> bytes:
    """The header with the vocab indices of feature `j` replaced by `edit(indices)`."""
    vocab = h["schema"]["features"][j]["vocab"]
    return _feature(h, j, vocab=dict(zip(vocab, edit(list(vocab.values())))))


def _arrays(h: dict, edit) -> bytes:
    """The header with `edit` applied to each entry of its array manifest."""
    return _dump({**h, "arrays": [edit(a) for a in h["arrays"]]})


# a small model of each kind over the synthetic profile's 13 features
_HYPERS = {
    "fnn": {"kind": "fnn", "features": 13, "hidden": [8, 8]},
    "transformer": {"kind": "transformer", "dim": 8, "heads": 2, "blocks": 1, "mlp_dim": 32, "tokens": 13, "mask": True},
}


def _hyper(h: dict, kind: str, **sizes) -> bytes:
    """The header declaring a `kind` model with `sizes` replaced, whatever kind it declared before.

    The hyper dict is checked before the manifest, so a size that is no size
    is what the load reports, on a checkpoint of either kind."""
    return _dump({**h, "model_kind": kind, "hyper": {**_HYPERS[kind], **sizes}})


# (edit of the decoded header and the array bytes -> new header and array
# bytes, literal text the error must contain)
HEADER_DEFECTS = [
    pytest.param(_header(lambda h: b"{not json"), "not valid JSON", id="not-json"),
    pytest.param(_header(lambda h: b"[1, 2]"), "not a JSON object", id="not-object"),
    pytest.param(
        _header(lambda h: _dump({k: v for k, v in h.items() if k != "schema"})), "'schema'", id="no-schema"
    ),
    pytest.param(
        _header(lambda h: _dump({**h, "hyper": {**h["hyper"], "kind": "rnn"}})),
        "hyper.kind",
        id="unknown-kind",
    ),
    pytest.param(
        _header(lambda h: _dump({**h, "model_kind": _other_kind(h)})), "model_kind", id="kind-mismatch"
    ),
    pytest.param(
        _header(lambda h: _dump({**h, "hyper": {"kind": h["hyper"]["kind"]}})), "hyper", id="hyper-no-sizes"
    ),
    pytest.param(_header(lambda h: _dump({**h, "schema": {}})), "schema", id="schema-empty"),
    pytest.param(
        _header(lambda h: _dump({**h, "train_config": [1]})), "train_config", id="train-config-not-object"
    ),
    # the schema restates its profile: the synthetic profile is unsw's 13 columns and label
    pytest.param(_header(lambda h: _schema(h, profile=[])), "schema.profile", id="profile-not-string"),
    pytest.param(_header(lambda h: _schema(h, profile="nosuch")), "schema.profile", id="profile-unknown"),
    pytest.param(
        _header(lambda h: _schema(h, profile="ton")), "not a list of the 11 features", id="profile-of-another-width"
    ),
    pytest.param(_header(lambda h: _schema(h, label="Label")), "schema.label", id="label-not-the-profiles"),
    pytest.param(
        _header(lambda h: _features(h, lambda fs: fs[:-1])), "not a list of the 13 features", id="feature-dropped"
    ),
    pytest.param(
        _header(lambda h: _features(h, lambda fs: fs + fs[3:4])), "not a list of the 13 features", id="feature-added"
    ),
    # features[0] is srcip (nominal), features[3] is Sload (numeric) and features[4] is Dload (numeric)
    pytest.param(
        _header(lambda h: _features(h, lambda fs: fs[:3] + [fs[4], fs[3]] + fs[5:])),
        "schema.features[3].name is 'Dload'",
        id="features-swapped",
    ),
    pytest.param(_header(lambda h: _feature(h, 0, name=[])), "schema.features[0].name", id="feature-name-not-string"),
    pytest.param(_header(lambda h: _feature(h, 3, name="sload")), "schema.features[3].name", id="feature-renamed"),
    pytest.param(
        _header(lambda h: _feature(h, 3, kind="timestamp")),
        "schema.features[3].kind is 'timestamp'; profile 'synthetic' has 'numeric' there",
        id="feature-kind-swapped",
    ),
    pytest.param(_header(lambda h: _feature(h, 3, lo="x")), "schema.features[3].lo", id="feature-lo-not-number"),
    pytest.param(
        _header(lambda h: _feature(h, 3, kind="weird")), "schema.features[3].kind", id="feature-unknown-kind"
    ),
    pytest.param(
        _header(lambda h: _feature(h, 0, vocab=[1, 2])), "schema.features[0].vocab", id="feature-vocab-not-object"
    ),
    pytest.param(
        _header(lambda h: _vocab(h, 0, lambda ix: ix[:-1] + [len(ix) + 1])),
        "schema.features[0].vocab",
        id="feature-vocab-index-out-of-range",
    ),
    pytest.param(
        _header(lambda h: _vocab(h, 0, lambda ix: [0] + ix[1:])), "schema.features[0].vocab", id="feature-vocab-index-zero"
    ),
    pytest.param(
        _header(lambda h: _vocab(h, 0, lambda ix: [ix[1]] + ix[1:])),
        "schema.features[0].vocab",
        id="feature-vocab-index-repeated",
    ),
    pytest.param(
        _header(lambda h: _dump({**h, "hyper": {**h["hyper"], "mask": "false"}})),
        "hyper.mask",
        id="hyper-mask-not-bool",
    ),
    # sizes that are not ints, named with their values' reprs
    pytest.param(_header(lambda h: _hyper(h, "fnn", features=None)), "features=None", id="fnn-features-null"),
    pytest.param(_header(lambda h: _hyper(h, "fnn", features=True)), "features=True", id="fnn-features-bool"),
    pytest.param(_header(lambda h: _hyper(h, "fnn", hidden=[8, "8"])), "hidden=[8, '8']", id="fnn-hidden-string"),
    pytest.param(_header(lambda h: _hyper(h, "fnn", hidden=[8.0, 8])), "hidden=[8.0, 8]", id="fnn-hidden-float"),
    *(
        pytest.param(_header(lambda h, v=value: _hyper(h, "transformer", mlp_dim=v)), f"mlp_dim={value!r}",
                     id=f"transformer-mlp-dim-{name}")
        for name, value in (("null", None), ("string", "4"), ("bool", True), ("float", 2.0))
    ),
    pytest.param(
        _header(lambda h: _arrays(h, lambda a: {"name": a["name"]})), "arrays[0].shape", id="arrays-no-shape"
    ),
    pytest.param(
        _header(lambda h: _arrays(h, lambda a: a["name"])),
        "arrays[0] is not an object",
        id="arrays-entry-not-object",
    ),
    pytest.param(
        _header(lambda h: _dump({**h, "arrays": {a["name"]: a["shape"] for a in h["arrays"]}})),
        "arrays is not a list",
        id="arrays-not-list",
    ),
    # the body ends 3 bytes into the first array's 8-byte length prefix
    pytest.param(lambda h, arrays: (_dump(h), arrays[:3]), "length prefix", id="cut-length-prefix"),
    # the first array declares 4 bytes, half a float64
    pytest.param(
        lambda h, arrays: (_dump(h), struct.pack("<Q", 4) + bytes(4)), "multiple of 8", id="odd-byte-length"
    ),
]


def rewrite_header(src, dst, edit) -> None:
    """Copy checkpoint `src` to `dst`, header and array bytes replaced by `edit(header, arrays)`."""
    body = src.read_bytes()[:-32]
    (header_len,) = struct.unpack("<Q", body[8:16])
    header = json.loads(body[16 : 16 + header_len])
    new, arrays = edit(header, body[16 + header_len :])
    body = body[:8] + struct.pack("<Q", len(new)) + new + arrays
    dst.write_bytes(body + hashlib.sha256(body).digest())
