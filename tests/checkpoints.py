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


def _feature(h: dict, j: int, **fields) -> bytes:
    """The header with `fields` set in feature `j` of its schema."""
    features = [dict(f, **fields) if i == j else f for i, f in enumerate(h["schema"]["features"])]
    return _dump({**h, "schema": {**h["schema"], "features": features}})


def _arrays(h: dict, edit) -> bytes:
    """The header with `edit` applied to each entry of its array manifest."""
    return _dump({**h, "arrays": [edit(a) for a in h["arrays"]]})


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
    # features[0] is srcip (nominal) and features[3] is Sload (numeric)
    pytest.param(_header(lambda h: _feature(h, 3, lo="x")), "schema.features[3].lo", id="feature-lo-not-number"),
    pytest.param(
        _header(lambda h: _feature(h, 3, kind="weird")), "schema.features[3].kind", id="feature-unknown-kind"
    ),
    pytest.param(
        _header(lambda h: _feature(h, 0, vocab=[1, 2])), "schema.features[0].vocab", id="feature-vocab-not-object"
    ),
    pytest.param(
        _header(lambda h: _dump({**h, "hyper": {**h["hyper"], "mask": "false"}})),
        "hyper.mask",
        id="hyper-mask-not-bool",
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
