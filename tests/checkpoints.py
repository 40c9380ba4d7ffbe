"""Checkpoint header surgery for the corruption tests.

Each defect rewrites the JSON header of a valid checkpoint, or the body of
float64 values after it, and re-signs the file, so the checksum passes and
only validation of the header and of the body's length can catch it.
"""

import hashlib
import json
import struct

import pytest


def _dump(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _header(edit):
    """A defect of the header alone: the body stays as it is."""
    return lambda h, body: (edit(h), body)


def _schema(h: dict, **fields) -> bytes:
    """The header with `fields` set in its schema."""
    return _dump({**h, "schema": {**h["schema"], **fields}})


def _features(h: dict, edit) -> bytes:
    """The header with the feature list of its schema replaced by `edit(features)`."""
    return _schema(h, features=edit(h["schema"]["features"]))


def _state(h: dict, j: int, edit) -> bytes:
    """The header with the state of feature `j` of its schema replaced by `edit(state)`."""
    return _features(h, lambda fs: [edit(f) if i == j else f for i, f in enumerate(fs)])


# a small model of each kind over the synthetic profile's 13 features
_HYPERS = {
    "fnn": {"kind": "fnn", "features": 13, "hidden": [8, 8]},
    "transformer": {"kind": "transformer", "dim": 8, "heads": 2, "blocks": 1, "mlp_dim": 32, "tokens": 13, "mask": True},
}


def _hyper(h: dict, kind: str, **sizes) -> bytes:
    """The header declaring a `kind` model with `sizes` replaced, whatever kind it declared before.

    The hyper dict is checked before the body, so a size that is no size is
    what the load reports, on a checkpoint of either kind."""
    return _dump({**h, "hyper": {**_HYPERS[kind], **sizes}})


# the small FNN's 13 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2 parameters
_FNN_VALUES = 202


def _fnn_body(size: int):
    """A defect of the body's length: the header declares the small FNN, the body holds `size` bytes."""
    return lambda h, body: (_hyper(h, "fnn"), bytes(size))


# (edit of the decoded header and the body bytes -> new header and body
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
        _header(lambda h: _dump({**h, "hyper": {"kind": h["hyper"]["kind"]}})), "hyper", id="hyper-no-sizes"
    ),
    pytest.param(_header(lambda h: _dump({**h, "schema": {}})), "schema.features is missing", id="schema-empty"),
    pytest.param(_header(lambda h: _dump({**h, "schema": [1]})), "schema is not a JSON object", id="schema-not-object"),
    pytest.param(
        _header(lambda h: _dump({**h, "train_config": [1]})), "train_config", id="train-config-not-object"
    ),
    # names, kinds and the label come from the profile: the synthetic profile is unsw's 13 columns
    pytest.param(_header(lambda h: _schema(h, profile=[])), "schema.profile", id="profile-not-string"),
    pytest.param(_header(lambda h: _schema(h, profile="nosuch")), "schema.profile", id="profile-unknown"),
    pytest.param(
        _header(lambda h: _schema(h, profile="ton")), "not a list of the 11 features", id="profile-of-another-width"
    ),
    pytest.param(
        _header(lambda h: _features(h, lambda fs: fs[:-1])), "not a list of the 13 features", id="feature-dropped"
    ),
    pytest.param(
        _header(lambda h: _features(h, lambda fs: fs + fs[3:4])), "not a list of the 13 features", id="feature-added"
    ),
    # a field the format does not have, named
    pytest.param(
        _header(lambda h: _dump({**h, "unknown": 1})),
        "header field 'unknown' is not a field of format version 3",
        id="header-unknown-field",
    ),
    pytest.param(
        _header(lambda h: _schema(h, unknown=1)), "schema.unknown is not a field of a schema", id="schema-unknown-field"
    ),
    # features[0] is srcip (nominal), features[3] is Sload (numeric): a vocabulary and a range [lo, hi]
    *(
        pytest.param(_header(lambda h, e=edit: _state(h, 3, e)),
                     "schema.features[3] is not [lo, hi], two finite numbers, the range of column 'Sload'", id=name)
        for name, edit in (("feature-lo-not-number", lambda s: ["x", s[1]]), ("feature-range-one-number", lambda s: s[:1]),
                           ("feature-range-three-numbers", lambda s: s + [0.0]),
                           ("feature-range-as-object", lambda s: {"lo": s[0], "hi": s[1]}))
    ),
    # a reversed range would flip the feature's encoding; lo == hi stays legal, a constant feature
    pytest.param(_header(lambda h: _state(h, 3, lambda s: s[::-1])), "schema.features[3] has lo",
                 id="feature-range-reversed"),
    *(
        pytest.param(_header(lambda h, e=edit: _state(h, 0, e)),
                     "schema.features[0] is not a list of distinct strings, the vocabulary of column 'srcip'", id=name)
        for name, edit in (("feature-vocab-not-strings", lambda s: [1, 2]),
                           ("feature-vocab-cell-repeated", lambda s: s + s[:1]),
                           ("feature-vocab-as-object", lambda s: {cell: i for i, cell in enumerate(s, start=1)}))
    ),
    pytest.param(
        _header(lambda h: _hyper(h, "transformer", mask="false")),
        "mask must be true or false, got 'false'",
        id="hyper-mask-not-bool",
    ),
    # a field that the kind does not have, named
    pytest.param(
        _header(lambda h: _hyper(h, "fnn", mask=True)), "'mask' is not a field of a 'fnn' model", id="fnn-hyper-mask"
    ),
    # sizes that are not ints, named with their values' reprs
    pytest.param(_header(lambda h: _hyper(h, "fnn", features=None)), "features=None", id="fnn-features-null"),
    pytest.param(_header(lambda h: _hyper(h, "fnn", features=True)), "features=True", id="fnn-features-bool"),
    pytest.param(_header(lambda h: _hyper(h, "fnn", hidden=[8, "8"])), "hidden=[8, '8']", id="fnn-hidden-string"),
    pytest.param(_header(lambda h: _hyper(h, "fnn", hidden=[8.0, 8])), "hidden=[8.0, 8]", id="fnn-hidden-float"),
    # hidden is a list of two sizes, or it is named by its repr
    *(
        pytest.param(_header(lambda h, v=value: _hyper(h, "fnn", hidden=v)),
                     f"hidden must be a list of two sizes, got hidden={value!r}", id=f"fnn-hidden-{name}")
        for name, value in (("three", [8, 8, 8]), ("int", 8), ("null", None))
    ),
    *(
        pytest.param(_header(lambda h, v=value: _hyper(h, "transformer", mlp_dim=v)), f"mlp_dim={value!r}",
                     id=f"transformer-mlp-dim-{name}")
        for name, value in (("null", None), ("string", "4"), ("bool", True), ("float", 2.0))
    ),
    # a body that is not exactly the declared model's float64 values, whose message gives both counts
    *(
        pytest.param(_fnn_body(size), f"the body holds {size:,} bytes, but the model's {_FNN_VALUES} parameters "
                                      f"take {8 * _FNN_VALUES:,}", id=f"body-{name}")
        for name, size in (("one-value-short", 8 * (_FNN_VALUES - 1)), ("one-value-extra", 8 * (_FNN_VALUES + 1)),
                           ("cut-inside-a-value", 8 * _FNN_VALUES - 3))
    ),
]


def _parts(blob: bytes) -> tuple[dict, bytes]:
    """The decoded header and the body of a checkpoint's bytes, checksum excluded."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16 : 16 + header_len]), blob[16 + header_len : -32]


def read_header(src) -> dict:
    """The decoded JSON header of checkpoint `src`."""
    return _parts(src.read_bytes())[0]


def rewrite_header(src, dst, edit) -> None:
    """Copy checkpoint `src` to `dst`, header and body replaced by `edit(header, body)`."""
    blob = src.read_bytes()
    new, body = edit(*_parts(blob))
    blob = blob[:8] + struct.pack("<Q", len(new)) + new + body
    dst.write_bytes(blob + hashlib.sha256(blob).digest())
