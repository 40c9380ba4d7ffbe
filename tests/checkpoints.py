"""Checkpoint header surgery for the corruption tests.

Each defect rewrites the JSON header of a valid checkpoint and re-signs the
file, so the checksum passes and only header validation can catch it.
"""

import hashlib
import json
import struct

import pytest


def _dump(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _other_kind(header: dict) -> str:
    return {"transformer": "fnn", "fnn": "transformer"}[header["model_kind"]]


# (edit of the decoded header -> new header bytes, text the error must contain)
HEADER_DEFECTS = [
    pytest.param(lambda h: b"{not json", "not valid JSON", id="not-json"),
    pytest.param(lambda h: b"[1, 2]", "not a JSON object", id="not-object"),
    pytest.param(
        lambda h: _dump({k: v for k, v in h.items() if k != "schema"}), "'schema'", id="no-schema"
    ),
    pytest.param(
        lambda h: _dump({**h, "hyper": {**h["hyper"], "kind": "rnn"}}), "hyper.kind", id="unknown-kind"
    ),
    pytest.param(lambda h: _dump({**h, "model_kind": _other_kind(h)}), "model_kind", id="kind-mismatch"),
    pytest.param(
        lambda h: _dump({**h, "hyper": {"kind": h["hyper"]["kind"]}}), "hyper", id="hyper-no-sizes"
    ),
    pytest.param(lambda h: _dump({**h, "schema": {}}), "schema", id="schema-empty"),
]


def rewrite_header(src, dst, edit) -> None:
    """Copy checkpoint `src` to `dst` with its header replaced by `edit(header)`."""
    body = src.read_bytes()[:-32]
    (header_len,) = struct.unpack("<Q", body[8:16])
    header = json.loads(body[16 : 16 + header_len])
    new = edit(header)
    body = body[:8] + struct.pack("<Q", len(new)) + new + body[16 + header_len :]
    dst.write_bytes(body + hashlib.sha256(body).digest())
