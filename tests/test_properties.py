"""Property tests over generated inputs (hypothesis, a declared test dependency)."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from checkpoints import rewrite_header
from flowids import cli
from flowids.dataio import Dataset, FlowRecord, load_checkpoint, load_csv, save_checkpoint, synth, write_csv
from flowids.errors import FlowidsError
from flowids.model import EncoderConfig, init_fnn, init_params
from flowids.sentencing import NOMINAL, NUMERIC, PROFILES, FeatureSpec, Schema, encode_batch, fit_schema
from flowids.training import TrainConfig

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=1000)
@given(finite, finite, finite)
def test_numeric_encoding_is_finite_and_in_unit_interval(a, b, value):
    """Any finite cell against any finite fitted range encodes into [0, 1],
    within 1e-15 of the exact rational min-max value."""
    lo, hi = min(a, b), max(a, b)
    (out,) = FeatureSpec("f", NUMERIC, lo=lo, hi=hi).encode_column([value]).tolist()
    assert math.isfinite(out) and 0.0 <= out <= 1.0
    if lo != hi:
        exact = (Fraction(value) - Fraction(lo)) / (Fraction(hi) - Fraction(lo))
        assert abs(out - float(min(max(exact, Fraction(0)), Fraction(1)))) <= 1e-15


def scalar_encode(spec: FeatureSpec, cell: str) -> float:
    """One cell at a time with Python floats: the formula the column encoder vectorizes."""
    if spec.kind == NOMINAL:
        index = spec.vocab.get(str(cell), 0)
        return index / len(spec.vocab) if spec.vocab else 0.0
    value = float(cell)
    if spec.hi == spec.lo:
        return 0.5
    lo, hi = spec.lo, spec.hi
    if hi - lo == math.inf:
        value, lo, hi = 0.5 * value, 0.5 * lo, 0.5 * hi
    return min(max((value - lo) / (hi - lo), 0.0), 1.0)


# -0.0 against a range starting at 0.0 scales to -0.0, which max(v, 0.0) keeps
edge = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 1e308, -1e308, 5e-324, 1e300])
number = st.one_of(edge, finite)
word = st.text(alphabet="abc", max_size=2)


@st.composite
def schemas_and_records(draw):
    specs = []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            vocab = draw(st.lists(word, unique=True, max_size=3))
            specs.append(FeatureSpec(f"f{j}", NOMINAL, vocab={v: i for i, v in enumerate(vocab, start=1)}))
        else:
            a = draw(number)
            b = a if draw(st.booleans()) else draw(number)  # a constant feature half the time
            specs.append(FeatureSpec(f"f{j}", NUMERIC, lo=min(a, b), hi=max(a, b)))
    records = [
        FlowRecord(
            values={s.name: draw(word) if s.kind == NOMINAL else repr(draw(number)) for s in specs},
            label=draw(st.integers(0, 1)),
            row=i,
        )
        for i in range(draw(st.integers(0, 5)))
    ]
    return Schema("synthetic", specs), records


@settings(derandomize=True, database=None, max_examples=500)
@given(schemas_and_records())
def test_batch_encoding_matches_record_and_cell_encoding(case):
    """encode_batch's bytes equal the stacked one-record batches and the
    per-cell Python-float formula, -0.0, clamped values, unseen nominal
    values, constant features and ranges wider than a float included."""
    schema, records = case
    x, y = encode_batch(records, schema)
    assert x.shape == (len(records), schema.width)
    cells = [[scalar_encode(s, r.values[s.name]) for s in schema.features] for r in records]
    assert x.tobytes() == np.array(cells, dtype=np.float64).tobytes()
    assert x.tobytes() == b"".join(encode_batch([r], schema)[0].tobytes() for r in records)
    assert y.tolist() == [r.label for r in records]


# csv quoting must carry commas, quotes and line breaks inside a nominal cell
cell_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6)
flow_values = st.fixed_dictionaries(
    {name: cell_text if kind == NOMINAL else finite.map(repr) for name, kind in PROFILES["synthetic"]["features"]}
)


@settings(derandomize=True, database=None, max_examples=200)
@given(st.lists(st.tuples(flow_values, st.integers(0, 1)), min_size=1, max_size=6))
def test_csv_round_trip_keeps_values_labels_and_order(rows):
    records = [FlowRecord(values=values, label=label, row=i) for i, (values, label) in enumerate(rows)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        write_csv(Dataset(records=records, profile="synthetic"), path)
        back, summary = load_csv(path, "synthetic")
    assert summary.rows_rejected == 0
    assert [(r.values, r.label) for r in back.records] == rows


# --- the CLI never ends in a traceback (exit 1) ------------------------------

DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}


def quiet_main(argv) -> int:
    """cli.main with its output and warnings swallowed; an exception escapes."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def flows(tmp_path_factory):
    """A small synth CSV's bytes and an FNN checkpoint trained on it."""
    root = tmp_path_factory.mktemp("no_exit_1")
    write_csv(synth(40, seed=1, difficulty="noisy"), root / "flows.csv")
    argv = ["train", "--data", root / "flows.csv", "--model", "fnn", "--epochs", 1, "--out", root / "m.ckpt"]
    assert quiet_main(argv) == 0
    return (root / "flows.csv").read_bytes(), root / "m.ckpt"


position = st.integers(0, 10**6)  # taken modulo the length of the bytes
nasty = st.sampled_from([b"\xff", b"\xc3", b"\x00", b'"', b'"a,b"', b"\n", b"\r", b",", b"nan", b"-1e999", b"x" * 200_000])
edits = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), position, st.integers(1, 255)),
        st.tuples(st.just("insert"), position, nasty | st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("truncate"), position, st.none()),
    ),
    min_size=1,
    max_size=3,
)


def mutate(data: bytes, edit_list) -> bytes:
    data = bytearray(data)
    for kind, at, arg in edit_list:
        at %= len(data) + 1
        if kind == "flip" and data:
            data[at % len(data)] ^= arg
        elif kind == "insert":
            data[at:at] = arg
        elif kind == "truncate":
            del data[at:]
    return bytes(data)


@pytest.mark.parametrize("command", ["eval", "train", "predict", "report"])
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(edits)
@example(edit_list=[("insert", 150, b"x" * 200_000)])  # an oversized cell in the first data row
@example(edit_list=[("insert", 150, b"\xff")])
def test_mutated_csv_never_exits_1(flows, command, edit_list):
    """Flipped bytes, truncation, bytes that are not UTF-8, NULs, quotes and
    oversized cells end in a documented exit code, never in a traceback."""
    data, model = flows
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.csv"
        path.write_bytes(mutate(data, edit_list))
        if command == "eval":
            argv = ["eval", "--model", model, "--data", path]
        elif command == "predict":
            argv = ["predict", "--model", model, "--data", path, "--out", Path(tmp) / "p.csv"]
        elif command == "report":
            argv = ["report", "--models", model, model, "--data", path]
        else:
            argv = ["train", "--model", "fnn", "--epochs", 1, "--data", path, "--out", Path(tmp) / "m.ckpt"]
        assert quiet_main(argv) in DOCUMENTED_EXITS


small = st.integers(-2, 4)
json_value = st.none() | st.booleans() | small | st.floats() | st.text(max_size=3) | st.lists(small | st.floats(), max_size=4)
json_config = st.dictionaries(st.sampled_from([f.name for f in fields(TrainConfig)] + ["nosuch"]), json_value)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.binary(max_size=40) | json_config.map(lambda d: json.dumps(d).encode()))
def test_any_config_file_never_exits_1(flows, blob):
    """Arbitrary bytes, and JSON objects of any config field with values of
    the wrong type or range, end in a documented exit code. The flags keep
    training to one epoch of the FNN."""
    data, _ = flows
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "flows.csv").write_bytes(data)
        (Path(tmp) / "c.json").write_bytes(blob)
        argv = ["train", "--model", "fnn", "--epochs", 1, "--data", Path(tmp) / "flows.csv",
                "--config", Path(tmp) / "c.json", "--out", Path(tmp) / "m.ckpt"]
        assert quiet_main(argv) in DOCUMENTED_EXITS


# --- a damaged checkpoint raises only flowids errors ---------------------------


@pytest.fixture(scope="module")
def checkpoint_bytes():
    """The bytes of a small transformer checkpoint and a small FNN checkpoint, by kind."""
    ds = synth(40, seed=1)
    schema = fit_schema(ds.records, ds.profile)
    models = {
        "transformer": init_params(EncoderConfig(dim=4, heads=2, blocks=1), schema.width, seed=0),
        "fnn": init_fnn(schema.width, hidden=(4, 4), seed=0),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        out = {}
        for kind, params in models.items():
            save_checkpoint(params, schema, {"model": kind}, path)
            out[kind] = path.read_bytes()
    return out


def loads_or_raises_flowids_error(path) -> None:
    """load_checkpoint returns, or raises a FlowidsError subclass; anything else fails the test."""
    with contextlib.suppress(FlowidsError):
        load_checkpoint(path)


kinds = st.sampled_from(["transformer", "fnn"])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(kinds, edits)
def test_damaged_checkpoint_raises_only_flowids_errors(checkpoint_bytes, kind, edit_list):
    """Flipped, inserted and truncated bytes anywhere in the file, checksum included."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(mutate(checkpoint_bytes[kind], edit_list))
        loads_or_raises_flowids_error(path)


# small; test_dataio checks that load_checkpoint refuses larger declared sizes before it builds anything
size = st.integers(-2, 64)
hyper_sizes = {
    "transformer": st.fixed_dictionaries(
        {}, optional={k: size for k in ("dim", "heads", "blocks", "mlp_dim", "tokens")}
    ),
    "fnn": st.fixed_dictionaries({}, optional={"features": size, "hidden": st.lists(size, max_size=3)}),
}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(kinds.flatmap(lambda kind: st.tuples(st.just(kind), hyper_sizes[kind], st.none() | edits)))
def test_resigned_checkpoint_raises_only_flowids_errors(checkpoint_bytes, case):
    """A header re-signed with other hyper sizes, over array bytes that are
    intact or flipped, inserted into or truncated, passes the checksum, so
    only validation stands between it and the model."""
    kind, sizes, array_edits = case

    def edit(header, arrays):
        header = {**header, "hyper": {**header["hyper"], **sizes}}
        if array_edits is not None:
            arrays = mutate(arrays, array_edits)
        return json.dumps(header, sort_keys=True).encode(), arrays

    with tempfile.TemporaryDirectory() as tmp:
        src, path = Path(tmp) / "src.ckpt", Path(tmp) / "m.ckpt"
        src.write_bytes(checkpoint_bytes[kind])
        rewrite_header(src, path, edit)
        loads_or_raises_flowids_error(path)
