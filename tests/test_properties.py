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
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import flowids.tensor as T
from checkpoints import rewrite_header
from flowids import cli, training
from flowids.dataio import Dataset, FlowTable, load_checkpoint, load_csv, save_checkpoint, synth, write_csv
from flowids.errors import DataError, FlowidsError
from flowids.model import KINDS
from flowids.sentencing import (
    BOOLEAN,
    NOMINAL,
    NUMERIC,
    PROFILES,
    TIMESTAMP,
    FeatureSpec,
    Schema,
    encode_batch,
    fit_schema,
    parse_cell,
    parse_column,
)
from flowids.training import TrainConfig
from models import new_fnn, new_transformer

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
    n = draw(st.integers(0, 5))
    cells = {s.name: [draw(word) if s.kind == NOMINAL else repr(draw(number)) for _ in range(n)] for s in specs}
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Schema("synthetic", specs), FlowTable(cells, {s.name: s.kind for s in specs}, labels)


@settings(derandomize=True, database=None, max_examples=500)
@given(schemas_and_records())
def test_batch_encoding_matches_record_and_cell_encoding(case):
    """encode_batch's bytes equal the stacked one-record batches and the
    per-cell Python-float formula, -0.0, clamped values, unseen nominal
    values, constant features and ranges wider than a float included."""
    schema, records = case
    x, y = encode_batch(records, schema)
    assert x.shape == (len(records), schema.width)
    cells = [[scalar_encode(s, records.cells[s.name][i]) for s in schema.features] for i in range(len(records))]
    assert x.tobytes() == np.array(cells, dtype=np.float64).tobytes()
    assert x.tobytes() == b"".join(encode_batch(records.take([i]), schema)[0].tobytes() for i in range(len(records)))
    assert y.tolist() == records.labels.tolist()


# vocabulary keys, some of them what str() makes of an int cell
nominal_key = st.sampled_from(["tcp", "udp", "", "0", "1", "-2"])


@settings(derandomize=True, database=None, max_examples=500)
@given(st.lists(nominal_key, unique=True, max_size=4),
       st.lists(nominal_key | st.sampled_from(["icmp", "01"]) | st.integers(-3, 3), max_size=8))
def test_nominal_encoding_is_a_per_cell_vocabulary_lookup(keys, column):
    """A nominal column encodes, byte for byte, as vocab.get(str(cell), 0) cell
    by cell over the vocabulary's size: str cells and int cells (a raw-cell
    FlowTable may hold ints), seen and unseen values, an empty vocabulary."""
    vocab = {key: i for i, key in enumerate(keys, start=1)}
    out = FeatureSpec("f", NOMINAL, vocab=vocab).encode_column(column)
    expected = [vocab.get(str(cell), 0) / len(vocab) if vocab else 0.0 for cell in column]
    event(f"a seen value: {any(expected)}, an unseen value: {0.0 in expected}")
    assert out.dtype == np.float64 and out.tobytes() == np.array(expected, dtype=np.float64).tobytes()


# per kind: good cells, cells that do not parse, a missing cell (None) and
# cells that parse to nan or an infinity; a drawn column repeats them
CELLS_BY_KIND = {
    NUMERIC: ["0", "-0", "-1.5", " 7 ", "1e308", "5e-324", "fast", "", None, "nan", "-inf", "1e999"],
    TIMESTAMP: ["1421927414", "09:12:01", "26-Apr-19", "26/04/2019", "2019-04-26T09:12:01+02:00", "soon", "", None,
                "nan", "inf"],
    BOOLEAN: ["true", "off", " YES", "0", "maybe", "2", "", None, "nan"],
    NOMINAL: ["tcp", "", "nan", None],
}


@settings(derandomize=True, database=None, max_examples=500)
@given(st.sampled_from(sorted(CELLS_BY_KIND)), st.data())
def test_parse_column_gives_what_a_per_cell_loop_gives(kind, data):
    """parse_column's reasons are a parse_cell loop's, cell by cell; where no
    cell is bad, so are its values, byte for byte (at a bad index a value
    means nothing)."""
    cells = data.draw(st.lists(st.sampled_from(CELLS_BY_KIND[kind]), max_size=8))
    values, reasons = parse_column(cells, kind)
    expected, why = [], {}
    for i, cell in enumerate(cells):
        if cell is None:
            why[i] = "missing cell"
        elif kind == NOMINAL:
            expected.append(cell)
        else:
            try:
                expected.append(parse_cell(cell, kind))
            except DataError as exc:
                why[i] = str(exc)
                continue
            if not math.isfinite(expected[-1]):
                why[i] = f"non-finite value {cell!r}"
    event(f"{kind}, {'bad' if why else 'good'} column")
    assert reasons == why
    if not why:
        if kind == NOMINAL:
            assert list(values) == expected
        else:
            assert values.tobytes() == np.array(expected, dtype=np.float64).tobytes()


# csv quoting must carry commas, quotes and line breaks inside a nominal cell
cell_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6)
flow_values = st.fixed_dictionaries(
    {name: cell_text if kind == NOMINAL else finite.map(repr) for name, kind in PROFILES["synthetic"]["features"]}
)


@settings(derandomize=True, database=None, max_examples=200)
@given(st.lists(st.tuples(flow_values, st.integers(0, 1)), min_size=1, max_size=6))
def test_csv_round_trip_keeps_values_labels_and_order(rows):
    kinds = dict(PROFILES["synthetic"]["features"])
    cells = {name: [values[name] for values, _ in rows] for name in kinds}
    records = FlowTable(cells, kinds, [label for _, label in rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        write_csv(Dataset(records=records, profile="synthetic"), path)
        back, summary = load_csv(path, "synthetic")
    assert summary.rows_rejected == 0
    assert back.records.cells == cells
    assert back.records.labels.tolist() == [label for _, label in rows]


# --- the CLI never ends in a traceback (exit 1) ------------------------------

DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}


def quiet_main(argv) -> int:
    """cli.main's exit code, argparse's own included, with its output and warnings
    swallowed; an exception escapes, and stderr must hold no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = cli.main([str(a) for a in argv])
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


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


def flag(values):
    """A flag's text, or None to leave the flag out."""
    return st.none() | values.map(str)


synth_argv = st.fixed_dictionaries({
    "--n": flag(st.integers(-5, 200) | st.sampled_from(["1e3", "-5", "", "ten", "10.0"])),
    "--seed": flag(st.integers(-3, 3) | st.integers(2**64, 2**70) | st.sampled_from(["-1", "1e3", ""])),
    "--difficulty": flag(st.sampled_from(["separable", "noisy", "hard", ""])),
    "--bayes-error": flag(
        st.floats() | st.sampled_from(["nan", "inf", "-inf", "1e-320", "5e-324", "1e-17", "0.5", "0.4999", ""])
    ),
    "--out": st.sampled_from(["file", "directory", "missing directory"]),
})


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(synth_argv)
@example({"--n": "10", "--seed": None, "--difficulty": None, "--bayes-error": "1e-320", "--out": "file"})
@example({"--n": "10", "--seed": None, "--difficulty": "noisy", "--bayes-error": "5e-324", "--out": "file"})
def test_synth_argv_never_exits_1(flags):
    """Any mix of synth flags, each of them malformed, out of range or left
    out, ends in exit 0, 2 (usage) or 6 (the output path), never in a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        out = {"file": Path(tmp) / "x.csv", "directory": Path(tmp), "missing directory": Path(tmp) / "no" / "x.csv"}
        argv = ["synth"]
        for name, value in flags.items():
            if value is not None:
                argv += [name, out[value] if name == "--out" else value]
        assert quiet_main(argv) in {0, 2, 6}


@pytest.fixture(scope="module")
def argv_inputs(flows, tmp_path_factory):
    """The input files a generated argv can name, by kind: the flows CSV, an
    FNN and a small transformer checkpoint trained on it, and a config file."""
    data, fnn = flows
    root = tmp_path_factory.mktemp("argv")
    (root / "flows.csv").write_bytes(data)
    (root / "c.json").write_text('{"epochs": 1, "batch_size": 8}')
    argv = ["train", "--data", root / "flows.csv", "--dim", 4, "--heads", 2, "--blocks", 1, "--epochs", 1,
            "--out", root / "t.ckpt"]
    assert quiet_main(argv) == 0
    return {"csv": root / "flows.csv", "fnn": fnn, "transformer": root / "t.ckpt", "config": root / "c.json"}


def mostly(good, bad):
    """Good values nine times in ten, bad ones the tenth."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


def required(good, bad):
    """A required flag's values: mostly a good one once; else left out, repeated or bad."""
    return mostly(good.map(lambda v: [v]), st.lists(good | bad, max_size=2))


def optional(good, bad):
    """An optional flag's values: mostly left out or good; sometimes repeated or bad."""
    given_once_or_twice = st.lists(mostly(good, bad), min_size=1, max_size=2)
    return st.integers(0, 9).flatmap(lambda k: st.just([]) if k < 5 else given_once_or_twice)


inputs = st.sampled_from(["csv", "fnn", "transformer", "config", "directory", "missing"])
outputs = st.sampled_from(["file", "directory", "missing directory"])
not_a_number = st.sampled_from(["", "x", "1e3", "nan", "-inf", "0x10"])
small_integer = st.integers(-2, 0) | not_a_number
integer = small_integer | st.integers(2**64, 2**70)  # past any model size limit and any index
real = st.floats() | not_a_number
thresholds = real | st.sampled_from(["1e-300", "-1", "2"])
COMMAND_FLAGS = {  # good sizes stay small, and no bad one is large enough to allocate much
    "train": {
        "--data": required(st.just("csv"), inputs), "--out": required(st.just("file"), outputs),
        "--log": optional(st.just("file"), outputs), "--config": optional(st.just("config"), inputs),
        "--model": optional(st.sampled_from(["fnn", "transformer"]), st.just("nosuch")),
        "--profile": optional(st.sampled_from(["synthetic", "unsw"]), st.sampled_from(["ton", "nosuch"])),
        "--epochs": optional(st.just(2), small_integer), "--lr": optional(st.just(0.1), real),  # 2**64 epochs would run
        "--batch-size": optional(st.sampled_from([4, 64]), integer), "--seed": optional(st.just(7), integer),
        "--dim": optional(st.sampled_from([4, 8]), integer), "--heads": optional(st.sampled_from([1, 2, 4]), integer),
        "--blocks": optional(st.just(1), integer), "--mlp-dim": optional(st.just(4), integer),
        "--weight-decay": optional(st.just(0.0), real), "--no-mask": optional(st.none(), st.none()),
    },
    "eval": {
        "--model": required(st.sampled_from(["fnn", "transformer"]), inputs),
        "--data": required(st.just("csv"), inputs),
        "--threshold": optional(st.just(0.3), thresholds), "--label": optional(st.text(max_size=3), st.just("")),
        "--out": optional(st.just("file"), outputs), "--roc": optional(st.just("file"), outputs),
    },
    "predict": {
        "--model": required(st.sampled_from(["fnn", "transformer"]), inputs),
        "--data": required(st.just("csv"), inputs),
        "--threshold": optional(st.just(0.3), thresholds), "--out": required(st.just("file"), outputs),
    },
    "report": {
        "--models": required(st.lists(st.sampled_from(["fnn", "transformer"]), min_size=1, max_size=3),
                             st.lists(inputs, max_size=3)),
        "--data": required(st.just("csv"), inputs), "--threshold": optional(st.just(0.3), thresholds),
        "--out": optional(st.just("file"), outputs),
    },
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_command_argv_never_exits_1(argv_inputs, command, data):
    """Any mix of a command's flags, each given as text, out of range, repeated
    or left out, with paths that are directories or under a missing directory,
    ends in a documented exit code, never in a traceback. Training starts from
    one epoch, which a generated --epochs overrides."""
    flags = data.draw(st.fixed_dictionaries(COMMAND_FLAGS[command]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {**argv_inputs, "directory": Path(tmp), "missing": Path(tmp) / "no" / "such"}

        def text(flag, value):
            if flag in ("--data", "--config", "--model"):
                return [paths.get(value, value)]
            if flag == "--models":
                return [paths[v] for v in value]  # no paths at all is argparse's error
            if flag in ("--out", "--log", "--roc"):
                return [{"file": Path(tmp) / f"{flag[2:]}.out", "directory": Path(tmp),
                         "missing directory": Path(tmp) / "no" / "x"}[value]]
            return [] if value is None else [value]

        argv = [command] + (["--epochs", 1] if command == "train" else [])
        for flag, values in flags.items():
            for value in values:
                argv += [flag] + text(flag, value)
        code = quiet_main(argv)
        event(f"exit {code}")
        assert code in DOCUMENTED_EXITS


# --- a damaged checkpoint raises only flowids errors ---------------------------


@pytest.fixture(scope="module")
def synthetic_schema():
    """A schema fitted on a small synth set: the 13 columns of the synthetic profile."""
    ds = synth(40, seed=1)
    return fit_schema(ds.records, ds.profile)


@pytest.fixture(scope="module")
def checkpoint_bytes(synthetic_schema):
    """The bytes of a small transformer checkpoint and a small FNN checkpoint, by kind."""
    schema = synthetic_schema
    models = {
        "transformer": new_transformer(schema.width, seed=0, dim=4, heads=2, blocks=1),
        "fnn": new_fnn(schema.width, hidden=(4, 4), seed=0),
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
    """A header re-signed with other hyper sizes, over a body that is intact
    or flipped, inserted into or truncated, passes the checksum, so only
    validation stands between it and the model."""
    kind, sizes, body_edits = case

    def edit(header, body):
        header = {**header, "hyper": {**header["hyper"], **sizes}}
        if body_edits is not None:
            body = mutate(body, body_edits)
        return json.dumps(header, sort_keys=True).encode(), body

    with tempfile.TemporaryDirectory() as tmp:
        src, path = Path(tmp) / "src.ckpt", Path(tmp) / "m.ckpt"
        src.write_bytes(checkpoint_bytes[kind])
        rewrite_header(src, path, edit)
        loads_or_raises_flowids_error(path)


any_json = json_value | st.dictionaries(st.text(max_size=2), json_value, max_size=2) | st.sampled_from(
    ["unsw", "ton", "synthetic", "label", "Sload", "Dload", "nominal", "numeric", "timestamp", "boolean"]
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from(["profile", "label"]), any_json),
    st.integers(0, 12),
    st.dictionaries(st.sampled_from(["name", "kind"]), any_json, max_size=1),
)
def test_resigned_schema_of_any_json_values_never_exits_1(flows, schema_fields, j, feature_fields):
    """A checkpoint re-signed with any JSON value as its schema's profile or
    label, or as one feature's name or kind, ends eval in a documented exit
    code, never in a traceback."""
    data, model = flows

    def edit(header, body):
        schema = header["schema"]
        features = [dict(f, **feature_fields) if i == j else f for i, f in enumerate(schema["features"])]
        header = {**header, "schema": {**schema, **schema_fields, "features": features}}
        return json.dumps(header, sort_keys=True).encode(), body

    with tempfile.TemporaryDirectory() as tmp:
        path, csv_path = Path(tmp) / "m.ckpt", Path(tmp) / "flows.csv"
        rewrite_header(model, path, edit)
        csv_path.write_bytes(data)
        assert quiet_main(["eval", "--model", path, "--data", csv_path]) in DOCUMENTED_EXITS


# --- from_arrays builds exactly the layout that shapes names --------------------

small = st.integers(1, 3)
small_hypers = st.one_of(
    st.builds(
        lambda heads, head_dim, blocks, mlp_dim, tokens, mask: {
            "kind": "transformer", "dim": heads * head_dim, "heads": heads, "blocks": blocks,
            "mlp_dim": mlp_dim, "tokens": tokens, "mask": mask,
        },
        small, small, st.integers(1, 2), small, small, st.booleans(),
    ),
    st.builds(lambda features, h1, h2: {"kind": "fnn", "features": features, "hidden": [h1, h2]}, small, small, small),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_hypers, st.integers(0, 2**32 - 1))
def test_from_arrays_builds_the_layout_of_shapes(synthetic_schema, h, seed):
    """from_arrays(h, arrays) and init(h, seed) have hyper h, the dict they were
    built from, and parameters named and shaped as shapes(h) lists them."""
    kind = KINDS[h["kind"]]
    rng = np.random.default_rng(seed)
    arrays = {name: rng.normal(size=shape) for name, shape in kind.shapes(h)}
    for params in (kind.from_arrays(h, arrays), kind.init(h, seed)):
        assert params.hyper() == h
        assert [(name, t.data.shape) for name, t in params.named_parameters()] == list(kind.shapes(h))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_hypers, st.integers(0, 2**32 - 1))
def test_checkpoint_save_load_save_is_byte_identical(synthetic_schema, h, seed):
    """A model of either kind, its input width set to the fitted synthetic
    schema's 13, saves, loads and saves to the same bytes, and loads with
    the hyper dict and the arrays it was saved with."""
    kind = KINDS[h["kind"]]
    h = {**h, ("tokens" if h["kind"] == "transformer" else "features"): synthetic_schema.width}
    rng = np.random.default_rng(seed)
    params = kind.from_arrays(h, {name: rng.normal(size=shape) for name, shape in kind.shapes(h)})
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
        save_checkpoint(params, synthetic_schema, {"model": h["kind"]}, first)
        loaded = load_checkpoint(first).params
        save_checkpoint(loaded, synthetic_schema, {"model": h["kind"]}, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.hyper() == h
    for (name, saved), (_, read) in zip(params.named_parameters(), loaded.named_parameters(), strict=True):
        assert saved.data.tobytes() == read.data.tobytes(), name


# --- a row's logits do not depend on its chunk ---------------------------------


@pytest.fixture(scope="module")
def scored_rows():
    """300 encoded noisy synth rows, seed-0 default models of both kinds, and each
    model's logits of the whole matrix in one forward call, by kind."""
    ds = synth(300, seed=3, difficulty="noisy")
    schema = fit_schema(ds.records, ds.profile)
    x, _ = encode_batch(ds.records, schema)
    models = {"transformer": new_transformer(schema.width, seed=0), "fnn": new_fnn(schema.width, seed=0)}
    with T.no_grad():
        return x, {kind: (params, params.logits(x).data) for kind, params in models.items()}


spans = st.integers(0, 299).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, 300 - s)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spans)
@example((0, 1))
@example((299, 1))
@example((5, 128))
@example((5, 129))
@example((41, 257))
@example((0, 300))
def test_transformer_logits_of_a_row_do_not_depend_on_its_chunk(scored_rows, span):
    """Scoring rows s..s+n alone gives those rows of the whole matrix's logits,
    byte for byte, however the call chunks them and on however many threads."""
    x, models = scored_rows
    params, whole = models["transformer"]
    s, n = span
    event("one chunk" if n <= training.CHUNK_ROWS else "more than one chunk")
    assert training._batched_logits(params, x[s : s + n]).tobytes() == whole[s : s + n].tobytes()


def test_fnn_logits_of_a_row_do_not_depend_on_its_chunk(scored_rows):
    """The FNN too, a call of one row included."""
    x, models = scored_rows
    params, whole = models["fnn"]
    for s, n in [(0, 1), (150, 1), (299, 1), (0, 2), (7, 13), (5, 128), (5, 129), (41, 257), (0, 300), (298, 2)]:
        assert training._batched_logits(params, x[s : s + n]).tobytes() == whole[s : s + n].tobytes(), (s, n)


def test_transformer_scores_are_the_same_bytes_on_one_thread_and_two(scored_rows, monkeypatch):
    """259 rows are three chunks, starting at rows 0, 87 and 174, on one thread,
    and four, starting at rows 0, 65, 130 and 195, on two."""
    x, models = scored_rows
    params, _ = models["transformer"]
    scores = []
    for cores in (1, 2):
        monkeypatch.setattr(training, "usable_cores", lambda: cores)
        scores.append(training.predict_scores(params, x[:259]).tobytes())
    assert scores[0] == scores[1]
