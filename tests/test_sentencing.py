"""Record encoding and sentencing behavior."""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import flowids.tensor as T
from flowids.dataio import FlowTable
from flowids.errors import DataError, SchemaError
from flowids.sentencing import (
    FeatureSpec,
    Schema,
    encode_batch,
    fit_schema,
    parse_boolean,
    parse_number,
    parse_timestamp,
    profile_columns,
    sentence,
)
from flowids.tensor import Tensor
from fd import taped_mean

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


_BASE = {
    "srcip": "10.0.0.1",
    "dstip": "192.168.1.2",
    "proto": "tcp",
    "Sload": "1000.0",
    "Dload": "500.0",
    "Stime": "1400000000.0",
    "Ltime": "1400000002.5",
    "Spkts": "10",
    "srcport": "4444",
    "dstport": "80",
    "Dpkts": "8",
    "dur": "2.5",
    "sttl": "64",
}


def _rec(row=0, label=0, **overrides):
    """One record: its source row, label and cells."""
    return row, label, {**_BASE, **overrides}


def _table(recs, without=()):
    """The records as a unsw FlowTable, less the columns named in ``without``; checked as it is built."""
    kinds = {name: kind for name, kind in profile_columns("unsw")["features"] if name not in without}
    cells = {name: [values[name] for _, _, values in recs] for name in kinds}
    return FlowTable.from_cells(cells, kinds, [label for _, label, _ in recs], [row for row, _, _ in recs])


def _records():
    return _table(_rows())


def _rows():
    return [
        _rec(0, 0),
        _rec(1, 1, srcip="10.0.0.2", proto="udp", Sload="3000.0", sttl="255", dur="0.4"),
        _rec(2, 0, srcip="10.0.0.1", proto="icmp", Sload="2000.0", Dload="1500.0", Spkts="44"),
        _rec(3, 1, srcip="10.0.0.3", Sload="5000.0", Stime="1400000100.0", Dpkts="30",
             srcport="5999", dstport="443", Ltime="1400000111.0"),
    ]


class TestParsing:
    def test_number(self):
        assert parse_number("3.5") == 3.5
        assert parse_number("-2") == -2.0

    def test_number_rejects_garbage(self):
        with pytest.raises(DataError):
            parse_number("fast")

    def test_timestamp_passthrough_float(self):
        """Epoch-second cells parse as plain floats."""
        assert parse_timestamp("1400000000.5") == 1400000000.5

    def test_timestamp_clock_is_seconds_in_day(self):
        assert parse_timestamp("01:02:03") == 3723.0

    def test_timestamp_dates_are_ordered(self):
        """Calendar formats map to epoch seconds, so later dates compare larger."""
        assert parse_timestamp("02-Jan-15") > parse_timestamp("01-Jan-15")
        assert parse_timestamp("26/04/2019") > parse_timestamp("25/04/2019")

    @pytest.mark.parametrize("tz, offset", [("UTC0", 0), ("JST-9", -32400), ("EST+5", 18000)])
    def test_timestamps_parse_alike_in_every_time_zone(self, tz, offset):
        """Values without an offset are UTC; one with an offset keeps it.
        Each zone runs in its own interpreter with only TZ changed."""
        cells = ["2019-04-25 10:00:00", "2019-04-25T19:00:00+09:00", "26-Apr-19", "26/04/2019"]
        code = (
            "import json, sys, time; from flowids.sentencing import parse_timestamp as p; "
            "print(json.dumps([time.timezone] + [p(c) for c in sys.argv[1:]]))"
        )
        env = {**os.environ, "TZ": tz, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        r = subprocess.run([sys.executable, "-c", code, *cells], env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == [offset, 1556186400.0, 1556186400.0, 1556236800.0, 1556236800.0]

    def test_timestamp_z_suffix_and_basic_iso_format(self):
        """ISO forms that datetime.fromisoformat reads from Python 3.11 on,
        the oldest version the package supports."""
        assert parse_timestamp("2015-01-22T10:00:00Z") == 1421920800.0
        assert parse_timestamp("20150122T100000") == 1421920800.0

    def test_timestamp_rejects_garbage(self):
        with pytest.raises(DataError):
            parse_timestamp("not-a-time")

    def test_boolean_variants(self):
        for cell in ("1", "true", "On", " YES "):
            assert parse_boolean(cell) == 1.0
        for cell in ("0", "false", "off", "no"):
            assert parse_boolean(cell) == 0.0

    def test_boolean_rejects_garbage(self):
        with pytest.raises(DataError):
            parse_boolean("maybe")


class TestProfiles:
    def test_unsw_width(self):
        assert len(profile_columns("unsw")["features"]) == 13

    def test_ton_width(self):
        assert len(profile_columns("ton")["features"]) == 11

    def test_unknown_profile(self):
        with pytest.raises(SchemaError, match="unknown profile"):
            profile_columns("netflow-v9")


class TestFitSchema:
    def test_vocab_first_appearance_order(self):
        """Nominal values are indexed 1, 2, ... in first-appearance order."""
        schema = fit_schema(_records(), "unsw")
        srcip = schema.features[0]
        assert srcip.vocab == {"10.0.0.1": 1, "10.0.0.2": 2, "10.0.0.3": 3}
        proto = schema.features[2]
        assert proto.vocab == {"tcp": 1, "udp": 2, "icmp": 3}

    def test_vocab_holds_the_levels_of_the_table_fitted_in_their_first_appearance_there(self):
        """A taken table shares its source's levels (srcip's are .1, .2, .3); its vocabulary holds
        only the levels that occur in it, in the order they first occur there, not in level order."""
        part = _records().take([3, 1, 3])
        assert part.levels["srcip"] == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        with pytest.warns(UserWarning, match="constant"):  # three rows of one class hold constant columns
            schema = fit_schema(part, "unsw")
        assert schema.features[0].vocab == {"10.0.0.3": 1, "10.0.0.2": 2}

    def test_numeric_range_is_train_min_max(self):
        schema = fit_schema(_records(), "unsw")
        sload = next(f for f in schema.features if f.name == "Sload")
        assert sload.lo == 1000.0
        assert sload.hi == 5000.0

    def test_constant_feature_warns(self):
        recs = _table([_rec(i, i % 2) for i in range(4)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_schema(recs, "unsw")
        assert any("constant" in str(w.message) for w in caught)

    def test_empty_records_rejected(self):
        with pytest.raises(SchemaError, match="empty"):
            fit_schema(_table([]), "unsw")

    def test_missing_column_names_it(self):
        """A table without a profile column names its first record and the column."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # every column is read before a constant column is fitted
            with pytest.raises(SchemaError, match="record 7 is missing column 'sttl'"):
                fit_schema(_table([_rec(7), _rec(8)], without=("sttl",)), "unsw")

    @pytest.mark.parametrize(
        "cell, reason",
        [("fast", "cannot parse"), ("nan", "non-finite"), ("inf", "non-finite"), ("-inf", "non-finite")],
    )
    def test_bad_numeric_cell_names_record_and_column(self, cell, reason):
        """load_csv's rule, applied as a table is built from raw cells: a cell
        that does not parse or is not finite never reaches a range."""
        recs = _rows()
        recs[2][2]["Sload"] = cell
        with pytest.raises(DataError, match=f"record 2, column 'Sload': {reason}"):
            fit_schema(_table(recs), "unsw")

    def test_roundtrip_through_dict(self):
        schema = fit_schema(_records(), "unsw")
        clone = Schema.from_dict(schema.to_dict())
        assert clone == schema


def _encode(spec, *cells):
    """The encodings of raw cells under one fitted spec, through encode_batch."""
    records = FlowTable.from_cells({spec.name: list(cells)}, {spec.name: spec.kind}, [0] * len(cells))
    return encode_batch(records, Schema("unsw", [spec]))[0][:, 0].tolist()


class TestEncode:
    def test_nominal_scaled_index(self):
        spec = FeatureSpec(name="proto", kind="nominal", vocab={"tcp": 1, "udp": 2})
        assert _encode(spec, "tcp", "udp") == [0.5, 1.0]

    def test_nominal_unseen_is_zero(self):
        spec = FeatureSpec(name="proto", kind="nominal", vocab={"tcp": 1, "udp": 2})
        assert _encode(spec, "gre") == [0.0]

    def test_numeric_min_max(self):
        spec = FeatureSpec(name="Sload", kind="numeric", lo=0.0, hi=10.0)
        np.testing.assert_allclose(_encode(spec, "2.5"), [0.25])

    def test_numeric_clips_outside_train_range(self):
        spec = FeatureSpec(name="Sload", kind="numeric", lo=0.0, hi=10.0)
        assert _encode(spec, "-5", "25") == [0.0, 1.0]

    def test_range_wider_than_a_float_stays_in_unit_interval(self):
        """hi - lo overflows to inf here; the encoding must not turn into nan."""
        spec = FeatureSpec("Sload", "numeric", lo=-1e308, hi=1e308)
        assert _encode(spec, "1e308", "0", "-1e308") == [1.0, 0.5, 0.0]

    def test_constant_feature_centers(self):
        spec = FeatureSpec(name="sttl", kind="numeric", lo=64.0, hi=64.0)
        assert _encode(spec, "64", "255") == [0.5, 0.5]

    def test_full_record_in_unit_interval(self):
        recs = _records()
        x, _ = encode_batch(recs, fit_schema(recs, "unsw"))
        assert x.shape == (4, 13)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)

    def test_deterministic(self):
        recs = _records()
        schema = fit_schema(recs, "unsw")
        a, _ = encode_batch(recs.take([1]), schema)
        b, _ = encode_batch(recs.take([1]), schema)
        np.testing.assert_array_equal(a, b)

    def test_encode_does_not_mutate_schema(self):
        """Seeing new nominal values at encode time must not grow the vocab."""
        schema = fit_schema(_records(), "unsw")
        before = schema.to_dict()
        encode_batch(_table([_rec(9, proto="gre", srcip="172.16.0.9")]), schema)
        assert schema.to_dict() == before

    def test_bad_cell_error_names_row_and_column(self):
        """fit_schema's and load_csv's rule: a cell that does not parse or is not finite is never encoded."""
        schema = fit_schema(_records(), "unsw")
        cases = [("Sload", "fast", "cannot parse"), ("Sload", "nan", "non-finite"), ("Sload", "inf", "non-finite"),
                 ("Sload", "-inf", "non-finite"),
                 ("Sload", 10**400, "cannot parse numeric cell 1000"),  # an int beyond the float range
                 ("Stime", 10**400, "cannot parse timestamp cell 1000")]
        for column, cell, reason in cases:
            with pytest.raises(DataError, match=f"record 41, column '{column}': {reason}"):
                encode_batch(_table(_rows() + [_rec(41, **{column: cell})]), schema)

    def test_fit_and_encode_name_the_same_cell(self):
        """The table that both read is checked as it is built: the first
        record with a bad cell wins, whatever column its cell is in."""
        recs = _rows() + [_rec(4, Sload="fast")]
        recs[1][2]["Dload"] = "slow"
        message = "record 1, column 'Dload': cannot parse numeric cell 'slow'"
        with pytest.raises(DataError) as fit:
            fit_schema(_table(recs), "unsw")
        with pytest.raises(DataError) as enc:
            encode_batch(_table(recs), fit_schema(_records(), "unsw"))
        assert str(fit.value) == str(enc.value) == message

    def test_encode_batch_names_the_first_bad_record(self):
        """Two bad records in different columns: the error is the first
        record's, naming its first bad column."""
        schema = fit_schema(_records(), "unsw")
        recs = _rows() + [_rec(41, Dload="slow"), _rec(42, Sload="fast", Dload="nan?")]
        message = "record 41, column 'Dload': cannot parse numeric cell 'slow'"
        with pytest.raises(DataError) as batch:
            encode_batch(_table(recs), schema)
        assert str(batch.value) == message
        with pytest.raises(DataError, match="record 42, column 'Sload'"):
            encode_batch(_table(recs[-1:]), schema)

    def test_missing_nominal_cell_is_a_bad_cell(self):
        """A row that ends before its nominal cells holds None there, as
        load_csv pads it: a table built from it names the record and the
        column, so no 'None' reaches a vocabulary."""
        recs = _rows()
        recs[2][2]["dstip"] = recs[2][2]["proto"] = None
        message = "record 2, column 'dstip': missing cell"
        with pytest.raises(DataError) as fit:
            fit_schema(_table(recs), "unsw")
        with pytest.raises(DataError) as enc:
            encode_batch(_table(recs), fit_schema(_records(), "unsw"))
        assert str(fit.value) == str(enc.value) == message

    def test_encode_batch_missing_column_names_it(self):
        schema = fit_schema(_records(), "unsw")
        with pytest.raises(SchemaError, match="record 5 is missing column 'sttl'"):
            encode_batch(_table([_rec(5), _rec(6)], without=("sttl",)), schema)

    @pytest.mark.parametrize("kind", ["timestamp", "boolean", "nominal"])
    def test_column_read_as_another_kind_names_both_kinds(self, kind):
        """A column is read only as the kind it was parsed as: a hand-built
        schema that reads Sload, parsed as numeric, as another kind raises
        SchemaError naming the column and both kinds."""
        spec = FeatureSpec("Sload", kind, vocab={"1000.0": 1} if kind == "nominal" else None, lo=0.0, hi=1.0)
        with pytest.raises(SchemaError, match=f"column 'Sload' was parsed as 'numeric', not as '{kind}'"):
            encode_batch(_records(), Schema("unsw", [spec]))

    def test_encode_batch_of_no_records(self):
        """Zero records give an empty (0, width) matrix and no labels."""
        x, y = encode_batch(_table([]), fit_schema(_records(), "unsw"))
        assert x.shape == (0, 13) and x.dtype == np.float64
        assert y.shape == (0,) and y.dtype == np.int64

    def test_encode_batch_shapes(self):
        recs = _records()
        schema = fit_schema(recs, "unsw")
        x, y = encode_batch(recs, schema)
        assert x.shape == (4, 13)
        assert y.tolist() == [0, 1, 0, 1]


def _params(width=4, dim=3, seed=0):
    """The transformer's three sentencing tables by name, as sentence takes them: embed, bias, position."""
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.normal(size=(width, dim)), requires_grad=True) for name in ("embed", "bias", "position")}


class TestSentence:
    def test_zero_vector_gives_bias_plus_position(self):
        """With x = 0 the embedding term vanishes."""
        p = _params()
        out = sentence(Tensor(np.zeros(4)), **p)
        np.testing.assert_allclose(out.data, p["bias"].data + p["position"].data, rtol=0, atol=0)

    def test_token_formula(self):
        """token_j = x_j * embed_j + bias_j + position_j, row by row."""
        p = _params()
        x = np.array([0.1, 0.7, 0.0, 1.0])
        out = sentence(Tensor(x), **p)
        expected = x[:, None] * p["embed"].data + p["bias"].data + p["position"].data
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=0)

    def test_batch_shape(self):
        p = _params(width=13, dim=32)
        x = np.random.default_rng(1).uniform(size=(5, 13))
        out = sentence(Tensor(x), **p)
        assert out.shape == (5, 13, 32)

    def test_per_feature_locality(self):
        """Changing feature j moves token j only."""
        p = _params()
        x = np.array([0.2, 0.4, 0.6, 0.8])
        base = sentence(Tensor(x), **p).data
        for j in range(4):
            bumped = x.copy()
            bumped[j] += 0.05
            out = sentence(Tensor(bumped), **p).data
            changed = np.any(out != base, axis=1)
            assert changed[j]
            assert not np.any(changed[np.arange(4) != j])

    def test_gradients_reach_all_parameters(self):
        p = _params()
        x = Tensor(np.array([0.1, 0.7, 0.3, 1.0]))
        loss = taped_mean(T.mul(sentence(x, **p), sentence(x, **p)))
        T.backward(loss)
        for t in p.values():
            assert t.grad is not None
            assert np.all(np.isfinite(t.grad))
