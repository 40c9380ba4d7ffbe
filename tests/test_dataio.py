"""CSV loading, synthetic generation, splitting, checkpoint container."""

import csv
import gc
import hashlib
import itertools
import json
import math
import pathlib
import re
import struct
import tracemalloc

import numpy as np
import pytest

import oracles
from checkpoints import HEADER_DEFECTS, rewrite_header
from flowids import dataio, model, sentencing
from flowids.dataio import (
    SEPARABLE_THRESHOLD,
    Checkpoint,
    FlowTable,
    load_checkpoint,
    load_csv,
    save_checkpoint,
    split,
    synth,
    write_csv,
)
from flowids.errors import ConfigError, ContractError, DataError, IntegrityError, SchemaError, VersionError
from flowids.sentencing import NOMINAL, encode_batch, fit_schema, parse_column
from models import new_fnn, new_transformer

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestLoadCsv:
    def test_unsw_counts(self):
        """Two of the twelve fixture rows are broken (bad Sload, label 2)."""
        ds, summary = load_csv(FIXTURES / "unsw_tiny.csv", "unsw")
        assert summary.rows_loaded == 10
        assert summary.rows_rejected == 2
        assert len(ds) == 10

    def test_reject_reasons_carry_line_numbers(self):
        _, summary = load_csv(FIXTURES / "unsw_tiny.csv", "unsw")
        rows = dict(summary.rejects)
        assert set(rows) == {7, 10}
        assert "fast" in rows[7]
        assert "'Sload'" in rows[7]
        assert "label" in rows[10]

    def test_extra_columns_ignored(self):
        """The fixture's svc column is not in the profile and must not leak."""
        ds, _ = load_csv(FIXTURES / "unsw_tiny.csv", "unsw")
        assert "svc" not in ds.records.columns

    def test_non_utf8_bytes_name_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"srcip,label\n\xff\xfe,1\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text at line 2")):
            load_csv(path, "synthetic")

    def test_non_utf8_byte_past_the_first_block_names_its_line(self, tmp_path):
        """Text decodes about 8 KB at a time; the line is still the bad byte's
        own, with write_csv's \\r\\n line ends counted once each."""
        path = tmp_path / "bad.csv"
        write_csv(synth(400, seed=0), path)
        lines = path.read_bytes().split(b"\r\n")
        assert len(b"\r\n".join(lines[:299])) > 8192
        lines[299] = lines[299][:3] + b"\xc3" + lines[299][3:]  # a lead byte with no continuation
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text at line 300")):
            load_csv(path, "synthetic")

    def test_oversized_cell_names_file_and_line(self, tmp_path):
        """The process-wide csv.field_size_limit() is left as it was."""
        path = tmp_path / "big.csv"
        write_csv(synth(20, seed=0), path)
        lines = path.read_text().splitlines()
        lines[3] = "x" * 200_000 + lines[3]
        path.write_text("\n".join(lines) + "\n")
        limit = csv.field_size_limit()
        with pytest.raises(DataError, match=re.escape(f"{path}: line 4: field larger than field limit")):
            load_csv(path, "synthetic")
        assert csv.field_size_limit() == limit

    def test_labels_parsed(self):
        ds, _ = load_csv(FIXTURES / "unsw_tiny.csv", "unsw")
        assert sorted(set(ds.records.labels.tolist())) == [0, 1]

    def test_ton_counts(self):
        ds, summary = load_csv(FIXTURES / "ton_tiny.csv", "ton")
        assert summary.rows_loaded == 8
        assert summary.rows_rejected == 1
        with pytest.warns(UserWarning) as caught:
            schema = fit_schema(ds.records, "ton")
        assert schema.width == 11
        assert [str(w.message) for w in caught] == [
            f"feature {name!r} is constant in the training split" for name in ("date", "latitude", "longitude")
        ]

    def test_unknown_profile_rejected(self):
        with pytest.raises(SchemaError, match="unknown profile 'nosuch'"):
            load_csv(FIXTURES / "ton_tiny.csv", "nosuch")

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("srcip,label\n10.0.0.1,0\n")
        with pytest.raises(SchemaError, match="dstip"):
            load_csv(path, "unsw")

    def test_all_rows_bad_rejected(self, tmp_path):
        header = ("srcip,dstip,proto,Sload,Dload,Stime,Ltime,Spkts,srcport,"
                  "dstport,Dpkts,dur,sttl,label")
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + "a,b,tcp,NOPE,1,1,1,1,1,1,1,1,1,0\n")
        with pytest.raises(DataError, match="no valid rows"):
            load_csv(path, "unsw")

    def test_write_then_load_round_trip(self, tmp_path):
        ds = synth(40, seed=9)
        path = tmp_path / "flows.csv"
        write_csv(ds, path)
        back, summary = load_csv(path, "synthetic")
        assert summary.rows_rejected == 0
        assert len(back) == 40
        assert oracles.table_content(back.records) == oracles.table_content(ds.records)
        assert back.records.labels.tolist() == ds.records.labels.tolist()

    def test_non_finite_cells_rejected(self, tmp_path):
        """nan, inf and -inf in numeric or timestamp columns reject the row,
        naming its line and column, so no fitted range or encoding is nan."""
        lines = (FIXTURES / "unsw_tiny.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line, column, cell in ((2, "Sload", "nan"), (3, "Stime", "inf"), (4, "dur", "-inf")):
            cells = lines[line - 1].split(",")
            cells[header.index(column)] = cell
            lines[line - 1] = ",".join(cells)
        path = tmp_path / "non_finite.csv"
        path.write_text("\n".join(lines) + "\n")
        ds, summary = load_csv(path, "unsw")
        assert summary.rows_loaded == 7 and summary.rows_rejected == 5
        rows = dict(summary.rejects)
        for line, column in ((2, "Sload"), (3, "Stime"), (4, "dur")):
            assert f"'{column}'" in rows[line] and "non-finite" in rows[line]
        x, _ = encode_batch(ds.records, fit_schema(ds.records, "unsw"))
        assert np.all(np.isfinite(x))

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """A CSV that a spreadsheet saved with a leading BOM loads as the same file without it."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(synth(200, seed=3), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        (a, sa), (b, sb) = load_csv(plain, "synthetic"), load_csv(marked, "synthetic")
        assert sa == sb and oracles.table_content(a.records) == oracles.table_content(b.records)
        assert a.records.labels.tolist() == b.records.labels.tolist()
        assert a.records.rows.tolist() == b.records.rows.tolist()

    def test_byte_order_mark_leaves_the_non_utf8_line_unchanged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xef\xbb\xbfsrcip,label\n\xff\xfe,1\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text at line 2")):
            load_csv(path, "synthetic")
        write_csv(synth(400, seed=0), path)
        lines = path.read_bytes().split(b"\r\n")
        lines[299] = lines[299][:3] + b"\xc3" + lines[299][3:]
        path.write_bytes(b"\xef\xbb\xbf" + b"\r\n".join(lines))
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text at line 300")):
            load_csv(path, "synthetic")

    def test_each_column_is_parsed_once(self, tmp_path, monkeypatch):
        """load_csv parses each non-nominal column and the label once, rejects
        and all; fit_schema and encode_batch read its values and codes and parse nothing."""
        path = tmp_path / "flows.csv"
        write_csv(synth(200, seed=3), path)
        path.write_text(path.read_text().replace(",tcp,", ",tcp,fast", 2))  # two rows' Sload is rejected
        calls, real = [], parse_column

        def counted(cells, kind):
            calls.append(kind)
            return real(cells, kind)

        for module in (dataio, sentencing):
            monkeypatch.setattr(module, "parse_column", counted)
        ds, summary = load_csv(path, "synthetic")
        assert summary.rows_rejected == 2
        features = sentencing.PROFILES["synthetic"]["features"]
        parsed = [k for _, k in features if k != NOMINAL] + [sentencing.NUMERIC]  # the label is a numeric column
        assert sorted(calls) == sorted(parsed)
        calls.clear()
        schema = fit_schema(ds.records, ds.profile)
        encode_batch(ds.records, schema)
        assert calls == []
        rows = set(ds.records.rows.tolist())
        with open(path, newline="") as handle:  # the kept values are what parsing the kept rows' cells gives
            kept = [row for i, row in enumerate(csv.DictReader(handle), start=2) if i in rows]
        for name, kind in features:
            if kind != NOMINAL:
                expected = real([row[name] for row in kept], kind)[0]
                assert ds.records.columns[name].tobytes() == expected.tobytes()

    def test_summary_describe_mentions_rows(self):
        _, summary = load_csv(FIXTURES / "unsw_tiny.csv", "unsw")
        text = summary.describe()
        assert "rejected 2" in text and "row" in text


NUMERIC_FIRST = ["label", "Sload", "Dload", "Stime", "Ltime", "Spkts", "srcport", "dstport",
                 "Dpkts", "dur", "sttl", "srcip", "dstip", "proto"]  # nominal columns last
CELLS = {"label": "0", "Sload": "1200.5", "Dload": "300.0", "Stime": "1421927414",
         "Ltime": "1421927418", "Spkts": "12", "srcport": "33661", "dstport": "80", "Dpkts": "10",
         "dur": "3.9", "sttl": "62", "srcip": "10.0.0.1", "dstip": "192.168.1.5", "proto": "tcp"}


def _row(header=NUMERIC_FIRST, **cells) -> str:
    """One CSV line with a valid cell in each column of `header`, `cells` overriding."""
    return ",".join({**CELLS, **cells}.get(name, "") for name in header)


TON_CELLS = {"time": "09:12:01", "date": "26-Apr-19", "motion status": "0", "light status": "off",
             "temperature": "24.1", "pressure": "1012.5", "humidity": "41.0", "sphone signal": "0",
             "latitude": "37.7749", "longitude": "-122.4194", "FC1 Read Input Register": "120", "label": "0"}


class TestMissingCells:
    """A row that ends before a column reads that cell as missing, whatever the
    column's kind; the label's reason still comes first. Only the reason's
    text depends on the kind of cell: the rows kept and rejected do not."""

    @pytest.mark.parametrize("profile, cut_before, kind", [
        ("unsw", "proto", NOMINAL),
        ("unsw", "Dload", sentencing.NUMERIC),
        ("unsw", "Stime", sentencing.TIMESTAMP),
        ("ton", "light status", sentencing.BOOLEAN),
    ])
    @pytest.mark.parametrize("label_at", ["first", "last"])
    def test_reason_is_missing_cell(self, tmp_path, profile, cut_before, kind, label_at):
        layout = sentencing.profile_columns(profile)
        assert dict(layout["features"])[cut_before] == kind
        features = [name for name, _ in layout["features"]]
        header = ["label"] + features if label_at == "first" else features + ["label"]
        cells = CELLS if profile == "unsw" else TON_CELLS
        full = ",".join(cells[name] for name in header)
        cut = ",".join(cells[name] for name in header[: header.index(cut_before)])
        path = tmp_path / "flows.csv"
        path.write_text("\n".join([",".join(header), full, cut, full]) + "\n")
        ds, summary = load_csv(path, profile)
        reason = f"column {cut_before!r}: missing cell" if label_at == "first" else "label: missing cell"
        assert summary.rejects == [(3, reason)]
        assert ds.records.rows.tolist() == [2, 4]


def _load_lines(tmp_path, lines, profile="unsw", prefix=0):
    """Load a header and rows, with `prefix` valid rows read between them."""
    path = tmp_path / "flows.csv"
    lines = lines[:1] + [_row(lines[0].split(","))] * prefix + lines[1:]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return load_csv(path, profile)


BLOCK = dataio.BLOCK_ROWS


class TestLoadCsvReadsLikeDictReader:
    """The reader is positional; each case reads as csv.DictReader read it."""

    @pytest.fixture
    def prefix(self):
        """The valid rows read before a case's own: none."""
        return 0

    def test_blank_rows_are_skipped_and_not_numbered(self, tmp_path, prefix):
        header = ",".join(NUMERIC_FIRST)
        lines = [header, _row(), "", _row(label="2"), "", "", _row(dur="4.0")]
        ds, summary = _load_lines(tmp_path, lines, prefix=prefix)
        assert ds.records.rows.tolist()[prefix:] == [2 + prefix, 4 + prefix]
        assert ds.records.columns["dur"][prefix:].tolist() == [3.9, 4.0]
        assert summary.rejects == [(3 + prefix, "label '2' is not 0 or 1")]

    def test_short_row_reads_missing_cells_as_none(self, tmp_path, prefix):
        """A missing cell reads as None, a bad cell in any column: a row that
        ends before its nominal cells is rejected, naming the first of them
        in profile order."""
        header = ",".join(NUMERIC_FIRST)
        short = _row().rsplit(",", 2)[0]  # no dstip, no proto
        too_short = ",".join(_row().split(",")[:5])  # ends after Ltime
        ds, summary = _load_lines(tmp_path, [header, short, too_short, _row(srcip="10.0.0.2")], prefix=prefix)
        assert summary.rejects == [
            (2 + prefix, "column 'dstip': missing cell"),
            (3 + prefix, "column 'srcip': missing cell"),
        ]
        assert ds.records.rows.tolist()[prefix:] == [4 + prefix]

    def test_extra_cells_are_ignored(self, tmp_path, prefix):
        header = ",".join(NUMERIC_FIRST)
        ds, summary = _load_lines(tmp_path, [header, _row() + ",x,y,9", _row()], prefix=prefix)
        assert summary.rows_rejected == 0
        assert all(column[prefix] == column[prefix + 1] for column in ds.records.columns.values())

    def test_repeated_header_name_takes_the_last_column(self, tmp_path, prefix):
        header = ",".join(NUMERIC_FIRST + ["Sload", "Dload"])
        # the second row ends before the last Dload column
        ds, summary = _load_lines(tmp_path, [header, _row() + ",7.5,8.5", _row() + ",7.5"], prefix=prefix)
        assert (ds.records.columns["Sload"][prefix], ds.records.columns["Dload"][prefix]) == (7.5, 8.5)
        assert summary.rejects == [(3 + prefix, "column 'Dload': missing cell")]

    def test_quoted_newline_stays_in_its_cell(self, tmp_path, prefix):
        header = ",".join(NUMERIC_FIRST)
        ds, summary = _load_lines(tmp_path, [header, _row(proto='"tcp\nv2"'), _row(label="x"), _row()], prefix=prefix)
        assert oracles.nominal_cells(ds.records, "proto")[prefix] == "tcp\nv2"
        assert summary.rejects == [(3 + prefix, "label: cannot parse numeric cell 'x'")]
        assert ds.records.rows.tolist()[prefix:] == [2 + prefix, 4 + prefix]

    def test_more_than_twenty_rejects_are_counted_not_listed(self, tmp_path, prefix):
        header = ",".join(NUMERIC_FIRST)
        _, summary = _load_lines(tmp_path, [header] + [_row(label="x")] * 25 + [_row(), _row()], prefix=prefix)
        lines = [f"loaded {2 + prefix} rows, rejected 25"]
        lines += [f"  row {n}: label: cannot parse numeric cell 'x'" for n in range(2 + prefix, 22 + prefix)]
        lines += ["  ... and 5 more"]
        assert summary.describe() == "\n".join(lines)

    def test_first_reason_is_the_label_then_profile_order(self, tmp_path, prefix):
        """The label's reason wins; among bad cells the first column of the
        profile wins, whatever the header order (Dload comes before Sload here)."""
        header = ["label", "Dload", "Sload"] + [n for n in NUMERIC_FIRST if n not in ("label", "Dload", "Sload")]
        lines = [",".join(header), _row(header, label="2", Sload="fast"), _row(header, Dload="nan", Sload="fast"),
                 _row(header)]
        _, summary = _load_lines(tmp_path, lines, prefix=prefix)
        assert summary.rejects == [
            (2 + prefix, "label '2' is not 0 or 1"),
            (3 + prefix, "column 'Sload': cannot parse numeric cell 'fast'"),
        ]


class TestLoadCsvReadsLikeDictReaderOnBlockEdges(TestLoadCsvReadsLikeDictReader):
    """The same cases after valid rows that put a case's rows on either side
    of the edges of the blocks load_csv reads."""

    @pytest.fixture(params=[BLOCK - 2, BLOCK - 1, BLOCK, 2 * BLOCK - 1])
    def prefix(self, request):
        return request.param


class TestLoadCsvBlocks:
    def test_three_blocks_of_mixed_rows_read_as_dict_reader_reads_them(self, tmp_path):
        """Blank, short, long, bad-label, bad-cell and quoted-newline rows,
        drawn at random over three blocks, load as the DictReader oracle reads them."""
        header = NUMERIC_FIRST + ["svc", "Sload"]  # a column outside the profile, and a repeated name
        kinds = {
            "valid": lambda i: _row(header, Sload=f"{i}.5"),
            "blank": lambda i: "",
            "short": lambda i: _row(header)[: 20 + i % 40],
            "long": lambda i: _row(header) + f",x,{i}",
            "bad label": lambda i: _row(header, label=("2", "x", "")[i % 3]),
            "bad cell": lambda i: _row(header, **{("dur", "Stime", "sttl")[i % 3]: ("fast", "nan", "-inf")[i % 3]}),
            "quoted newline": lambda i: _row(header, proto=f'"tcp\n{i}"'),
        }
        draws = np.random.default_rng(18).choice(list(kinds), size=int(2.75 * BLOCK), p=[0.5] + [1 / 12] * 6)
        path = tmp_path / "flows.csv"
        path.write_text("\n".join([",".join(header)] + [kinds[kind](i) for i, kind in enumerate(draws)]) + "\n")
        ds, summary = load_csv(path, "unsw")
        layout = sentencing.profile_columns("unsw")
        rows, cells, labels, values, rejects = oracles.dictreader_load(
            path, layout["features"], layout["label"],
            lambda cell, kind: oracles.checked_cell(cell, kind, sentencing.parse_cell),
        )
        assert rows[-1] > 2 * BLOCK + 1 and len(rejects) > BLOCK // 2
        table = ds.records
        assert table.rows.tolist() == rows and table.labels.tolist() == labels
        assert oracles.table_content(table) == {name: np.array(values[name], dtype=np.float64).tobytes() if name in values
                                   else cells[name] for name in cells}
        assert summary.rows_loaded == len(rows) and summary.rows_rejected == len(rejects)
        assert summary.rejects == rejects[:20]

    def test_a_block_of_blank_rows_only_is_skipped(self, tmp_path):
        """Blank rows that fill whole blocks, between rows and at the end of the
        file, are skipped; a file of blank rows only has no valid rows."""
        header = ",".join(NUMERIC_FIRST)
        lines = [header] + [_row()] * BLOCK + [""] * (2 * BLOCK + 3) + [_row(dur="4.0")] + [""] * BLOCK
        ds, summary = _load_lines(tmp_path, lines)
        assert ds.records.rows.tolist() == list(range(2, BLOCK + 3)) and summary.rows_rejected == 0
        assert ds.records.columns["dur"][-2:].tolist() == [3.9, 4.0]
        with pytest.raises(DataError, match="no valid rows"):
            _load_lines(tmp_path, [header] + [""] * BLOCK)

    def test_reading_starts_no_older_generation_collection(self, tmp_path):
        """Each block's rows are dropped once their cells are in the columns,
        so a load of twenty blocks starts no collection of an older generation."""
        path = tmp_path / "flows.csv"
        write_csv(synth(20 * BLOCK, seed=5), path)
        older = []

        def count(phase, info):
            if phase == "start" and info["generation"] > 0:
                older.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            ds, _ = load_csv(path, "synthetic")
        finally:
            gc.callbacks.remove(count)
        assert len(ds) == 20 * BLOCK
        assert older == []

    def test_a_level_first_seen_in_block_two_is_coded_after_block_one(self, tmp_path):
        """Each nominal column's codes are carried from block to block, so its levels stay in
        first-appearance order over the whole file, not within each block."""
        protos = ["tcp"] * BLOCK + ["udp", "tcp", "icmp"] + ["udp"] * 5
        ds, summary = _load_lines(tmp_path, [",".join(NUMERIC_FIRST)] + [_row(proto=proto) for proto in protos])
        assert summary.rows_rejected == 0
        assert ds.records.levels["proto"] == ["tcp", "udp", "icmp"]
        assert oracles.nominal_cells(ds.records, "proto") == protos

    def test_a_missing_nominal_cell_first_seen_in_block_three(self, tmp_path):
        """A row that ends before srcip, first in the third block, is rejected by its own row
        number, and the missing cell joins srcip's levels after every level before it."""
        header = ",".join(NUMERIC_FIRST)  # srcip, dstip and proto come last
        srcips = ["10.0.0.1"] * BLOCK + ["10.0.0.2"] * BLOCK + ["10.0.0.3", None, "10.0.0.4"]
        lines = [_row(srcip=cell) if cell else _row().rsplit(",", 3)[0] for cell in srcips]
        ds, summary = _load_lines(tmp_path, [header] + lines)
        with open(tmp_path / "flows.csv", newline="") as handle:
            read = list(dict.fromkeys(record["srcip"] for record in csv.DictReader(handle)))
        assert read == ["10.0.0.1", "10.0.0.2", "10.0.0.3", None, "10.0.0.4"]
        assert ds.records.levels["srcip"] == read
        assert summary.rejects == [(2 * BLOCK + 3, "column 'srcip': missing cell")]
        assert oracles.nominal_cells(ds.records, "srcip") == [cell for cell in srcips if cell]

    def test_rejects_in_later_blocks_keep_their_source_rows(self, tmp_path):
        """A bad label in the second block and a bad cell in the third are numbered by the rows
        read before them, blank rows of the first block not counted."""
        header = ",".join(NUMERIC_FIRST)
        first = [_row()] * (BLOCK - 6) + [""] * 6  # 250 rows, then blank lines: one block of reader rows
        lines = [header] + first + [_row()] * 100 + [_row(label="2")] + [_row()] * (BLOCK + 40) + [_row(Sload="fast")]
        ds, summary = _load_lines(tmp_path, lines + [_row()])
        label_row, cell_row = BLOCK - 6 + 100 + 2, BLOCK - 6 + 100 + 1 + BLOCK + 40 + 2
        assert summary.rejects == [(label_row, "label '2' is not 0 or 1"),
                                   (cell_row, "column 'Sload': cannot parse numeric cell 'fast'")]
        assert ds.records.rows.tolist() == [row for row in range(2, cell_row + 2) if row not in (label_row, cell_row)]
        layout = sentencing.profile_columns("unsw")
        *_, rejects = oracles.dictreader_load(tmp_path / "flows.csv", layout["features"], layout["label"],
                                              lambda cell, kind: oracles.checked_cell(cell, kind, sentencing.parse_cell))
        assert summary.rejects == rejects

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_write_csv_writes_the_bytes_of_a_whole_table_writer(self, tmp_path, n):
        """write_csv formats and writes one block at a time; on either side of a block edge its
        bytes are those of a writer that formats every row, then writes them in one call."""
        ds, path = synth(n, seed=n, difficulty="noisy"), tmp_path / "flows.csv"
        write_csv(ds, path)
        layout = sentencing.profile_columns("synthetic")
        assert path.read_bytes() == oracles.whole_table_csv(ds.records, layout["features"], layout["label"])

    def test_load_holds_its_table_and_one_block_of_text(self, tmp_path):
        """Each block is checked as it is read, so a 20-block load peaks (tracemalloc) at no more
        than twice the loaded table's array bytes plus one block's cell text as csv.reader gives it.
        Measured: 1.15 MB against a bound of 1.47 MB (0.61 MB of arrays, 0.25 MB of block text);
        a load that checked the cells once the file was read peaked at 5.2 MB."""
        path = tmp_path / "flows.csv"
        write_csv(synth(20 * BLOCK, seed=5), path)
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            tracemalloc.start()
            try:
                block = list(itertools.islice(reader, BLOCK))
                text = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert len(block) == BLOCK
        del block
        gc.collect()
        tracemalloc.start()
        try:
            ds, _ = load_csv(path, "synthetic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 20 * BLOCK
        assert peak <= 2 * _array_bytes(ds.records) + text

    def test_write_csv_holds_less_than_its_table(self, tmp_path):
        """write_csv formats one block at a time, so writing a 20-block table peaks (tracemalloc)
        below the table's array bytes: measured 0.35 MB against 0.61 MB, where formatting every
        cell before writing the first line peaked at 3.8 MB."""
        ds = synth(20 * BLOCK, seed=5)
        gc.collect()
        tracemalloc.start()
        try:
            write_csv(ds, tmp_path / "flows.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _array_bytes(ds.records)


def _array_bytes(table) -> int:
    """The bytes of a FlowTable's arrays: its columns, labels and rows."""
    return sum(column.nbytes for column in table.columns.values()) + table.labels.nbytes + table.rows.nbytes


def _labels(ds):
    return ds.records.labels


class TestSynth:
    def test_deterministic(self):
        a = synth(60, seed=5)
        b = synth(60, seed=5)
        assert oracles.table_content(a.records) == oracles.table_content(b.records)
        assert a.records.labels.tolist() == b.records.labels.tolist()

    def test_seed_matters(self):
        a = synth(60, seed=5)
        b = synth(60, seed=6)
        assert oracles.table_content(a.records) != oracles.table_content(b.records)

    def test_balanced_labels(self):
        ds = synth(101, seed=1)
        assert int(_labels(ds).sum()) == 50

    def test_separable_by_single_threshold(self):
        """Sload alone classifies a separable set perfectly, with margin."""
        ds = synth(500, seed=2, difficulty="separable")
        sload = ds.records.columns["Sload"]
        labels = _labels(ds)
        assert np.array_equal((sload > SEPARABLE_THRESHOLD).astype(int), labels)
        gap = np.abs(sload - SEPARABLE_THRESHOLD).min()
        assert gap >= 400.0

    def test_noisy_bayes_rate(self):
        """The documented optimal threshold errs at about the target rate."""
        ds = synth(10000, seed=3, difficulty="noisy", bayes_error=0.1)
        sload = ds.records.columns["Sload"]
        labels = _labels(ds)
        cut = oracles.noisy_sload_threshold(0.1)
        acc = np.mean((sload > cut).astype(int) == labels)
        assert 0.87 <= acc <= 0.93

    def test_noisy_other_features_carry_no_signal(self):
        """Per-class means of the uninformative columns agree with the
        documented distribution to 4 standard errors."""
        ds = synth(8000, seed=4, difficulty="noisy")
        labels = _labels(ds)
        for name in ("Dload", "Spkts", "Dpkts", "dur"):
            values = ds.records.columns[name]
            for cls in (0, 1):
                dist = dataio.SYNTH_DISTS["noisy"][name]["normal" if cls == 0 else "attack"]
                mean, var = oracles.dist_mean_var(dist)
                sample = values[labels == cls]
                se = np.sqrt(var / sample.size)
                assert abs(sample.mean() - mean) < 4 * se, name

    def test_start_times_monotone(self):
        ds = synth(50, seed=5)
        stime = ds.records.columns["Stime"]
        assert (stime[1:] > stime[:-1]).all()

    def test_end_after_start(self):
        ds = synth(50, seed=5)
        assert (ds.records.columns["Ltime"] > ds.records.columns["Stime"]).all()

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError, match=">= 10"):
            synth(5, seed=0)

    def test_one_row_over_the_bound_rejected_before_any_draw(self, monkeypatch):
        """n above MAX_SYNTH_ROWS is refused, naming n and the bound, before
        synth seeds its generator, so before it allocates a column."""
        def seeded(*_):
            raise AssertionError("synth seeded its generator")

        monkeypatch.setattr(np.random, "default_rng", seeded)
        n = dataio.MAX_SYNTH_ROWS + 1
        with pytest.raises(ConfigError, match=f"n <= {dataio.MAX_SYNTH_ROWS:,}, got {n:,}"):
            synth(n, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            synth(100, seed=-1)

    def test_unknown_difficulty_rejected(self):
        with pytest.raises(ConfigError, match="difficulty"):
            synth(100, seed=0, difficulty="hard")

    def test_bad_bayes_error_rejected(self):
        with pytest.raises(ConfigError, match="bayes"):
            synth(100, seed=0, difficulty="noisy", bayes_error=0.7)

    @pytest.mark.parametrize("bayes_error", [0.7, 0.0, float("nan")])
    def test_bad_bayes_error_rejected_for_separable_data(self, bayes_error):
        with pytest.raises(ConfigError, match="bayes_error must be in"):
            synth(100, seed=0, difficulty="separable", bayes_error=bayes_error)

    @pytest.mark.parametrize("difficulty", ["separable", "noisy"])
    @pytest.mark.parametrize("bayes_error", [1e-320, 5e-324, 1e-17])
    def test_bayes_error_too_small_for_float64_rejected(self, difficulty, bayes_error):
        """1 - bayes_error rounds to 1, where the normal quantile is undefined."""
        with pytest.raises(ConfigError, match=f"bayes_error {bayes_error!r} is too small"):
            synth(10, seed=0, difficulty=difficulty, bayes_error=bayes_error)

    def test_smallest_bayes_error_that_moves_one_accepted(self):
        tiny = 2.0**-53  # 1 - tiny is the float64 just below 1
        assert 1.0 - tiny != 1.0
        assert math.isfinite(dataio.noisy_sload_dists(tiny)["attack"][1])

    def test_dist_mean_var(self):
        assert oracles.dist_mean_var(("uniform", 0.0, 1.0)) == (0.5, 1.0 / 12.0)
        assert oracles.dist_mean_var(("normal", 3.0, 2.0)) == (3.0, 4.0)
        mean, var = oracles.dist_mean_var(("randint", 0, 10))
        assert mean == 4.5 and var == (100 - 1) / 12.0

    def test_noisy_sload_classes_match_the_oracle(self):
        """The generator's Sload classes put their midpoint at the oracle's cut."""
        for bayes_error in (0.01, 0.1, 0.3):
            dists = dataio.noisy_sload_dists(bayes_error)
            midpoint = (dists["normal"][1] + dists["attack"][1]) / 2.0
            assert midpoint == pytest.approx(oracles.noisy_sload_threshold(bayes_error), rel=1e-15)
            assert dists["normal"][2] == dists["attack"][2] == dataio.NOISY_SLOAD_SD


class TestFlowTable:
    def test_each_column_is_one_array(self, tmp_path):
        """synth's table and a loaded one hold float64 values, or int64 codes into the column's
        distinct cells in first-appearance order, and no cell text; written and loaded, synth's
        table reads back bit for bit."""
        for difficulty in ("separable", "noisy"):
            ds = synth(300, seed=4, difficulty=difficulty)
            path = tmp_path / f"{difficulty}.csv"
            write_csv(ds, path)
            back = load_csv(path, "synthetic")[0].records
            assert oracles.table_content(back) == oracles.table_content(ds.records)
            for table in (ds.records, back):
                for name, kind in table.kinds.items():
                    column = table.columns[name]
                    assert column.dtype == (np.int64 if kind == NOMINAL else np.float64), name
                    if kind == NOMINAL:
                        assert table.levels[name] == list(dict.fromkeys(oracles.nominal_cells(table, name)))
                assert table.levels.keys() == {name for name, kind in table.kinds.items() if kind == NOMINAL}

    def test_take_indexes_the_arrays_and_shares_the_levels(self):
        table = synth(40, seed=2).records
        part = table.take([5, 0, 5])
        assert part.levels is table.levels
        assert all(part.columns[name].tolist() == column[[5, 0, 5]].tolist() for name, column in table.columns.items())

    def test_hand_built_nominal_cells_are_keyed_by_str(self):
        """An int cell and its text are one level, as encoding keys them; a missing cell stays missing."""
        table = FlowTable.from_cells({"port": [80, "80", 7, "7"]}, {"port": NOMINAL}, [0, 1, 0, 1])
        assert table.levels["port"] == ["80", "7"] and table.columns["port"].tolist() == [0, 0, 1, 1]
        with pytest.raises(DataError, match="^record 1, column 'port': missing cell$"):
            FlowTable.from_cells({"port": [80, None]}, {"port": NOMINAL}, [0, 1])

    def test_iterating_gives_the_source_rows_as_ints(self):
        table = synth(20, seed=1).records.take([19, 3, 7])
        assert list(table) == [19, 3, 7]
        assert all(type(row) is int for row in table)

    def test_columns_must_agree_in_length(self):
        with pytest.raises(ContractError):
            FlowTable.from_cells({"a": ["1", "2"]}, {"a": "numeric"}, [0])
        with pytest.raises(ContractError):
            FlowTable.from_cells({"a": ["1"]}, {"b": "numeric"}, [0])

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0, 1, 0.7, 1.9], "record 12, label '0.7' is not 0 or 1"),  # once read as 0 and 1
            ([0, 1, 1, 2, -1], "record 13, label '2' is not 0 or 1"),  # once kept, then dropped by split
            ([1, 0, math.nan], "record 12, label: non-finite value nan"),
        ],
        ids=["fractions", "out-of-range", "nan"],
    )
    def test_raw_labels_must_be_0_or_1(self, labels, message):
        """Built from raw cells, the table refuses the first row whose label is
        not exactly 0 or 1, in load_csv's words: a label is a numeric cell."""
        n = len(labels)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            FlowTable.from_cells({"a": ["1"] * n}, {"a": "numeric"}, labels, np.arange(10, 10 + n))

    def test_raw_labels_exactly_0_or_1_are_kept(self):
        table = FlowTable.from_cells({"a": ["1"] * 4}, {"a": "numeric"}, [0, 1.0, True, np.int8(0)])
        assert table.labels.tolist() == [0, 1, 1, 0] and table.labels.dtype == np.int64

    def test_a_rows_label_is_checked_before_its_cells(self):
        """As in load_csv: the lowest bad row wins, and within it the label."""
        cells = {"a": ["1", "fast", "fast"]}
        with pytest.raises(DataError, match="^record 1, label '2' is not 0 or 1$"):
            FlowTable.from_cells(cells, {"a": "numeric"}, [0, 2, 0])
        with pytest.raises(DataError, match="^record 1, column 'a': cannot parse numeric cell 'fast'$"):
            FlowTable.from_cells(cells, {"a": "numeric"}, [0, 0, 2])


class TestSplit:
    def test_parts_keep_class_zero_rows_first(self):
        """Each part holds its class 0 rows, then its class 1 rows, so
        checkpoints trained on a part keep their bytes."""
        for part in split(synth(90, seed=7), (0.6, 0.2, 0.2), seed=0):
            labels = part.records.labels.tolist()
            assert labels == sorted(labels) and 0 < sum(labels) < len(labels)

    def test_stratified_counts(self):
        """80 balanced records at (0.6, 0.2, 0.2) give 48/16/16, each part
        itself balanced."""
        ds = synth(80, seed=7)
        parts = split(ds, (0.6, 0.2, 0.2), seed=0)
        sizes = [len(p) for p in parts]
        assert sizes == [48, 16, 16]
        for part in parts:
            labels = _labels(part)
            assert int(labels.sum()) == len(labels) // 2

    def test_partition_is_exact(self):
        ds = synth(75, seed=7)
        parts = split(ds, (0.6, 0.2, 0.2), seed=0)
        seen = [row for p in parts for row in p.records.rows.tolist()]
        assert len(seen) == 75
        assert set(seen) == set(ds.records.rows.tolist())

    def test_deterministic(self):
        ds = synth(60, seed=7)
        a = split(ds, (0.6, 0.2, 0.2), seed=1)
        b = split(ds, (0.6, 0.2, 0.2), seed=1)
        for pa, pb in zip(a, b):
            assert pa.records.rows.tolist() == pb.records.rows.tolist()

    def test_seed_changes_membership(self):
        ds = synth(60, seed=7)
        a = split(ds, (0.6, 0.2, 0.2), seed=1)
        b = split(ds, (0.6, 0.2, 0.2), seed=2)
        assert a[0].records.rows.tolist() != b[0].records.rows.tolist()

    def test_bad_fractions_rejected(self):
        ds = synth(60, seed=7)
        with pytest.raises(ConfigError):
            split(ds, (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ConfigError):
            split(ds, (0.8, -0.2, 0.4), seed=0)
        with pytest.raises(ConfigError):  # nan passes `f <= 0` and makes the sum nan
            split(ds, (float("nan"), 0.5, 0.5), seed=0)

    def test_empty_class_warns(self):
        ds = synth(60, seed=7)
        ds.records = ds.records.take(np.flatnonzero(ds.records.labels == 0)[:12])
        with pytest.warns(UserWarning, match="class 1"):
            split(ds, (0.6, 0.2, 0.2), seed=0)


def _fitted(n=30, seed=0):
    ds = synth(n, seed=seed)
    schema = fit_schema(ds.records, ds.profile)
    return ds, schema


class TestCheckpoint:
    def test_transformer_round_trip(self, tmp_path):
        _, schema = _fitted()
        params = new_transformer(schema.width, seed=3, dim=8, heads=2, blocks=2)
        config = {"model": "transformer", "lr": 1e-3}
        metrics = {"val_acc": 0.97}
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, schema, config, path, metrics=metrics)
        ck = load_checkpoint(path)
        assert isinstance(ck, Checkpoint)
        assert ck.params.kind == "transformer"
        assert ck.config == config
        assert ck.metrics == metrics
        assert ck.schema == schema
        for (name_a, ta), (_, tb) in zip(
            params.named_parameters(), ck.params.named_parameters()
        ):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=name_a)

    def test_fnn_round_trip(self, tmp_path):
        _, schema = _fitted()
        schema.features[3].hi = schema.features[3].lo  # a feature constant in training loads; only lo > hi is refused
        params = new_fnn(schema.width, hidden=(16, 16), seed=1)
        path = tmp_path / "fnn.ckpt"
        save_checkpoint(params, schema, {"model": "fnn"}, path)
        ck = load_checkpoint(path)
        assert ck.params.kind == "fnn"
        assert ck.metrics is None
        assert ck.schema == schema
        for (_, ta), (_, tb) in zip(params.named_parameters(), ck.params.named_parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)

    @pytest.mark.parametrize("build", [
        lambda width: new_transformer(width, seed=3, dim=4, heads=2, blocks=2),
        lambda width: new_fnn(width, hidden=(6, 5), seed=3),
    ], ids=["transformer", "fnn"])
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch, build):
        """A load builds the model from the file's arrays: it initialises nothing to overwrite."""
        _, schema = _fitted()
        params = build(schema.width)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, schema, {}, path)

        def refuse(*args):
            raise AssertionError("load_checkpoint drew initial weights")

        monkeypatch.setattr(model, "_glorot", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded = load_checkpoint(path).params
        x = np.random.Generator(np.random.PCG64(0)).uniform(size=(3, schema.width))
        np.testing.assert_array_equal(loaded.logits(x).data, params.logits(x).data)

    def test_save_is_byte_stable(self, tmp_path):
        _, schema = _fitted()
        params = new_fnn(schema.width, hidden=(8, 8), seed=1)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, schema, {"model": "fnn"}, a)
        save_checkpoint(params, schema, {"model": "fnn"}, b)
        assert a.read_bytes() == b.read_bytes()

    def test_flipped_byte_detected(self, tmp_path):
        _, schema = _fitted()
        params = new_fnn(schema.width, hidden=(8, 8), seed=1)
        path = tmp_path / "c.ckpt"
        save_checkpoint(params, schema, {"model": "fnn"}, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        _, schema = _fitted()
        params = new_fnn(schema.width, hidden=(8, 8), seed=1)
        path = tmp_path / "d.ckpt"
        save_checkpoint(params, schema, {"model": "fnn"}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_unsupported_version_detected(self, tmp_path):
        """A well-formed file from a future format version is refused."""
        _, schema = _fitted()
        params = new_fnn(schema.width, hidden=(8, 8), seed=1)
        path = tmp_path / "e.ckpt"
        save_checkpoint(params, schema, {"model": "fnn"}, path)
        body = bytearray(path.read_bytes()[:-32])
        body[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
        with pytest.raises(VersionError, match="99"):
            load_checkpoint(path)

    def test_version_1_file_is_refused(self):
        """A file written by format version 1's save_checkpoint (an FNN with hidden
        (8, 8) over the synthetic profile) names both versions."""
        with pytest.raises(VersionError, match=re.escape("format version 1 is not supported (expected 3)")):
            load_checkpoint(FIXTURES / "fnn_v1.ckpt")

    def test_version_2_file_is_refused(self):
        """A file written by format version 2's save_checkpoint (an FNN with hidden
        (8, 8) over the synthetic profile) names both versions."""
        with pytest.raises(VersionError, match=re.escape("format version 2 is not supported (expected 3)")):
            load_checkpoint(FIXTURES / "fnn_v2.ckpt")

    @pytest.mark.parametrize("build", [
        lambda width: new_transformer(width, seed=3, dim=4, heads=2, blocks=2),
        lambda width: new_fnn(width, hidden=(6, 5), seed=3),
    ], ids=["transformer", "fnn"])
    def test_body_is_the_parameters_in_layout_order(self, tmp_path, build):
        """The body after the header is every parameter's values as little-endian
        float64, in shapes(hyper) order, and nothing else."""
        _, schema = _fitted()
        params = build(schema.width)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, schema, {}, path)
        blob = path.read_bytes()[:-32]
        assert blob[:8] == b"FIDC" + struct.pack("<I", 3)
        (header_len,) = struct.unpack("<Q", blob[8:16])
        assert sorted(json.loads(blob[16 : 16 + header_len])) == ["hyper", "metrics", "schema", "train_config"]
        arrays = dict(params.named_parameters())
        layout = model.KINDS[params.kind].shapes(params.hyper())
        assert blob[16 + header_len :] == b"".join(arrays[name].data.astype("<f8").tobytes() for name, _ in layout)

    @pytest.mark.parametrize("cut", [-8, 8, -3], ids=["one-value-short", "one-value-extra", "cut-inside-a-value"])
    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_body_of_the_wrong_length_names_both_counts(self, tmp_path, kind, cut):
        """A checkpoint's own body, one value short, one value long or cut
        inside its last value, is refused with its byte count and the
        model's parameter count."""
        _, schema = _fitted()
        if kind == "fnn":
            params = new_fnn(schema.width, hidden=(8, 8), seed=1)
        else:
            params = new_transformer(schema.width, seed=1, dim=8, heads=2, blocks=1)
        count = sum(t.data.size for _, t in params.named_parameters())
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, schema, {}, path)

        def resize(header, body):
            return json.dumps(header, sort_keys=True).encode(), body[:cut] if cut < 0 else body + bytes(cut)

        rewrite_header(path, path, resize)
        with pytest.raises(IntegrityError, match=re.escape(
                f"the body holds {8 * count + cut:,} bytes, but the model's {count:,} parameters take {8 * count:,}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, field", HEADER_DEFECTS)
    def test_malformed_header_detected(self, tmp_path, edit, field):
        """A validly signed file whose header is malformed names the bad field."""
        _, schema = _fitted()
        path = tmp_path / "f.ckpt"
        save_checkpoint(new_fnn(schema.width, hidden=(8, 8), seed=1), schema, {"model": "fnn"}, path)
        rewrite_header(path, path, edit)
        with pytest.raises(IntegrityError, match=re.escape(field)):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "build, hyper",
        [(new_transformer, lambda h: {**h, "mlp_dim": 20000}), (new_transformer, lambda h: {**h, "blocks": 1000}),
         (new_fnn, lambda h: {"kind": "transformer", "dim": 2, "heads": 2, "mlp_dim": 1, "blocks": 470000,
                              "tokens": 13, "mask": True})],
        ids=["mlp-dim", "blocks", "fnn-body-under-a-long-encoder"],
    )
    def test_declared_sizes_are_checked_before_anything_is_built(self, tmp_path, build, hyper):
        """A default checkpoint re-signed with a hyper dict that declares more
        parameters than its body holds is refused before any value is copied:
        the load's tracemalloc peak stays under twice the file's size. An
        encoder's mlp_dim 20000 took 21.4 MB when the model was built first.
        The last case, re-signed onto the default FNN's 43 KB body, declares
        16,450,132 parameters, within the budget, over about 8 million layout
        entries; the layout is walked no further than the body reaches."""
        _, schema = _fitted()
        params = build(schema.width, seed=0)
        count = sum(t.data.size for _, t in params.named_parameters())
        path, bad = tmp_path / "m.ckpt", tmp_path / "wide.ckpt"
        save_checkpoint(params, schema, {}, path)

        def widen(header, body):
            return json.dumps({**header, "hyper": hyper(header["hyper"])}, sort_keys=True).encode(), body

        rewrite_header(path, bad, widen)
        error = re.escape(f"the body holds {8 * count:,} bytes, but the model's ") + "[0-9,]+ or more parameters"
        tracemalloc.start()
        try:
            with pytest.raises(IntegrityError, match=error):
                load_checkpoint(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * bad.stat().st_size

    @pytest.mark.parametrize(
        "kind, field, value",
        [("fnn", "features", None), ("transformer", "tokens", None), ("fnn", "features", True),
         ("fnn", "features", 8.0), ("transformer", "tokens", {})],
        ids=["fnn-null", "transformer-null", "bool", "float", "object"],
    )
    def test_declared_size_that_is_not_an_int_is_refused(self, tmp_path, kind, field, value):
        """A re-signed header whose hyper size is not an int raises IntegrityError
        naming the size and its value, not the TypeError of comparing or
        multiplying it: the hyper dict is checked before the body's length."""
        _, schema = _fitted()
        if kind == "fnn":
            params = new_fnn(schema.width, hidden=(8, 8), seed=1)
        else:
            params = new_transformer(schema.width, seed=1, dim=8, heads=2, blocks=1)
        path, bad = tmp_path / "m.ckpt", tmp_path / "bad.ckpt"
        save_checkpoint(params, schema, {}, path)

        def resize(header, body):
            return json.dumps({**header, "hyper": {**header["hyper"], field: value}}, sort_keys=True).encode(), body

        rewrite_header(path, bad, resize)
        with pytest.raises(IntegrityError, match=re.escape(f"header field hyper does not describe a model "
                                                           f"(sizes must be positive integers, got {field}={value!r})")):
            load_checkpoint(bad)

    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_schema_width_other_than_the_model_input_is_refused(self, tmp_path, kind):
        """A model over 4 inputs saved with a 13-feature schema is refused at
        load, naming both widths, rather than when its first batch is scored."""
        _, schema = _fitted()
        assert schema.width != 4
        if kind == "fnn":
            params = new_fnn(4, hidden=(8, 8), seed=1)
        else:
            params = new_transformer(4, seed=1, dim=8, heads=2, blocks=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, schema, {}, path)
        with pytest.raises(IntegrityError, match=f"schema encodes {schema.width} features but the model takes 4 inputs"):
            load_checkpoint(path)

    def test_garbage_file_detected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00" * 256)
        with pytest.raises(IntegrityError):
            load_checkpoint(path)
