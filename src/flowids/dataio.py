"""Dataset loading, synthetic flow generation, splitting, checkpoints.

Real flow CSVs are supplied by the user; nothing here downloads anything.
The synthetic generator exists so the whole pipeline can be exercised and
verified at desk scale with known ground truth. Checkpoints are a binary
container: a JSON header whose ``hyper`` field states the model's shape, then
every parameter's values as one block of little-endian float64 in the order
that the kind's ``shapes`` lays them out, with a whole-file SHA-256 at the end.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import statistics
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    IntegrityError,
    SchemaError,
    VersionError,
)
from .sentencing import (
    NOMINAL,
    NUMERIC,
    PROFILES,
    Schema,
    parse_column,
    profile_columns,
)


class FlowTable:
    """Flow rows by column: the table that load_csv, synth and split build.

    ``cells[name]`` is a column's cells as read, ``parsed[name]`` the float64
    values of each non-nominal column as sentencing.parse_column gives them,
    ``labels`` the int64 labels and ``rows`` the source row of each row, for
    error messages. ``kinds[name]`` is the kind each column was parsed as.

    Built without ``parsed`` (from raw cells, as tests and demos build it),
    every column goes through _parse_columns here, and the first row with a
    label that is not exactly 0 or 1, or with a bad cell, raises DataError,
    naming the row and its label or its first bad column.
    load_csv and synth pass the values they already hold. The table is read
    by column, not changed: take gives a new table, and iterating it gives
    each row's source row number (``rows``) as a plain int."""

    __slots__ = ("cells", "kinds", "parsed", "labels", "rows")

    def __init__(self, cells, kinds, labels, rows=None, parsed=None):
        self.cells, self.kinds = dict(cells), dict(kinds)
        given = np.asarray(labels)
        n = len(given)
        self.rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
        if self.kinds.keys() != self.cells.keys() or len(self.rows) != n or any(
            len(column) != n for column in self.cells.values()
        ):
            raise ContractError("a FlowTable needs one kind per column and n cells, labels and rows")
        if parsed is None:  # a row's label is checked first, as load_csv checks it
            reasons = {i: f"label {str(given[i])!r} is not 0 or 1"
                       for i in np.flatnonzero((given != 0) & (given != 1)).tolist()}
            parsed = _parse_columns(self.cells, self.kinds, reasons)
            if reasons:
                i = min(reasons)
                raise DataError(f"record {self.rows[i]}, {reasons[i]}")
        self.labels = given.astype(np.int64)
        self.parsed = parsed

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):  # perfbench's tracer iterates each table that fit_schema and encode_batch read
        return iter(self.rows.tolist())

    def take(self, index) -> "FlowTable":
        """The rows at ``index``, in that order, as a new table."""
        index = np.asarray(index, dtype=np.intp)
        at = index.tolist()
        return FlowTable(
            {name: [column[i] for i in at] for name, column in self.cells.items()},
            self.kinds,
            self.labels[index],
            self.rows[index],
            {name: values[index] for name, values in self.parsed.items()},
        )

    def column(self, name: str, kind: str):
        """A column as encoding reads it: its cells if ``kind`` is nominal, else its float64 values.

        A column is read only as the kind it was parsed as; asked for another, it raises SchemaError."""
        if name not in self.cells:
            if not len(self):
                return [] if kind == NOMINAL else np.empty(0)
            raise SchemaError(f"record {self.rows[0]} is missing column {name!r}")
        if self.kinds[name] != kind:
            raise SchemaError(f"column {name!r} was parsed as {self.kinds[name]!r}, not as {kind!r}")
        return self.cells[name] if kind == NOMINAL else self.parsed[name]


@dataclass
class Dataset:
    records: FlowTable
    profile: str

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class LoadSummary:
    rows_loaded: int = 0
    rows_rejected: int = 0
    rejects: list[tuple[int, str]] = field(default_factory=list)

    def note(self, row: int, reason: str) -> None:
        self.rows_rejected += 1
        if len(self.rejects) < 20:
            self.rejects.append((row, reason))

    def describe(self) -> str:
        lines = [f"loaded {self.rows_loaded} rows, rejected {self.rows_rejected}"]
        for row, reason in self.rejects:
            lines.append(f"  row {row}: {reason}")
        if self.rows_rejected > len(self.rejects):
            lines.append(f"  ... and {self.rows_rejected - len(self.rejects)} more")
        return "\n".join(lines)


def _parse_columns(columns: dict, kinds: dict, reasons: dict[int, str]) -> dict[str, np.ndarray]:
    """sentencing.parse_column over each column, in order: the values of the non-nominal ones, by name.

    Each row's first bad cell goes into ``reasons`` (row index -> why) as ``column 'name':
    <parse_column's reason>``; a row already in ``reasons`` keeps what it has."""
    parsed = {}
    for name, cells in columns.items():
        values, bad = parse_column(cells, kinds[name])
        if kinds[name] != NOMINAL:
            parsed[name] = values
        for i, reason in bad.items():
            reasons.setdefault(i, f"column {name!r}: {reason}")
    return parsed


# Rows load_csv reads from csv.reader at a time. Each row costs one object
# the cyclic garbage collector tracks (its list), and each block one more per
# file column (its transposition). A block is dropped once its cells are in
# the columns, so 256 rows stay under CPython's young-generation threshold of
# 700 and reading starts no collection. Rows kept until the end of the file
# would be walked by the collector again and again; a 1024-row block, over
# the threshold, gained nothing on a 4,000-row file.
BLOCK_ROWS = 256


def load_csv(path, profile: str) -> tuple[Dataset, LoadSummary]:
    """Read a header-first CSV, keeping the profile's columns.

    Rows read as with csv.DictReader: blank rows are skipped and not numbered, missing cells
    are None, extra cells are ignored, a repeated header name takes its last column. A leading
    byte-order mark is dropped. Every cell is checked by sentencing.parse_column, the label as
    a numeric cell that must also be 0 or 1. A row with a bad cell is rejected with the first
    reason (label, then columns in profile order) in the summary: ``label: <reason>``,
    ``label '2' is not 0 or 1`` or ``column 'name': <reason>``, where a missing cell's reason is
    ``missing cell``, whatever its kind. Each column is parsed once: the table keeps the values
    that found the rejects.

    The file is read BLOCK_ROWS rows at a time. Each block is transposed once and each profile
    column extends its list from its own file column, so no list per row outlives its block.
    On a 200,000-row synth CSV, with 2 vCPUs, a load takes a median 0.93 s against 1.7 s for a
    whole-file row list, and its tracemalloc peak is 195 MB against 255 MB."""
    layout = profile_columns(profile)
    names = [name for name, _ in layout["features"]] + [layout["label"]]
    columns = [[] for _ in names]  # the cells of each profile column, label last
    short = False
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            for name in names:
                if name not in header:
                    raise SchemaError(f"{path}: missing required column {name!r}")
            at = {name: i for i, name in enumerate(header)}  # a repeated name: the last one wins
            width, index = len(header), [at[name] for name in names]
            while block := list(itertools.islice(reader, BLOCK_ROWS)):
                rows = [row for row in block if row]
                for row in rows:
                    if len(row) < width:
                        row.extend([None] * (width - len(row)))
                        short = True
                if rows:  # transposed once: the block's cells by file column, as far as its shortest row
                    fields = list(zip(*rows))
                    for column, i in zip(columns, index):
                        column.extend(fields[i])
        except UnicodeDecodeError:  # raised for a whole decoded block, which can span many lines
            raise DataError(f"{path}: not UTF-8 text at line {_first_non_utf8_line(path)}") from None
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit(), which stays as it is
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    label = columns[-1]
    n = len(label)
    values, bad = parse_column(label, NUMERIC)  # the label is a numeric cell that must be 0 or 1
    reasons = {i: f"label: {reason}" for i, reason in bad.items()}  # row index -> first reason
    for i in np.flatnonzero((values != 0.0) & (values != 1.0)).tolist():
        reasons.setdefault(i, f"label {label[i]!r} is not 0 or 1")
    kinds = dict(layout["features"])
    cells = dict(zip(kinds, columns))
    # a nominal cell can be bad only when its row was short
    parsed = _parse_columns({name: cells[name] for name in cells if short or kinds[name] != NOMINAL}, kinds, reasons)
    summary, rejected = LoadSummary(), sorted(reasons)
    for i in rejected:
        summary.note(i + 2, reasons[i])
    table = FlowTable(cells, kinds, (values == 1.0).astype(np.int64), np.arange(2, n + 2), parsed)
    if rejected:
        table = table.take(np.delete(np.arange(n), rejected))
    summary.rows_loaded = len(table)
    if not len(table):
        raise DataError(f"{path}: no valid rows")
    return Dataset(records=table, profile=profile), summary


def _first_non_utf8_line(path) -> int:
    """The line, from 1, of the first byte in ``path`` that is not UTF-8.

    Lines end where csv ends them, at \\r\\n, \\r or \\n."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    raise DataError(f"{path}: changed while it was read")


def write_csv(dataset: Dataset, path) -> None:
    """Write the profile's columns, cells as read, then the label."""
    layout = profile_columns(dataset.profile)
    names = [name for name, _ in layout["features"]]
    table = dataset.records
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names + [layout["label"]])
        writer.writerows(zip(*[table.cells[name] for name in names], table.labels.tolist()))


# --------------------------------------------------------------------------
# Synthetic flows
# --------------------------------------------------------------------------
#
# Column layout mirrors the unsw profile. Sload is the designated
# informative feature; in "separable" mode the two classes occupy disjoint
# Sload ranges around SEPARABLE_THRESHOLD, in "noisy" mode they are equal-
# variance Gaussians whose overlap is calibrated to a target Bayes error.
# Every other feature either shifts mildly (separable) or is identically
# distributed across classes (noisy), so the optimal rule uses Sload alone.

SEPARABLE_THRESHOLD = 5000.0
NOISY_SLOAD_BASE = 5000.0
NOISY_SLOAD_SD = 1000.0

# dist tuples: ("uniform", lo, hi) | ("normal", mu, sd) | ("randint", lo, hi)
# | ("choice", values). randint is inclusive-exclusive like rng.integers.
SYNTH_DISTS: dict[str, dict[str, dict[str, tuple]]] = {
    "separable": {
        "Sload": {"normal": ("uniform", 1000.0, 4500.0), "attack": ("uniform", 5500.0, 9000.0)},
        "Dload": {"normal": ("uniform", 500.0, 2500.0), "attack": ("uniform", 1500.0, 3500.0)},
        "Spkts": {"normal": ("randint", 2, 60), "attack": ("randint", 30, 120)},
        "Dpkts": {"normal": ("randint", 2, 40), "attack": ("randint", 20, 90)},
        "dur": {"normal": ("uniform", 0.01, 5.0), "attack": ("uniform", 2.0, 10.0)},
    },
    "noisy": {
        # Sload distributions are derived from the Bayes-error target; see synth().
        "Dload": {"normal": ("uniform", 500.0, 3500.0), "attack": ("uniform", 500.0, 3500.0)},
        "Spkts": {"normal": ("randint", 2, 120), "attack": ("randint", 2, 120)},
        "Dpkts": {"normal": ("randint", 2, 90), "attack": ("randint", 2, 90)},
        "dur": {"normal": ("uniform", 0.01, 10.0), "attack": ("uniform", 0.01, 10.0)},
    },
}

SYNTH_CATEGORICAL = {
    "proto": ["tcp", "udp", "icmp"],
    "srcip": [f"10.0.0.{k}" for k in range(1, 9)],
    "dstip": [f"192.168.1.{k}" for k in range(1, 9)],
    "dstport": ["80", "443", "53", "22", "8080", "25"],
    "sttl": ["62", "64", "126", "128", "254", "255"],
}


def _draw(rng: np.random.Generator, dist: tuple, size: int) -> np.ndarray:
    kind = dist[0]
    if kind == "uniform":
        return rng.uniform(dist[1], dist[2], size=size)
    if kind == "normal":
        return rng.normal(dist[1], dist[2], size=size)
    if kind == "randint":
        return rng.integers(dist[1], dist[2], size=size).astype(np.float64)
    raise ValueError(f"cannot draw from dist {dist!r}")


def noisy_sload_dists(bayes_error: float) -> dict[str, tuple]:
    """Class-conditional Sload Gaussians whose optimal threshold errs at the target rate.

    With equal priors and equal variances, the midpoint threshold misses at
    rate Phi(-delta / (2 sd)); choosing delta = 2 sd Phi^{-1}(1 - eps) makes
    that rate exactly eps.
    """
    if not 0.0 < bayes_error < 0.5:
        raise ConfigError(f"bayes_error must be in (0, 0.5), got {bayes_error}")
    if 1.0 - bayes_error == 1.0:  # inv_cdf(1.0) is undefined
        raise ConfigError(f"bayes_error {bayes_error!r} is too small: 1 - bayes_error rounds to 1 in float64")
    z = statistics.NormalDist().inv_cdf(1.0 - bayes_error)
    delta = 2.0 * NOISY_SLOAD_SD * z
    return {
        "normal": ("normal", NOISY_SLOAD_BASE, NOISY_SLOAD_SD),
        "attack": ("normal", NOISY_SLOAD_BASE + delta, NOISY_SLOAD_SD),
    }


def synth(n: int, seed: int, difficulty: str = "separable", bayes_error: float = 0.1) -> Dataset:
    """Deterministic synthetic flows, balanced 50/50 normal vs attack.

    separable: an exact margin around SEPARABLE_THRESHOLD on Sload, so a
    single threshold classifies perfectly. noisy: only Sload carries signal
    and its class overlap is calibrated so the best possible accuracy is
    1 - bayes_error.
    """
    if n < 10:
        raise ConfigError(f"synthetic datasets need n >= 10, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if difficulty not in SYNTH_DISTS:
        raise ConfigError(f"difficulty must be one of {sorted(SYNTH_DISTS)}, got {difficulty!r}")
    noisy_sload = noisy_sload_dists(bayes_error)  # checks bayes_error whatever the difficulty
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[: n // 2] = 1
    labels = rng.permutation(labels)
    attack = labels == 1

    dists = dict(SYNTH_DISTS[difficulty])
    if difficulty == "noisy":
        dists["Sload"] = noisy_sload

    numeric: dict[str, np.ndarray] = {}
    for name, by_class in dists.items():
        column = np.empty(n, dtype=np.float64)
        # one draw call per class keeps the stream layout stable
        column[~attack] = _draw(rng, by_class["normal"], int((~attack).sum()))
        column[attack] = _draw(rng, by_class["attack"], int(attack.sum()))
        numeric[name] = column

    categorical = {
        name: rng.choice(pool, size=n) for name, pool in SYNTH_CATEGORICAL.items()
    }
    srcport = rng.integers(1024, 65536, size=n)
    start = 1.4e9 + np.arange(n, dtype=np.float64)  # monotone counter
    end = start + numeric["dur"]

    # each column's cells as write_csv writes them, and the float64 values
    # that parsing those cells gives back: repr() of a float and str() of an
    # integer both parse to the value they were made from
    floats = {name: numeric[name] for name in ("Sload", "Dload", "dur")} | {"Stime": start, "Ltime": end}
    ints = {name: numeric[name] for name in ("Spkts", "Dpkts")} | {"srcport": srcport.astype(np.float64)}
    cells, parsed = {}, {}
    for name, kind in PROFILES["synthetic"]["features"]:
        if name in floats:
            parsed[name] = floats[name]
            cells[name] = [repr(v) for v in floats[name].tolist()]
        elif name in ints:
            parsed[name] = ints[name]
            cells[name] = [str(int(v)) for v in ints[name].tolist()]
        else:
            cells[name] = categorical[name].tolist()
            if kind != NOMINAL:  # dstport and sttl draw their cells from a pool of numerals
                parsed[name] = np.array(list(map(float, cells[name])), dtype=np.float64)
    table = FlowTable(cells, dict(PROFILES["synthetic"]["features"]), labels, parsed=parsed)
    return Dataset(records=table, profile="synthetic")


def split(dataset: Dataset, fractions, seed: int) -> tuple[Dataset, ...]:
    """Stratified, seeded partition; disjoint and exhaustive by construction."""
    fractions = tuple(float(f) for f in fractions)
    if any(not f > 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must be positive and sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[] for _ in fractions]
    bounds = np.cumsum(fractions)
    labels = dataset.records.labels
    for cls in (0, 1):  # each part holds its class 0 rows, then its class 1 rows
        members = np.flatnonzero(labels == cls)
        order = rng.permutation(len(members))
        edges = [0] + [int(np.floor(b * len(members) + 1e-9)) for b in bounds]
        edges[-1] = len(members)
        for i in range(len(fractions)):
            parts[i].append(members[order[edges[i] : edges[i + 1]]])
    names = ("train", "validation", "test") if len(fractions) == 3 else tuple(
        f"part{i}" for i in range(len(fractions))
    )
    out = []
    for i, part in enumerate(parts):
        table = dataset.records.take(np.concatenate(part))
        for cls in (0, 1):
            if not (table.labels == cls).any():
                warnings.warn(f"split {names[i]!r} received zero records of class {cls}")
        out.append(Dataset(records=table, profile=dataset.profile))
    return tuple(out)


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"FIDC"
CHECKPOINT_VERSION = 2


@dataclass
class Checkpoint:
    params: M.ModelParams | M.FnnParams
    schema: Schema
    config: dict
    metrics: dict | None

    @property
    def kind(self) -> str:
        return self.params.kind


_HEADER_KEYS = ("hyper", "schema", "train_config", "metrics")


def save_checkpoint(params, schema: Schema, config: dict, path, metrics: dict | None = None) -> None:
    """Serialize params + schema + config; byte-stable given equal inputs. The body, every
    parameter's values in shapes(hyper) order, is written as one block."""
    header = {"hyper": params.hyper(), "schema": schema.to_dict(), "train_config": config, "metrics": metrics}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    values = np.concatenate([t.data.ravel() for _, t in params.named_parameters()]).astype("<f8", copy=False)
    blob = b"".join([CHECKPOINT_MAGIC, struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)), header_bytes,
                     values.tobytes()])
    with open(path, "wb") as handle:
        handle.write(blob)
        handle.write(hashlib.sha256(blob).digest())


def _why(exc: Exception) -> str:
    """An error's own text for a header message: a KeyError names the missing field."""
    return f"no field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


def load_checkpoint(path) -> Checkpoint:
    """Inverse of save_checkpoint; verifies the checksum before trusting anything.

    The header is checked first, and the layout that shapes(hyper) gives is walked
    no further than the body's values reach, so a body of the wrong length is
    refused before any value is copied and a load allocates no more than the
    file holds. A schema whose width is not the model's input width is refused,
    so no caller encodes data for a model that cannot read it. The model is
    built from the body's values, with no initialisation to overwrite."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 4 + 4 + 8 + 32:
        raise IntegrityError(f"{path}: file too short to be a checkpoint")
    body, digest = memoryview(blob)[:-32], blob[-32:]  # a view: the body is not copied
    if hashlib.sha256(body).digest() != digest:
        raise IntegrityError(f"{path}: checksum mismatch (corrupt or truncated file)")
    if body[:4] != CHECKPOINT_MAGIC:
        raise IntegrityError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack("<IQ", body[4:16])
    if version != CHECKPOINT_VERSION:
        raise VersionError(
            f"{path}: format version {version} is not supported (expected {CHECKPOINT_VERSION})"
        )
    offset = 16 + header_len
    if offset > len(body):
        raise IntegrityError(f"{path}: truncated header")
    try:
        header = json.loads(str(body[16:offset], "utf-8"))
    except ValueError as exc:
        raise IntegrityError(f"{path}: header is not valid JSON ({exc})")
    if not isinstance(header, dict):
        raise IntegrityError(f"{path}: header is not a JSON object")
    for key in _HEADER_KEYS:
        if key not in header:
            raise IntegrityError(f"{path}: header field {key!r} is missing")
    hyper = header["hyper"]
    kind = hyper.get("kind") if isinstance(hyper, dict) else None
    if not isinstance(kind, str) or kind not in M.KINDS:
        raise IntegrityError(
            f"{path}: header field hyper.kind is {kind!r}, expected one of {sorted(M.KINDS)}"
        )
    config = header["train_config"]
    if not isinstance(config, dict):
        raise IntegrityError(f"{path}: header field train_config is not a JSON object")
    try:
        schema = Schema.from_dict(header["schema"])
    except ValueError as exc:  # its text begins with the bad field's path
        raise IntegrityError(f"{path}: header field {exc}")
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"{path}: header field schema is malformed ({_why(exc)})")
    size = len(body) - offset
    try:
        entries = iter(M.KINDS[kind].shapes(hyper))
        first = next(entries)
        need = 0  # the declared values, counted no further than the body reaches
        for _, shape in itertools.chain([first], entries):
            need += math.prod(shape)
            if 8 * need > size:
                break
        more = next(entries, None) is not None
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise IntegrityError(f"{path}: header field hyper does not describe a model ({_why(exc)})")
    width = first[1][0]  # every kind's first parameter, the embedding or w1, is (input width, ...)
    if width != schema.width:
        raise IntegrityError(
            f"{path}: the schema encodes {schema.width} features but the model takes {width} inputs"
        )
    if more or 8 * need != size:
        or_more = " or more" if more else ""
        raise IntegrityError(f"{path}: the body holds {size:,} bytes, "
                             f"but the model's {need:,}{or_more} parameters take {8 * need:,}{or_more}")
    layout = list(M.KINDS[kind].shapes(hyper))
    values = np.frombuffer(body, dtype="<f8", offset=offset).astype(np.float64)  # the one copy of the body
    parts = np.split(values, list(itertools.accumulate(math.prod(shape) for _, shape in layout[:-1])))
    arrays = {name: part.reshape(shape) for (name, shape), part in zip(layout, parts)}
    return Checkpoint(M.KINDS[kind].from_arrays(hyper, arrays), schema, config, header["metrics"])
