"""Dataset loading, synthetic flow generation, splitting, checkpoints.

Real flow CSVs are supplied by the user; nothing here downloads anything.
The synthetic generator exists so the whole pipeline can be exercised and
verified at desk scale with known ground truth. Checkpoints are a binary
container: a JSON header (the model's shape in ``hyper``, each column's fitted
state, the training recipe and metrics), then every parameter's little-endian
float64 values as one block in ``shapes`` order, then a whole-file SHA-256.
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
    MISSING_CELL,
    NOMINAL,
    NUMERIC,
    PROFILES,
    Schema,
    parse_column,
    profile_columns,
)


class FlowTable:
    """Flow rows by column, each column one array: the table that load_csv, synth and split build.

    ``columns[name]`` holds a nominal column's int64 code per row into ``levels[name]``, the
    column's distinct cells in first-appearance order, and any other column's float64 values as
    sentencing.parse_column gives them. ``kinds[name]`` is the kind each column was read as,
    ``labels`` the int64 labels and ``rows`` the source row of each row, for error messages.
    The table is read by column, not changed: take gives a new table, and iterating it gives each
    row's source row number (``rows``) as a plain int. from_cells builds one from raw cells."""

    __slots__ = ("columns", "levels", "kinds", "labels", "rows")

    def __init__(self, columns, levels, kinds, labels, rows):
        self.columns, self.levels, self.kinds, self.labels, self.rows = columns, levels, kinds, labels, rows

    @classmethod
    def from_cells(cls, cells, kinds, labels, rows=None) -> "FlowTable":
        """A table of raw cells by column, as tests and demos build it, checked as load_csv checks a file.

        A nominal cell is keyed by str(cell); a missing one (None) stays missing. The first row with
        a bad label or cell raises DataError, naming the row and its first reason in load_csv's words."""
        cells, kinds, labels = dict(cells), dict(kinds), np.asarray(labels).tolist()
        rows = np.arange(len(labels)) if rows is None else np.asarray(rows, dtype=np.int64)
        if kinds.keys() != cells.keys() or any(len(column) != len(labels) for column in [rows, *cells.values()]):
            raise ContractError("a FlowTable needs one kind per column and n cells, labels and rows")
        indexes = {name: {} for name in cells if kinds[name] == NOMINAL}
        for name, column in cells.items():
            if kinds[name] == NOMINAL:
                cells[name] = [None if cell is None else str(cell) for cell in column]
        labels, columns, reasons = _checked(labels, cells, kinds, indexes)
        if reasons:
            i = min(reasons)
            raise DataError(f"record {rows[i]}, {reasons[i]}")
        return cls(columns, {name: list(index) for name, index in indexes.items()}, kinds, labels, rows)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):  # perfbench's tracer iterates each table that fit_schema and encode_batch read
        return iter(self.rows.tolist())

    def take(self, index) -> "FlowTable":
        """The rows at ``index``, in that order, as a new table that shares this one's levels."""
        index = np.asarray(index, dtype=np.intp)
        columns = {name: column[index] for name, column in self.columns.items()}
        return FlowTable(columns, self.levels, self.kinds, self.labels[index], self.rows[index])

    def column(self, name: str, kind: str) -> np.ndarray:
        """A column as encoding reads it: its codes into levels[name] if ``kind`` is nominal, else its values.

        A column is read only as the kind it was read as; asked for another, it raises SchemaError."""
        if name not in self.columns:
            if not len(self):
                return np.empty(0, dtype=np.int64 if kind == NOMINAL else np.float64)
            raise SchemaError(f"record {self.rows[0]} is missing column {name!r}")
        if self.kinds[name] != kind:
            raise SchemaError(f"column {name!r} was parsed as {self.kinds[name]!r}, not as {kind!r}")
        return self.columns[name]


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


def _coded(cells, index: dict) -> np.ndarray:
    """A nominal column's int64 code per cell by ``index``, its distinct cells in first-appearance order ->
    their codes, which each cell not yet in it joins with the next code."""
    for cell in dict.fromkeys(cells):
        index.setdefault(cell, len(index))
    return np.fromiter(map(index.__getitem__, cells), np.int64, count=len(cells))


def _checked(label, cells: dict, kinds: dict, indexes: dict[str, dict]) -> tuple[np.ndarray, dict, dict[int, str]]:
    """The one check of raw cells, load_csv's for each block and FlowTable.from_cells's: the int64 labels,
    each column as one array, and each bad row's first reason, by row index.

    The label is a numeric cell that must be 0 or 1: ``label: <parse_column's reason>`` or ``label '2'
    is not 0 or 1``. Then each column, in order: a nominal one is coded by ``indexes[name]``, which its
    new cells join (see _coded), and only a missing cell (None) is bad there; any other goes through
    sentencing.parse_column. Its reasons read ``column 'name': <reason>``, and a row already bad keeps
    its first reason."""
    values, bad = parse_column(label, NUMERIC)
    reasons = {i: f"label: {reason}" for i, reason in bad.items()}
    for i in np.flatnonzero((values != 0.0) & (values != 1.0)).tolist():
        reasons.setdefault(i, f"label {str(label[i])!r} is not 0 or 1")
    columns = {}
    for name, column in cells.items():
        if kinds[name] == NOMINAL:
            index = indexes[name]
            columns[name] = _coded(column, index)
            missing = np.flatnonzero(columns[name] == index[None]).tolist() if None in index else []
            bad = dict.fromkeys(missing, MISSING_CELL)
        else:
            columns[name], bad = parse_column(column, kinds[name])
        for i, reason in bad.items():
            reasons.setdefault(i, f"column {name!r}: {reason}")
    return (values == 1.0).astype(np.int64), columns, reasons


# Rows load_csv reads from csv.reader, and write_csv formats and writes, at a
# time: the one block size of both. Each row read costs one object the cyclic
# garbage collector tracks (its list), and each block one more per file column
# (its transposition). A block is dropped once its cells are checked into
# arrays, which the collector does not track, so 256 rows stay under
# CPython's young-generation threshold of 700 and reading starts no
# collection. Rows kept until the end of the file would be walked by the
# collector again and again; a 1024-row block, over the threshold, gained
# nothing on a 4,000-row file. A written block's text, about 0.35 MB
# (tracemalloc), is all write_csv holds besides the table.
BLOCK_ROWS = 256


def load_csv(path, profile: str) -> tuple[Dataset, LoadSummary]:
    """Read a header-first CSV, keeping the profile's columns.

    Rows read as with csv.DictReader: blank rows are skipped and not numbered, missing cells
    are None, extra cells are ignored, a repeated header name takes its last column. A leading
    byte-order mark is dropped. The cells are checked as FlowTable.from_cells checks them: the
    label as a numeric cell that must also be 0 or 1, then each column by sentencing.parse_column,
    or coded if nominal. A row with a bad cell is rejected with the first reason (label, then
    columns in profile order) in the summary: ``label: <reason>``, ``label '2' is not 0 or 1`` or
    ``column 'name': <reason>``, where a missing cell's reason is ``missing cell``, whatever its
    kind. Each column is read once: the table keeps the values and codes that found the rejects.

    The file is read BLOCK_ROWS rows at a time. Each block is transposed once and checked as it
    is read, so no cell's text outlives its block: each nominal column's codes are carried from
    block to block, staying in first-appearance order over the whole file, and each block's
    rejects are numbered by the rows read before it. Each column's block arrays are joined once,
    at the end. On a 200,000-row noisy synth CSV, with 2 vCPUs, the load peaks at 25.5 MB
    (tracemalloc) for a 24 MB table, where checking the cells once the whole file was read
    peaked at 197 MB."""
    layout = profile_columns(profile)
    kinds, label = dict(layout["features"]), layout["label"]
    indexes = {name: {} for name, kind in kinds.items() if kind == NOMINAL}  # carried from block to block
    blocks = {name: [] for name in [*kinds, label]}  # each block's array of each profile column, label last
    reasons, n = {}, 0  # each bad row's first reason, by its index among the n rows read
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            for name in blocks:
                if name not in header:
                    raise SchemaError(f"{path}: missing required column {name!r}")
            at = {name: i for i, name in enumerate(header)}  # a repeated name: the last one wins
            width, index = len(header), [at[name] for name in blocks]
            while block := list(itertools.islice(reader, BLOCK_ROWS)):
                rows = [row for row in block if row]
                for row in rows:
                    if len(row) < width:
                        row.extend([None] * (width - len(row)))
                if rows:  # transposed once: the block's cells by file column, as far as its shortest row
                    fields = list(zip(*rows))
                    cells = {name: fields[i] for name, i in zip(blocks, index)}
                    labels, columns, bad = _checked(cells.pop(label), cells, kinds, indexes)
                    for name, column in [*columns.items(), (label, labels)]:
                        blocks[name].append(column)
                    reasons.update((n + i, reason) for i, reason in bad.items())
                    n += len(rows)
        except UnicodeDecodeError:  # raised for a whole decoded block, which can span many lines
            raise DataError(f"{path}: not UTF-8 text at line {_first_non_utf8_line(path)}") from None
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit(), which stays as it is
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    summary = LoadSummary(rows_loaded=n - len(reasons))
    if not summary.rows_loaded:
        raise DataError(f"{path}: no valid rows")
    for i in sorted(reasons):
        summary.note(i + 2, reasons[i])
    # popped as it is joined: each column's blocks are freed once its array is whole
    labels = np.concatenate(blocks.pop(label))
    columns = {name: np.concatenate(blocks.pop(name)) for name in kinds}
    levels = {name: list(index) for name, index in indexes.items()}
    table = FlowTable(columns, levels, kinds, labels, np.arange(2, n + 2))
    if reasons:
        table = table.take(np.delete(np.arange(n), sorted(reasons)))
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
    """Write the profile's columns, then the label: a nominal column's cells, any other column's values
    as repr(v).removesuffix(".0"), text that parses back to the same float64, bit for bit, for every kind."""
    layout, table = profile_columns(dataset.profile), dataset.records
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([name for name, _ in layout["features"]] + [layout["label"]])
        for start in range(0, len(table), BLOCK_ROWS):  # one block's text at a time
            block, columns = slice(start, start + BLOCK_ROWS), []
            for name, kind in layout["features"]:
                column = table.columns[name][block].tolist()
                if kind == NOMINAL:
                    columns.append(map(table.levels[name].__getitem__, column))
                else:
                    columns.append([repr(v).removesuffix(".0") for v in column])
            writer.writerows(zip(*columns, table.labels[block].tolist()))


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


# The most rows synth makes. synth and write_csv together peak at about 290 bytes
# a row (tracemalloc: 293 at 100,000 rows, 289 at 200,000), 305 MB at this
# count, most of it synth's draws, since write_csv holds one block's text; a
# larger n is refused before anything is allocated.
MAX_SYNTH_ROWS = 2**20


def synth(n: int, seed: int, difficulty: str = "separable", bayes_error: float = 0.1) -> Dataset:
    """Deterministic synthetic flows, balanced 50/50 normal vs attack.

    separable: an exact margin around SEPARABLE_THRESHOLD on Sload, so a
    single threshold classifies perfectly. noisy: only Sload carries signal
    and its class overlap is calibrated so the best possible accuracy is
    1 - bayes_error.
    """
    if n < 10:
        raise ConfigError(f"synthetic datasets need n >= 10, got {n}")
    if n > MAX_SYNTH_ROWS:
        raise ConfigError(f"synthetic datasets need n <= {MAX_SYNTH_ROWS:,}, got {n:,}")
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

    numbers = numeric | {"Stime": start, "Ltime": end, "srcport": srcport.astype(np.float64)}
    kinds, columns, levels = dict(PROFILES["synthetic"]["features"]), {}, {}
    for name, kind in kinds.items():
        if name in numbers:
            columns[name] = numbers[name]
        elif kind == NOMINAL:
            index = {}
            columns[name] = _coded(categorical[name].tolist(), index)
            levels[name] = list(index)
        else:  # dstport and sttl draw from a pool of numerals
            columns[name] = categorical[name].astype(np.float64)
    table = FlowTable(columns, levels, kinds, labels, np.arange(n))
    return Dataset(records=table, profile="synthetic")


def checked_fractions(fractions) -> tuple[float, ...]:
    """Split fractions as floats, each > 0 and summing to 1 within 1e-9; else ConfigError naming split_fractions.

    The one statement of the rule: split applies it, and TrainConfig.resolved before any data is read."""
    fractions = tuple(fractions)
    refusal = ConfigError(f"split_fractions must be positive and sum to 1, got {fractions}")
    try:
        floats = tuple(float(f) for f in fractions)
    except OverflowError:  # an int beyond the float range
        raise refusal from None
    if any(not f > 0 for f in floats) or abs(sum(floats) - 1.0) > 1e-9:
        raise refusal
    return floats


def split(dataset: Dataset, fractions, seed: int) -> tuple[Dataset, ...]:
    """Stratified, seeded partition; disjoint and exhaustive by construction."""
    fractions = checked_fractions(fractions)
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
CHECKPOINT_VERSION = 3


@dataclass
class Checkpoint:
    params: M.ModelParams | M.FnnParams
    schema: Schema
    config: dict
    metrics: dict | None


_HEADER_KEYS = ("hyper", "schema", "train_config", "metrics")


def save_checkpoint(params, schema: Schema, config: dict, path, metrics: dict | None = None) -> None:
    """Serialize params + schema + config (a JSON object: the CLI saves TrainConfig.recipe()); byte-stable
    given equal inputs. The body, every parameter's values in shapes(hyper) order, is written as one block."""
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

    The header is checked first, a field the format does not have refused by name, and
    the layout that shapes(hyper) gives is walked no further than the body's values reach,
    so a body of the wrong length is refused before any value is copied and a load
    allocates no more than the file holds. A schema not as wide as the model's input is refused,
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
    for key in sorted(header.keys() ^ set(_HEADER_KEYS)):  # the first field missing or unknown
        why = f"not a field of format version {version}" if key in header else "missing"
        raise IntegrityError(f"{path}: header field {key!r} is {why}")
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
