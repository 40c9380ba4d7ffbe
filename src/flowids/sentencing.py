"""Turning a raw flow record into a sentence of tokens.

Each feature of a record is treated as one word: the record's J feature
values become J scalars in [0, 1], and each scalar is lifted into a learned
C-dimensional token (scalar times a per-feature embedding row, plus a
per-feature bias and a positional row). The resulting J x C matrix is what
the encoder stack consumes.

Encoder state (nominal vocabularies, numeric min/max ranges) is fitted on
training-split records only and never mutated afterwards.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import tensor as T
from .errors import DataError, SchemaError
from .tensor import Tensor

NOMINAL = "nominal"
NUMERIC = "numeric"
TIMESTAMP = "timestamp"
BOOLEAN = "boolean"

# Column layouts keyed by dataset profile. Order is load-bearing: it fixes
# token positions and is persisted with every checkpoint.
PROFILES: dict[str, dict] = {
    "unsw": {
        "features": [
            ("srcip", NOMINAL),
            ("dstip", NOMINAL),
            ("proto", NOMINAL),
            ("Sload", NUMERIC),
            ("Dload", NUMERIC),
            ("Stime", TIMESTAMP),
            ("Ltime", TIMESTAMP),
            ("Spkts", NUMERIC),
            ("srcport", NUMERIC),
            ("dstport", NUMERIC),
            ("Dpkts", NUMERIC),
            ("dur", NUMERIC),
            ("sttl", NUMERIC),
        ],
        "label": "label",
    },
    "ton": {
        "features": [
            ("time", TIMESTAMP),
            ("date", TIMESTAMP),
            ("motion status", NUMERIC),
            ("light status", BOOLEAN),
            ("temperature", NUMERIC),
            ("pressure", NUMERIC),
            ("humidity", NUMERIC),
            ("sphone signal", BOOLEAN),
            ("latitude", NUMERIC),
            ("longitude", NUMERIC),
            ("FC1 Read Input Register", NUMERIC),
        ],
        "label": "label",
    },
}
# Synthetic data reuses the unsw column layout.
PROFILES["synthetic"] = PROFILES["unsw"]

# Why a cell is bad when its row ended before its column (csv reads it as None), whatever the kind.
MISSING_CELL = "missing cell"

_TRUE = {"1", "true", "t", "on", "yes"}
_FALSE = {"0", "false", "f", "off", "no"}


def parse_number(cell: str) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"cannot parse numeric cell {cell!r}")


def _utc_seconds(parsed: datetime) -> float:
    """Epoch seconds; a date-time without a UTC offset is read as UTC."""
    return parsed.replace(tzinfo=parsed.tzinfo or timezone.utc).timestamp()


def parse_timestamp(cell: str) -> float:
    """Convert a timestamp cell to epoch seconds (or seconds within a day); no offset means UTC."""
    try:
        return float(cell)
    except (TypeError, ValueError, OverflowError):
        pass
    text = str(cell).strip()
    try:
        return _utc_seconds(datetime.fromisoformat(text))
    except ValueError:
        pass
    for fmt in ("%H:%M:%S", "%d-%b-%y", "%d/%m/%Y"):
        try:
            parsed = datetime.strptime(text, fmt)
            if fmt == "%H:%M:%S":
                return float(parsed.hour * 3600 + parsed.minute * 60 + parsed.second)
            return _utc_seconds(parsed)
        except ValueError:
            continue
    raise DataError(f"cannot parse timestamp cell {cell!r}")


def parse_boolean(cell: str) -> float:
    text = str(cell).strip().lower()
    if text in _TRUE:
        return 1.0
    if text in _FALSE:
        return 0.0
    raise DataError(f"cannot parse boolean cell {cell!r}")


def parse_cell(cell: str, kind: str) -> float:
    """Raw cell -> the scalar that min-max fitting and encoding see."""
    if kind == NUMERIC:
        return parse_number(cell)
    if kind == TIMESTAMP:
        return parse_timestamp(cell)
    if kind == BOOLEAN:
        return parse_boolean(cell)
    raise ValueError(f"parse_cell does not handle kind {kind!r}")


def parse_column(cells, kind: str) -> tuple[np.ndarray | list, dict[int, str]]:
    """The column as encoding reads it, plus why each bad cell is bad, by index.

    A missing cell (None: its row ended before it) is bad as MISSING_CELL, whatever the kind,
    and that is the only way a nominal cell is bad: a nominal column is its cells. Any other
    column is each cell parsed for its kind, and a present cell is bad when it does not parse
    or is nan or infinite. One float() pass serves a column that parses whole and is finite;
    only otherwise is each cell parsed for its kind. The values are meaningful only where no
    cell is bad; a cell that does not parse reads 0.0, so comparing them raises no float flag."""
    if kind == NOMINAL:
        return cells, ({i: MISSING_CELL for i, cell in enumerate(cells) if cell is None} if None in cells else {})
    if kind != BOOLEAN:
        try:
            values = np.fromiter(map(float, cells), np.float64, count=len(cells))
            if np.isfinite(values).all():
                return values, {}
        except (TypeError, ValueError, OverflowError):
            pass
    values, reasons = np.zeros(len(cells), dtype=np.float64), {}
    for i, cell in enumerate(cells):
        if cell is None:
            reasons[i] = MISSING_CELL
            continue
        try:
            values[i] = parse_cell(cell, kind)
            if not math.isfinite(values[i]):
                reasons[i] = f"non-finite value {cell!r}"
        except DataError as exc:
            reasons[i] = str(exc)
    return values, reasons


@dataclass
class FeatureSpec:
    """One feature column plus its fitted encoder state."""

    name: str
    kind: str
    vocab: dict[str, int] | None = None  # nominal only; indices start at 1
    lo: float | None = None  # numeric/timestamp/boolean only
    hi: float | None = None

    def encode_column(self, column) -> np.ndarray:
        """Map a checked column into [0, 1] using the fitted state: raw cells if nominal, else parse_column's values."""
        if self.kind == NOMINAL:
            index = np.fromiter((self.vocab.get(str(cell), 0) for cell in column), np.float64, count=len(column))
            return index / len(self.vocab) if self.vocab else index  # 0 = unseen
        values = np.asarray(column, dtype=np.float64)
        if self.hi == self.lo:
            return np.full(values.shape, 0.5)  # constant feature in training: center it
        lo, hi = self.lo, self.hi
        if hi - lo == math.inf:  # the range overflows a float: halve every term
            values, lo, hi = 0.5 * values, 0.5 * lo, 0.5 * hi
        with np.errstate(all="ignore"):  # overflow to inf is clamped, as with Python floats
            scaled = (values - lo) / (hi - lo)
        # clamp as min(max(v, 0.0), 1.0) does: -0.0 and nan stay (np.maximum makes -0.0 0.0)
        return np.where(scaled < 0.0, 0.0, np.where(scaled > 1.0, 1.0, scaled))

    @classmethod
    def from_dict(cls, d: dict, where: str = "feature") -> "FeatureSpec":
        """Inverse of asdict for a kind Schema.from_dict has checked; a ValueError names (after `where`) a bad field."""
        spec = cls(name=d["name"], kind=d["kind"], vocab=d["vocab"], lo=d["lo"], hi=d["hi"])
        vocab = spec.vocab if spec.kind == NOMINAL else {}
        if not isinstance(vocab, dict) or not all(type(k) is str and type(v) is int for k, v in vocab.items()):
            raise ValueError(f"{where}.vocab is {spec.vocab!r}, not an object of strings to integers")
        if sorted(vocab.values()) != list(range(1, len(vocab) + 1)):  # 0 is the unseen-value index
            raise ValueError(f"{where}.vocab indices are not 1..{len(vocab)}, each used once")
        for key in ("lo", "hi") if spec.kind != NOMINAL else ():
            v = getattr(spec, key)  # an int beyond the float range fails abs(v) <= max too
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
                raise ValueError(f"{where}.{key} is {v!r}, not a finite number")
        return spec


@dataclass
class Schema:
    """Ordered feature specs (label excluded) for one dataset profile.

    Only from_dict, which reads a checkpoint's schema, checks a schema against its profile. A schema
    built by hand is not checked, so it may name some of the profile's columns only, on purpose."""

    profile: str
    features: list[FeatureSpec]
    label: str = "label"

    @property
    def width(self) -> int:
        return len(self.features)

    def to_dict(self) -> dict:
        return asdict(self)  # the feature specs become dicts of their fields

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        """Inverse of to_dict; a ValueError names the first field that does not restate its profile's columns."""
        profile, label, features = d["profile"], d["label"], d["features"]
        if type(profile) is not str or profile not in PROFILES:
            raise ValueError(f"schema.profile is {profile!r}, not one of {sorted(PROFILES)}")
        layout = PROFILES[profile]
        if label != layout["label"]:
            raise ValueError(f"schema.label is {label!r}; profile {profile!r} has {layout['label']!r}")
        columns = layout["features"]
        if type(features) is not list or len(features) != len(columns):
            raise ValueError(f"schema.features is not a list of the {len(columns)} features of profile {profile!r}")
        for i, (f, column) in enumerate(zip(features, columns)):
            for key, want in zip(("name", "kind"), column):
                if f[key] != want:
                    where = f"schema.features[{i}].{key}"
                    raise ValueError(f"{where} is {f[key]!r}; profile {profile!r} has {want!r} there")
        return cls(profile, [FeatureSpec.from_dict(f, f"schema.features[{i}]") for i, f in enumerate(features)], label)


def profile_columns(profile: str) -> dict:
    try:
        return PROFILES[profile]
    except KeyError:
        raise SchemaError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")


def fit_schema(records, profile: str) -> Schema:
    """Fit nominal vocabularies and numeric ranges from training records only.

    ``records`` is a dataio.FlowTable, whose cells were checked when it was built, so
    fitting reads its columns and parses nothing. Nominal vocabularies index values by
    first appearance, starting at 1; index 0 stays reserved for values unseen during fitting.
    """
    layout = profile_columns(profile)
    if not len(records):
        raise SchemaError("cannot fit a schema on an empty record set")
    columns = [records.column(name, kind) for name, kind in layout["features"]]  # a missing one raises first
    specs = []
    for (name, kind), column in zip(layout["features"], columns):
        if kind == NOMINAL:
            # dict keys keep first appearance order
            vocab = {cell: i for i, cell in enumerate(dict.fromkeys(map(str, column)), start=1)}
            specs.append(FeatureSpec(name=name, kind=kind, vocab=vocab))
        else:
            values = column.tolist()  # builtin min and max keep the first of tied 0.0 and -0.0
            lo, hi = min(values), max(values)
            if lo == hi:
                warnings.warn(f"feature {name!r} is constant in the training split")
            specs.append(FeatureSpec(name=name, kind=kind, lo=lo, hi=hi))
    return Schema(profile=profile, features=specs, label=layout["label"])


def encode_batch(records, schema: Schema) -> tuple[np.ndarray, np.ndarray]:
    """Encode a dataio.FlowTable into an (n, width) matrix, one column at a time, plus the label vector."""
    columns = [records.column(spec.name, spec.kind) for spec in schema.features]
    x = np.empty((len(records), schema.width), dtype=np.float64)
    for j, (spec, column) in enumerate(zip(schema.features, columns)):
        x[:, j] = spec.encode_column(column)
    return x, records.labels.copy()


@dataclass
class SentencingParams:
    """Learned lift from scalar features to tokens.

    token_j = x_j * embed[j] + bias[j] + position[j]. The bias keeps
    zero-valued features from collapsing onto the positional row alone.
    """

    embed: Tensor  # (width, dim)
    bias: Tensor
    position: Tensor

    @property
    def width(self) -> int:
        return self.embed.data.shape[0]


def sentence(x: Tensor, params: SentencingParams) -> Tensor:
    """Lift encoded vectors (..., width) into token sequences (..., width, dim)."""
    expanded = T.reshape(x, x.shape + (1,))
    scaled = T.mul(expanded, params.embed)  # broadcasts embed over the batch
    return T.add(T.add(scaled, params.bias), params.position)
