"""Outside-input census: checkpoint headers, flow CSVs and train configs, each variant run through the CLI.

Three families of variants run through ``cli.main`` in this process. Each
run's output is swallowed; what the CLI scored and what its ``load_csv``
gave or raised are recorded where the CLI takes them from the package, and
its ``error:`` line is kept.

**Header family.** The census trains a small transformer and a small FNN
through the CLI on a 200-row synth CSV, then walks every path of each
checkpoint's JSON header. It does not know the format: it visits every key
of every object and every entry of every list (a list of more than
SAMPLE_OVER entries at its first three entries and its last). At each path
it tries each of SUBSTITUTES, then deletes the entry. At each object it
adds the key ADDED_KEY. Each variant is re-signed over the original body
and run through ``eval``:

- first with a --data file that does not exist, so a header refusal ends
  the run before any data is read, and a header that loads exits 6;
- then, if it loaded, on the CSV the checkpoint was trained on, so every
  vocabulary cell occurs in it.

Its oracles:

- **Exit code.** Every run ends in 0 or a code of ``cli.EXIT_CODES``, and
  no exception escapes ``cli.main``.
- **Refused before the data.** A header that loads with a missing --data
  file also scores the real one: no header is refused only once its data
  has been read.
- **Inert fields.** A variant that exits 0 and scores the original's bytes
  marks a field that the format does not need. ``train_config`` and
  ``metrics`` are provenance records, exempt from this oracle only.

**CSV family.** The unsw and ton fixtures, the synth CSV and an 800-row
synth CSV, which spans four of load_csv's blocks (BLOCK_ROWS, 256 rows), so
that its later mutations land past the first block, are each
mutated: one cell of one row at a time, in every column of the file, to
each of BAD_CELLS (empty, NUL, quotes, numbers out of range, nan, full-width
digits, 5,000-character cells and timestamp look-alikes); rows cut short
and rows made long; a byte-order mark; the header repeated among the rows;
the bytes truncated; bytes that are not UTF-8. Each variant runs through
``eval`` with an FNN trained on the unmutated file, and one in TRAIN_EVERY
through ``train`` as well. Its oracles:

- **Exit code.** ``eval`` ends in 0 or 3 and ``train`` in 0, 2 or 3.
- **As DictReader reads it.** Where the load succeeds, its kept rows,
  labels, nominal cells and values, and its rejects, are what
  ``tests/oracles.py::dictreader_load`` reads from the file; where the
  oracle keeps a row, the load succeeds.

**Config family.** BASE_CONFIG, a small train config (dim 8, 2 heads, one
block, one epoch, FNN hidden widths 8 and 8) of each kind, has each
``TrainConfig`` field replaced in turn by each of SUBSTITUTES, and each
variant trains through ``train --config`` on the synth CSV. Only an
``epochs`` of 2**63 is skipped: a valid run that would not end. Its oracles:

- **Exit code.** ``train`` ends in 0, 2, 3 or 5.
- **Named.** An exit 2's message names the field that was replaced.

Run from the repository root:

    python tests/fuzz.py

It prints each family's tally of exit codes and then every finding, and
exits 0 when there is none, 1 otherwise. It starts no child process and
takes well under a minute. pytest does not collect this file (its name does
not start with ``test_``).
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import oracles  # noqa: E402
from checkpoints import read_header, rewrite_header  # noqa: E402
from flowids import cli, dataio  # noqa: E402
from flowids.sentencing import NOMINAL, PROFILES, parse_cell  # noqa: E402
from flowids.training import TrainConfig  # noqa: E402

# one value of each JSON type, and numbers at the edges of what a size or a range may hold
SUBSTITUTES = [None, True, False, 0, 1, -1, 0.5, 2**63, 1e308, -1e308, math.nan, math.inf, "", "x", [], {}]
ADDED_KEY = "unknown"
DELETE = object()
SAMPLE_OVER = 16
# provenance records: the census runs them, but scoring does not read them
PROVENANCE = ("train_config", "metrics")

TRAIN = {
    "transformer": ["--model", "transformer", "--dim", "8", "--heads", "2", "--blocks", "1", "--epochs", "1"],
    "fnn": ["--model", "fnn", "--config", "fnn.json", "--epochs", "1"],
}


def paths(value, prefix=()):
    """Every path below ``value``, parents first; a long list is sampled at its first three entries and its last."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = list(range(len(value)))
        if len(keys) > SAMPLE_OVER:
            keys = keys[:3] + keys[-1:]
    else:
        return
    for key in keys:
        yield prefix + (key,)
        yield from paths(value[key], prefix + (key,))


def objects(value):
    """The path of every object in ``value``, itself included, with the sampling of paths."""
    if isinstance(value, dict):
        yield ()
    yield from (path for path in paths(value) if isinstance(at(value, path), dict))


def at(value, path):
    for key in path:
        value = value[key]
    return value


def edited(header, path, value):
    """A deep copy of ``header`` with ``value`` at ``path``, or without that entry if ``value`` is DELETE."""
    copy = json.loads(json.dumps(header))
    parent = at(copy, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy


def name(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


def variants(header):
    """(path, description, new header) for every variant of ``header``."""
    for path in paths(header):
        original = json.dumps(at(header, path))
        for value in SUBSTITUTES:
            if json.dumps(value) != original:
                yield path, f"= {json.dumps(value)}", edited(header, path, value)
        yield path, "deleted", edited(header, path, DELETE)
    for path in objects(header):
        yield path + (ADDED_KEY,), "added", edited(header, path + (ADDED_KEY,), 1)


class Cli:
    """cli.main in this process, quiet, with the scores it computed and what its load_csv gave or raised."""

    def __init__(self):
        self.scores = self.loaded = None
        self.error = ""  # the last run's `error:` line, or ""
        score, load = cli.predict_scores, dataio.load_csv

        def scoring(*args, **kwargs):
            scores = score(*args, **kwargs)
            self.scores = scores.tobytes()
            return scores

        def loading(*args, **kwargs):
            try:
                self.loaded = load(*args, **kwargs)
            except Exception as exc:
                self.loaded = exc
                raise
            return self.loaded

        cli.predict_scores, dataio.load_csv = scoring, loading

    def __call__(self, *argv) -> int | str:
        self.scores = self.loaded = None
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                return cli.main([str(arg) for arg in argv])
            except BaseException as exc:  # noqa: BLE001 -- an escaped exception is a finding
                return f"{type(exc).__name__}: {exc}"
            finally:
                self.error = next((line for line in err.getvalue().splitlines() if line.startswith("error: ")), "")

    def eval(self, model, data) -> tuple[int | str, bytes | None]:
        code = self("eval", "--model", model, "--data", data)
        return code, self.scores


def census(kind: str, run: Cli) -> tuple[collections.Counter, list[str]]:
    """The tally of exit codes and the findings of every variant of a ``kind`` checkpoint's header."""
    model, data, missing, variant = Path(f"{kind}.ckpt"), "flows.csv", "missing.csv", Path("variant.ckpt")
    code = run("train", "--data", data, *TRAIN[kind], "--out", model)
    if code != 0:
        raise RuntimeError(f"training the {kind} checkpoint exited {code}")
    code, original = run.eval(model, data)
    if code != 0 or original is None:  # with no scores seen, no field could be found inert
        raise RuntimeError(f"the unedited {kind} checkpoint exits {code}, scores seen: {original is not None}")
    header = read_header(model)
    tally, findings, inert = collections.Counter(), [], collections.defaultdict(list)
    documented = set(cli.EXIT_CODES.values()) | {0}
    for path, how, new in variants(header):
        dumped = json.dumps(new, sort_keys=True).encode("utf-8")
        rewrite_header(model, variant, lambda h, body, d=dumped: (d, body))
        code, _ = run.eval(variant, missing)
        stage = "before --data"
        if code == 6:  # the header loaded: score the real data
            code, scores = run.eval(variant, data)
            stage = "on --data"
            if code == 0 and scores == original and path[0] not in PROVENANCE:
                inert[name(path)].append(how)
            elif code != 0:
                findings.append(f"{kind} {name(path)} {how}: loads, then exits {code} once --data is read")
        tally[f"exit {code} {stage}"] += 1
        if code not in documented:
            findings.append(f"{kind} {name(path)} {how}: ends in {code!r}, not a documented exit code")
    for field, hows in inert.items():
        findings.append(f"{kind} {field} is inert: scores the original's bytes when {', '.join(hows)}")
    return tally, findings


# the raw text written in place of one cell: empty, NUL, quotes, numbers out of range or not finite,
# full-width digits, 5,000-character cells and timestamp look-alikes
BAD_CELLS = [
    "", "\x00", "1\x00", '"', '""', '"a,b"', 'a"b', '"x""y"', '"1\n2"', "1e400", "-1e400", "nan", "-inf",
    "\uff11\uff12\uff13", "\uff10", "9" * 5000, "x" * 5000, "2019-04-26T09:12:01", "2019-04-26 09:12:01+02:00",
    "26-Apr-19", "09:12:01", "26/04/2019", "24:00:00", "2019-02-30", " 1421927414 ", "1421927414.5e0", "\ufeff1",
]
# (file, profile) for each CSV the family mutates; flows.csv is the header family's synth CSV, and
# blocks.csv spans four blocks, so a mutation past its row 256 meets the codes and row count carried
# over from the blocks before it
FIXTURES = ROOT / "tests" / "fixtures"
CSV_SOURCES = [(FIXTURES / "unsw_tiny.csv", "unsw"), (FIXTURES / "ton_tiny.csv", "ton"),
               (Path("flows.csv"), "synthetic"), (Path("blocks.csv"), "synthetic")]
TRAIN_EVERY = 8


def csv_variants(data: bytes):
    """(description, bytes) for every variant of a CSV's bytes, whose rows hold no quoted cell."""
    text = data.decode("utf-8")
    lines = text.splitlines()
    header, rows = lines[0].split(","), lines[1:]

    def with_row(i, row):
        return "\n".join(lines[: i + 1] + [row] + lines[i + 2:]).encode("utf-8") + b"\n"

    k = 0
    for j, column in enumerate(header):  # one row in turn, one cell of it at a time
        for cell in BAD_CELLS:
            i, k = k % len(rows), k + 1
            cells = rows[i].split(",")
            cells[j] = cell
            yield f"row {i + 2} {column} = {cell[:12]!r}", with_row(i, ",".join(cells))
    for i in range(0, len(rows), max(1, len(rows) // 4)):
        cells = rows[i].split(",")
        for keep in (1, len(cells) // 2, len(cells) - 1):
            yield f"row {i + 2} cut to {keep} cells", with_row(i, ",".join(cells[:keep]))
        yield f"row {i + 2} with 3 more cells", with_row(i, ",".join(cells + ["x", "1", '"y"']))
        yield f"header repeated after row {i + 2}", with_row(i, rows[i] + "\n" + lines[0])
    yield "a byte-order mark", b"\xef\xbb\xbf" + data
    for at in (len(data) // 3, len(data) // 2, len(data) - 2, len(data) - 1):
        yield f"truncated at byte {at}", data[:at]
    for at in (len(lines[0]) // 2, len(data) // 2, len(data) - 2):
        for bad in (b"\xff", b"\xc3", b"\xe3\x80"):
            yield f"{bad!r} at byte {at}", data[:at] + bad + data[at:]


def unlike_dictreader(loaded, path: Path, profile: str) -> str | None:
    """How what load_csv gave or raised for ``path`` differs from the DictReader oracle's reading, or None."""
    layout = PROFILES[profile]
    try:
        rows, cells, labels, values, rejects = oracles.dictreader_load(
            path, layout["features"], layout["label"], lambda cell, kind: oracles.checked_cell(cell, kind, parse_cell))
    except Exception:  # noqa: BLE001 -- a file the oracle cannot read keeps no rows
        rows = []
    if not isinstance(loaded, tuple):
        return f"load_csv raised {loaded!r}, the oracle keeps {len(rows)} rows" if rows else None
    if not rows:
        return f"load_csv keeps {len(loaded[0])} rows, the oracle none"
    table, summary = loaded[0].records, loaded[1]
    if table.rows.tolist() != rows or table.labels.tolist() != labels:
        return "the kept rows or their labels differ"
    for name, kind in layout["features"]:
        if kind == NOMINAL and oracles.nominal_cells(table, name) != cells[name]:
            return f"column {name!r}: the kept cells differ"
        if kind != NOMINAL and table.columns[name].tobytes() != np.array(values[name], np.float64).tobytes():
            return f"column {name!r}: the kept values differ"
    if (summary.rows_loaded, summary.rows_rejected, summary.rejects) != (len(rows), len(rejects), rejects[:20]):
        return f"the summary differs: {summary.describe()!r}"
    return None


def csv_census(run: Cli) -> tuple[collections.Counter, list[str]]:
    """The tally of exit codes and the findings of every variant of each of CSV_SOURCES."""
    tally, findings, variant, count = collections.Counter(), [], Path("variant.csv"), 0
    for source, profile in CSV_SOURCES:
        model = Path(f"{profile}.ckpt")
        code = run("train", "--data", source, "--profile", profile, *TRAIN["fnn"], "--out", model)
        if code != 0:
            raise RuntimeError(f"training on {source.name} exited {code}")
        for how, data in csv_variants(source.read_bytes()):
            variant.write_bytes(data)
            code, _ = run.eval(model, variant)
            tally[f"eval exit {code}"] += 1
            if code not in (0, 3):
                findings.append(f"{source.name} {how}: eval ends in {code!r}, not 0 or 3")
            if (why := unlike_dictreader(run.loaded, variant, profile)) is not None:
                findings.append(f"{source.name} {how}: {why}")
            count += 1
            if count % TRAIN_EVERY == 0:
                code = run("train", "--data", variant, "--profile", profile, *TRAIN["fnn"], "--out", "trained.ckpt")
                tally[f"train exit {code}"] += 1
                if code not in (0, 2, 3):
                    findings.append(f"{source.name} {how}: train ends in {code!r}, not 0, 2 or 3")
    return tally, findings


# a small train config of either kind; each variant replaces one TrainConfig field by one of SUBSTITUTES
BASE_CONFIG = {"dim": 8, "heads": 2, "blocks": 1, "epochs": 1, "fnn_hidden": [8, 8]}


def config_census(run: Cli) -> tuple[collections.Counter, list[str]]:
    """The tally of exit codes and the findings of every one-field variant of BASE_CONFIG, for each kind."""
    tally, findings, variant = collections.Counter(), [], Path("variant.json")
    for kind in TRAIN:
        for field in dataclasses.fields(TrainConfig):
            for value in SUBSTITUTES:
                if field.name == "epochs" and value == 2**63:  # a valid run that would not end
                    continue
                variant.write_text(json.dumps({**BASE_CONFIG, "model": kind, field.name: value}), encoding="utf-8")
                code = run("train", "--data", "flows.csv", "--config", variant, "--out", "trained.ckpt")
                tally[f"exit {code}"] += 1
                how = f"{kind} config {field.name} = {json.dumps(value)}"
                if code not in (0, 2, 3, 5):
                    findings.append(f"{how}: train ends in {code!r}, not 0, 2, 3 or 5")
                elif code == 2 and field.name not in run.error:
                    findings.append(f"{how}: exit 2 does not name the field: {run.error!r}")
    return tally, findings


def main() -> int:
    started = time.monotonic()
    findings = []
    with tempfile.TemporaryDirectory(prefix="flowids-fuzz-") as tmp, contextlib.chdir(tmp):
        Path("fnn.json").write_text('{"fnn_hidden": [8, 8]}', encoding="utf-8")
        run = Cli()
        run("synth", "--n", "200", "--seed", "4", "--difficulty", "noisy", "--out", "flows.csv")
        run("synth", "--n", "800", "--seed", "5", "--difficulty", "noisy", "--out", "blocks.csv")
        for kind in TRAIN:
            tally, found = census(kind, run)
            print(f"header, {kind}: {sum(tally.values())} variants; "
                  + ", ".join(f"{count} {what}" for what, count in sorted(tally.items())))
            findings += found
        tally, found = csv_census(run)
        print(f"csv: {sum(n for what, n in tally.items() if what.startswith('eval'))} variants; "
              + ", ".join(f"{count} {what}" for what, count in sorted(tally.items())))
        findings += found
        tally, found = config_census(run)
        print(f"config: {sum(tally.values())} variants; "
              + ", ".join(f"{count} {what}" for what, count in sorted(tally.items())))
        findings += found
    for finding in findings:
        print(finding)
    print(f"{len(findings)} findings ({time.monotonic() - started:.0f} s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
