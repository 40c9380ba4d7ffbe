"""Header census: does every re-signed checkpoint header end in its exit code, and is any field inert?

The census trains a small transformer and a small FNN through the CLI on a
200-row synth CSV, then walks every path of each checkpoint's JSON header.
It does not know the format: it visits every key of every object and every
entry of every list (a list of more than SAMPLE_OVER entries at its first
three entries and its last). At each path it tries each of SUBSTITUTES,
then deletes the entry. At each object it adds the key ADDED_KEY. Each
variant is re-signed over the original body and run through
``cli.main(["eval", ...])`` in this process:

- first with a --data file that does not exist, so a header refusal ends
  the run before any data is read, and a header that loads exits 6;
- then, if it loaded, on the CSV the checkpoint was trained on, so every
  vocabulary cell occurs in it. The scores are read where the CLI takes
  them from ``predict_scores``.

Its oracles:

- **Exit code.** Every run ends in 0 or a code of ``cli.EXIT_CODES``, and
  no exception escapes ``cli.main``.
- **Refused before the data.** A header that loads with a missing --data
  file also scores the real one: no header is refused only once its data
  has been read.
- **Inert fields.** A variant that exits 0 and scores the original's bytes
  marks a field that the format does not need. ``train_config`` and
  ``metrics`` are provenance records, exempt from this oracle only.

Run from the repository root:

    python tests/fuzz.py

It prints each kind's tally of exit codes and then every finding, and
exits 0 when there is none, 1 otherwise. It starts no child process and
takes well under a minute. pytest does not collect this file (its name does
not start with ``test_``).
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checkpoints import read_header, rewrite_header  # noqa: E402
from flowids import cli  # noqa: E402

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


class Eval:
    """cli.main(["eval", ...]) in this process, quiet, with the scores it computed."""

    def __init__(self):
        self.scores = None
        score = cli.predict_scores

        def recording(*args, **kwargs):
            scores = score(*args, **kwargs)
            self.scores = scores.tobytes()
            return scores

        cli.predict_scores = recording

    def __call__(self, model, data) -> tuple[int | str, bytes | None]:
        self.scores = None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(["eval", "--model", str(model), "--data", str(data)])
            except BaseException as exc:  # noqa: BLE001 -- an escaped exception is a finding
                code = f"{type(exc).__name__}: {exc}"
        return code, self.scores


def census(kind: str, run: Eval) -> tuple[collections.Counter, list[str]]:
    """The tally of exit codes and the findings of every variant of a ``kind`` checkpoint's header."""
    model, data, missing, variant = Path(f"{kind}.ckpt"), "flows.csv", "missing.csv", Path("variant.ckpt")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["train", "--data", data, *TRAIN[kind], "--out", str(model)])
    if code != 0:
        raise RuntimeError(f"training the {kind} checkpoint exited {code}")
    code, original = run(model, data)
    if code != 0 or original is None:  # with no scores seen, no field could be found inert
        raise RuntimeError(f"the unedited {kind} checkpoint exits {code}, scores seen: {original is not None}")
    header = read_header(model)
    tally, findings, inert = collections.Counter(), [], collections.defaultdict(list)
    documented = set(cli.EXIT_CODES.values()) | {0}
    for path, how, new in variants(header):
        dumped = json.dumps(new, sort_keys=True).encode("utf-8")
        rewrite_header(model, variant, lambda h, body, d=dumped: (d, body))
        code, _ = run(variant, missing)
        stage = "before --data"
        if code == 6:  # the header loaded: score the real data
            code, scores = run(variant, data)
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


def main() -> int:
    started = time.monotonic()
    findings = []
    with tempfile.TemporaryDirectory(prefix="flowids-fuzz-") as tmp, contextlib.chdir(tmp):
        Path("fnn.json").write_text('{"fnn_hidden": [8, 8]}', encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["synth", "--n", "200", "--seed", "4", "--difficulty", "noisy", "--out", "flows.csv"])
        run = Eval()
        for kind in TRAIN:
            tally, found = census(kind, run)
            print(f"{kind}: {sum(tally.values())} variants; "
                  + ", ".join(f"{count} {what}" for what, count in sorted(tally.items())))
            findings += found
    for finding in findings:
        print(finding)
    print(f"{len(findings)} findings ({time.monotonic() - started:.0f} s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
