"""Line census: which lines of the package do its real runs never reach?

The census runs what a user and the benchmark run, each in a fresh
process, with a line collector for src/flowids started in every Python
process through a ``sitecustomize`` module on ``PYTHONPATH``:

- ``synth``, noisy and separable;
- ``train --log``, ``eval --out --roc`` and ``predict`` for both model kinds
  on the synthetic, unsw and ton profiles (a 300-row synth CSV and the two
  fixtures), and ``report`` for each profile;
- on the synth CSV, the inputs those runs do not make: ``train --config``
  with list-valued ``split_fractions`` and ``fnn_hidden``, ``eval
  --threshold 0.3``, ``eval`` of a copy with 25 bad-label rows and one
  short row appended (more rejects than the load summary lists), and an
  FNN ``predict`` of its first row alone;
- the five demos;
- ``perfbench/run.py --workload all --seconds 1`` at ``--trace 0`` and ``1``.

A file's executable lines are those that ``co_lines()`` gives for its code
objects, recursively. The census prints each file's count of lines that
never ran, then every such line with its text, then the totals. Most of
what never runs raises a documented error; any other line is a candidate
to delete or to move into tests/.

Run from the repository root:

    python tests/census.py

It exits 0 when every run succeeded and 1 when one failed, so its lines
would be missing. pytest does not collect this file (its name does not
start with ``test_``). The runs write into a temporary directory, except
perfbench, which writes its reports to ``.perfbench_out/`` as it always does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flowids"

# Started at interpreter start-up in every process of a run: traces the lines
# of each frame whose code lives under FLOWIDS_CENSUS_PACKAGE, in every
# thread, and writes the lines it saw to FLOWIDS_CENSUS_OUT at exit.
COLLECTOR = '''\
import atexit, json, os, sys, threading

_PACKAGE = os.environ["FLOWIDS_CENSUS_PACKAGE"] + os.sep
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PACKAGE):
        return None
    _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


@atexit.register
def _write():
    sys.settrace(None)
    path = os.path.join(os.environ["FLOWIDS_CENSUS_OUT"], f"hits-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(sorted(_hits), handle)


sys.settrace(_call)
threading.settrace(_call)
'''


# Writes, next to the synth CSV, the inputs of the runs on it that the per-profile runs do not make.
DERIVED = '''\
import json, pathlib
lines = pathlib.Path("synthetic.csv").read_text(encoding="utf-8").splitlines()
bad = [",".join(line.split(",")[:-1] + ["2"]) for line in lines[1:26]]  # label 2: 25 rejects
pathlib.Path("rejects.csv").write_text("\\n".join(lines + bad + ["1,2"]) + "\\n", encoding="utf-8")
pathlib.Path("one_row.csv").write_text("\\n".join(lines[:2]) + "\\n", encoding="utf-8")
config = {"model": "fnn", "epochs": 1, "fnn_hidden": [16, 16], "split_fractions": [0.5, 0.25, 0.25]}
pathlib.Path("fnn.json").write_text(json.dumps(config), encoding="utf-8")
'''


def runs(work: Path) -> list[list[str]]:
    """The census's commands, in order; each runs with ``work`` as its directory."""
    cli = [sys.executable, "-m", "flowids"]
    fixtures = ROOT / "tests" / "fixtures"
    commands = [
        cli + ["synth", "--n", "300", "--seed", "4", "--difficulty", "noisy", "--out", "synthetic.csv"],
        cli + ["synth", "--n", "300", "--seed", "4", "--difficulty", "separable", "--out", "separable.csv"],
    ]
    for profile, data in (("synthetic", work / "synthetic.csv"), ("unsw", fixtures / "unsw_tiny.csv"),
                          ("ton", fixtures / "ton_tiny.csv")):
        for kind in ("transformer", "fnn"):
            out = f"{profile}.{kind}"
            commands += [
                cli + ["train", "--data", str(data), "--profile", profile, "--model", kind, "--epochs", "1",
                       "--out", f"{out}.ckpt", "--log", f"{out}.log.csv"],
                cli + ["eval", "--model", f"{out}.ckpt", "--data", str(data), "--out", f"{out}.metrics.json",
                       "--roc", f"{out}.roc.csv"],
                cli + ["predict", "--model", f"{out}.ckpt", "--data", str(data), "--out", f"{out}.scores.csv"],
            ]
        commands.append(cli + ["report", "--models", f"{profile}.transformer.ckpt", f"{profile}.fnn.ckpt",
                               "--data", str(data), "--out", f"{profile}.report.txt"])
    commands += [
        [sys.executable, "-c", DERIVED],
        cli + ["train", "--data", "synthetic.csv", "--config", "fnn.json", "--out", "config.fnn.ckpt"],
        cli + ["eval", "--model", "synthetic.fnn.ckpt", "--data", "synthetic.csv", "--threshold", "0.3"],
        cli + ["eval", "--model", "synthetic.transformer.ckpt", "--data", "rejects.csv"],
        cli + ["predict", "--model", "synthetic.fnn.ckpt", "--data", "one_row.csv", "--out", "one_row.scores.csv"],
    ]
    commands += [[sys.executable, str(demo)] for demo in sorted((ROOT / "demos").glob("*.py"))]
    commands += [[sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all", "--seed", "1",
                  "--seconds", "1", "--trace", trace] for trace in ("0", "1")]
    return commands


def executable_lines(path: Path) -> set[int]:
    """The lines that co_lines() gives for the file's code objects, recursively."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="flowids-census-") as tmp:
        tmp = Path(tmp)
        collector, hits, work = tmp / "collector", tmp / "hits", tmp / "work"
        for directory in (collector, hits, work):
            directory.mkdir()
        (collector / "sitecustomize.py").write_text(COLLECTOR, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(collector), str(ROOT / "src")]),
               "FLOWIDS_CENSUS_PACKAGE": str(PACKAGE), "FLOWIDS_CENSUS_OUT": str(hits)}
        for command in runs(work):
            run = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
            if run.returncode != 0:
                print(f"exit {run.returncode}: {' '.join(command)}\n{run.stderr}", file=sys.stderr)
                return 1
        ran: dict[str, set[int]] = {}
        for part in hits.glob("hits-*.json"):
            for filename, line in json.loads(part.read_text(encoding="utf-8")):
                ran.setdefault(os.path.realpath(filename), set()).add(line)
    total = never = 0
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(os.path.realpath(path), set()))
        total, never = total + len(lines), never + len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} lines never ran")
        text = path.read_text(encoding="utf-8").splitlines()
        report += [f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}" for line in missed]
    print("\n".join(report))
    print(f"{never} of {total} executable lines never ran ({time.monotonic() - started:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
