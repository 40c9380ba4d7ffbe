"""flowids benchmark: one workload per run, end-to-end or traced per-layer figures.

    python3 perfbench/run.py --workload train_transformer --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a flowids checkout; the package is imported from its
`src/` directory, never from an installed copy. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. With
`--trace 0` the metrics are the end-to-end figures, with `--trace 1` the
per-layer figures. `--workload all` runs every workload in its own process,
one after another. See perfbench/README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train_transformer", "eval_transformer", "eval_fnn")

# One BLAS thread: on this code 1 and 2 threads measure within noise of each
# other, and one thread leaves the machine's other core to the rest of the
# system. Set before numpy is first imported, which is when OpenBLAS reads it.
BLAS_THREADS = min(1, os.cpu_count() or 1)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "flowids").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "process_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "src_flowids_lines": lines,
    }


def import_flowids() -> None:
    """Import flowids from this checkout's src/ (exit 2 if it is not there)."""
    if not (SRC / "flowids" / "__init__.py").is_file():
        print(f"error: no flowids sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import flowids

    if Path(flowids.__file__).resolve().parent != SRC / "flowids":
        print(f"error: imported flowids from {flowids.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = child.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import_flowids()
    if args.workload == "all":
        return run_all(args)

    import numpy

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    ledger, figures = outcome.ledger, outcome.figures
    facts = machine_facts(numpy)
    facts["calibration_median_s"] = {
        segment: statistics.median(times[segment] for times in outcome.clock.calibrations)
        for segment in outcome.clock.calibrations[0]
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        outcome.tracer.write_spans(OUT / f"{stem}_spans.csv.gz")
    (OUT / f"{stem}.json").write_text(
        json.dumps({"machine": facts, "wall_clock": outcome.wall, "problems": ledger.problems,
                    "operations_rows_per_s": outcome.operations,
                    "calibrations_s": outcome.clock.calibrations, **result}, indent=2) + "\n",
        encoding="utf-8",
    )

    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{ledger.attempted} operations, {ledger.failed} failed")
    for problem in ledger.problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    print("  wall clock, before normalization: "
          + ", ".join(f"{name} {value:.6g}" for name, value in outcome.wall.items()))
    width = max(len(name) for name in figures)
    for name, (value, unit) in figures.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
