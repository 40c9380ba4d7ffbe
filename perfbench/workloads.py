"""The three benchmark workloads, their output checks and their figures.

Every workload follows the same plan:

1. set-up, repeated SETUP_REPEATS times; `setup_s` is the median repeat;
2. one warm-up cycle, checked but left out of every timed figure;
3. cycles of "train" and "eval" operations until `seconds` have passed
   (at least MIN_CYCLES), each operation timed and checked. Interleaving
   spreads both figures over the whole run, so drift in the machine's
   speed affects them alike. A traced run alternates untraced and traced
   cycles so that it can state its own overhead.

Every timed interval is also converted to reference seconds (see clock.py);
the end-to-end timing figures are medians of the converted times.

A check that fails marks its operation as failed; the reasons are kept.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from flowids import cli, dataio, metrics, sentencing, training

import tracer
from clock import ALL, PYTHON, Clock

MIN_CYCLES = 3

# Operations are kept short (0.1 to 1.2 s): the machine's speed changes
# within seconds, and an operation normalizes well only when the speed holds
# between the calibrations around it. More operations also steady the median.

# train_transformer: 2,000 noisy rows split 60/20/20, so 1,200 training rows
# per epoch, 400 held-out rows for test_auc and the held-out eval.
TRAIN_ROWS = 2000
TRAIN_EPOCHS = 1
HELD_OUT_EVALS = 3  # cli eval operations on the 400 held-out rows per training

# eval_*: a 4,000-row CSV (eight inference batches) scored by a checkpoint
# trained in set-up on 2,000 rows drawn with another seed. The train
# operation trains the same model kind on 1,000 rows.
EVAL_ROWS = 4000
CHECKPOINT_ROWS = 2000
RETRAIN_ROWS = 1000
CHECKPOINT_EPOCHS = {"transformer": 1, "fnn": 10}

BAYES_ERROR = 0.1
# Under the generator's equal-variance Gaussian model, a classifier whose
# accuracy sits on the A7 noisy band's 0.85 floor has AUC
# Phi(sqrt(2) Phi^-1(0.85)) = 0.9287.
AUC_FLOOR = 0.92

SETUP_REPEATS = {"train_transformer": 5, "eval_transformer": 3, "eval_fnn": 3}


def train_config(model: str = "transformer", epochs: int = TRAIN_EPOCHS) -> training.TrainConfig:
    """Default encoder (dim 32, 4 heads, 2 blocks) or FNN, batch 16, lr 1e-3."""
    return training.TrainConfig(model=model, lr=1e-3, epochs=epochs, batch_size=16, seed=0)


def noisy(n: int, seed: int) -> dataio.Dataset:
    return dataio.synth(n, seed=seed, difficulty="noisy", bayes_error=BAYES_ERROR)


class Ledger:
    """Attempted and failed operations, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class Reference:
    """What `flowids eval` must report for one checkpoint and CSV."""

    rows: int
    auc: float
    problems: list[str]


def reference(ckpt: Path, data: Path) -> Reference:
    """Recompute the scores with training.predict_scores and check them."""
    # independent row count: every CSV record after the header
    with open(data, newline="", encoding="utf-8") as handle:
        rows = sum(1 for _ in csv.reader(handle)) - 1
    checkpoint = dataio.load_checkpoint(ckpt)
    dataset, summary = dataio.load_csv(data, checkpoint.schema.profile)
    x, y = sentencing.encode_batch(dataset.records, checkpoint.schema)
    scores = training.predict_scores(
        checkpoint.params, x, mask=bool(checkpoint.config.get("mask", True))
    )
    problems = score_problems(scores)
    if summary.rows_rejected:
        problems.append(f"load_csv rejected {summary.rows_rejected} rows")
    return Reference(rows, metrics.roc_auc(scores, y), problems)


def score_problems(scores: np.ndarray) -> list[str]:
    if not np.all(np.isfinite(scores)):
        return ["non-finite score"]
    if scores.min() < 0.0 or scores.max() > 1.0:
        return [f"score outside [0, 1]: {scores.min()}..{scores.max()}"]
    return []


def auc_problems(auc: float) -> list[str]:
    return [f"test AUC {auc:.4f} below the floor {AUC_FLOOR}"] if auc < AUC_FLOOR else []


def cli_eval(ckpt: Path, data: Path, out: Path, ref: Reference) -> tuple[float, list[str]]:
    """Time one in-process `flowids eval` and check what it wrote."""
    captured = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = cli.main(["eval", "--model", str(ckpt), "--data", str(data), "--out", str(out)])
    elapsed = perf_counter() - start
    if code != 0:
        return elapsed, [f"eval exited {code}: {captured.getvalue().strip()[-200:]}"]
    problems = []
    rejected = re.search(r"rejected (\d+)", captured.getvalue())
    if rejected is None or int(rejected.group(1)) != 0:
        problems.append("eval did not report 0 rejected rows")
    payload = json.loads(out.read_text(encoding="utf-8"))
    if payload["n"] != ref.rows:
        problems.append(f"eval n {payload['n']} != {ref.rows} CSV rows")
    if payload["metrics"]["auc"] != ref.auc:
        problems.append(f"eval auc {payload['metrics']['auc']!r} != recomputed {ref.auc!r}")
    return elapsed, problems


@dataclass
class Outcome:
    """What one workload run hands back to run.py."""

    ledger: Ledger
    figures: dict[str, tuple[float, str]]  # name -> (value, unit)
    wall: dict[str, float]  # the same timing figures before normalization
    operations: dict[str, list[tuple[float, float]]]  # "train"/"eval" -> (wall, normalized) rows/s
    tracer: tracer.Tracer
    clock: Clock


def measure(seconds: float, trace: bool, cycle, traced_names, tracer_: tracer.Tracer, clock: Clock):
    """Run the cycle's (name, operation, mix) entries in turn until `seconds` pass.

    An operation returns (rows, wall seconds); mix names the calibration
    segments that resemble its work. Returns {(name, traced):
    [(wall rows/s, normalized rows/s)]}. A traced run alternates untraced
    and traced cycles, starting untraced, so both halves see the same
    machine conditions; in a traced cycle only the operations named in
    traced_names run under the tracer.
    """
    samples: dict[tuple[str, bool], list[tuple[float, float]]] = {}
    clock.restart()
    deadline = perf_counter() + seconds
    cycles = 0
    while True:
        traced = trace and cycles % 2 == 1
        for name, operation, mix in cycle:
            if traced and name in traced_names:
                with tracer_:
                    rows, elapsed = operation()
            else:
                rows, elapsed = operation()
            rates = (rows / elapsed, rows / clock.normalize(elapsed, mix))
            samples.setdefault((name, traced), []).append(rates)
        cycles += 1
        if cycles >= MIN_CYCLES * (1 + trace) and perf_counter() >= deadline:
            return samples


def set_up(repeats: int, clock: Clock, work, mix) -> list[tuple[float, float]]:
    """Run `work` `repeats` times; return (wall, normalized) seconds of each."""
    times = []
    clock.restart()
    for _ in range(repeats):
        start = perf_counter()
        work()
        elapsed = perf_counter() - start
        times.append((elapsed, clock.normalize(elapsed, mix)))
    return times


def warm_up(cycle) -> None:
    """Every operation once, checked, its timing dropped."""
    for _, operation, _ in cycle:
        operation()


def outcome(ledger, samples, trace, tracer_, clock, per_step, setup_times, auc) -> Outcome:
    """End-to-end figures, or per-layer ones when traced.

    Timing figures are medians of normalized operation rates; the wall-clock
    medians ride along in Outcome.wall.
    """

    def median(key, which):
        return statistics.median(sample[which] for sample in samples[key])

    wall = {
        "setup_s": statistics.median(wall_s for wall_s, _ in setup_times),
        "train_rows_per_s": median(("train", False), 0),
        "eval_rows_per_s": median(("eval", False), 0),
    }
    if trace:
        figures = tracer.layer_metrics(tracer_, per_step=per_step)
        main = "train" if per_step == "tape" else "eval"
        overhead = median((main, False), 1) / median((main, True), 1) - 1.0
        figures["perfbench.trace_overhead_pct"] = (overhead * 100.0, "%")
    else:
        figures = {
            "setup_s": (statistics.median(norm for _, norm in setup_times), "s"),
            "train_rows_per_s": (median(("train", False), 1), "rows/s"),
            "test_auc": (auc, "1"),
            "eval_rows_per_s": (median(("eval", False), 1), "rows/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }
    operations = {f"{name}{'.traced' if traced else ''}": rates for (name, traced), rates in samples.items()}
    return Outcome(ledger, figures, wall, operations, tracer_, clock)


# ---------------------------------------------------------------- train_transformer


def train_transformer(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    """Train on in-memory rows; score the held-out split in-process and via the CLI."""
    ledger = Ledger()
    clock = Clock()
    cfg = train_config()
    held_out_csv = work / "held_out.csv"
    ckpt = work / "model.ckpt"
    out = work / "eval.json"
    data: dict = {}

    def setup():
        data["dataset"] = noisy(TRAIN_ROWS, seed)
        # the same split train() makes, so the held-out rows are its test part
        test = dataio.split(data["dataset"], cfg.split_fractions, cfg.seed)[2]
        dataio.write_csv(test, held_out_csv)
        # first-call costs (allocator growth, BLAS buffers) land here
        training.train(noisy(200, seed), train_config(epochs=1))

    setup_times = set_up(SETUP_REPEATS["train_transformer"], clock, setup, ALL)
    first: dict = {}

    def train_op():
        start = perf_counter()
        result = training.train(data["dataset"], cfg)
        elapsed = perf_counter() - start
        dataio.save_checkpoint(result.params, result.schema, result.config.to_dict(), ckpt)
        blob = ckpt.read_bytes()
        x, y = sentencing.encode_batch(result.test.records, result.schema)
        scores = training.predict_scores(result.params, x)
        auc = metrics.roc_auc(scores, y)
        if not first:
            first.update(blob=blob, ref=Reference(len(y), auc, []))
        problems = score_problems(scores) + auc_problems(auc)
        if blob != first["blob"]:
            problems.append("checkpoint bytes differ from the first run with this seed")
        if auc != first["ref"].auc:
            problems.append(f"test AUC {auc!r} differs from the first run's {first['ref'].auc!r}")
        ledger.operation(problems)
        return len(result.train) * cfg.epochs, elapsed

    def eval_op():
        elapsed, problems = cli_eval(ckpt, held_out_csv, out, first["ref"])
        ledger.operation(problems)
        return first["ref"].rows, elapsed

    cycle = [("train", train_op, ALL)] + [("eval", eval_op, ALL)] * HELD_OUT_EVALS
    warm_up(cycle)
    tr = tracer.Tracer()
    samples = measure(seconds, trace, cycle, {"train", "eval"}, tr, clock)
    return outcome(ledger, samples, trace, tr, clock, "tape", setup_times, first["ref"].auc)


# ---------------------------------------------------------------- eval_transformer / eval_fnn


def eval_workload(model: str, name: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    """Score a CSV through the CLI; train the same model kind in between."""
    ledger = Ledger()
    clock = Clock()
    csv_path = work / "flows.csv"
    ckpt = work / "model.ckpt"
    retrained = work / "retrained.ckpt"
    out = work / "eval.json"
    cfg = train_config(model, epochs=CHECKPOINT_EPOCHS[model])
    # The FNN's eval is ingest and its training steps are Python overhead on
    # tiny matrices; the interpreter segment alone tracked both best.
    mix = PYTHON if model == "fnn" else ALL
    data: dict = {}
    blobs = []

    def setup():
        dataio.write_csv(noisy(EVAL_ROWS, seed + 1), csv_path)
        data["retrain"] = noisy(RETRAIN_ROWS, seed)
        result = training.train(noisy(CHECKPOINT_ROWS, seed), cfg)
        dataio.save_checkpoint(result.params, result.schema, result.config.to_dict(), ckpt)
        blobs.append(ckpt.read_bytes() + csv_path.read_bytes())

    setup_times = set_up(SETUP_REPEATS[name], clock, setup, mix)
    ref = reference(ckpt, csv_path)
    ledger.operation(
        ref.problems
        + auc_problems(ref.auc)
        + (["set-up repeats wrote different checkpoint or CSV bytes"] if len(set(blobs)) > 1 else [])
    )
    first: dict = {}

    def eval_op():
        elapsed, problems = cli_eval(ckpt, csv_path, out, ref)
        ledger.operation(problems)
        return ref.rows, elapsed

    def train_op():
        start = perf_counter()
        result = training.train(data["retrain"], cfg)
        elapsed = perf_counter() - start
        dataio.save_checkpoint(result.params, result.schema, result.config.to_dict(), retrained)
        blob = first.setdefault("blob", retrained.read_bytes())
        same = retrained.read_bytes() == blob
        ledger.operation([] if same else ["checkpoint bytes differ from the first run with this seed"])
        return len(result.train) * cfg.epochs, elapsed

    cycle = [("eval", eval_op, mix), ("train", train_op, mix)]
    warm_up(cycle)
    tr = tracer.Tracer()
    samples = measure(seconds, trace, cycle, {"eval"}, tr, clock)
    return outcome(ledger, samples, trace, tr, clock, "no_grad", setup_times, ref.auc)


WORKLOADS = {
    "train_transformer": train_transformer,
    "eval_transformer": lambda *a: eval_workload("transformer", "eval_transformer", *a),
    "eval_fnn": lambda *a: eval_workload("fnn", "eval_fnn", *a),
}
