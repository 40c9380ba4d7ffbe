"""Command-line entry point: synth, train, eval, predict, report.

Each command returns a Run: its configuration, seed and the files it read and
wrote. `main` times the run, writes the one run manifest next to the first
output (<output>.manifest.json: command, configuration, seed, SHA-256
checksums of inputs and outputs, the rows each CSV load kept and rejected,
the warnings the command raised, duration, and the environment it ran in),
prints each warning to stderr as one `warning: <message>` line,
and maps errors to exit codes through EXIT_CODES: 2 usage or configuration,
3 bad data, 4 model/data incompatibility (including checkpoint versions),
5 numeric failure in training, 6 file I/O. An eval or report that writes no
file writes no manifest.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import platform
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import cache

import numpy as np

from . import dataio, metrics
from . import model as M
from .errors import ConfigError, DataError, IncompatibilityError, IntegrityError, NumericError, SchemaError
from .sentencing import PROFILES, encode_batch
from .training import TrainConfig, predict_scores, scoring_threads, train, write_log

# Exit code per error class; no class here subclasses another entry, so order does not matter.
EXIT_CODES = {
    ConfigError: 2,
    DataError: 3,
    SchemaError: 3,
    IntegrityError: 3,
    IncompatibilityError: 4,  # includes VersionError
    NumericError: 5,
    OSError: 6,
}


@dataclass
class Run:
    """What a command ran with, read and wrote; `main` turns it into the manifest."""

    config: dict
    seed: int | None
    inputs: list
    outputs: list
    loads: dict = field(default_factory=dict)  # profile -> its CSV's LoadSummary, as a dict


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@cache
def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def _write_manifest(command: str, run: Run, started: float, warned: list[str]) -> None:
    manifest = {
        "command": command,
        "config": run.config,
        "seed": run.seed,
        "inputs": {str(p): _sha256(p) for p in run.inputs},
        "outputs": {str(p): _sha256(p) for p in run.outputs},
        "loads": run.loads,
        "warnings": warned,
        "duration_seconds": round(time.time() - started, 3),
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        # a transformer score of more than one chunk cuts a multiple of this many and runs on this many
        # threads; the scores' bytes do not depend on it
        "environment": {**_versions(), "scoring_threads": scoring_threads()},
    }
    with open(f"{run.outputs[0]}.manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load_dataset(path, profile: str, loads: dict) -> dataio.Dataset:
    """Load the CSV, print its load summary and keep it in ``loads`` under the profile."""
    dataset, summary = dataio.load_csv(path, profile)
    print(summary.describe(), file=sys.stderr)
    loads[profile] = asdict(summary)
    return dataset


def cmd_synth(args) -> Run:
    ds = dataio.synth(args.n, seed=args.seed, difficulty=args.difficulty, bayes_error=args.bayes_error)
    dataio.write_csv(ds, args.out)
    print(f"wrote {len(ds)} rows to {args.out}")
    config = {"n": args.n, "difficulty": args.difficulty, "bayes_error": args.bayes_error}
    return Run(config, args.seed, inputs=[], outputs=[args.out])


def _build_train_config(args) -> TrainConfig:
    """Defaults < config file < explicit flags, field by field."""
    merged: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                merged = json.load(handle)
        except (ValueError, RecursionError) as exc:  # bad JSON, bytes that are not UTF-8, or too deep
            raise ConfigError(f"{args.config}: not valid UTF-8 JSON ({exc})")
        if not isinstance(merged, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
    for f in fields(TrainConfig):  # a train flag's dest is its field's name
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
    return TrainConfig.from_dict(merged)


def cmd_train(args) -> Run:
    config, loads = _build_train_config(args).resolved(), {}  # a config error exits before --data is read
    M.KINDS[config.model].shapes(config.hyper(len(PROFILES[args.profile]["features"])))  # so does a size error
    dataset = _load_dataset(args.data, args.profile, loads)
    result = train(dataset, config)
    for row in result.log:
        figures = "".join(f" {f.name}={getattr(row, f.name):.4f}" for f in fields(row)[1:])
        print(f"epoch {row.epoch}/{result.config.epochs}{figures}")
    final = result.log[-1]
    val_metrics = {
        "val_loss": final.val_loss if np.isfinite(final.val_loss) else None,
        "val_acc": final.val_acc if np.isfinite(final.val_acc) else None,
    }
    dataio.save_checkpoint(result.params, result.schema, result.config.recipe(), args.out, metrics=val_metrics)
    outputs = [args.out]
    if args.log:
        write_log(result.log, args.log)
        outputs.append(args.log)
    print(f"saved checkpoint to {args.out}")
    print(f"final validation accuracy: {final.val_acc:.4f}")
    return Run(result.config.to_dict(), result.config.seed, inputs=[args.data], outputs=outputs, loads=loads)


def _scored(model_paths, data_path, loads: dict):
    """Each checkpoint in order, with its scores, the labels and the table it scored: the one scoring path
    of eval, predict and report. A checkpoint is loaded once the one before it has been consumed. The CSV
    is read once per profile, by _load_dataset, and encoded once per schema."""
    tables, encoded = {}, []  # profile -> its table; (schema, its (x, y)) in first-seen order
    for model_path in model_paths:
        checkpoint = dataio.load_checkpoint(model_path)
        schema = checkpoint.schema
        if schema.profile not in tables:
            tables[schema.profile] = _load_dataset(data_path, schema.profile, loads).records
        table = tables[schema.profile]
        xy = next((xy for seen, xy in encoded if seen == schema), None)
        if xy is None:
            xy = encode_batch(table, schema)
            encoded.append((schema, xy))
        x, truths = xy
        yield checkpoint, predict_scores(checkpoint.params, x), truths, table


def cmd_eval(args) -> Run:
    loads = {}
    [(checkpoint, scores, truths, _)] = _scored([args.model], args.data, loads)
    rep = metrics.report(scores, truths, threshold=args.threshold)
    label = args.label or str(args.model)
    print(rep.table(label))
    outputs = []
    if args.out:
        payload = rep.to_dict()
        payload["model_kind"] = checkpoint.params.kind
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        outputs.append(args.out)
    if args.roc:
        rep.roc_csv(args.roc)
        outputs.append(args.roc)
    config = {"threshold": args.threshold, "model_kind": checkpoint.params.kind}
    return Run(config, checkpoint.config.get("seed"), inputs=[args.model, args.data], outputs=outputs, loads=loads)


def cmd_predict(args) -> Run:
    loads = {}
    [(checkpoint, scores, _, table)] = _scored([args.model], args.data, loads)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("row,score,predicted\n")
        for row, score in zip(table.rows.tolist(), scores):
            handle.write(f"{row},{score:.9f},{int(score >= args.threshold)}\n")
    print(f"wrote {len(scores)} predictions to {args.out}")
    config = {"threshold": args.threshold, "model_kind": checkpoint.params.kind}
    return Run(config, checkpoint.config.get("seed"), inputs=[args.model, args.data], outputs=[args.out], loads=loads)


def cmd_report(args) -> Run:
    loads = {}
    scored = zip(args.models, _scored(args.models, args.data, loads))
    rows = [(f"{checkpoint.params.kind}:{path}", metrics.report(scores, truths, threshold=args.threshold))
            for path, (checkpoint, scores, truths, _) in scored]
    text = metrics.render_table(rows)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    config = {"threshold": args.threshold, "models": [str(m) for m in args.models]}
    outputs = [args.out] if args.out else []
    return Run(config, None, inputs=list(args.models) + [args.data], outputs=outputs, loads=loads)


def threshold(text: str) -> float:
    """A finite score cut-off; nan would compare false and call every row normal."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


@cache  # one parser per process: each one holds reference cycles until a full gc
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowids",
        description="Flow-record intrusion detection: synthesize, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic flow CSV")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--difficulty", choices=("separable", "noisy"), default="separable")
    p.add_argument("--bayes-error", type=float, default=0.1, dest="bayes_error",
                   help="target optimal error rate for noisy data")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and save a checkpoint")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--profile", choices=tuple(PROFILES), default="synthetic", help="column profile of the CSV")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--model", choices=tuple(M.KINDS))
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--seed", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--blocks", type=int)
    p.add_argument("--mlp-dim", type=int, dest="mlp_dim")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--no-mask", action="store_false", dest="mask", default=None,
                   help="ablate the causal attention mask")
    p.add_argument("--log", help="write the per-epoch training log CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a CSV with a checkpoint and print metrics")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="CSV to evaluate")
    p.add_argument("--threshold", type=threshold, default=0.5)
    p.add_argument("--label", help="row label in the printed table")
    p.add_argument("--out", help="also write the metrics as JSON here")
    p.add_argument("--roc", help="also write the ROC points as CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write per-row attack scores")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=threshold, default=0.5)
    p.add_argument("--out", required=True, help="output CSV: row,score,predicted")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="compare several checkpoints on one CSV")
    p.add_argument("--models", nargs="+", required=True, help="checkpoint paths")
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=threshold, default=0.5)
    p.add_argument("--out", help="also write the table here")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started, warned = time.time(), []  # each message the command warns of, once, in order

    def show(message, *_):
        if str(message) not in warned:
            warned.append(str(message))
            print(f"warning: {message}", file=sys.stderr)

    try:
        with warnings.catch_warnings():  # puts the filters and showwarning back when the command ends
            warnings.simplefilter("always")  # each warning is a line, never an exception, whatever -W says
            warnings.showwarning = show
            run = args.func(args)
        if run.outputs:
            _write_manifest(args.command, run, started, warned)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
