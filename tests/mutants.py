"""Mutant census: would the tests notice a wrong program?

Each mutant names one small wrong edit of the package: a file, an exact
text that occurs there once, the text that replaces it, and the tests that
should notice. A mutant may instead be marked equivalent, with the reason
why the edit changes nothing the program does; its tests must then pass.
For each mutant the census copies src/, tests/, demos/ and
pyproject.toml into a temporary directory, applies the edit there, and runs
``pytest -x`` on the mutant's tests with that copy first on the import path.
A failing run kills the mutant; a passing run lets it survive. The checkout
itself is never edited.

Run from the repository root:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # only these

It prints one line per mutant and then the survivors. It exits 0 when every
mutant is killed and every equivalent one survives, 1 when a mutant survives
or an equivalent one is killed, and 2 when a mutant's text does not occur
exactly once in its file, so the census has fallen behind the code.
pytest does not collect this file (its name does not start with ``test_``);
a census run takes minutes, because each mutant runs its tests again.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in file
    new: str
    tests: tuple[str, ...]  # pytest arguments: test files, or node ids within them
    equivalent: str = ""  # "equivalent, because ...": the edit changes nothing, so the tests must pass


MUTANTS = [
    # three survivors of an earlier hand census, each since killed by a test
    Mutant("accuracy-strict-at-one-half", "src/flowids/training.py",
           "(_scores(logits) >= 0.5)", "(_scores(logits) > 0.5)", ("tests/test_training.py",)),
    Mutant("warning-printed-each-time", "src/flowids/cli.py",
           "        if str(message) not in warned:\n", "        if True:\n", ("tests/test_cli.py::TestWarnings",)),
    Mutant("unbroadcast-only-long-axes", "src/flowids/tensor.py",
           "n == 1 and grad.shape[i] != 1", "n == 1 and grad.shape[i] > 2", ("tests/test_tensor.py",)),
    # the size rules of a hyper dict, each checked by its kind's shapes
    *(
        Mutant(f"transformer-{size}-unchecked", "src/flowids/model.py",
               "_refuse_nonpositive(dim=d, heads=heads, blocks=blocks, mlp_dim=m, tokens=t)",
               "_refuse_nonpositive(" + ", ".join(
                   f"{k}={v}" for k, v in (("dim", "d"), ("heads", "heads"), ("blocks", "blocks"),
                                           ("mlp_dim", "m"), ("tokens", "t")) if k != size) + ")",
               ("tests/test_model.py",))
        for size in ("dim", "heads", "blocks", "mlp_dim", "tokens")
    ),
    Mutant("heads-need-only-not-exceed-dim", "src/flowids/model.py",
           "if d % heads != 0:", "if d < heads:", ("tests/test_model.py",)),
    Mutant("transformer-mask-only-not-none", "src/flowids/model.py",
           "if not isinstance(mask, bool):", "if mask is None:", ("tests/test_model.py",)),
    Mutant("fnn-features-unchecked", "src/flowids/model.py",
           "_refuse_nonpositive(features=features, hidden=hidden)",
           "_refuse_nonpositive(hidden=hidden)", ("tests/test_model.py",)),
    Mutant("fnn-second-hidden-unchecked", "src/flowids/model.py",
           "_refuse_nonpositive(features=features, hidden=hidden)",
           "_refuse_nonpositive(features=features, hidden=hidden[:1])", ("tests/test_model.py",)),
    Mutant("fnn-hidden-unpacked-early", "src/flowids/model.py",
           "        features, hidden = _fields(h, \"features\", \"hidden\")\n",
           "        features, hidden = _fields(h, \"features\", \"hidden\")\n        h1, h2 = hidden\n",
           ("tests/test_model.py",)),
    Mutant("unknown-hyper-field-allowed", "src/flowids/model.py",
           "    if unknown:\n", "    if False:\n", ("tests/test_model.py",)),
    Mutant("sizes-of-zero-allowed", "src/flowids/model.py",
           "type(n) is int and n >= 1", "type(n) is int and n >= 0", ("tests/test_model.py",)),
    Mutant("bool-accepted-as-size", "src/flowids/model.py",
           "type(n) is int", "isinstance(n, int)", ("tests/test_model.py",)),
    Mutant("transformer-budget-unchecked", "src/flowids/model.py",
           "_refuse_oversized(5 * t * d + 2 + blocks * (4 * d * d + 2 * d * m + m + 7 * d),\n"
           "                          dim=d, blocks=blocks, mlp_dim=m, tokens=t)", "pass",
           ("tests/test_model.py",)),
    Mutant("fnn-budget-unchecked", "src/flowids/model.py",
           "_refuse_oversized(sum(math.prod(shape) for _, shape in layout), features=features, hidden=hidden)", "pass",
           ("tests/test_model.py",)),
    # a built model's hyper dict records its kind, whatever dict it was built from
    Mutant("model-kind-not-stamped", "src/flowids/model.py",
           "copy.deepcopy({**h, \"kind\": self.kind})", "copy.deepcopy(h)", ("tests/test_model.py::TestKindInterface",)),
    # a train config's sizes are checked, through shapes, at the profile's width before any data is read
    Mutant("cli-sizes-unchecked", "src/flowids/cli.py",
           "M.KINDS[config.model].shapes(config.hyper(len(PROFILES[args.profile][\"features\"])))", "pass",
           ("tests/test_cli.py::TestTrain",)),
    Mutant("train-splits-before-init", "src/flowids/training.py",
           "    params = M.KINDS[config.model].init(config.hyper(len(profile_columns(dataset.profile)[\"features\"])), "
           "config.seed)\n    train_ds, val_ds, test_ds = dataio.split(dataset, config.split_fractions, config.seed)\n",
           "    train_ds, val_ds, test_ds = dataio.split(dataset, config.split_fractions, config.seed)\n"
           "    params = M.KINDS[config.model].init(config.hyper(len(profile_columns(dataset.profile)[\"features\"])), "
           "config.seed)\n",
           ("tests/test_training.py::TestTrainConfig",)),
    Mutant("config-mask-checked-by-transformer-only", "src/flowids/training.py",
           "        if not isinstance(cfg.mask, bool):\n",
           "        if cfg.model == \"transformer\" and not isinstance(cfg.mask, bool):\n",
           ("tests/test_training.py",)),
    Mutant("config-mlp-dim-default-halved", "src/flowids/training.py",
           "4 * self.dim if self.mlp_dim is None", "2 * self.dim if self.mlp_dim is None",
           ("tests/test_training.py",)),
    Mutant("train-reads-data-before-config", "src/flowids/cli.py",
           "_build_train_config(args).resolved(), {}", "_build_train_config(args), {}",
           ("tests/test_cli.py::TestTrain",)),
    Mutant("config-real-past-float-range-accepted", "src/flowids/training.py",
           "        return math.nan\n", "        return 1.0\n",
           ("tests/test_cli.py::TestTrain::test_config_error_exits_2_before_data_is_read",)),
    # a scoring forward stacks every head and must give the taped head-by-head bytes
    Mutant("stacked-heads-joined-in-reverse", "src/flowids/model.py",
           "np.moveaxis(joined, 0, -2)", "np.moveaxis(joined[::-1], 0, -2)",
           ("tests/test_model.py::TestAttention",)),
    Mutant("stacked-w-k-before-w-q", "src/flowids/model.py",
           "for name in (\"w_q\", \"w_k\", \"w_v\") for h in range(heads)",
           "for name in (\"w_k\", \"w_q\", \"w_v\") for h in range(heads)",
           ("tests/test_model.py::TestAttention",)),
    # the checks of load_checkpoint that no hyper dict makes: version, schema width, body length, feature range
    Mutant("checkpoint-version-only-not-newer", "src/flowids/dataio.py",
           "if version != CHECKPOINT_VERSION:", "if version > CHECKPOINT_VERSION:",
           ("tests/test_dataio.py::TestCheckpoint",)),
    Mutant("checkpoint-schema-width-unchecked", "src/flowids/dataio.py",
           "if width != schema.width:", "if False:", ("tests/test_dataio.py::TestCheckpoint",)),
    Mutant("checkpoint-body-only-not-short", "src/flowids/dataio.py",
           "if more or 8 * need != size:", "if more or 8 * need > size:", ("tests/test_dataio.py::TestCheckpoint",)),
    Mutant("feature-range-unchecked", "src/flowids/sentencing.py",
           "if lo > hi:", "if False:", ("tests/test_dataio.py::TestCheckpoint",)),
    # the v3 header states each fact once: a vocabulary cell, a header field and a schema field are each known
    Mutant("vocab-repeated-cell-accepted", "src/flowids/sentencing.py",
           " or len(set(state)) < len(state)", "", ("tests/test_dataio.py::TestCheckpoint",)),
    Mutant("unknown-header-key-accepted", "src/flowids/dataio.py",
           "sorted(header.keys() ^ set(_HEADER_KEYS))", "sorted(set(_HEADER_KEYS) - header.keys())",
           ("tests/test_dataio.py::TestCheckpoint",)),
    Mutant("unknown-schema-key-accepted", "src/flowids/sentencing.py",
           "sorted(d.keys() ^ {\"profile\", \"features\"})", "sorted({\"profile\", \"features\"} - d.keys())",
           ("tests/test_dataio.py::TestCheckpoint",)),
    # the chunk rule of _batched_logits and the threads that score a transformer's chunks
    Mutant("chunk-count-not-rounded-to-threads", "src/flowids/training.py",
           "        chunks = -(-chunks // workers) * workers\n", "        pass\n",
           ("tests/test_training.py::TestParallelScoring",)),
    Mutant("highest-failing-chunk-raised", "src/flowids/training.py",
           "raise failures[min(failures)]", "raise failures[max(failures)]",
           ("tests/test_training.py::TestParallelScoring",)),
    Mutant("scoring-helpers-not-joined", "src/flowids/training.py",
           "                helper.join()\n", "                pass\n",
           ("tests/test_training.py::TestParallelScoring",)),
    Mutant("scoring-helper-outside-callers-context", "src/flowids/training.py",
           "target=contextvars.copy_context().run, args=(score,)", "target=score",
           ("tests/test_training.py::TestParallelScoring",)),
    Mutant("scoring-helper-catches-only-exception", "src/flowids/training.py",
           "except BaseException as exc:", "except Exception as exc:",
           ("tests/test_training.py::TestParallelScoring",)),
    # the exit-code table
    Mutant("data-error-exits-2", "src/flowids/cli.py", "    DataError: 3,", "    DataError: 2,", ("tests/test_cli.py",)),
    # the ingest rules of load_csv, parse_column and encode_column
    Mutant("missing-nominal-cell-not-rejected", "src/flowids/dataio.py",
           "bad = dict.fromkeys(missing, MISSING_CELL)", "bad = {}",
           ("tests/test_dataio.py::TestLoadCsvReadsLikeDictReader", "tests/test_dataio.py::TestMissingCells")),
    Mutant("blank-rows-kept", "src/flowids/dataio.py",
           "rows = [row for row in block if row]", "rows = block",
           ("tests/test_dataio.py::TestLoadCsvReadsLikeDictReader",)),
    Mutant("repeated-header-takes-first-column", "src/flowids/dataio.py",
           "at = {name: i for i, name in enumerate(header)}", "at = {name: header.index(name) for name in header}",
           ("tests/test_dataio.py::TestLoadCsvReadsLikeDictReader",)),
    # load_csv checks each block as it reads it, and write_csv writes block by block
    Mutant("nominal-index-restarts-each-block", "src/flowids/dataio.py",
           "_checked(cells.pop(label), cells, kinds, indexes)",
           "_checked(cells.pop(label), cells, kinds, indexes := {name: {} for name in indexes})",
           ("tests/test_dataio.py::TestLoadCsvBlocks",)),
    Mutant("block-rejects-not-offset", "src/flowids/dataio.py",
           "reasons.update((n + i, reason) for i, reason in bad.items())",
           "reasons.update((i, reason) for i, reason in bad.items())", ("tests/test_dataio.py::TestLoadCsvBlocks",)),
    Mutant("write-csv-first-block-only", "src/flowids/dataio.py",
           "for start in range(0, len(table), BLOCK_ROWS):", "for start in range(0, min(len(table), 1), BLOCK_ROWS):",
           ("tests/test_dataio.py::TestLoadCsvBlocks",)),
    Mutant("float-pass-finite-unchecked", "src/flowids/sentencing.py",
           "if np.isfinite(values).all():", "if True:", ("tests/test_sentencing.py",)),
    Mutant("unseen-value-index-one", "src/flowids/sentencing.py",
           "self.vocab.get(level, 0)", "self.vocab.get(level, 1)", ("tests/test_sentencing.py",)),
    # each column is one array: nominal codes into levels, keyed by str on the hand-built path, a vocabulary
    # in first-appearance order within the table fitted, and values written as text that reads back
    Mutant("vocab-ordered-by-level-index", "src/flowids/sentencing.py",
           "np.sort(np.unique(column, return_index=True)[1])", "np.unique(column, return_index=True)[1]",
           ("tests/test_sentencing.py",)),
    Mutant("hand-built-nominal-cell-not-str", "src/flowids/dataio.py",
           "[None if cell is None else str(cell) for cell in column]", "list(column)",
           ("tests/test_dataio.py::TestFlowTable",)),
    Mutant("write-csv-values-as-repr", "src/flowids/dataio.py",
           "[repr(v).removesuffix(\".0\") for v in column]", "[repr(v) for v in column]",
           ("tests/test_properties.py::test_csv_round_trip_keeps_values_labels_and_order",)),
    # a row's logits do not depend on its call, and an int cell beyond the float range is a bad cell
    Mutant("one-row-product-not-stacked", "src/flowids/tensor.py",
           "        if len(a) == 1:\n            return np.matmul(np.vstack((a, a)), b)[:1]\n", "",
           ("tests/test_properties.py::test_fnn_logits_of_a_row_do_not_depend_on_its_chunk",)),
    Mutant("parse-number-overflow-uncaught", "src/flowids/sentencing.py",
           "    except (TypeError, ValueError, OverflowError):\n        raise DataError(f\"cannot parse numeric",
           "    except (TypeError, ValueError):\n        raise DataError(f\"cannot parse numeric",
           ("tests/test_sentencing.py",)),
    # each name stated once: the log's columns are EpochStats' fields, a report's figures its tuples' fields
    Mutant("log-header-loses-a-field", "src/flowids/training.py",
           "[f.name for f in fields(EpochStats)]", "[f.name for f in fields(EpochStats)][:-1]",
           ("tests/test_training.py::TestTrainLoop::test_log_csv_round_trip",)),
    Mutant("report-dict-loses-auc", "src/flowids/metrics.py",
           "{**self.metrics._asdict(), \"auc\": self.auc}", "self.metrics._asdict()", ("tests/test_metrics.py",)),
    # a synthetic table past its row bound is refused before anything is allocated
    Mutant("synth-rows-unbounded", "src/flowids/dataio.py",
           "    if n > MAX_SYNTH_ROWS:\n", "    if False:\n", ("tests/test_dataio.py::TestSynth",)),
    # equivalent edits: each must pass its tests
    Mutant("roc-order-not-stable", "src/flowids/metrics.py",
           "np.argsort(-scores, kind=\"stable\")", "np.argsort(-scores)", ("tests/test_metrics.py",),
           equivalent="equivalent, because the curve takes a point only at the end of each run of equal scores, "
                      "where the sum over the run does not depend on the order within it"),
]


def mutated(mutant: Mutant, root: Path) -> str:
    """mutant.file under root with the edit made; ValueError unless mutant.old occurs there exactly once."""
    text = (root / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the text to replace occurs {text.count(mutant.old)} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def killed(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail on a mutated copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="flowids-mutant-") as tmp:
        root = Path(tmp)
        for name in ("src", "tests", "demos"):
            shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", root / "pyproject.toml")
        (root / mutant.file).write_text(mutated(mutant, root), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
        where = subprocess.run([sys.executable, "-c", "import flowids; print(flowids.__file__)"],
                               cwd=root, env=env, capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).is_relative_to(root):
            raise RuntimeError(f"the mutated copy imports flowids from {where}, not from {root}")
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
                             cwd=root, env=env, capture_output=True, text=True)
        if run.returncode not in (0, 1, 2):  # 2: a test module failed to import, which kills the mutant too
            raise RuntimeError(f"{mutant.name}: pytest exited {run.returncode}, so its tests did not run:\n{run.stdout}")
        return run.returncode != 0


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    for mutant in chosen:  # every text is checked before any test runs
        try:
            mutated(mutant, ROOT)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    wrong = []  # a mutant that survived, or an equivalent one that was killed
    for mutant in chosen:
        started = time.monotonic()
        dead = killed(mutant)
        verdict = ("KILLED  " if dead else "survived") if mutant.equivalent else ("killed  " if dead else "SURVIVED")
        print(f"{verdict} {mutant.name} ({time.monotonic() - started:.0f} s)", flush=True)
        if dead == bool(mutant.equivalent):
            wrong.append(mutant.name)
    equivalent = sum(bool(m.equivalent) for m in chosen)
    print(f"{len(chosen) - len(wrong)} of {len(chosen)} mutants killed, or survived if equivalent "
          f"({equivalent} equivalent); wrong: {', '.join(wrong) or 'none'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
