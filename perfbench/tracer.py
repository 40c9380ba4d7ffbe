"""Layer tracing of flowids from outside the package.

`Tracer.install()` replaces each traced public function, at every flowids
module that binds it, with a wrapper that records a span: name, start, end
and the index of the enclosing span. `Tracer.uninstall()` puts every
original back. The wrappers only call through, so a traced run computes
bit-identical results; the benchmark checks that on every traced run.

Besides spans the tracer keeps a few counts at the same boundaries:

- `tensor.record` is wrapped so that each backward closure an op puts on
  the tape is itself timed, as a span named ``bwd.<op span name>``;
- `tensor.backward` spans carry the tape length when `backward` is entered;
- `reshape` and `transpose` spans carry the bytes of their output;
- `load_csv`, `fit_schema`, `encode_batch` and `predict_scores` spans carry
  their row count, and `load_csv` adds its rejected rows to a counter;
- `parse_cell` is counted, not spanned, because it runs once per cell.

`layer_metrics()` turns the spans and counts into the per-layer figures.
"""

from __future__ import annotations

import gzip
import importlib
import math
from time import perf_counter

TENSOR_OPS = (
    "matmul",
    "add",
    "mul",
    "scale",
    "relu",
    "softmax",
    "layer_norm",
    "transpose",
    "reshape",
    "causal_mask",
    "concat_last_axis",
)

MODULES = ("tensor", "sentencing", "model", "training", "dataio", "metrics", "cli")

# (module, attribute) of every function that gets a span.
SPANNED = (
    [("tensor", op) for op in TENSOR_OPS]
    + [
        ("tensor", "backward"),
        ("sentencing", "sentence"),
        ("sentencing", "fit_schema"),
        ("sentencing", "encode_batch"),
        ("model", "forward"),
        ("model", "encoder_block"),
        ("model", "attention"),
        ("model", "fnn_forward"),
        ("training", "train"),
        ("training", "evaluate"),
        ("training", "predict_scores"),
        ("training", "cross_entropy"),
        ("dataio", "split"),
        ("dataio", "load_csv"),
        ("dataio", "load_checkpoint"),
        ("dataio", "save_checkpoint"),
        ("metrics", "report"),
        ("metrics", "render_table"),
        ("cli", "main"),
        ("cli", "_write_manifest"),
    ]
)

# A call made inside one of these spans runs under tensor.no_grad().
NO_GRAD_PARENTS = ("training.evaluate", "training.predict_scores")


class _JsonProxy:
    """Stands in for the `json` module inside `cli` so `json.dump` is timed."""

    def __init__(self, real, dump):
        self._real = real
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Installs span wrappers on flowids, keeps the spans, restores the originals."""

    def __init__(self):
        self.package = importlib.import_module("flowids")
        self.modules = {name: importlib.import_module(f"flowids.{name}") for name in MODULES}
        self.spans: list[list] = []  # [name, start, end, parent index, extra]
        self.parse_cell_calls = 0
        self.useful_cells = 0  # non-nominal cells of the distinct records, per install
        self.rows_rejected = 0
        self.seen_records: dict[int, tuple[object, int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ wrappers

    def _wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _extra_for(self, attr: str):
        """The count a span carries, computed after the call returns."""
        if attr in ("reshape", "transpose"):
            return lambda args, kwargs, out: out.data.nbytes
        if attr == "load_csv":
            def loaded(args, kwargs, result):
                dataset, summary = result
                self.rows_rejected += summary.rows_rejected
                return len(dataset.records) + summary.rows_rejected
            return loaded
        if attr in ("fit_schema", "encode_batch"):
            return self._note_records
        if attr == "predict_scores":
            return lambda args, kwargs, scores: len(scores)
        return None

    def _note_records(self, args, kwargs, result):
        records, layout = args[0], args[1]
        kinds = (
            [spec.kind for spec in layout.features]
            if hasattr(layout, "features")
            else [kind for _, kind in self.modules["sentencing"].profile_columns(layout)["features"]]
        )
        parsed = sum(kind != self.modules["sentencing"].NOMINAL for kind in kinds)
        for rec in records:
            self.seen_records[id(rec)] = (rec, parsed)
        return len(records)

    def _wrap_backward(self, fn):
        tensor = self.modules["tensor"]
        traced = self._wrap("tensor.backward", fn)

        def backward(loss):
            # the tape length at entry rides on the span that opens next
            depth = len(tensor.active_tape())
            index = len(self.spans)
            result = traced(loss)
            self.spans[index][4] = depth
            return result

        backward.__wrapped__ = fn
        return backward

    def _wrap_record(self, fn):
        spans, stack, wrap = self.spans, self._stack, self._wrap

        def record(out, inputs, backward):
            op = spans[stack[-1]][0] if stack else "untraced"
            return fn(out, inputs, wrap("bwd." + op, backward))

        record.__wrapped__ = fn
        return record

    def _wrap_parse_cell(self, fn):
        def parse_cell(cell, kind):
            self.parse_cell_calls += 1
            return fn(cell, kind)

        parse_cell.__wrapped__ = fn
        return parse_cell

    # ------------------------------------------------------------ install/restore

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind `original` to `replacement` in every flowids module namespace."""
        owners = [self.package] + list(self.modules.values())
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, attr in SPANNED:
            original = getattr(self.modules[module], attr)
            if (module, attr) == ("tensor", "backward"):
                wrapper = self._wrap_backward(original)
            else:
                wrapper = self._wrap(f"{module}.{attr}", original, self._extra_for(attr))
            self._patch_everywhere(original, wrapper)
        tensor, sentencing = self.modules["tensor"], self.modules["sentencing"]
        self._patch_everywhere(tensor.record, self._wrap_record(tensor.record))
        self._patch_everywhere(sentencing.parse_cell, self._wrap_parse_cell(sentencing.parse_cell))

        adamw = self.modules["training"].AdamW
        self._patched.append((adamw, "step", adamw.step))
        adamw.step = self._wrap("training.AdamW.step", adamw.step)

        cli = self.modules["cli"]
        self._patched.append((cli, "json", cli.json))
        cli.json = _JsonProxy(cli.json, self._wrap("cli.json_dump", cli.json.dump))

    def uninstall(self) -> list[str]:
        """Restore every original; return the names that did not come back."""
        self.useful_cells += sum(parsed for _, parsed in self.seen_records.values())
        self.seen_records.clear()
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner)[attr] is not original
        ]
        self._patched.clear()
        return left

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        left = self.uninstall()
        if left:
            raise RuntimeError(f"tracer left wrappers in place: {left}")
        return False

    # ---------------------------------------------------------------- output

    def parse_useful_ratio(self) -> float:
        """Non-nominal cells of the records each traced region saw, over parse_cell calls."""
        return self.useful_cells / self.parse_cell_calls if self.parse_cell_calls else 0.0

    def write_spans(self, path) -> None:
        """Write the spans as gzip CSV: index, name, start_us, end_us, parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index,name,start_us,end_us,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                handle.write(
                    f"{i},{name},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},{parent}\n"
                )


# ---------------------------------------------------------------- per-layer metrics


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, per_step: str) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans, as name -> (value, unit).

    per_step is "tape" when a step is an on-tape training step (per-step
    figures then use spans outside evaluate/predict_scores, divided by the
    AdamW.step count) or "no_grad" when a step is one inference batch
    (spans under evaluate/predict_scores, divided by the forward count).
    """
    spans = tracer.spans
    n = len(spans)
    no_grad = [False] * n
    under_train = [-1] * n  # index of the enclosing training.train span
    child_time = [0.0] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            no_grad[i] = no_grad[parent] or spans[parent][0] in NO_GRAD_PARENTS
            under_train[i] = parent if spans[parent][0] == "training.train" else under_train[parent]
            child_time[parent] += end - start
    want_no_grad = per_step == "no_grad"

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    extra: dict[str, float] = {}
    for i, (name, start, end, parent, ext) in enumerate(spans):
        key = name if no_grad[i] == want_no_grad else "other:" + name
        total[key] = total.get(key, 0.0) + (end - start)
        self_time[key] = self_time.get(key, 0.0) + (end - start - child_time[i])
        calls[key] = calls.get(key, 0) + 1
        if ext is not None:
            extra[key] = extra.get(key, 0.0) + ext
        # whole-run figures, context aside
        whole = "all:" + name
        total[whole] = total.get(whole, 0.0) + (end - start)
        self_time[whole] = self_time.get(whole, 0.0) + (end - start - child_time[i])
        calls[whole] = calls.get(whole, 0) + 1
        if ext is not None:
            extra[whole] = extra.get(whole, 0.0) + ext

    if want_no_grad:
        steps = calls.get("model.forward", 0) + calls.get("model.fnn_forward", 0)
    else:
        steps = calls.get("training.AdamW.step", 0)

    def per_step_ms(key, table=total):
        return table.get(key, 0.0) * 1e3 / steps if steps else 0.0

    def per_call_ms(name):
        count = calls.get("all:" + name, 0)
        return total.get("all:" + name, 0.0) * 1e3 / count if count else 0.0

    def per_row_us(name):
        rows = extra.get("all:" + name, 0.0)
        return total.get("all:" + name, 0.0) * 1e6 / rows if rows else 0.0

    out: dict[str, tuple[float, str]] = {}
    for op in TENSOR_OPS:
        out[f"tensor.fwd_ms.{op}"] = (per_step_ms(f"tensor.{op}"), "ms")
    for op in TENSOR_OPS:
        out[f"tensor.bwd_ms.{op}"] = (per_step_ms(f"bwd.tensor.{op}"), "ms")
    backward_calls = calls.get("tensor.backward", 0)
    out["tensor.backward_ms_per_step"] = (per_step_ms("tensor.backward"), "ms")
    out["tensor.tape_records_per_step"] = (
        extra.get("tensor.backward", 0.0) / backward_calls if backward_calls else 0.0,
        "count",
    )
    op_calls = sum(calls.get(f"tensor.{op}", 0) for op in TENSOR_OPS)
    out["tensor.op_calls_per_step"] = (op_calls / steps if steps else 0.0, "count")
    copied = extra.get("tensor.reshape", 0.0) + extra.get("tensor.transpose", 0.0)
    out["tensor.copied_mb_per_step"] = (copied / 1e6 / steps if steps else 0.0, "MB")

    out["model.forward_self_ms"] = (per_step_ms("model.forward", self_time), "ms")
    out["model.encoder_block_self_ms"] = (per_step_ms("model.encoder_block", self_time), "ms")
    out["model.attention_self_ms"] = (per_step_ms("model.attention", self_time), "ms")
    out["model.fnn_forward_ms"] = (per_step_ms("model.fnn_forward"), "ms")
    out["sentencing.sentence_ms"] = (per_step_ms("sentencing.sentence"), "ms")

    # step intervals: between consecutive AdamW.step returns inside one train
    # call, leaving out the intervals that hold an epoch's evaluate passes
    intervals: list[float] = []
    last_end: dict[int, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        owner = under_train[i]
        if owner < 0 or no_grad[i]:
            continue
        if name == "training.AdamW.step":
            if owner in last_end:
                intervals.append((end - last_end[owner]) * 1e3)
            last_end[owner] = end
        elif name == "training.evaluate":
            last_end.pop(owner, None)
    out["training.step_ms_p50"] = (_quantile(intervals, 0.5) if intervals else 0.0, "ms")
    out["training.step_ms_p99"] = (_quantile(intervals, 0.99) if intervals else 0.0, "ms")
    out["training.step_samples"] = (float(len(intervals)), "count")
    out["training.loss_ms_per_step"] = (per_step_ms("training.cross_entropy"), "ms")
    out["training.adamw_ms_per_step"] = (per_step_ms("training.AdamW.step"), "ms")

    train_time = total.get("all:training.train", 0.0)
    train_calls = calls.get("all:training.train", 0)
    evaluate_in_train = 0.0
    prepare = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0 and spans[parent][0] == "training.train":
            if name == "training.evaluate":
                evaluate_in_train += end - start
            elif name in ("dataio.split", "sentencing.fit_schema", "sentencing.encode_batch"):
                prepare += end - start
    out["training.evaluate_share"] = (evaluate_in_train / train_time if train_time else 0.0, "1")
    out["training.prepare_ms"] = (prepare * 1e3 / train_calls if train_calls else 0.0, "ms")
    out["dataio.split_ms"] = (per_call_ms("dataio.split"), "ms")

    rows = extra.get("all:training.predict_scores", 0.0)
    out["training.predict_scores_ms_per_krow"] = (
        total.get("all:training.predict_scores", 0.0) * 1e6 / rows if rows else 0.0,
        "ms",
    )
    out["dataio.load_csv_us_per_row"] = (per_row_us("dataio.load_csv"), "us")
    out["sentencing.encode_batch_us_per_row"] = (per_row_us("sentencing.encode_batch"), "us")
    out["sentencing.fit_schema_us_per_row"] = (per_row_us("sentencing.fit_schema"), "us")
    out["sentencing.parse_useful_ratio"] = (tracer.parse_useful_ratio(), "1")
    out["dataio.load_checkpoint_ms"] = (per_call_ms("dataio.load_checkpoint"), "ms")
    out["metrics.report_ms"] = (per_call_ms("metrics.report"), "ms")
    cli_calls = calls.get("all:cli.main", 0)
    out["cli.self_ms"] = (
        self_time.get("all:cli.main", 0.0) * 1e3 / cli_calls if cli_calls else 0.0,
        "ms",
    )
    out["dataio.rows_rejected"] = (float(tracer.rows_rejected), "count")
    return out
