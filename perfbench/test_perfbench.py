"""Tests of the benchmark's tracer: it must not change results, and must clean up.

    python3 -m pytest perfbench/test_perfbench.py
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import flowids  # noqa: E402
from flowids import dataio, training  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every flowids module, plus the patched class and json."""
    owners = [flowids] + [importlib.import_module(f"flowids.{name}") for name in tracer.MODULES]
    out = {(owner.__name__, attr): value for owner in owners for attr, value in vars(owner).items()}
    out[("AdamW", "step")] = vars(training.AdamW)["step"]
    return out


def train_checkpoint(path: Path) -> bytes:
    """A train_transformer operation at small size: default encoder, batch 16."""
    result = training.train(workloads.noisy(160, seed=3), workloads.train_config(epochs=1))
    dataio.save_checkpoint(result.params, result.schema, result.config.to_dict(), path)
    return path.read_bytes()


def test_traced_training_is_bit_identical_and_restores_every_name(tmp_path):
    before = bindings()
    untraced = train_checkpoint(tmp_path / "untraced.ckpt")
    tr = tracer.Tracer()
    with tr:
        assert flowids.tensor.matmul is not before[("flowids.tensor", "matmul")]
        assert flowids.training.encode_batch is not before[("flowids.training", "encode_batch")]
        traced = train_checkpoint(tmp_path / "traced.ckpt")
    assert traced == untraced
    after = bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    figures = tracer.layer_metrics(tr, per_step="tape")
    assert figures["tensor.tape_records_per_step"] == (103.0, "count")
    assert figures["tensor.op_calls_per_step"] == (103.0, "count")
    assert figures["training.step_samples"][0] > 0


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    # name, start, end, parent, extra: forward 0..10 holding two ops of 2 and 3
    tr.spans.extend([
        ["model.forward", 0.0, 10.0, -1, None],
        ["tensor.matmul", 1.0, 3.0, 0, None],
        ["tensor.add", 4.0, 7.0, 0, None],
        ["training.AdamW.step", 11.0, 12.0, -1, None],
    ])
    figures = tracer.layer_metrics(tr, per_step="tape")
    assert figures["model.forward_self_ms"][0] == pytest.approx(5e3)
    assert figures["tensor.fwd_ms.matmul"][0] == pytest.approx(2e3)
    assert figures["training.adamw_ms_per_step"][0] == pytest.approx(1e3)


def test_benchmark_json_names_what_a_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    one = [(1.0, 1.0)]
    samples = {("train", False): one, ("eval", False): one}
    end_to_end = workloads.outcome(
        workloads.Ledger(), samples, False, None, None, "tape", one, 0.9
    ).figures
    layers = tracer.layer_metrics(tracer.Tracer(), per_step="tape")
    layers["perfbench.trace_overhead_pct"] = (0.0, "%")
    for listed, printed in ((spec["end_to_end"], end_to_end), (spec["per_layer"], layers)):
        assert [(m["name"], m["unit"]) for m in listed] == [(n, u) for n, (_, u) in printed.items()]


def test_install_twice_is_refused():
    tr = tracer.Tracer()
    with tr:
        with pytest.raises(RuntimeError):
            tr.install()
