"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Each criterion records a PASS/FAIL line that conftest prints in the
terminal summary, so a plain ``pytest -v`` run shows all nine verdicts.
Tolerances are part of each criterion's statement.
"""

import json
import time

import numpy as np
import pytest

import verdicts

import flowids.tensor as T
from flowids import metrics
from flowids.dataio import load_checkpoint, save_checkpoint, synth
from flowids.errors import IntegrityError
from flowids.model import encoder_block, forward
from flowids.sentencing import encode_batch, sentence
from flowids.tensor import Tensor
from flowids.training import AdamW, TrainConfig, predict_scores, train
from fd import central_diff, max_rel_error, taped_mean
from models import new_transformer
from oracles import (
    np_auc_pairwise,
    np_encoder_block,
    np_model_logits,
    np_scalar_metrics,
)


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    verdicts.record(line)
    assert ok, line


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


def test_acceptance_1_full_model_gradient_check():
    """Backprop through sentencing + 2 blocks + head agrees with central
    finite differences on every parameter to 1e-4, within 60 seconds."""
    started = time.time()
    params = new_transformer(13, seed=17, dim=8, heads=2, blocks=2)
    x = np.random.default_rng(18).uniform(size=(2, 13))
    tensors = [t for _, t in params.named_parameters()]

    def loss_fn():
        out = forward(x, params)
        return taped_mean(T.mul(out, out))

    T.clear_tape()
    loss = loss_fn()
    T.backward(loss)
    analytic = [t.grad.copy() for t in tensors]
    numeric = central_diff(loss_fn, tensors)
    worst = max(
        max_rel_error(a, n, floor=1e-6) for a, n in zip(analytic, numeric)
    )
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(1, "full-model gradient check", ok,
             f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_2_block_equation_oracle():
    """The block and the full pipeline match an independent straight-line
    numpy transcription to 1e-12, at small and default sizes."""
    worst = 0.0
    small = new_transformer(3, seed=5, dim=4, heads=2, blocks=1)
    z = np.array([[0.3, -1.2, 0.5, 2.0], [1.1, 0.0, -0.7, 0.4], [-0.2, 0.9, 1.5, -1.0]])
    for mask in (True, False):
        got = encoder_block(Tensor(z), small.tensors, "block0.", 2, mask=mask).data
        want = np_encoder_block(z, small.tensors, "block0.", mask=mask)
        worst = max(worst, float(np.max(np.abs(got - want))))

    full = new_transformer(13, seed=6, dim=32, heads=4, blocks=2)
    x = np.random.default_rng(7).uniform(size=(4, 13))
    got = forward(x, full).data
    want = np_model_logits(x, full)
    worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst < 1e-12
    _verdict(2, "encoder equation oracle", ok, f"max abs diff {worst:.2e}")


def test_acceptance_3_mask_causality():
    """Across 100 random inputs, perturbing tokens after position i leaves
    encoder-stack rows 0..i bit-for-bit unchanged."""
    params = new_transformer(13, seed=8, dim=8, heads=2, blocks=2)
    rng = np.random.default_rng(9)

    def stack(vec):
        t = params.tensors
        with T.no_grad():
            z = sentence(Tensor(vec), t["sentencing.embed"], t["sentencing.bias"], t["sentencing.position"])
            for i in range(2):
                z = encoder_block(z, t, f"block{i}.", 2, mask=True)
        return z.data

    ok = True
    for _ in range(100):
        x = rng.uniform(size=(1, 13))
        i = int(rng.integers(0, 12))
        poked = x.copy()
        poked[0, i + 1 :] += rng.uniform(0.1, 1.0, size=12 - i)
        if not np.array_equal(stack(x)[0, : i + 1], stack(poked)[0, : i + 1]):
            ok = False
            break
    _verdict(3, "mask causality", ok, "100 random inputs, bit-exact")


def test_acceptance_4_metric_equivalence():
    """1000 random score sets: scalar metrics match the formula
    transcription to 1e-12 and trapezoid AUC matches the pairwise
    ranking oracle to 1e-9, ties included."""
    rng = np.random.default_rng(10)
    worst_scalar = 0.0
    worst_auc = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(10, 120))
        scores = np.round(rng.uniform(size=n), 2)  # coarse grid forces ties
        truths = rng.integers(0, 2, size=n)
        if truths.min() == truths.max():
            continue
        checked += 1
        counts = metrics.confusion(scores, truths)
        got = metrics.scalar_metrics(counts)
        want = np_scalar_metrics(counts.tp, counts.tn, counts.fp, counts.fn)
        for name in ("accuracy", "precision", "recall", "f1", "fnr", "mcc"):
            worst_scalar = max(worst_scalar, abs(getattr(got, name) - want[name]))
        worst_auc = max(
            worst_auc, abs(metrics.roc_auc(scores, truths) - np_auc_pairwise(scores, truths))
        )
    ok = worst_scalar < 1e-12 and worst_auc < 1e-9
    _verdict(4, "metric equivalence", ok,
             f"scalar diff {worst_scalar:.2e}, auc diff {worst_auc:.2e}")


def test_acceptance_5_optimizer_worked_example():
    """One AdamW step at w=1, g=2, lr=0.1, wd=0.01 reproduces the
    hand-expanded update to 1e-12, through the optimizer training uses."""
    w = Tensor(np.array(1.0), requires_grad=True)
    opt = AdamW([("w", w)], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
    w.grad = np.array(2.0)
    opt.step()
    m, v = opt.state["w"]
    # m = 0.2, v = 0.004; bias correction gives m_hat = 2, sqrt(v_hat) = 2
    expected = 1.0 - 0.1 * (2.0 / (2.0 + 1e-8) + 0.01 * 1.0)
    diff = abs(float(w.data) - expected)
    ok = diff < 1e-12 and abs(float(m) - 0.2) < 1e-15 and abs(float(v) - 0.004) < 1e-15
    _verdict(5, "optimizer worked example", ok, f"|w - expected| = {diff:.2e}")


def test_acceptance_6_separable_training(tmp_path):
    """Default-size transformer on margin-separated synth (n=2000) reaches
    held-out accuracy >= 0.99, FNR <= 0.01, AUC >= 0.995 inside 3 minutes;
    the learning rate that passed is recorded in the checkpoint."""
    started = time.time()
    ds = synth(2000, seed=7, difficulty="separable")
    # paper-style default lr 2e-5 measures 0.9925 here: inside the gate but
    # marginal, so the run pins lr=1e-3 and records it (see decisions ledger)
    config = TrainConfig(model="transformer", lr=1e-3, epochs=10, seed=0)
    result = train(ds, config)
    x, y = encode_batch(result.test.records, result.schema)
    rep = metrics.report(predict_scores(result.params, x), y)
    ckpt = tmp_path / "separable.ckpt"
    save_checkpoint(result.params, result.schema, result.config.to_dict(), ckpt,
                    metrics=rep.to_dict()["metrics"])
    recorded_lr = load_checkpoint(ckpt).config["lr"]
    elapsed = time.time() - started
    ok = (
        rep.metrics.accuracy >= 0.99
        and rep.metrics.fnr <= 0.01
        and rep.auc >= 0.995
        and recorded_lr == 1e-3
        and elapsed < 180.0
    )
    _verdict(6, "separable training", ok,
             f"acc {rep.metrics.accuracy:.4f}, fnr {rep.metrics.fnr:.4f}, "
             f"auc {rep.auc:.4f}, lr {recorded_lr}, {elapsed:.0f}s")


def test_acceptance_7_noisy_training_band():
    """On label-noise synth calibrated to Bayes error 0.10 (n=5000), both
    models land in [0.85, 0.93] held-out accuracy with AUC <= 0.98: below
    means failure to learn, above means leakage past the noise floor."""
    ds = synth(5000, seed=11, difficulty="noisy", bayes_error=0.1)
    results = {}
    for model in ("transformer", "fnn"):
        res = train(ds, TrainConfig(model=model, seed=0))
        x, y = encode_batch(res.test.records, res.schema)
        rep = metrics.report(predict_scores(res.params, x), y)
        results[model] = (rep.metrics.accuracy, rep.auc)
    ok = all(
        0.85 <= acc <= 0.93 and auc <= 0.98 for acc, auc in results.values()
    )
    detail = ", ".join(f"{m} acc {a:.4f} auc {u:.4f}" for m, (a, u) in results.items())
    _verdict(7, "noisy-data band", ok, detail)


def test_acceptance_8_determinism(tmp_path):
    """Same seed, same data: checkpoint files byte-identical and the
    metrics JSON identical across two independent runs."""
    blobs = []
    payloads = []
    for run in range(2):
        ds = synth(300, seed=42, difficulty="separable")
        cfg = TrainConfig(model="transformer", dim=8, heads=2, blocks=1, lr=1e-3, seed=0)
        res = train(ds, cfg)
        x, y = encode_batch(res.test.records, res.schema)
        rep = metrics.report(predict_scores(res.params, x), y)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(res.params, res.schema, res.config.to_dict(), path,
                        metrics=rep.to_dict()["metrics"])
        blobs.append(path.read_bytes())
        payloads.append(json.dumps(rep.to_dict(), sort_keys=True))
    ok = blobs[0] == blobs[1] and payloads[0] == payloads[1]
    _verdict(8, "end-to-end determinism", ok,
             f"{len(blobs[0])} checkpoint bytes compared")


def test_acceptance_9_checkpoint_integrity(tmp_path):
    """Round trip restores every array bit-exactly plus schema and config;
    flipping a single payload byte is detected as corruption."""
    ds = synth(60, seed=1, difficulty="separable")
    res = train(ds, TrainConfig(model="transformer", dim=8, heads=2, blocks=1, epochs=1, seed=0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(res.params, res.schema, res.config.to_dict(), path)
    ck = load_checkpoint(path)
    round_trip = (
        ck.schema == res.schema
        and ck.config == res.config.to_dict()
        and all(
            np.array_equal(ta.data, tb.data)
            for (_, ta), (_, tb) in zip(
                res.params.named_parameters(), ck.params.named_parameters()
            )
        )
    )
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
        detected = False
    except IntegrityError:
        detected = True
    ok = round_trip and detected
    _verdict(9, "checkpoint integrity", ok,
             f"round trip {'ok' if round_trip else 'BROKEN'}, "
             f"corruption {'detected' if detected else 'MISSED'}")
