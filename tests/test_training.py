"""Loss, optimizer, and training-loop behavior."""

import contextlib
import dataclasses
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import flowids.tensor as T
from flowids import dataio, metrics, training
from flowids.errors import ConfigError, ContractError, DataError, IncompatibilityError, NumericError
from flowids.model import KINDS
from flowids.sentencing import encode_batch, fit_schema
from flowids.tensor import Tensor
from flowids.training import (
    MODEL_DEFAULTS,
    AdamW,
    TrainConfig,
    cross_entropy,
    evaluate,
    predict_scores,
    train,
)
from fd import central_diff, max_rel_error
from models import new_fnn, new_transformer
from oracles import np_adamw, np_fnn_logits, np_model_logits, np_softmax


def _default_step_inputs(batch: int):
    """The default encoder (dim 32, 4 heads, 2 blocks, 13 tokens) and one random batch."""
    params = new_transformer(13, seed=0, dim=32, heads=4, blocks=2)
    rng = np.random.default_rng(7)
    return params, rng.uniform(size=(batch, 13)), rng.integers(0, 2, size=batch)


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


class TestCrossEntropy:
    def test_uniform_logits_give_log2(self):
        loss = cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
        np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-15)

    def test_confident_and_correct_is_tiny(self):
        loss = cross_entropy(Tensor([[100.0, 0.0]]), np.array([0]))
        assert 0.0 <= loss.item() < 1e-40

    def test_huge_logits_stay_finite(self):
        """log-sum-exp shift: exp never sees the raw logit scale."""
        loss = cross_entropy(Tensor([[1000.0, -1000.0]]), np.array([1]))
        assert np.isfinite(loss.item())
        np.testing.assert_allclose(loss.item(), 2000.0)

    def test_matches_transcription(self):
        """Mean of -log softmax[label], computed the naive way."""
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, size=6)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        want = -np.mean(np.log(p[np.arange(6), y]))
        got = cross_entropy(Tensor(z), y).item()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor([[0.0, 0.0]], requires_grad=True)
        loss = cross_entropy(logits, np.array([0]))
        T.backward(loss)
        np.testing.assert_allclose(logits.grad, [[-0.5, 0.5]], rtol=1e-15)

    def test_gradient_check(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        y = rng.integers(0, 2, size=5)

        def loss_fn():
            return cross_entropy(logits, y)

        loss = loss_fn()
        T.backward(loss)
        analytic = logits.grad.copy()
        numeric = central_diff(loss_fn, [logits])[0]
        assert max_rel_error(analytic, numeric) < 1e-6

    def test_bad_labels_name_the_row(self):
        with pytest.raises(DataError, match="row 1"):
            cross_entropy(Tensor([[0.0, 0.0], [0.0, 0.0]]), np.array([0, 3]))

    def test_float_labels_rejected(self):
        with pytest.raises(DataError, match="integer"):
            cross_entropy(Tensor([[0.0, 0.0]]), np.array([0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            cross_entropy(Tensor([[0.0, 0.0]]), np.array([0, 1]))


def _adamw_steps(w, grads, **hyper):
    """(w, m, v) after one AdamW step per gradient in ``grads`` on the one
    parameter ``w``, read from the optimizer's buffers."""
    param = Tensor(np.array(w, dtype=np.float64), requires_grad=True)
    opt = AdamW([("w", param)], **hyper)
    for g in grads:
        param.grad = np.asarray(g, dtype=np.float64)
        opt.step()
    return (param.data.copy(), *(a.copy() for a in opt.state["w"]))


class TestAdamWStep:
    def test_worked_example_first_step(self):
        """w=1, g=2, lr=0.1, wd=0.01: hand-expanded update to 1e-12."""
        w, m, v = _adamw_steps(1.0, [2.0], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
        np.testing.assert_allclose(m, 0.2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(v, 0.004, rtol=0, atol=1e-15)
        # bias correction rebuilds g and g^2 exactly on the first step
        expected = 1.0 - 0.1 * (2.0 / (2.0 + 1e-8) + 0.01 * 1.0)
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-12)

    def test_worked_example_second_step(self):
        """With a constant gradient the corrected moments stay g and g^2."""
        w1, _, _ = _adamw_steps(1.0, [2.0], lr=0.1)
        w2, _, _ = _adamw_steps(1.0, [2.0, 2.0], lr=0.1)
        expected = w1 - 0.1 * (2.0 / (2.0 + 1e-8) + 0.01 * w1)
        np.testing.assert_allclose(w2, expected, rtol=0, atol=1e-12)

    def test_zero_grad_zero_decay_is_identity(self):
        w, _, _ = _adamw_steps([3.0, -2.0], [np.zeros(2)], lr=0.5, weight_decay=0.0)
        np.testing.assert_array_equal(w, [3.0, -2.0])

    def test_zero_grad_still_decays(self):
        """Decoupled decay acts even when the gradient happens to be zero."""
        w, _, _ = _adamw_steps(10.0, [0.0], lr=0.1, weight_decay=0.01)
        np.testing.assert_allclose(w, 10.0 - 0.1 * 0.01 * 10.0, rtol=1e-15)


class TestAdamWClass:
    def _pair(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([-1.0, 3.0]), requires_grad=True)
        return a, b

    def test_param_without_grad_is_untouched(self):
        a, b = self._pair()
        opt = AdamW([("a", a), ("b", b)], lr=0.1)
        a.grad = np.array([1.0, 1.0])
        before = b.data.copy()
        opt.step()
        np.testing.assert_array_equal(b.data, before)
        assert np.any(a.data != np.array([1.0, 2.0]))

    def test_state_is_per_parameter(self):
        a, b = self._pair()
        opt = AdamW([("a", a), ("b", b)], lr=0.1)
        a.grad = np.array([1.0, 1.0])
        b.grad = np.array([2.0, 2.0])
        opt.step()
        assert not np.array_equal(opt.state["a"][0], opt.state["b"][0])

    def test_lr_zero_changes_nothing(self):
        a, b = self._pair()
        opt = AdamW([("a", a), ("b", b)], lr=0.0)
        a.grad = np.array([5.0, 5.0])
        b.grad = np.array([5.0, 5.0])
        before = (a.data.copy(), b.data.copy())
        opt.step()
        np.testing.assert_array_equal(a.data, before[0])
        np.testing.assert_array_equal(b.data, before[1])

    def test_zero_grad_clears(self):
        a, b = self._pair()
        opt = AdamW([("a", a), ("b", b)], lr=0.1)
        a.grad = np.ones(2)
        opt.zero_grad()
        assert a.grad is None and b.grad is None

    def test_duplicate_names_rejected(self):
        a, b = self._pair()
        with pytest.raises(ConfigError, match="duplicate"):
            AdamW([("a", a), ("a", b)], lr=0.1)

    def test_negative_lr_rejected(self):
        a, _ = self._pair()
        with pytest.raises(ConfigError):
            AdamW([("a", a)], lr=-0.1)

    def test_flat_buffer_matches_per_parameter_loop(self):
        """Four steps over mixed shapes give the bits of the plain-expression
        oracle, looped per parameter. A parameter without a grad keeps its
        weight and moments: "idle" never gets one, and one more sits out each
        round after it has moments."""
        rng = np.random.default_rng(4)
        shapes = {"w": (3, 4), "b": (4,), "s": (), "idle": (2, 2), "t": (2, 1, 3)}
        hyper = dict(lr=0.05, beta1=0.8, beta2=0.99, eps=1e-6, weight_decay=0.1)
        start = {n: rng.normal(size=s) for n, s in shapes.items()}
        params = {n: Tensor(start[n].copy(), requires_grad=True) for n in shapes}
        opt = AdamW(list(params.items()), **hyper)
        want = {n: (start[n].copy(), np.zeros(s), np.zeros(s)) for n, s in shapes.items()}
        for step in range(1, 5):
            resting = list(shapes)[step]
            for n, t in params.items():
                t.grad = None if n in ("idle", resting) else rng.normal(size=shapes[n])
                if t.grad is not None:
                    want[n] = np_adamw(want[n][0], t.grad, *want[n][1:], step, **hyper)
            opt.step()
            for n, t in params.items():
                assert all(_same_bits(a, b) for a, b in zip((t.data, *opt.state[n]), want[n])), (step, n)
        assert _same_bits(params["idle"].data, start["idle"])

    def test_step_allocates_under_one_parameter_vector(self):
        """A step of the default encoder updates in place: its tracemalloc peak
        stays under one parameter vector (27,362 weights, 218,896 B), where the
        array-expression update peaked at 8 vectors."""
        params, x, y = _default_step_inputs(16)
        vector = sum(t.data.nbytes for _, t in params.named_parameters())
        assert vector == 218_896
        opt = AdamW(params.named_parameters(), lr=1e-3)
        T.backward(cross_entropy(params.logits(x), y))
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vector


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTrainConfig:
    def test_transformer_defaults(self):
        cfg = TrainConfig(model="transformer").resolved()
        assert cfg.lr == MODEL_DEFAULTS["transformer"]["lr"] == 2e-5
        assert cfg.epochs == 10
        assert cfg.batch_size == 16
        assert (cfg.dim, cfg.heads, cfg.blocks) == (32, 4, 2)

    def test_fnn_defaults(self):
        cfg = TrainConfig(model="fnn").resolved()
        assert cfg.lr == 1e-3
        assert cfg.epochs == 100
        assert cfg.fnn_hidden == (64, 64)

    def test_explicit_values_win(self):
        cfg = TrainConfig(model="transformer", lr=0.5, epochs=3).resolved()
        assert cfg.lr == 0.5 and cfg.epochs == 3

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            TrainConfig(model="cnn").resolved()

    def test_dict_round_trip(self):
        cfg = TrainConfig(model="fnn", lr=0.01, seed=9).resolved()
        clone = TrainConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_to_dict_names_every_field_in_order(self):
        """Field order, tuples as lists: the train_config that checkpoints hold."""
        d = TrainConfig().resolved().to_dict()
        assert d == {
            "model": "transformer", "epochs": 10, "lr": 2e-5, "batch_size": 16, "beta1": 0.9,
            "beta2": 0.999, "eps": 1e-8, "weight_decay": 0.01, "seed": 0, "dim": 32, "heads": 4,
            "blocks": 2, "mlp_dim": None, "fnn_hidden": [64, 64], "split_fractions": [0.6, 0.2, 0.2],
            "mask": True,
        }
        assert list(d) == [f.name for f in dataclasses.fields(TrainConfig)]

    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_non_bool_mask_rejected(self, kind):
        """A JSON config's "mask": "false" would otherwise mask silently, or,
        for the FNN, be recorded as the string in its checkpoint's train_config."""
        with pytest.raises(ConfigError, match="mask must be true or false, got 'false'"):
            TrainConfig(model=kind, mask="false").resolved()

    def test_hyper_mlp_dim_defaults_to_four_dim(self):
        assert TrainConfig(dim=32).hyper(13)["mlp_dim"] == 128
        assert TrainConfig(dim=32, mlp_dim=48).hyper(13)["mlp_dim"] == 48

    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_hyper_is_the_hyper_of_the_model_trained(self, kind):
        res = train(dataio.synth(40, seed=2), _tiny_cfg(model=kind, dim=4, epochs=1))
        assert res.config.hyper(res.schema.width) == res.params.hyper()

    @pytest.mark.parametrize(
        "overrides, error",
        [
            pytest.param({"fnn_hidden": (0, 4)}, r"sizes must be positive integers, got hidden=\[0, 4\]$",
                         id="fnn-hidden-zero"),
            pytest.param({"model": "transformer", "mlp_dim": -3}, "sizes must be positive integers, got mlp_dim=-3$",
                         id="mlp-dim"),
            pytest.param({"model": "transformer", "dim": 0, "mlp_dim": 8}, "sizes must be positive integers, got dim=0$",
                         id="dim"),
            pytest.param({"model": "transformer", "heads": 3}, "heads 3 does not divide dim 32", id="heads"),
            # 6,291,461 parameters over one input, 31,457,285 over the profile's 13
            pytest.param({"fnn_hidden": (2097152, 1)}, r"hidden=\[2097152, 1\] would make a model of 31,457,285 parameters",
                         id="fnn-budget"),
        ],
    )
    def test_model_sizes_are_checked_before_any_data(self, overrides, error, monkeypatch):
        """train() builds the model, and so runs its kind's size check, shapes,
        at the profile's width before it splits: a size that cannot build fails
        before the split and the fit, and the message names only what is at fault."""
        monkeypatch.setattr(dataio, "split", _split_too_soon)
        with pytest.raises(ConfigError, match=error):
            train(dataio.synth(40, seed=2), TrainConfig(**{"model": "fnn", **overrides}))

    @pytest.mark.parametrize(
        "overrides, field",
        [
            pytest.param({"epochs": "3"}, "epochs", id="epochs"),
            pytest.param({"lr": "1e-3"}, "lr", id="lr"),
            pytest.param({"batch_size": 16.0}, "batch_size", id="batch_size"),
            pytest.param({"seed": True}, "seed", id="seed"),
            pytest.param({"dim": "32"}, "dim", id="dim"),
            pytest.param({"mlp_dim": 1.5}, "mlp_dim", id="mlp_dim"),
            pytest.param({"fnn_hidden": 64}, "fnn_hidden", id="fnn_hidden"),
            pytest.param({"fnn_hidden": [64, "64"]}, "fnn_hidden[1]", id="fnn_hidden[1]"),
            pytest.param({"split_fractions": [0.6, 0.2, None]}, "split_fractions[2]", id="split_fractions[2]"),
            pytest.param({"split_fractions": 0.5}, "split_fractions", id="split_fractions"),
            pytest.param({"weight_decay": False}, "weight_decay", id="weight_decay"),
        ],
    )
    def test_non_numeric_value_rejected(self, overrides, field):
        """JSON configs reach resolved() through from_dict unchecked; a string,
        a bool or a scalar for a list must fail there with the field's name,
        not deep inside training."""
        with pytest.raises(ConfigError, match=re.escape(field)):
            TrainConfig.from_dict({"model": "fnn", **overrides}).resolved()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
            ("beta1", 1.0), ("beta1", -0.1), ("beta1", float("nan")), ("beta2", 1.0),
            ("eps", 0.0), ("eps", float("nan")), ("eps", float("inf")),
            ("weight_decay", -0.01), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        ],
    )
    def test_out_of_range_optimizer_value_rejected(self, field, value):
        """Each of these would surface only as a non-finite loss (exit 5) or a silent no-op."""
        with pytest.raises(ConfigError, match=field):
            TrainConfig(model="fnn", **{field: value}).resolved()

    @pytest.mark.parametrize("fractions", [[0.5, 0.5], [0.4, 0.2, 0.2, 0.2]], ids=["two", "four"])
    def test_other_split_fraction_counts_rejected(self, fractions):
        with pytest.raises(ConfigError, match=r"^split_fractions must be positive and sum to 1 over 3 entries"):
            TrainConfig.from_dict({"model": "fnn", "split_fractions": fractions}).resolved()

    def test_optimizer_range_edges_accepted(self):
        cfg = TrainConfig(model="fnn", lr=1e308, beta1=0.0, beta2=0.0, eps=5e-324, weight_decay=0.0).resolved()
        assert (cfg.beta1, cfg.beta2, cfg.weight_decay) == (0.0, 0.0, 0.0)

    def test_numpy_numbers_accepted(self):
        cfg = TrainConfig(model="fnn", seed=np.int64(3), lr=np.float64(0.01)).resolved()
        assert cfg.seed == 3 and cfg.lr == 0.01

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"model": "fnn", "momentum": 0.9})

    def test_indivisible_heads_rejected(self, monkeypatch):
        monkeypatch.setattr(dataio, "split", _split_too_soon)
        with pytest.raises(ConfigError, match="heads 4 does not divide dim 10"):
            train(dataio.synth(40, seed=2), TrainConfig(model="transformer", dim=10, heads=4))


def _split_too_soon(*_):
    raise AssertionError("the data was split before the model's sizes were checked")


def _tiny_cfg(**overrides):
    base = dict(model="transformer", dim=8, heads=2, blocks=1, lr=1e-3, epochs=10, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_learns_separable_data(self):
        """A margin-separated feature should be driven to near-perfect
        validation accuracy within a few hundred steps."""
        ds = dataio.synth(300, seed=42, difficulty="separable")
        res = train(ds, _tiny_cfg())
        assert res.log[-1].val_acc >= 0.99

    def test_fnn_learns_separable_data(self):
        ds = dataio.synth(300, seed=42, difficulty="separable")
        res = train(ds, TrainConfig(model="fnn", epochs=30, seed=0))
        assert res.log[-1].val_acc >= 0.99

    def test_bit_identical_reruns(self):
        """Same dataset + config: every weight and every log row repeats."""
        ds = dataio.synth(80, seed=3, difficulty="separable")
        cfg = _tiny_cfg(dim=4, epochs=2)
        a = train(ds, cfg)
        b = train(ds, cfg)
        for (name_a, ta), (_, tb) in zip(
            a.params.named_parameters(), b.params.named_parameters()
        ):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=name_a)
        assert a.log == b.log

    def test_seed_changes_the_run(self):
        ds = dataio.synth(80, seed=3, difficulty="separable")
        a = train(ds, _tiny_cfg(dim=4, epochs=1, seed=0))
        b = train(ds, _tiny_cfg(dim=4, epochs=1, seed=1))
        assert np.any(a.params.tensors["head.w"].data != b.params.tensors["head.w"].data)

    def test_loss_decreases_across_seeds(self):
        ds = dataio.synth(120, seed=11, difficulty="separable")
        for seed in range(5):
            res = train(ds, TrainConfig(model="fnn", lr=1e-4, epochs=5, seed=seed))
            assert res.log[-1].train_loss < res.log[0].train_loss

    def test_schema_fits_on_train_split_only(self):
        """Values seen only outside the train split stay out of the vocab."""
        ds = dataio.synth(60, seed=5, difficulty="separable")
        res = train(ds, _tiny_cfg(dim=4, epochs=1))
        table = res.train.records
        train_values = {table.levels["srcip"][code] for code in table.columns["srcip"].tolist()}
        vocab = next(f for f in res.schema.features if f.name == "srcip").vocab
        assert set(vocab) == train_values

    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_returned_params_hold_no_gradients(self, kind):
        """The last step's gradients are dropped, not carried in the result."""
        ds = dataio.synth(60, seed=5, difficulty="separable")
        res = train(ds, _tiny_cfg(model=kind, dim=4, epochs=2))
        assert [name for name, t in res.params.named_parameters() if t.grad is not None] == []

    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_one_step_train_acc_is_accuracy_before_the_update(self, kind):
        """With one epoch of one batch, every training row is scored by the
        freshly initialised parameters, so train_acc is evaluate's accuracy of
        those parameters on the training split, not of the updated ones."""
        ds = dataio.synth(120, seed=3, difficulty="separable")
        res = train(ds, _tiny_cfg(model=kind, dim=4, epochs=1, lr=1e-2, seed=1, batch_size=1000))
        x, y = encode_batch(res.train.records, res.schema)
        cfg = res.config
        fresh = KINDS[kind].init(cfg.hyper(res.schema.width), cfg.seed)
        _, before = evaluate(fresh, x, y)
        _, after = evaluate(res.params, x, y)
        assert before != after  # the one step moved the accuracy, so the two readings differ
        assert res.log[0].train_acc == before

    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_each_row_passes_the_model_once_per_epoch(self, kind, monkeypatch):
        """Training rows go through the model only in their step, validation
        rows once at each epoch's end: no second pass over the training split."""
        seen = []
        cls = KINDS[kind]
        forward = cls.logits

        def counting(self, x):
            seen.append(len(x))
            return forward(self, x)

        monkeypatch.setattr(cls, "logits", counting)
        ds = dataio.synth(80, seed=3, difficulty="separable")
        res = train(ds, _tiny_cfg(model=kind, dim=4, epochs=3))
        assert sum(seen) == 3 * (len(res.train) + len(res.validation))

    def test_log_has_one_row_per_epoch(self):
        ds = dataio.synth(60, seed=5, difficulty="separable")
        res = train(ds, _tiny_cfg(dim=4, epochs=3))
        assert [r.epoch for r in res.log] == [1, 2, 3]

    def test_log_csv_round_trip(self, tmp_path):
        ds = dataio.synth(60, seed=5, difficulty="separable")
        res = train(ds, _tiny_cfg(dim=4, epochs=2))
        path = tmp_path / "log.csv"
        training.write_log(res.log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 3
        assert [tuple(map(float, line.split(","))) for line in lines[1:]] == [dataclasses.astuple(r) for r in res.log]

    def test_divergence_aborts_with_location(self):
        """An absurd learning rate overflows the weights; the loop reports
        the epoch and batch instead of continuing on NaNs. numpy warns of the
        overflow and the NaNs on the way."""
        ds = dataio.synth(64, seed=8, difficulty="separable")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NumericError, match="epoch"):
                train(ds, TrainConfig(model="fnn", lr=1e50, epochs=10, seed=0))

    def test_empty_train_split_rejected(self):
        ds = dataio.synth(10, seed=2, difficulty="separable")
        cfg = TrainConfig(model="fnn", split_fractions=(0.02, 0.49, 0.49))
        with pytest.warns(UserWarning):
            with pytest.raises(ConfigError, match="empty"):
                train(ds, cfg)

    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_scores_are_probabilities(self, kind):
        ds = dataio.synth(80, seed=3, difficulty="separable")
        res = train(ds, _tiny_cfg(model=kind, dim=4, epochs=1))
        x, y = encode_batch(res.test.records, res.schema)
        scores = predict_scores(res.params, x)
        assert scores.shape == (len(y),)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_evaluate_accuracy_definition(self, kind):
        ds = dataio.synth(80, seed=3, difficulty="separable")
        res = train(ds, _tiny_cfg(model=kind, dim=4, epochs=1))
        x, y = encode_batch(res.test.records, res.schema)
        loss, acc = evaluate(res.params, x, y)
        scores = predict_scores(res.params, x)
        np.testing.assert_allclose(acc, np.mean((scores >= 0.5).astype(int) == y))
        assert np.isfinite(loss)

    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_a_score_of_one_half_counts_as_class_1(self, kind):
        """A zero head scores every row exactly 0.5, which evaluate counts as
        class 1, as metrics does with score >= threshold."""
        if kind == "transformer":
            params = new_transformer(5, seed=1, dim=4, heads=2, blocks=1)
        else:
            params = new_fnn(5, hidden=(4, 4), seed=1)
        for _, t in params.named_parameters()[-2:]:  # the head's weight and bias
            t.data[...] = 0.0
        x, y = np.random.default_rng(7).uniform(size=(6, 5)), np.array([1, 1, 1, 1, 1, 0])
        scores = predict_scores(params, x)
        assert scores.tolist() == [0.5] * 6
        assert evaluate(params, x, y)[1] == metrics.report(scores, y).metrics.accuracy == 5 / 6


class TestInference:
    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_chunked_scores_match_oracle(self, kind):
        """Two full inference chunks of the kind plus a 3-row tail score as
        one softmax over the straight-line transcription of the model."""
        if kind == "transformer":
            params = new_transformer(5, seed=1, dim=8, heads=2, blocks=2)
        else:
            params = new_fnn(5, hidden=(8, 8), seed=1)
        x = np.random.default_rng(6).uniform(size=(2 * training.CHUNK_ROWS + 3, 5))
        logits = np_model_logits(x, params) if kind == "transformer" else np_fnn_logits(x, params)
        want = np_softmax(logits, axis=1)[:, 1]
        np.testing.assert_allclose(predict_scores(params, x), want, rtol=0, atol=1e-12)

    def test_unmasked_model_scores_unmasked(self, tmp_path):
        """A model trained with mask=False scores without the mask, in memory
        and after a checkpoint round trip, with no per-call argument."""
        ds = dataio.synth(80, seed=3, difficulty="separable")
        res = train(ds, _tiny_cfg(dim=4, epochs=1, mask=False))
        path = tmp_path / "unmasked.ckpt"
        dataio.save_checkpoint(res.params, res.schema, res.config.to_dict(), path)
        x, _ = encode_batch(res.test.records, res.schema)
        want = np_softmax(np_model_logits(x, res.params, mask=False), axis=1)[:, 1]
        np.testing.assert_allclose(predict_scores(res.params, x), want, rtol=0, atol=1e-12)
        loaded = dataio.load_checkpoint(path).params
        np.testing.assert_allclose(predict_scores(loaded, x), want, rtol=0, atol=1e-12)

    def test_legacy_mask_argument_must_agree_with_the_model(self):
        x = np.random.default_rng(2).uniform(size=(4, 5))
        params = new_transformer(5, seed=1, dim=4, heads=2, blocks=1, mask=False)
        np.testing.assert_array_equal(predict_scores(params, x, mask=False), predict_scores(params, x))
        with pytest.raises(ContractError, match="mask"):
            predict_scores(params, x, mask=True)
        fnn = new_fnn(5, hidden=(8, 8), seed=1)
        np.testing.assert_array_equal(predict_scores(fnn, x, mask=False), predict_scores(fnn, x))

    def test_default_training_step_records_103_ops(self):
        """The op graph of one default-encoder step at batch 16: forward plus
        the loss put exactly 103 records on the tape."""
        params, x, y = _default_step_inputs(16)
        cross_entropy(params.logits(x), y)
        assert len(T.active_tape()) == 103


class TestParallelScoring:
    """A transformer's chunks run on up to one thread per usable core, here
    set by monkeypatching training.usable_cores with the cap raised to 6 (2 in
    use, checked below); the FNN's run on the caller's."""

    @pytest.fixture(autouse=True)
    def raised_cap(self, monkeypatch):
        monkeypatch.setattr(training, "SCORING_THREADS", 6)

    @staticmethod
    def _small_transformer():
        return new_transformer(5, seed=1, dim=8, heads=2, blocks=2)

    @staticmethod
    def _spy(monkeypatch, params, fail=(), delay=0.0):
        """Wrap params.logits: record each chunk's start row and thread, raise
        ValueError at the starts in ``fail``, and count the chunks in flight.
        The start row is read from column 0, which the callers set to the row index."""
        seen, running, real = [], [0], params.logits

        def logits(x):
            running[0] += 1
            try:
                start = int(x[0, 0])
                seen.append((start, threading.get_ident()))
                time.sleep(delay)
                if start in fail:
                    raise ValueError(f"chunk at row {start}")
                return real(x)
            finally:
                running[0] -= 1

        monkeypatch.setattr(params, "logits", logits)
        return seen, running

    @pytest.mark.parametrize("rows", ["2x64+3", "synth4000"])
    def test_scores_are_the_same_bytes_for_any_worker_count(self, monkeypatch, rows):
        if rows == "synth4000":
            ds = dataio.synth(4000, seed=3, difficulty="noisy")
            schema = fit_schema(ds.records, ds.profile)
            x, _ = encode_batch(ds.records, schema)
            params = new_transformer(schema.width, seed=0)
        else:
            params = self._small_transformer()
            x = np.random.default_rng(6).uniform(size=(2 * training.CHUNK_ROWS + 3, 5))
        scores = []
        for cores in (3, 2, 1):  # 3 cores still give 2 threads
            monkeypatch.setattr(training, "usable_cores", lambda: cores)
            scores.append(predict_scores(params, x).tobytes())
        assert scores[0] == scores[1] == scores[2]

    @staticmethod
    def _starts(n, cap, threads):
        """Each chunk's first row by the documented rule: ceil(n / cap) chunks, a count
        rounded up to a multiple of the thread count when it is more than one, of
        ceil(n / chunks) rows each."""
        chunks = math.ceil(n / cap)
        if chunks > 1:
            chunks = math.ceil(chunks / threads) * threads
        return list(range(0, n, math.ceil(n / chunks)))

    def test_each_chunk_is_scored_once(self, monkeypatch):
        """Five caps' worth of rows on three threads are six chunks of 107 rows or fewer."""
        params = self._small_transformer()
        x = np.random.default_rng(6).uniform(size=(5 * training.CHUNK_ROWS, 5))
        x[:, 0] = np.arange(len(x))
        monkeypatch.setattr(training, "usable_cores", lambda: 3)
        seen, _ = self._spy(monkeypatch, params)
        predict_scores(params, x)
        starts = self._starts(len(x), training.CHUNK_ROWS, 3)
        assert len(starts) == 6
        assert sorted(start for start, _ in seen) == starts
        assert len({ident for _, ident in seen}) <= 3

    def test_two_threads_score_equal_shares(self, monkeypatch):
        """400 rows are four chunks of 100, so each of two threads scores 200
        rows; 128-row chunks would give one thread 256 and the other 144.
        Each chunk waits for a chunk on the other thread, so neither thread
        can score two chunks while the other scores none."""
        params = self._small_transformer()
        x = np.random.default_rng(6).uniform(size=(400, 5))
        monkeypatch.setattr(training, "usable_cores", lambda: 2)
        rows, meet, real = {}, threading.Barrier(2, timeout=30), params.logits

        def logits(chunk):
            ident = threading.get_ident()
            rows[ident] = rows.get(ident, 0) + len(chunk)
            meet.wait()
            return real(chunk)

        monkeypatch.setattr(params, "logits", logits)
        predict_scores(params, x)
        assert sorted(rows.values()) == [200, 200]

    def test_threads_are_capped(self, monkeypatch):
        """However many cores there are, a score uses at most two threads,
        the most that has been measured."""
        monkeypatch.setattr(training, "SCORING_THREADS", 2)
        monkeypatch.setattr(training, "usable_cores", lambda: 8)
        params = self._small_transformer()
        x = np.random.default_rng(6).uniform(size=(8 * training.CHUNK_ROWS, 5))
        x[:, 0] = np.arange(len(x))
        seen, _ = self._spy(monkeypatch, params, delay=0.01)
        predict_scores(params, x)
        assert training.scoring_threads() == 2
        assert len(seen) == 8 and len({ident for _, ident in seen}) == 2

    def test_a_slow_thread_scores_fewer_chunks(self, monkeypatch):
        """Threads claim chunks as they go: while a helper thread sleeps 0.1 s
        in each of its chunks, the caller scores more than its half of 20."""
        params = self._small_transformer()
        x = np.random.default_rng(6).uniform(size=(20 * training.CHUNK_ROWS, 5))
        x[:, 0] = np.arange(len(x))
        monkeypatch.setattr(training, "usable_cores", lambda: 2)
        caller, seen, real = threading.get_ident(), [], params.logits

        def logits(chunk):
            seen.append(threading.get_ident())
            if seen[-1] != caller:
                time.sleep(0.1)
            return real(chunk)

        monkeypatch.setattr(params, "logits", logits)
        predict_scores(params, x)
        assert len(seen) == 20 and seen.count(caller) > 10

    @pytest.mark.parametrize("chunks", [(1,), (0,), (2, 1), (4,)], ids=lambda c: "+".join(map(str, c)))
    def test_a_failing_chunk_raises_as_on_one_thread(self, monkeypatch, chunks):
        """A chunk that raises, in a worker's share or the caller's, raises the
        lowest failing chunk's error once every share has ended, on three
        threads as on one; grad recording is back on and the tape is empty.
        The failing chunks are given by index, and their first rows follow
        from the chunk rule for each thread count (five chunks on one
        thread, six on three), so the cases hold at any chunk size."""
        for cores in (1, 3):
            params = self._small_transformer()
            x = np.random.default_rng(6).uniform(size=(5 * training.CHUNK_ROWS, 5))
            x[:, 0] = np.arange(len(x))
            starts = self._starts(len(x), training.CHUNK_ROWS, cores)
            monkeypatch.setattr(training, "usable_cores", lambda: cores)
            _, running = self._spy(monkeypatch, params, fail=[starts[k] for k in chunks], delay=0.01)
            with pytest.raises(ValueError) as caught:
                predict_scores(params, x)
            assert str(caught.value) == f"chunk at row {starts[min(chunks)]}"
            assert running == [0]
            assert T.is_grad_enabled() and T.active_tape() == []

    @pytest.mark.parametrize("error", [ValueError, SystemExit])
    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_a_chunk_failing_on_either_thread_waits_for_the_other(self, monkeypatch, where, error):
        """The first chunk scored on the caller's thread, or on a helper thread,
        raises; the other thread is still scoring. The error comes out once
        it has stopped, with grad recording back on and the tape empty. A
        SystemExit, which is no Exception, comes out too."""
        params = self._small_transformer()
        x = np.random.default_rng(6).uniform(size=(8 * training.CHUNK_ROWS, 5))
        x[:, 0] = np.arange(len(x))
        monkeypatch.setattr(training, "usable_cores", lambda: 2)
        caller, failed, running, real = threading.get_ident(), [], [0], params.logits

        def logits(chunk):
            running[0] += 1
            try:
                time.sleep(0.01)
                if (threading.get_ident() == caller) == (where == "caller") and not failed:
                    failed.append(int(chunk[0, 0]))
                    raise error(f"chunk at row {failed[0]}")
                return real(chunk)
            finally:
                running[0] -= 1

        monkeypatch.setattr(params, "logits", logits)
        with pytest.raises(error) as caught:
            predict_scores(params, x)
        assert str(caught.value) == f"chunk at row {failed[0]}"
        assert running == [0]
        assert T.is_grad_enabled() and T.active_tape() == []

    def test_scoring_with_grad_enabled_leaves_the_tape_empty(self, monkeypatch):
        params = self._small_transformer()
        x = np.random.default_rng(6).uniform(size=(3 * training.CHUNK_ROWS, 5))
        monkeypatch.setattr(training, "usable_cores", lambda: 2)
        assert T.is_grad_enabled()
        predict_scores(params, x)
        assert T.is_grad_enabled() and T.active_tape() == []

    def test_fnn_chunks_run_on_the_calling_thread(self, monkeypatch):
        params = new_fnn(5, hidden=(8, 8), seed=1)
        x = np.random.default_rng(6).uniform(size=(4 * training.CHUNK_ROWS + 3, 5))
        x[:, 0] = np.arange(len(x))
        monkeypatch.setattr(training, "usable_cores", lambda: 3)
        seen, _ = self._spy(monkeypatch, params)
        predict_scores(params, x)
        assert len(seen) == 5
        assert {ident for _, ident in seen} == {threading.get_ident()}

    def test_an_unthreaded_score_imports_no_pool(self):
        """concurrent.futures, and the logging it imports, cost 0.65 MB of RSS:
        a process that scores FNNs, one transformer chunk or two transformer
        chunks on two threads never loads them."""
        code = (
            "import sys, numpy as np\n"
            "from flowids import cli, training\n"
            "from models import new_fnn, new_transformer\n"
            "training.predict_scores(new_fnn(5, hidden=(8, 8), seed=1), np.zeros((300, 5)))\n"
            "params = new_transformer(5, seed=1, dim=8, heads=2, blocks=1)\n"
            "training.predict_scores(params, np.zeros((training.CHUNK_ROWS, 5)))\n"
            "training.usable_cores = lambda: 2\n"
            "training.predict_scores(params, np.zeros((2 * training.CHUNK_ROWS, 5)))\n"
            "assert not {'concurrent.futures', 'logging'} & set(sys.modules), 'imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert r.returncode == 0, r.stderr

    def test_callers_errstate_holds_in_the_workers(self, monkeypatch):
        """An inf cell in each of two chunks makes layer_norm compute inf - inf;
        the caller's errstate turns that into an error on either thread. Each
        chunk waits for the other, so the helper thread scores one of them."""
        params = self._small_transformer()
        x = np.random.default_rng(6).uniform(size=(2 * training.CHUNK_ROWS, 5))
        x[[1, training.CHUNK_ROWS + 1], 2] = np.inf
        monkeypatch.setattr(training, "usable_cores", lambda: 2)
        raised, meet, real = [], threading.Barrier(2, timeout=30), params.logits

        def logits(chunk):
            meet.wait()
            try:
                return real(chunk)
            except FloatingPointError:
                raised.append(threading.get_ident())
                raise

        monkeypatch.setattr(params, "logits", logits)
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                predict_scores(params, x)
        assert len(set(raised)) == 2 and threading.get_ident() in raised

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_thread_outlives_a_call(self, monkeypatch, fails):
        """Both threads score chunks, and the helper has ended when the score
        returns, or raises for its failing second chunk."""
        params = self._small_transformer()
        x = np.random.default_rng(6).uniform(size=(3 * training.CHUNK_ROWS, 5))
        x[:, 0] = np.arange(len(x))
        monkeypatch.setattr(training, "usable_cores", lambda: 2)
        starts = self._starts(len(x), training.CHUNK_ROWS, 2)
        seen, _ = self._spy(monkeypatch, params, fail=starts[1:2] if fails else (), delay=0.01)
        before = threading.active_count()
        with pytest.raises(ValueError) if fails else contextlib.nullcontext():
            predict_scores(params, x)
        scorers = {ident for _, ident in seen}
        assert len(scorers) == 2 and scorers & {t.ident for t in threading.enumerate()} == {threading.get_ident()}
        assert threading.active_count() == before

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        """Six threads on the available cores, switching every microsecond,
        write each chunk's rows once and nothing else."""
        params = self._small_transformer()
        x = np.random.default_rng(6).uniform(size=(20 * training.CHUNK_ROWS + 5, 5))
        monkeypatch.setattr(training, "usable_cores", lambda: 1)
        want = predict_scores(params, x).tobytes()
        monkeypatch.setattr(training, "usable_cores", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert predict_scores(params, x).tobytes() == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_scores_the_parents_bytes(self, monkeypatch):
        """A process forked after a threaded score scores on two threads of
        its own, and writes the bytes its parent wrote."""
        params = self._small_transformer()
        x = np.random.default_rng(6).uniform(size=(3 * training.CHUNK_ROWS, 5))
        monkeypatch.setattr(training, "usable_cores", lambda: 2)
        want = predict_scores(params, x).tobytes()
        pid = os.fork()
        if pid == 0:
            os._exit(0 if predict_scores(params, x).tobytes() == want else 1)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    @pytest.mark.parametrize("kind", ["transformer", "fnn"])
    def test_zero_rows(self, kind):
        """No rows: an empty score vector, and (nan, nan) from evaluate, as
        train logs for an empty validation split, without a warning. The
        width is checked as for any other input."""
        params = self._small_transformer() if kind == "transformer" else new_fnn(5, hidden=(8, 8), seed=1)
        scores = predict_scores(params, np.empty((0, 5)))
        assert scores.shape == (0,) and scores.dtype == np.float64
        loss, acc = evaluate(params, np.empty((0, 5)), np.empty(0, dtype=np.int64))
        assert np.isnan(loss) and np.isnan(acc)
        with pytest.raises(IncompatibilityError):
            predict_scores(params, np.empty((0, 4)))


class TestBackwardStep:
    def test_only_leaves_get_gradients(self, monkeypatch):
        """Backward of a default-encoder step leaves no grad on a record's
        output, and gives each parameter exactly what a replay that keeps
        every gradient computes for it."""
        outputs = []
        record = T.record

        def keep_output(out, inputs, backward):  # every output that goes on the tape
            depth = len(T.active_tape())
            record(out, inputs, backward)
            if len(T.active_tape()) > depth:
                outputs.append(out)
            return out

        monkeypatch.setattr(T, "record", keep_output)
        params, x, y = _default_step_inputs(16)
        loss = cross_entropy(params.logits(x), y)
        tape = list(T.active_tape())
        assert [out.node for out in outputs] == [node for node, _, _ in tape]
        kept = {loss.node: np.ones_like(loss.data)}
        for node, keys, back in reversed(tape):
            if node in kept:
                for key, ig in zip(keys, back(kept[node])):
                    if ig is not None and key is not None:
                        kept[key] = kept[key] + ig if key in kept else ig
        T.backward(loss)
        assert [out for out in outputs if out.grad is not None] == []
        for name, t in params.named_parameters():
            np.testing.assert_array_equal(t.grad, kept[t], err_msg=name)

    def test_batch_16_forward_holds_only_what_backward_reads(self):
        """The tape keeps keys, not tensors, and each rule keeps only the
        arrays it reads, so after a batch-16 forward pass of the default
        encoder the step holds under 2.5 MB (about 1.7 MB; 3.9 MB when every
        record kept its output and inputs alive)."""
        params, x, y = _default_step_inputs(16)
        tracemalloc.start()
        try:
            loss = cross_entropy(params.logits(x), y)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(T.active_tape()) == 103 and loss.requires_grad
        assert held < 2.5e6

    def test_batch_512_step_peak_memory(self):
        """Each intermediate gradient is freed once its record has replayed,
        and no record keeps an activation its rule does not read, so one
        batch-512 step of the default encoder peaks under 100 MB (about
        68 MB; 140 MB when records kept their tensors, 323 MB when every
        gradient also lived to the end)."""
        params, x, y = _default_step_inputs(512)
        opt = AdamW(params.named_parameters(), lr=1e-3)
        tracemalloc.start()
        try:
            T.backward(cross_entropy(params.logits(x), y))
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
