"""Encoder architecture: shapes, masking, init, and oracle agreement."""

import copy
import re

import numpy as np
import pytest

import flowids.tensor as T
from flowids import model
from flowids.dataio import load_checkpoint, save_checkpoint, synth
from flowids.errors import ConfigError, IncompatibilityError
from flowids.model import (
    KINDS,
    FnnParams,
    ModelParams,
    attention,
    encoder_block,
    fnn_forward,
    forward,
)
from flowids.sentencing import fit_schema, sentence
from flowids.tensor import Tensor
from flowids.training import CHUNK_ROWS, cross_entropy
from fd import central_diff, max_rel_error, taped_mean
from models import new_fnn, new_transformer
from oracles import (
    np_encoder_block,
    np_fnn_logits,
    np_init_arrays,
    np_layer_norm,
    np_model_logits,
)


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


def _small_params(tokens=3, dim=4, heads=2, blocks=2, seed=3):
    return new_transformer(tokens, seed=seed, dim=dim, heads=heads, blocks=blocks)


def _hyper(**sizes):
    """The default transformer's hyper dict over 13 tokens, with sizes replaced."""
    return {"kind": "transformer", "dim": 32, "heads": 4, "blocks": 2, "mlp_dim": 128, "tokens": 13, "mask": True, **sizes}


class TestShapes:
    """shapes(h) is each kind's one check of a hyper dict, run before it lays anything out."""

    @pytest.mark.parametrize("mask", ["false", 0, None])
    def test_non_bool_mask_rejected(self, mask):
        with pytest.raises(ConfigError, match="mask"):
            ModelParams.shapes(_hyper(mask=mask))

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError, match="heads 4 does not divide dim 10"):
            ModelParams.shapes(_hyper(dim=10, heads=4))

    @pytest.mark.parametrize("name, value", [
        ("dim", 0), ("heads", 0), ("blocks", -1), ("mlp_dim", 0), ("mlp_dim", -3), ("tokens", 0),
    ])
    def test_sizes_must_be_positive(self, name, value):
        """The message names the sizes below 1 and no other."""
        with pytest.raises(ConfigError, match=f"^sizes must be positive integers, got {name}={value}$"):
            ModelParams.shapes(_hyper(**{name: value}))

    @pytest.mark.parametrize("h, bad", [
        ({"features": 0, "hidden": [4, 4]}, "features=0"),
        ({"features": 5, "hidden": [0, 4]}, r"hidden=\[0, 4\]"),
        ({"features": 5, "hidden": [4, -1]}, r"hidden=\[4, -1\]"),
    ], ids=["features", "hidden-first", "hidden-second"])
    def test_fnn_sizes_must_be_positive(self, h, bad):
        with pytest.raises(ConfigError, match=f"^sizes must be positive integers, got {bad}$"):
            FnnParams.shapes({"kind": "fnn", **h})

    @pytest.mark.parametrize("hidden", [[8, 8, 8], [8], 8, None, (8, 8)], ids=["three", "one", "int", "null", "tuple"])
    def test_fnn_hidden_is_a_list_of_two_sizes(self, hidden):
        """Any other hidden is named by its repr, before it is unpacked."""
        with pytest.raises(ConfigError, match=f"^hidden must be a list of two sizes, got hidden={re.escape(repr(hidden))}$"):
            FnnParams.shapes({"kind": "fnn", "features": 5, "hidden": hidden})

    @pytest.mark.parametrize("kind, h", [
        ("transformer", _hyper(hidden=[4, 4])),
        ("fnn", {"kind": "fnn", "features": 5, "hidden": [4, 4], "mask": True}),
    ], ids=["transformer", "fnn"])
    def test_field_of_another_kind_is_refused(self, kind, h):
        """A hyper dict holds the kind's own fields and no other: an FNN has no mask, an encoder no hidden."""
        other = "hidden" if kind == "transformer" else "mask"
        with pytest.raises(ConfigError, match=f"^'{other}' is not a field of a '{kind}' model$"):
            list(KINDS[kind].shapes(h))

    @pytest.mark.parametrize("value", [True, 2.0, "8", None], ids=["bool", "float", "string", "null"])
    @pytest.mark.parametrize("kind, name, at", [
        *(("transformer", name, None) for name in ("dim", "heads", "blocks", "mlp_dim", "tokens")),
        ("fnn", "features", None), ("fnn", "hidden", 0), ("fnn", "hidden", 1),
    ], ids=["dim", "heads", "blocks", "mlp_dim", "tokens", "features", "hidden-first", "hidden-second"])
    def test_size_that_is_not_an_int_is_refused(self, kind, name, at, value):
        """A JSON header's true, 2.0, "8" or null is no size, whichever size it
        stands for: the message names the size with the value's repr, and no
        comparison or arithmetic on the value is reached."""
        h = _hyper() if kind == "transformer" else {"kind": "fnn", "features": 5, "hidden": [4, 4]}
        size = value if at is None else [value if i == at else n for i, n in enumerate(h[name])]
        with pytest.raises(ConfigError, match=f"^sizes must be positive integers, got {re.escape(f'{name}={size!r}')}$"):
            list(KINDS[kind].shapes({**h, name: size}))


class TestInit:
    def test_deterministic_given_seed(self):
        a = _small_params(seed=11)
        b = _small_params(seed=11)
        for (name_a, ta), (name_b, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(ta.data, tb.data)

    @pytest.mark.parametrize("h, seed", [
        (_hyper(dim=6, heads=3, blocks=2, mlp_dim=5, tokens=4), 7),
        (_hyper(dim=4, heads=1, blocks=3, mlp_dim=16, tokens=2, mask=False), 0),
        (_hyper(dim=8, heads=2, blocks=1, mlp_dim=32), 3),
        ({"kind": "fnn", "features": 7, "hidden": [5, 3]}, 11),
    ], ids=["heads3-blocks2", "heads1-blocks3", "heads2-blocks1", "fnn"])
    def test_init_matches_documented_draw_order(self, h, seed):
        """Every initial array, bit for bit, is the oracle's independent redraw;
        uniform draws make no BLAS call, so the bits are the same on any machine."""
        params = KINDS[h["kind"]].init(h, seed)
        want = np_init_arrays(h, seed)
        assert sorted(want) == sorted(name for name, _ in params.named_parameters())
        for name, t in params.named_parameters():
            np.testing.assert_array_equal(t.data, want[name], err_msg=name)

    def test_seed_changes_weights(self):
        a = _small_params(seed=1)
        b = _small_params(seed=2)
        assert np.any(a.tensors["head.w"].data != b.tensors["head.w"].data)

    def test_shapes(self):
        p = _small_params(tokens=5, dim=8, heads=2, blocks=2)
        t = p.tensors
        assert "block0.attn.head2.w_q" not in t
        for h in range(2):
            for w in ("w_q", "w_k", "w_v"):
                assert t[f"block0.attn.head{h}.{w}"].data.shape == (8, 4)
        assert t["block0.attn.w_out"].data.shape == (8, 8)
        assert t["block0.mlp_w1"].data.shape == (8, 32)
        assert t["block0.mlp_w2"].data.shape == (32, 8)
        assert t["head.w"].data.shape == (5 * 8, 2)
        assert t["head.b"].data.shape == (2,)

    def test_affine_and_bias_initial_values(self):
        t = _small_params().tensors
        np.testing.assert_array_equal(t["block0.ln1_gamma"].data, np.ones(4))
        np.testing.assert_array_equal(t["block0.ln1_beta"].data, np.zeros(4))
        np.testing.assert_array_equal(t["block0.mlp_b1"].data, np.zeros(16))
        np.testing.assert_array_equal(t["sentencing.position"].data, np.zeros((3, 4)))

    def test_parameter_count_arithmetic(self):
        """Count matches the layer-by-layer formula."""
        tokens, dim, heads, blocks = 5, 8, 2, 2
        p = _small_params(tokens=tokens, dim=dim, heads=heads, blocks=blocks)
        mlp_dim = 4 * dim
        per_block = (
            3 * heads * dim * (dim // heads)  # q, k, v per head
            + dim * dim  # output mix
            + dim * mlp_dim + mlp_dim + mlp_dim * dim + dim  # MLP
            + 6 * dim  # three layer norms
        )
        expected = 3 * tokens * dim + blocks * per_block + tokens * dim * 2 + 2
        assert sum(t.data.size for _, t in p.named_parameters()) == expected

    def test_fnn_parameter_count(self):
        p = new_fnn(13, hidden=(64, 64), seed=0)
        assert sum(t.data.size for _, t in p.named_parameters()) == 13 * 64 + 64 + 64 * 64 + 64 + 64 * 2 + 2

    def test_invalid_head_split_rejected(self):
        with pytest.raises(ConfigError):
            new_transformer(3, seed=0, dim=10, heads=4)

    @pytest.mark.parametrize("build", [
        lambda: new_transformer(3, seed=0, dim=4, heads=2, blocks=1, mlp_dim=2**64),
        lambda: new_transformer(3, seed=0, dim=2, heads=1, blocks=2**40),
        lambda: new_transformer(2**12, seed=0, dim=2**12, heads=1, blocks=1),
        lambda: new_fnn(13, hidden=(2**64, 4)),
    ], ids=["mlp_dim-2**64", "blocks-2**40", "tokens-times-dim", "fnn-hidden-2**64"])
    def test_oversized_model_is_refused_before_allocating(self, build):
        """A size numpy cannot index, or a model past MAX_PARAMETERS, is a
        configuration error, found from the layout without building it."""
        with pytest.raises(ConfigError, match="parameters, more than 16,777,216"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: new_transformer(4, seed=0, dim=6, heads=3, blocks=2, mlp_dim=5),
        lambda: new_fnn(7, hidden=(5, 3)),
    ], ids=["transformer", "fnn"])
    def test_size_limit_counts_the_parameters_built(self, build, monkeypatch):
        """The count checked before building is the count built: a model of
        exactly MAX_PARAMETERS builds, and one parameter fewer refuses it."""
        monkeypatch.setattr(model, "MAX_PARAMETERS", sum(t.data.size for _, t in build().named_parameters()))
        build()
        monkeypatch.setattr(model, "MAX_PARAMETERS", model.MAX_PARAMETERS - 1)
        with pytest.raises(ConfigError, match="parameters, more than"):
            build()


class TestAttention:
    def test_single_token_is_value_projection(self):
        """With one token the softmax weight is 1, so output = v @ w_out."""
        t = _small_params(tokens=1, dim=4, heads=2, blocks=1).tensors
        z = np.random.default_rng(0).normal(size=(1, 4))
        out = attention(Tensor(z), t, "block0.attn.", 2, mask=True)
        v = np.concatenate([z @ t[f"block0.attn.head{k}.w_v"].data for k in range(2)], axis=-1)
        np.testing.assert_allclose(out.data, v @ t["block0.attn.w_out"].data, rtol=1e-12, atol=1e-12)

    def test_mask_blocks_future_bit_exactly(self):
        """Perturbing tokens after position i leaves rows <= i unchanged."""
        t = _small_params(tokens=6, dim=4, heads=2, blocks=1).tensors
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = rng.normal(size=(6, 4))
            base = attention(Tensor(z), t, "block0.attn.", 2, mask=True).data
            i = int(rng.integers(0, 5))
            poked = z.copy()
            poked[i + 1 :] += rng.normal(size=(5 - i, 4))
            out = attention(Tensor(poked), t, "block0.attn.", 2, mask=True).data
            np.testing.assert_array_equal(out[: i + 1], base[: i + 1])

    def test_unmasked_attention_sees_future(self):
        t = _small_params(tokens=6, dim=4, heads=2, blocks=1).tensors
        rng = np.random.default_rng(8)
        z = rng.normal(size=(6, 4))
        poked = z.copy()
        poked[5] += 1.0
        base = attention(Tensor(z), t, "block0.attn.", 2, mask=False).data
        out = attention(Tensor(poked), t, "block0.attn.", 2, mask=False).data
        assert np.any(out[0] != base[0])


class TestBlockOracle:
    """Agreement with an independent numpy transcription of the block."""

    def test_block_matches_transcription(self):
        p = _small_params(tokens=3, dim=4, heads=2, blocks=1, seed=5)
        z = np.array(
            [
                [0.3, -1.2, 0.5, 2.0],
                [1.1, 0.0, -0.7, 0.4],
                [-0.2, 0.9, 1.5, -1.0],
            ]
        )
        for mask in (True, False):
            got = encoder_block(Tensor(z), p.tensors, "block0.", 2, mask=mask).data
            want = np_encoder_block(z, p.tensors, "block0.", mask=mask)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_full_model_matches_transcription(self):
        p = _small_params(tokens=5, dim=4, heads=2, blocks=2, seed=9)
        x = np.random.default_rng(2).uniform(size=(4, 5))
        got = forward(x, p).data
        want = np_model_logits(x, p)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_zeroed_weights_reduce_block_to_final_norm(self):
        """With all attention and MLP weights zero, both residual branches
        add nothing and the block is just its closing layer norm."""
        p = _small_params(tokens=3, dim=4, heads=2, blocks=1)
        arrays = {
            name: np.zeros_like(t.data) if name.startswith(("block0.attn.", "block0.mlp_")) else t.data
            for name, t in p.named_parameters()
        }
        zeroed = KINDS["transformer"].from_arrays(p.hyper(), arrays).tensors
        assert not any(np.any(t.data) for name, t in zeroed.items() if name.startswith("block0.attn.head"))
        z = np.random.default_rng(3).normal(size=(3, 4))
        got = encoder_block(Tensor(z), zeroed, "block0.", 2, mask=True).data
        np.testing.assert_allclose(
            got, np_layer_norm(z, np.ones(4), np.zeros(4)), rtol=1e-12, atol=1e-12
        )


def _body(p, v):
    """The token matrix before the head: sentencing and the block stack, masked as p was built."""
    h, t = p.hyper(), p.tensors
    z = sentence(Tensor(v), t["sentencing.embed"], t["sentencing.bias"], t["sentencing.position"])
    for i in range(h["blocks"]):
        z = encoder_block(z, t, f"block{i}.", h["heads"], h["mask"])
    return z.data


class TestForward:
    def test_logit_shape_and_determinism(self):
        p = _small_params(tokens=13, dim=8, heads=2, blocks=2)
        x = np.random.default_rng(4).uniform(size=(7, 13))
        a = forward(x, p).data
        b = forward(x, p).data
        assert a.shape == (7, 2)
        np.testing.assert_array_equal(a, b)

    def test_feature_count_mismatch_rejected(self):
        p = _small_params(tokens=13, dim=8, heads=2, blocks=1)
        with pytest.raises(IncompatibilityError, match="13"):
            forward(np.zeros((2, 11)), p)

    def test_non_matrix_input_rejected(self):
        p = _small_params()
        with pytest.raises(IncompatibilityError):
            forward(np.zeros(3), p)

    def test_mask_changes_logits(self):
        """The same weights built with mask=False give other logits: forward
        takes the mask from the model's config."""
        p = _small_params(tokens=6, dim=4, heads=2, blocks=1)
        unmasked = new_transformer(6, seed=3, dim=4, heads=2, blocks=1, mask=False)
        x = np.random.default_rng(5).uniform(size=(2, 6))
        masked = forward(x, p).data
        free = forward(x, unmasked).data
        assert np.any(masked != free)

    def test_stack_causality_rows(self):
        """Through the whole block stack, token rows <= i ignore later tokens."""
        p = _small_params(tokens=5, dim=4, heads=2, blocks=2, seed=13)
        rng = np.random.default_rng(14)
        x = rng.uniform(size=(1, 5))
        poked = x.copy()
        poked[0, 3:] += 0.25
        with T.no_grad():
            np.testing.assert_array_equal(_body(p, x)[0, :3], _body(p, poked)[0, :3])

    def test_body_rows_do_not_depend_on_the_chunk(self):
        """Everything before the head computes a row with the same bytes
        whatever rows share its chunk: a prefix of a scoring chunk gives
        the chunk's first rows, and a permuted chunk gives permuted rows."""
        rows = CHUNK_ROWS
        p = new_transformer(13, seed=21)
        rng = np.random.default_rng(22)
        x = rng.uniform(size=(rows, 13))

        def body(v):
            with T.no_grad():
                return _body(p, v)

        whole = body(x)
        differ = [n for n in range(1, rows) if body(x[:n]).tobytes() != whole[:n].tobytes()]
        assert differ == []
        perm = rng.permutation(rows)
        assert body(x[perm]).tobytes() == whole[perm].tobytes()


FNN_INPUTS = ("x", "w1", "b1", "w2", "b2", "w3", "b3")


def op_fnn(x, p):
    """The FNN as the op-by-op graph: 8 records, each with the generic rule."""
    t = p.tensors
    h = T.relu(T.add(T.matmul(x, t["w1"]), t["b1"]))
    h = T.relu(T.add(T.matmul(h, t["w2"]), t["b2"]))
    return T.add(T.matmul(h, t["w3"]), t["b3"])


def fnn_step(forward_fn, rows, x_grad=False, frozen=()):
    """Logits and the gradient of each FNN input after one cross-entropy backward pass."""
    p = new_fnn(13, hidden=(64, 64), seed=4)
    for name in frozen:
        p.tensors[name].requires_grad = False
    rng = np.random.default_rng(rows)
    x = Tensor(rng.uniform(size=(rows, 13)), requires_grad=x_grad)
    T.clear_tape()
    logits = forward_fn(x, p)
    T.backward(cross_entropy(logits, rng.integers(0, 2, size=rows)))
    return logits.data, [x.grad] + [p.tensors[name].grad for name in FNN_INPUTS[1:]]


def same_bytes(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFnn:
    def test_matches_transcription(self):
        p = new_fnn(5, hidden=(8, 8), seed=1)
        x = np.random.default_rng(6).uniform(size=(4, 5))
        np.testing.assert_allclose(
            fnn_forward(x, p).data, np_fnn_logits(x, p), rtol=1e-12, atol=1e-12
        )

    def test_width_mismatch_rejected(self):
        p = new_fnn(5, hidden=(8, 8), seed=1)
        with pytest.raises(IncompatibilityError):
            fnn_forward(np.zeros((2, 7)), p)

    def test_gradient_check(self):
        """End-to-end finite differences across all six parameter tensors."""
        p = new_fnn(5, hidden=(8, 8), seed=2)
        x = np.random.default_rng(7).uniform(size=(4, 5))
        tensors = [t for _, t in p.named_parameters()]

        def loss_fn():
            out = fnn_forward(x, p)
            return taped_mean(T.mul(out, out))

        T.clear_tape()
        loss = loss_fn()
        T.backward(loss)
        analytic = [t.grad.copy() for t in tensors]
        numeric = central_diff(loss_fn, tensors)
        for a, n in zip(analytic, numeric):
            assert max_rel_error(a, n, floor=1e-6) < 1e-4

    @pytest.mark.parametrize("rows", [16, 1])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_logits_and_gradients_match_the_op_graph_bytes(self, rows, x_grad):
        logits, grads = fnn_step(fnn_forward, rows, x_grad)
        ref_logits, ref_grads = fnn_step(op_fnn, rows, x_grad)
        assert same_bytes(logits, ref_logits)
        assert (grads[0] is not None) is x_grad
        for name, g, ref in zip(FNN_INPUTS, grads, ref_grads):
            assert same_bytes(g, ref), name

    @pytest.mark.parametrize(
        "frozen", [("w2",), ("b3",), ("w3", "b3"), ("w1", "b1"), ("w1", "b1", "w2", "b2"), ("b1", "w2", "b2", "w3")]
    )
    def test_frozen_parameter_gets_no_gradient(self, frozen):
        _, grads = fnn_step(fnn_forward, 16, frozen=frozen)
        (_, _, rule), _ = T.active_tape()  # the FNN's record, then the loss's
        assert [g is not None for g in rule(np.ones((16, 2)))] == [g is not None for g in grads]
        _, ref_grads = fnn_step(op_fnn, 16, frozen=frozen)
        for name, g, ref in zip(FNN_INPUTS, grads, ref_grads):
            assert (g is None) is (name in frozen or name == "x"), name
            assert same_bytes(g, ref), name

    def test_no_grad_records_nothing(self):
        p = new_fnn(5, hidden=(8, 8), seed=1)
        with T.no_grad():
            out = fnn_forward(np.ones((3, 5)), p)
        assert T.active_tape() == [] and not out.requires_grad

    def test_training_step_records_the_fnn_and_the_loss(self):
        p = new_fnn(5, hidden=(8, 8), seed=1)
        T.backward(cross_entropy(p.logits(np.ones((16, 5))), np.zeros(16, dtype=np.int64)))
        assert len(T.active_tape()) == 2
        assert all(t.grad is not None for _, t in p.named_parameters())


class TestKindInterface:
    @pytest.mark.parametrize(
        "params, oracle",
        [
            (_small_params(tokens=13, seed=8), np_model_logits),
            (new_fnn(13, hidden=(8, 6), seed=8), np_fnn_logits),
            (
                new_transformer(13, seed=8, dim=4, heads=2, blocks=2, mask=False),
                lambda x, p: np_model_logits(x, p, mask=False),
            ),
        ],
        ids=["transformer", "fnn", "transformer-unmasked"],
    )
    def test_hyper_round_trip_and_logits(self, params, oracle, tmp_path):
        """from_arrays(hyper(), arrays) rebuilds the same model from its named arrays, in
        the layout that shapes(hyper()) names without building it; logits() is the forward pass.
        A hyper dict without kind builds the class's kind, which its checkpoint records, and
        the model keeps its own copy of the dict: no edit of the dict passed in, or of one
        that hyper() returned, reaches it."""
        arrays = {n: t.data for n, t in params.named_parameters()}
        h = params.hyper()
        rebuilt = KINDS[params.kind].from_arrays(h, arrays)
        assert type(rebuilt) is type(params)
        assert rebuilt.hyper() == h
        layout = [(n, t.data.shape) for n, t in params.named_parameters()]
        assert [(n, t.data.shape) for n, t in rebuilt.named_parameters()] == layout
        assert list(KINDS[params.kind].shapes(h)) == layout
        x = np.random.default_rng(9).uniform(size=(4, 13))
        np.testing.assert_array_equal(rebuilt.logits(x).data, params.logits(x).data)
        np.testing.assert_allclose(params.logits(x).data, oracle(x, params), rtol=1e-12, atol=1e-12)

        given = {k: v for k, v in copy.deepcopy(h).items() if k != "kind"}
        bare = KINDS[params.kind].from_arrays(given, arrays)
        assert bare.hyper() == h
        save_checkpoint(bare, fit_schema(synth(30, seed=0).records, "synthetic"), {}, tmp_path / "bare.ckpt")
        assert load_checkpoint(tmp_path / "bare.ckpt").params.hyper() == h
        for edited in (given, bare.hyper()):
            for value in edited.values():
                if isinstance(value, list):
                    value[0] = -1
            edited.clear()
            edited["kind"] = "rnn"
        assert bare.hyper() == h


class TestEncoderGradient:
    def test_small_model_gradient_check(self):
        """Finite differences agree with backprop through the full encoder."""
        p = _small_params(tokens=3, dim=4, heads=2, blocks=1, seed=21)
        x = np.random.default_rng(22).uniform(size=(2, 3))
        tensors = [t for _, t in p.named_parameters()]

        def loss_fn():
            out = forward(x, p)
            return taped_mean(T.mul(out, out))

        T.clear_tape()
        loss = loss_fn()
        T.backward(loss)
        analytic = [t.grad.copy() for t in tensors]
        numeric = central_diff(loss_fn, tensors)
        for (name, _), a, n in zip(p.named_parameters(), analytic, numeric):
            assert max_rel_error(a, n, floor=1e-6) < 1e-4, name
