"""Encoder architecture: shapes, masking, init, and oracle agreement."""

import numpy as np
import pytest

import flowids.tensor as T
from flowids.errors import ConfigError, IncompatibilityError
from flowids.model import (
    KINDS,
    EncoderConfig,
    attention,
    encoder_block,
    fnn_forward,
    forward,
    init_fnn,
    init_params,
    parameter_count,
)
from flowids.sentencing import sentence
from flowids.tensor import Tensor
from fd import central_diff, max_rel_error
from oracles import (
    np_encoder_block,
    np_fnn_logits,
    np_layer_norm,
    np_model_logits,
)


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


def _small_params(tokens=3, dim=4, heads=2, blocks=2, seed=3):
    return init_params(EncoderConfig(dim=dim, heads=heads, blocks=blocks), tokens, seed)


class TestEncoderConfig:
    def test_mlp_dim_defaults_to_four_dim(self):
        assert EncoderConfig(dim=32).resolved_mlp_dim() == 128
        assert EncoderConfig(dim=32, mlp_dim=48).resolved_mlp_dim() == 48

    @pytest.mark.parametrize("mask", ["false", 0, None])
    def test_non_bool_mask_rejected(self, mask):
        with pytest.raises(ConfigError, match="mask"):
            EncoderConfig(mask=mask).validate()

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError, match="divide"):
            EncoderConfig(dim=10, heads=4).validate()

    def test_sizes_must_be_positive(self):
        with pytest.raises(ConfigError):
            EncoderConfig(dim=0).validate()
        with pytest.raises(ConfigError):
            EncoderConfig(blocks=-1).validate()
        for mlp_dim in (0, -3):
            with pytest.raises(ConfigError, match="mlp_dim"):
                EncoderConfig(mlp_dim=mlp_dim).validate()


class TestInit:
    def test_deterministic_given_seed(self):
        a = _small_params(seed=11)
        b = _small_params(seed=11)
        for (name_a, ta), (name_b, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_seed_changes_weights(self):
        a = _small_params(seed=1)
        b = _small_params(seed=2)
        assert np.any(a.head_w.data != b.head_w.data)

    def test_shapes(self):
        p = _small_params(tokens=5, dim=8, heads=2, blocks=2)
        block = p.blocks[0]
        assert block.attn.heads == 2
        for h in range(2):
            assert block.attn.w_q[h].data.shape == (8, 4)
            assert block.attn.w_k[h].data.shape == (8, 4)
            assert block.attn.w_v[h].data.shape == (8, 4)
        assert block.attn.w_out.data.shape == (8, 8)
        assert block.mlp_w1.data.shape == (8, 32)
        assert block.mlp_w2.data.shape == (32, 8)
        assert p.head_w.data.shape == (5 * 8, 2)
        assert p.head_b.data.shape == (2,)

    def test_affine_and_bias_initial_values(self):
        p = _small_params()
        block = p.blocks[0]
        np.testing.assert_array_equal(block.ln1_gamma.data, np.ones(4))
        np.testing.assert_array_equal(block.ln1_beta.data, np.zeros(4))
        np.testing.assert_array_equal(block.mlp_b1.data, np.zeros(16))
        np.testing.assert_array_equal(p.sentencing.position.data, np.zeros((3, 4)))

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
        assert parameter_count(p) == expected

    def test_fnn_parameter_count(self):
        p = init_fnn(13, hidden=(64, 64), seed=0)
        assert parameter_count(p) == 13 * 64 + 64 + 64 * 64 + 64 + 64 * 2 + 2

    def test_invalid_head_split_rejected(self):
        with pytest.raises(ConfigError):
            init_params(EncoderConfig(dim=10, heads=4), tokens=3, seed=0)


class TestAttention:
    def test_single_token_is_value_projection(self):
        """With one token the softmax weight is 1, so output = v @ w_out."""
        p = _small_params(tokens=1, dim=4, heads=2, blocks=1)
        attn = p.blocks[0].attn
        z = np.random.default_rng(0).normal(size=(1, 4))
        out = attention(Tensor(z), attn)
        v = np.concatenate([z @ w.data for w in attn.w_v], axis=-1)
        np.testing.assert_allclose(out.data, v @ attn.w_out.data, rtol=1e-12, atol=1e-12)

    def test_mask_blocks_future_bit_exactly(self):
        """Perturbing tokens after position i leaves rows <= i unchanged."""
        p = _small_params(tokens=6, dim=4, heads=2, blocks=1)
        attn = p.blocks[0].attn
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = rng.normal(size=(6, 4))
            base = attention(Tensor(z), attn, mask=True).data
            i = int(rng.integers(0, 5))
            poked = z.copy()
            poked[i + 1 :] += rng.normal(size=(5 - i, 4))
            out = attention(Tensor(poked), attn, mask=True).data
            np.testing.assert_array_equal(out[: i + 1], base[: i + 1])

    def test_unmasked_attention_sees_future(self):
        p = _small_params(tokens=6, dim=4, heads=2, blocks=1)
        attn = p.blocks[0].attn
        rng = np.random.default_rng(8)
        z = rng.normal(size=(6, 4))
        poked = z.copy()
        poked[5] += 1.0
        base = attention(Tensor(z), attn, mask=False).data
        out = attention(Tensor(poked), attn, mask=False).data
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
            got = encoder_block(Tensor(z), p.blocks[0], mask=mask).data
            want = np_encoder_block(z, p.blocks[0], mask=mask)
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
        block = p.blocks[0]
        for _, t in block.attn.named("a"):
            t.data = np.zeros_like(t.data)
        for t in (block.mlp_w1, block.mlp_b1, block.mlp_w2, block.mlp_b2):
            t.data = np.zeros_like(t.data)
        z = np.random.default_rng(3).normal(size=(3, 4))
        got = encoder_block(Tensor(z), block).data
        np.testing.assert_allclose(
            got, np_layer_norm(z, np.ones(4), np.zeros(4)), rtol=1e-12, atol=1e-12
        )


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
        unmasked = init_params(EncoderConfig(dim=4, heads=2, blocks=1, mask=False), 6, seed=3)
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
            def stack(v):
                z = sentence(Tensor(v), p.sentencing)
                for block in p.blocks:
                    z = encoder_block(z, block, mask=True)
                return z.data
            np.testing.assert_array_equal(stack(x)[0, :3], stack(poked)[0, :3])


class TestFnn:
    def test_matches_transcription(self):
        p = init_fnn(5, hidden=(8, 8), seed=1)
        x = np.random.default_rng(6).uniform(size=(4, 5))
        np.testing.assert_allclose(
            fnn_forward(x, p).data, np_fnn_logits(x, p), rtol=1e-12, atol=1e-12
        )

    def test_width_mismatch_rejected(self):
        p = init_fnn(5, hidden=(8, 8), seed=1)
        with pytest.raises(IncompatibilityError):
            fnn_forward(np.zeros((2, 7)), p)

    def test_gradient_check(self):
        """End-to-end finite differences across all six parameter tensors."""
        p = init_fnn(5, hidden=(8, 8), seed=2)
        x = np.random.default_rng(7).uniform(size=(4, 5))
        tensors = [t for _, t in p.named_parameters()]

        def loss_fn():
            out = fnn_forward(x, p)
            return T.mean_all(T.mul(out, out))

        T.clear_tape()
        loss = loss_fn()
        T.backward(loss)
        analytic = [t.grad.copy() for t in tensors]
        numeric = central_diff(loss_fn, tensors)
        for a, n in zip(analytic, numeric):
            assert max_rel_error(a, n, floor=1e-6) < 1e-4


class TestKindInterface:
    @pytest.mark.parametrize(
        "params, oracle",
        [
            (_small_params(tokens=5, seed=8), np_model_logits),
            (init_fnn(5, hidden=(8, 6), seed=8), np_fnn_logits),
            (
                init_params(EncoderConfig(dim=4, heads=2, blocks=2, mask=False), 5, seed=8),
                lambda x, p: np_model_logits(x, p, mask=False),
            ),
        ],
        ids=["transformer", "fnn", "transformer-unmasked"],
    )
    def test_hyper_round_trip_and_logits(self, params, oracle):
        """from_hyper(hyper()) rebuilds the same layout, which shapes(hyper()) names without
        building it; logits() is the forward pass."""
        skeleton = KINDS[params.kind].from_hyper(params.hyper())
        assert type(skeleton) is type(params)
        assert skeleton.hyper() == params.hyper()
        layout = [(n, t.data.shape) for n, t in params.named_parameters()]
        assert [(n, t.data.shape) for n, t in skeleton.named_parameters()] == layout
        assert list(KINDS[params.kind].shapes(params.hyper())) == layout
        x = np.random.default_rng(9).uniform(size=(4, 5))
        np.testing.assert_allclose(params.logits(x).data, oracle(x, params), rtol=1e-12, atol=1e-12)


class TestEncoderGradient:
    def test_small_model_gradient_check(self):
        """Finite differences agree with backprop through the full encoder."""
        p = _small_params(tokens=3, dim=4, heads=2, blocks=1, seed=21)
        x = np.random.default_rng(22).uniform(size=(2, 3))
        tensors = [t for _, t in p.named_parameters()]

        def loss_fn():
            out = forward(x, p)
            return T.mean_all(T.mul(out, out))

        T.clear_tape()
        loss = loss_fn()
        T.backward(loss)
        analytic = [t.grad.copy() for t in tensors]
        numeric = central_diff(loss_fn, tensors)
        for (name, _), a, n in zip(p.named_parameters(), analytic, numeric):
            assert max_rel_error(a, n, floor=1e-6) < 1e-4, name
