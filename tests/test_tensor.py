"""Tensor engine: forward semantics plus gradient checks against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd import central_diff, max_rel_error, taped_mean, taped_sum
from oracles import np_layer_norm, np_softmax, ref_layer_norm, ref_replay, ref_softmax
from flowids import tensor as T
from flowids.errors import ContractError, DimensionError
from flowids.tensor import Tensor


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3))
        out = T.matmul(Tensor(np.eye(3)), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_zero(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        z = Tensor(np.zeros((2, 2)))
        np.testing.assert_array_equal(T.matmul(a, z).data, np.zeros((2, 2)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)

        def loss_fn():
            return taped_sum(T.matmul(a, b)).item()

        loss = taped_sum(T.matmul(a, b))
        T.backward(loss)
        numeric = central_diff(loss_fn, [a, b])
        assert max_rel_error([a.grad, b.grad], numeric) < 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_batched_broadcast(self):
        """Batch axes of `a`, one or two of them, against a 2-D weight."""
        rng = np.random.default_rng(2)
        for lead in ((4,), (2, 3)):
            T.clear_tape()
            a = Tensor(rng.normal(size=lead + (3, 5)), requires_grad=True)
            b = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
            upstream = rng.normal(size=lead + (3, 2))
            out = T.matmul(a, b)
            assert out.shape == lead + (3, 2)
            T.backward(taped_sum(T.mul(out, Tensor(upstream))))
            numeric = central_diff(lambda: (np.matmul(a.data, b.data) * upstream).sum(), [a, b])
            assert max_rel_error([a.grad, b.grad], numeric) < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=7), requires_grad=True)
        w = rng.normal(size=7)  # fixed mixing vector so the loss is scalar

        def loss_fn():
            return float(_np_softmax(x.data) @ w)

        loss = taped_sum(T.mul(T.softmax(x), Tensor(w)))
        T.backward(loss)
        numeric = central_diff(loss_fn, [x])
        assert max_rel_error([x.grad], numeric) < 1e-6

    def test_rows_sum_to_one_and_lie_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = Tensor(rng.normal(scale=5.0, size=(6, 9)))
            y = T.softmax(x).data
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)
            assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_zero_d_input_rejected(self):
        with pytest.raises(DimensionError, match="0-d"):
            T.softmax(Tensor(1.0))


def _np_softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


class TestLayerNorm:
    def test_constant_row_is_absorbed_by_eps(self):
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), gamma, beta)
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_already_normalized_row(self):
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        out = T.layer_norm(Tensor([1.0, -1.0]), gamma, beta)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-4)

    def test_normalizes_before_affine(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(scale=4.0, size=(5, 16)))
        out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)), eps=1e-8)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        gamma = Tensor(rng.normal(size=8), requires_grad=True)
        beta = Tensor(rng.normal(size=8), requires_grad=True)
        w = rng.normal(size=(3, 8))

        def loss_fn():
            mu = x.data.mean(axis=-1, keepdims=True)
            var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
            xhat = (x.data - mu) / np.sqrt(var + 1e-5)
            return float(((gamma.data * xhat + beta.data) * w).sum())

        loss = taped_sum(T.mul(T.layer_norm(x, gamma, beta), Tensor(w)))
        T.backward(loss)
        numeric = central_diff(loss_fn, [x, gamma, beta])
        assert max_rel_error([x.grad, gamma.grad, beta.grad], numeric) < 1e-5

    def test_bad_affine_shapes(self):
        with pytest.raises(DimensionError):
            T.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.ones(4)))


class TestBlasSums:
    """layer_norm and softmax sum their last axis as BLAS products with cached
    constants; the numpy-reduction oracles are the reference."""

    @pytest.mark.parametrize("offset", [0.0, 10.0, 1e3])
    @pytest.mark.parametrize("dim", [1, 3, 24, 128])
    def test_layer_norm_matches_oracle(self, dim, offset):
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(64, 13, dim)) + offset
        gamma, beta = rng.normal(size=dim), rng.normal(size=dim)
        got = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        np.testing.assert_allclose(got, np_layer_norm(x, gamma, beta), rtol=0, atol=1e-13 * (1 + offset))

    @pytest.mark.parametrize("width", [1, 13, 40])
    def test_masked_softmax_matches_oracle(self, width):
        rng = np.random.default_rng(width)
        masked = T.causal_mask(Tensor(rng.normal(size=(64, 4, width, width))))
        got = T.softmax(masked).data
        np.testing.assert_allclose(got, np_softmax(masked.data), rtol=0, atol=1e-13)
        above = np.triu_indices(width, k=1)
        assert np.all(got[..., above[0], above[1]] == 0.0)

    def test_layer_norm_gradient_where_one_over_dim_is_inexact(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 24)), requires_grad=True)
        gamma = Tensor(rng.normal(size=24), requires_grad=True)
        beta = Tensor(rng.normal(size=24), requires_grad=True)
        w = rng.normal(size=(2, 3, 24))
        T.backward(taped_sum(T.mul(T.layer_norm(x, gamma, beta), Tensor(w))))
        numeric = central_diff(
            lambda: float((np_layer_norm(x.data, gamma.data, beta.data) * w).sum()), [x, gamma, beta]
        )
        assert max_rel_error([x.grad, gamma.grad, beta.grad], numeric) < 1e-5

    def test_cached_constants_are_read_only(self):
        for constant in (T._centring(4), T._column(4, 0.25), T._column(4, 1.0)[:, 0]):
            with pytest.raises(ValueError, match="read-only"):
                constant[0] += 1.0


class TestElementwise:
    def test_add_identity(self):
        x = Tensor([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(T.add(x, 0.0).data, x.data)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_relu_definition(self):
        np.testing.assert_array_equal(T.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_concat_shape(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
        assert T.concat_last_axis([a, b]).shape == (2, 6)

    def test_concat_mismatch(self):
        with pytest.raises(DimensionError):
            T.concat_last_axis([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))])

    def test_reshape_transpose_round_trips_are_bit_exact(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 6)))
        back = T.reshape(T.reshape(x, (3, 8)), (4, 6))
        np.testing.assert_array_equal(back.data, x.data)
        twice = T.transpose(T.transpose(x))
        np.testing.assert_array_equal(twice.data, x.data)

    def test_reshape_size_mismatch(self):
        with pytest.raises(DimensionError):
            T.reshape(Tensor(np.ones((2, 3))), (4, 2))

    def test_elementwise_gradients(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(0.5, 3.0, size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)

        def compose():
            return taped_mean(T.mul(T.scale(x, 0.5), T.relu(T.add(x, b))))

        T.backward(compose())
        numeric = central_diff(lambda: compose().item(), [x, b])
        assert max_rel_error([x.grad, b.grad], numeric) < 1e-6

    def test_scale_and_sum(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(taped_sum(T.scale(x, 2.5)))
        np.testing.assert_allclose(x.grad, [2.5, 2.5, 2.5])


class TestBroadcastGradients:
    """add and mul sum a gradient back to each input's shape, over the axes
    an input lacks and over its size-1 axes that broadcast."""

    @pytest.mark.parametrize("op, numpy_op", [(T.add, np.add), (T.mul, np.multiply)], ids=["add", "mul"])
    @pytest.mark.parametrize(
        "shapes", [((3, 1), (1, 4)), ((4, 13, 1), (13, 8)), ((2, 1), (1, 2))], ids=["3x1-1x4", "4x13x1-13x8", "2x1-1x2"]
    )
    def test_gradient_matches_finite_differences(self, op, numpy_op, shapes):
        rng = np.random.default_rng(12)
        a, b = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes)
        w = rng.normal(size=np.broadcast_shapes(*shapes))
        T.backward(taped_sum(T.mul(op(a, b), Tensor(w))))
        assert a.grad.shape == a.shape and b.grad.shape == b.shape
        numeric = central_diff(lambda: float((numpy_op(a.data, b.data) * w).sum()), [a, b])
        assert max_rel_error([a.grad, b.grad], numeric) < 1e-6


class TestCausalMask:
    def test_upper_triangle_is_minus_inf(self):
        s = T.causal_mask(Tensor(np.ones((3, 3))))
        assert s.data[0, 1] == -np.inf and s.data[0, 2] == -np.inf
        assert s.data[1, 2] == -np.inf
        np.testing.assert_array_equal(np.tril(s.data), np.tril(np.ones((3, 3))))

    def test_masked_softmax_weights_are_exactly_zero(self):
        rng = np.random.default_rng(9)
        w = T.softmax(T.causal_mask(Tensor(rng.normal(size=(5, 5))))).data
        assert np.all(w[np.triu_indices(5, k=1)] == 0.0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)

    def test_requires_square(self):
        with pytest.raises(DimensionError):
            T.causal_mask(Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("width", [1, 13, 40])
    def test_gradient_is_the_product_with_the_boolean_triangle(self, width):
        """Byte for byte, -0.0 above the diagonal and nan from inf included."""
        rng = np.random.default_rng(width)
        T.causal_mask(Tensor(rng.normal(size=(16, 4, width, width)), requires_grad=True))
        rule = T.active_tape()[-1][2]
        g = rng.normal(size=(16, 4, width, width))
        g[0, 0] = -0.0
        g[1, 1, 0] = [np.inf, -np.inf, np.nan][: width] + [-1.0] * (width - 3)
        with np.errstate(invalid="ignore"):
            (got,) = rule(g)
            want = g * np.tril(np.ones((width, width), dtype=bool))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        first = g[..., 0, 1:]  # masked entries whose upstream is finite and negative
        above = got[..., 0, 1:][np.isfinite(first) & (first < 0)]
        assert np.all(above == 0.0) and np.signbit(above).all()


class TestBackward:
    def test_analytic_quadratic(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        T.backward(taped_sum(T.mul(w, w)))
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_backward_twice_doubles_gradients(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = taped_sum(T.mul(w, w))
        T.backward(loss)
        T.backward(loss)
        np.testing.assert_allclose(w.grad, [4.0, 8.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        out = T.mul(w, w)
        with pytest.raises(ContractError):
            T.backward(out)

    def test_tensors_off_the_loss_path_get_no_grad(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        other = Tensor([3.0], requires_grad=True)
        T.relu(other)  # recorded but disconnected from the loss
        T.backward(taped_sum(w))
        assert other.grad is None
        np.testing.assert_allclose(w.grad, [1.0, 1.0])

    def test_tensor_from_an_earlier_tape_is_a_leaf(self):
        w = Tensor([2.0], requires_grad=True)
        y = T.mul(w, w)
        T.clear_tape()
        T.backward(taped_sum(T.mul(y, y)))
        np.testing.assert_array_equal(y.grad, [8.0])
        assert w.grad is None

    def test_no_grad_disables_recording(self):
        w = Tensor([1.0], requires_grad=True)
        assert T.is_grad_enabled()
        with T.no_grad():
            assert not T.is_grad_enabled()
            with T.no_grad():
                out = T.mul(w, w)
            assert not T.is_grad_enabled()  # an inner block restores the state it found
        assert T.is_grad_enabled()
        assert len(T.active_tape()) == 0
        assert not out.requires_grad


class TestUnreadGradients:
    """A matmul or mul rule returns None for an input that does not require
    grad, and the other input's gradient is the product it always was."""

    def _rule(self):
        return T.active_tape()[-1][2]

    def test_matmul_with_a_2d_weight(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 5, 3)))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        T.matmul(x, w)
        g = rng.normal(size=(4, 5, 2))
        gx, gw = self._rule()(g)
        assert gx is None
        np.testing.assert_array_equal(gw, x.data.reshape(-1, 3).T @ g.reshape(-1, 2))

    def test_matmul_batched(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 5)))
        T.matmul(a, b)
        g = rng.normal(size=(2, 4, 5))
        ga, gb = self._rule()(g)
        assert gb is None
        np.testing.assert_array_equal(ga, np.matmul(g, np.swapaxes(b.data, -1, -2)))

    def test_mul_broadcast_over_a_batch(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 13, 1)))
        embed = Tensor(rng.normal(size=(13, 8)), requires_grad=True)
        T.mul(x, embed)
        g = rng.normal(size=(4, 13, 8))
        gx, ge = self._rule()(g)
        assert gx is None
        np.testing.assert_array_equal(ge, (g * x.data).sum(axis=0))


class TestFiniteForward:
    def test_forward_stays_finite_for_bounded_params(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            x = Tensor(rng.uniform(-10, 10, size=(4, 8)))
            w = Tensor(rng.uniform(-10, 10, size=(8, 8)))
            gamma = Tensor(rng.uniform(0.1, 10, size=8))
            beta = Tensor(rng.uniform(-10, 10, size=8))
            y = T.softmax(T.layer_norm(T.relu(T.matmul(x, w)), gamma, beta))
            assert np.all(np.isfinite(y.data))


# -0.0 and 0.0, magnitudes near 1e300 and the smallest subnormal, as a share of an array
SPECIALS = (0.0, -0.0, 1e300, -1e300, 3e299, -7e299, 5e-324, -1.0)


@st.composite
def values(draw, shape):
    """A float64 array of ``shape``: normal draws at a drawn scale, with a
    drawn share of its entries replaced by a drawn set of SPECIALS."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = rng.normal(scale=draw(st.sampled_from([1.0, 1e-3, 30.0, 1e300])), size=shape)
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    picks = draw(st.lists(st.sampled_from(SPECIALS), min_size=1, max_size=4))
    hit = rng.random(shape) < share
    out[hit] = rng.choice(picks, size=int(hit.sum()))
    return out


@st.composite
def upstream(draw, shape):
    """A gradient of ``shape``, sometimes a non-contiguous transpose view."""
    if len(shape) > 1 and draw(st.booleans()):
        return draw(values(shape[::-1])).transpose()
    return draw(values(shape))


def same(a, b) -> bool:
    """Equal shapes and equal bits, NaN payloads and the sign of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelBytes:
    """softmax, layer_norm and the replay loop write into their own
    temporaries; they give the bytes of the one-array-per-step references in
    ``oracles`` and write into no input, no upstream gradient and no array
    another call returned."""

    @pytest.fixture(autouse=True)
    def quiet_overflow(self):
        with np.errstate(all="ignore"):  # values near 1e300 overflow, on both sides alike
            yield

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(st.data())
    def test_softmax_matches_reference(self, data):
        rows, n = data.draw(st.integers(1, 130)), data.draw(st.integers(1, 40))
        masked = data.draw(st.booleans())
        shape = (rows, n, n) if masked else (rows, data.draw(st.integers(1, 13)), n)
        x = Tensor(data.draw(values(shape)), requires_grad=True)
        if masked:  # the rows above the diagonal hold -inf, the first row all but one
            x = T.causal_mask(x)
        before = x.data.copy()
        out = T.softmax(x)
        rule = T.active_tape()[-1][2]
        ref_out, ref_back = ref_softmax(before)
        assert same(out.data, ref_out)
        g = data.draw(upstream(shape))
        g_before, out_before = g.copy(), out.data.copy()
        (dx,) = rule(g)
        assert same(dx, ref_back(g))
        assert same(g, g_before) and same(x.data, before) and same(out.data, out_before)

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(st.data())
    def test_layer_norm_matches_reference(self, data):
        rows, dim = data.draw(st.integers(1, 130)), data.draw(st.integers(1, 40))
        shape = (rows, dim) if data.draw(st.booleans()) else (rows, data.draw(st.integers(1, 13)), dim)
        x, gamma, beta = (
            Tensor(data.draw(values(s)), requires_grad=True) for s in (shape, (dim,), (dim,))
        )
        inputs = [t.data.copy() for t in (x, gamma, beta)]
        out = T.layer_norm(x, gamma, beta)
        rule = T.active_tape()[-1][2]
        ref_out, ref_back = ref_layer_norm(*inputs)
        assert same(out.data, ref_out)
        g = data.draw(upstream(shape))
        g_before, out_before = g.copy(), out.data.copy()
        got = rule(g)
        assert all(same(a, b) for a, b in zip(got, ref_back(g), strict=True))
        assert same(g, g_before) and same(out.data, out_before)
        assert all(same(t.data, b) for t, b in zip((x, gamma, beta), inputs))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def test_replay_matches_reference_and_writes_no_rule_array(self, data):
        """A miniature encoder where x is read three times, twice by one add;
        z is read by all 12 head projections; one w_v leaf is shared by the
        four heads; and the gradients reaching relu are views made by
        transpose and reshape. backward twice must give the reference
        replay's gradients, then their doubles."""
        rows, tokens, dim, heads = data.draw(st.integers(1, 130)), data.draw(st.integers(1, 13)), 8, 4

        def leaf(shape):
            return Tensor(data.draw(values(shape)), requires_grad=True)

        x, gamma, beta = leaf((rows, tokens, dim)), leaf((dim,)), leaf((dim,))
        w_q = [leaf((dim, dim // heads)) for _ in range(heads)]
        w_k = [leaf((dim, dim // heads)) for _ in range(heads)]
        w_v, w_out = leaf((dim, dim // heads)), leaf((dim, dim))
        mix = data.draw(values((rows * dim, tokens)))
        leaves = [x, gamma, beta, *w_q, *w_k, w_v, w_out]
        forward_inputs = [t.data.copy() for t in leaves]

        z = T.layer_norm(T.add(x, x), gamma, beta)
        parts = []
        for q_w, k_w in zip(w_q, w_k):
            q, k, v = T.matmul(z, q_w), T.matmul(z, k_w), T.matmul(z, w_v)
            weights = T.softmax(T.causal_mask(T.scale(T.matmul(q, T.transpose(k)), 0.5)))
            parts.append(T.matmul(weights, v))
        h = T.relu(T.add(T.matmul(T.concat_last_axis(parts), w_out), x))
        flat = T.reshape(T.transpose(h), (rows * dim, tokens))
        loss = taped_sum(T.mul(flat, Tensor(mix)))

        tape = T.active_tape()
        ref = ref_replay(list(tape), loss)
        assert set(ref) == set(leaves)
        seen = []

        def spy(back):
            def rule(g):
                got = back(g)
                seen.append([(a, a.copy()) for a in (g, *got) if a is not None])
                return got

            return rule

        tape[:] = [(node, keys, spy(back)) for node, keys, back in tape]
        T.backward(loss)
        assert all(same(t.grad, ref[t]) for t in leaves)
        # a leaf's gradient is its own: a sum the replay made, or a copy
        assert not any(np.may_share_memory(t.grad, a) for t in leaves for arrays in seen for a, _ in arrays)
        T.backward(loss)
        assert all(same(t.grad, ref[t] + ref[t]) for t in leaves)
        assert all(same(a, copy) for arrays in seen for a, copy in arrays)
        assert all(same(t.data, b) for t, b in zip(leaves, forward_inputs))
