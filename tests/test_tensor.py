"""Tensor engine: forward semantics plus gradient checks against finite differences."""

import numpy as np
import pytest

from fd import central_diff, max_rel_error
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
            return T.sum_all(T.matmul(a, b)).item()

        loss = T.sum_all(T.matmul(a, b))
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
            T.backward(T.sum_all(T.mul(out, Tensor(upstream))))
            numeric = central_diff(lambda: (np.matmul(a.data, b.data) * upstream).sum(), [a, b])
            assert max_rel_error([a.grad, b.grad], numeric) < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]), axis=-1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=7), requires_grad=True)
        w = rng.normal(size=7)  # fixed mixing vector so the loss is scalar

        def loss_fn():
            return float(_np_softmax(x.data) @ w)

        loss = T.sum_all(T.mul(T.softmax(x, axis=-1), Tensor(w)))
        T.backward(loss)
        numeric = central_diff(loss_fn, [x])
        assert max_rel_error([x.grad], numeric) < 1e-6

    def test_rows_sum_to_one_and_lie_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = Tensor(rng.normal(scale=5.0, size=(6, 9)))
            y = T.softmax(x, axis=-1).data
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)
            assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            T.softmax(Tensor(np.ones((2, 2))), axis=5)


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

        loss = T.sum_all(T.mul(T.layer_norm(x, gamma, beta), Tensor(w)))
        T.backward(loss)
        numeric = central_diff(loss_fn, [x, gamma, beta])
        assert max_rel_error([x.grad, gamma.grad, beta.grad], numeric) < 1e-5

    def test_bad_affine_shapes(self):
        with pytest.raises(DimensionError):
            T.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.ones(4)))


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
            return T.mean_all(T.mul(T.log(x), T.relu(T.add(x, b))))

        T.backward(compose())
        numeric = central_diff(lambda: compose().item(), [x, b])
        assert max_rel_error([x.grad, b.grad], numeric) < 1e-6

    def test_scale_and_sum(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(T.sum_all(T.scale(x, 2.5)))
        np.testing.assert_allclose(x.grad, [2.5, 2.5, 2.5])


class TestCausalMask:
    def test_upper_triangle_is_minus_inf(self):
        s = T.causal_mask(Tensor(np.ones((3, 3))))
        assert s.data[0, 1] == -np.inf and s.data[0, 2] == -np.inf
        assert s.data[1, 2] == -np.inf
        np.testing.assert_array_equal(np.tril(s.data), np.tril(np.ones((3, 3))))

    def test_masked_softmax_weights_are_exactly_zero(self):
        rng = np.random.default_rng(9)
        w = T.softmax(T.causal_mask(Tensor(rng.normal(size=(5, 5)))), axis=-1).data
        assert np.all(w[np.triu_indices(5, k=1)] == 0.0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)

    def test_requires_square(self):
        with pytest.raises(DimensionError):
            T.causal_mask(Tensor(np.ones((2, 3))))


class TestBackward:
    def test_analytic_quadratic(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        T.backward(T.sum_all(T.mul(w, w)))
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_backward_twice_doubles_gradients(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.sum_all(T.mul(w, w))
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
        T.backward(T.sum_all(w))
        assert other.grad is None
        np.testing.assert_allclose(w.grad, [1.0, 1.0])

    def test_tensor_from_an_earlier_tape_is_a_leaf(self):
        w = Tensor([2.0], requires_grad=True)
        y = T.mul(w, w)
        T.clear_tape()
        T.backward(T.sum_all(T.mul(y, y)))
        np.testing.assert_array_equal(y.grad, [8.0])
        assert w.grad is None

    def test_no_grad_disables_recording(self):
        w = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            out = T.mul(w, w)
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
            y = T.softmax(T.layer_norm(T.relu(T.matmul(x, w)), gamma, beta), axis=-1)
            assert np.all(np.isfinite(y.data))
