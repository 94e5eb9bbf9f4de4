"""Unit tests for the autograd tensor engine.

Every differentiable op is checked against central finite differences, plus
graph-mechanics tests (accumulation, no_grad, detach, topological order on
diamond graphs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import (
    Tensor, no_grad, is_grad_enabled, concatenate, stack, unbroadcast, matmul_transposed,
)


def numeric_grad(build, params: list[np.ndarray], eps: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of scalar ``build(*params)``."""
    grads = []
    for k, p in enumerate(params):
        g = np.zeros_like(p, dtype=np.float64)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = p[i]
            p[i] = orig + eps
            f_plus = build(*params)
            p[i] = orig - eps
            f_minus = build(*params)
            p[i] = orig
            g[i] = (f_plus - f_minus) / (2 * eps)
        grads.append(g)
    return grads


def check_op(op, shapes, seed=0, tol=1e-6):
    """Autograd-vs-numeric gradient check for op over random inputs."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0.5, 1.0, size=s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    out.sum().backward()

    def scalar(*ps):
        return float(op(*[Tensor(p) for p in ps]).sum().data)

    numeric = numeric_grad(scalar, arrays)
    for t, n in zip(tensors, numeric):
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, n, rtol=tol, atol=tol)


class TestElementwiseGradients:
    def test_add(self):
        check_op(lambda a, b: a + b, [(3, 4), (3, 4)])

    def test_add_broadcast(self):
        check_op(lambda a, b: a + b, [(3, 4), (4,)])

    def test_sub(self):
        check_op(lambda a, b: a - b, [(2, 3), (2, 3)])

    def test_mul(self):
        check_op(lambda a, b: a * b, [(3, 3), (3, 3)])

    def test_mul_broadcast_scalar(self):
        check_op(lambda a, b: a * b, [(3, 3), (1,)])

    def test_div(self):
        check_op(lambda a, b: a / (b * b + 1.0), [(2, 4), (2, 4)])

    def test_pow(self):
        check_op(lambda a: (a * a + 1.0) ** 1.5, [(5,)])

    def test_neg(self):
        check_op(lambda a: -a, [(4,)])

    def test_exp(self):
        check_op(lambda a: a.exp(), [(3, 2)])

    def test_log(self):
        check_op(lambda a: (a * a + 1.0).log(), [(4,)])

    def test_sqrt(self):
        check_op(lambda a: (a * a + 1.0).sqrt(), [(4,)])

    def test_tanh(self):
        check_op(lambda a: a.tanh(), [(6,)])

    def test_sigmoid(self):
        check_op(lambda a: a.sigmoid(), [(6,)])

    def test_abs_away_from_zero(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5,))
        a[np.abs(a) < 0.1] = 0.5
        t = Tensor(a, requires_grad=True)
        t.abs().sum().backward()
        np.testing.assert_allclose(t.grad, np.sign(a))

    def test_relu_gradient_mask(self):
        t = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.0, 1.0, 1.0])

    def test_clip_gradient_mask(self):
        t = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        t.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestMatmulGradients:
    def test_matmul_2d(self):
        check_op(lambda a, b: a @ b, [(3, 4), (4, 2)])

    def test_matmul_vec_mat(self):
        check_op(lambda a, b: a @ b, [(4,), (4, 3)])

    def test_matmul_mat_vec(self):
        check_op(lambda a, b: a @ b, [(3, 4), (4,)])

    def test_matmul_vec_vec(self):
        check_op(lambda a, b: (a @ b) * Tensor(1.0), [(4,), (4,)])

    @staticmethod
    def _one_column(dtype, batch=()):
        """A K = 1 gradient and weight column whose products include -0."""
        rng = np.random.default_rng(3)
        g = rng.normal(size=batch + (37, 1)).astype(dtype)
        w = rng.normal(size=(29, 1)).astype(dtype)
        g[..., :5, 0] = 0.0          # +0 times negative weights
        g[..., 5:8, 0] = -0.0        # -0 times positive weights
        w[:4, 0] = -0.0              # -0 times positive gradients
        return g, w

    @staticmethod
    def _bits(a: np.ndarray) -> np.ndarray:
        return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["2d", "batched"])
    def test_one_column_product_has_gemm_bits(self, dtype, batch):
        g, w = self._one_column(dtype, batch)
        products = g * np.swapaxes(w, -1, -2)
        assert np.signbit(products[products == 0]).any()  # the case is exercised
        gemm = np.matmul(g, w.T)
        np.testing.assert_array_equal(self._bits(matmul_transposed(g, w)), self._bits(gemm))
        out = np.empty_like(gemm)
        assert matmul_transposed(g, w, out=out) is out
        np.testing.assert_array_equal(self._bits(out), self._bits(gemm))

    def test_one_output_layer_input_gradient_has_gemm_bits(self):
        # The last layer of an MLP: (m, k) @ (k, 1); its input gradient is g @ wᵀ.
        # Tensors hold float64; the float32 frozen-MLP backward uses the same helper.
        g, w = self._one_column(np.float64)
        x = Tensor(np.ones((g.shape[0], w.shape[0])), requires_grad=True)
        (x @ Tensor(w)).backward(g)
        np.testing.assert_array_equal(self._bits(x.grad), self._bits(np.matmul(g, w.T)))


class TestReductions:
    def test_sum_all(self):
        check_op(lambda a: a.sum(), [(3, 4)])

    def test_sum_axis_keepdims(self):
        check_op(lambda a: a.sum(axis=1, keepdims=True).sum(), [(3, 4)])

    def test_mean(self):
        check_op(lambda a: a.mean(), [(3, 4)])

    def test_mean_axis(self):
        check_op(lambda a: a.mean(axis=0).sum(), [(3, 4)])

    def test_max_all_unique(self):
        rng = np.random.default_rng(2)
        a = rng.permutation(12).astype(float).reshape(3, 4)
        t = Tensor(a, requires_grad=True)
        t.max().backward()
        expected = np.zeros_like(a)
        expected[np.unravel_index(a.argmax(), a.shape)] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_max_axis(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3))
        t = Tensor(a, requires_grad=True)
        t.max(axis=0).sum().backward()
        expected = (a == a.max(axis=0, keepdims=True)).astype(float)
        np.testing.assert_allclose(t.grad, expected)

    def test_max_ties_split_gradient(self):
        t = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5])

    def test_min(self):
        a = np.array([3.0, 1.0, 2.0])
        t = Tensor(a, requires_grad=True)
        out = t.min()
        assert float(out.data) == 1.0
        out.backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestShapeOps:
    def test_reshape_roundtrip(self):
        check_op(lambda a: (a.reshape(6) * a.reshape(6)).sum() * Tensor(1.0), [(2, 3)])

    def test_transpose(self):
        check_op(lambda a: (a.T @ a).sum() * Tensor(0.5), [(3, 4)])

    def test_getitem_slice(self):
        a = np.arange(12, dtype=float).reshape(3, 4)
        t = Tensor(a, requires_grad=True)
        t[1:].sum().backward()
        expected = np.zeros_like(a)
        expected[1:] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_fancy_accumulates(self):
        t = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0])

    def test_concatenate(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * Tensor(np.arange(10, dtype=float).reshape(5, 2))).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [2, 3]])
        np.testing.assert_allclose(b.grad, [[4, 5], [6, 7], [8, 9]])

    def test_stack(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_broadcast_to_is_a_view_with_the_ones_product_bits(self):
        from repro.autograd.graph import CapturedGraph
        from repro.autograd.tensor import graph_capture

        rng = np.random.default_rng(4)
        weights = rng.normal(size=(3, 5, 2))
        with graph_capture():
            a = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
            viewed = a.broadcast_to((3, 5, 2))
            out = (viewed * Tensor(weights)).sum()
        b = Tensor(a.data.copy(), requires_grad=True)
        reference = (b * Tensor(np.ones((3, 1, 1))) * Tensor(weights)).sum()
        assert viewed.shape == (3, 5, 2) and np.shares_memory(viewed.data, a.data)
        assert out.data.tobytes() == reference.data.tobytes()
        graph = CapturedGraph((out,), backward_root=out)
        assert graph.n_view_nodes == 1
        assert graph.n_ops == 2  # the product and the sum; the view is no kernel
        out.backward()
        reference.backward()
        assert a.grad.tobytes() == b.grad.tobytes()

    def test_where_routes_gradient(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        out = a.where(np.array([True, False]), b)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestGraphMechanics:
    def test_gradient_accumulation_diamond(self):
        # y = x*x + x*x: gradient must accumulate both paths.
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x
        z = y + y
        z.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [12.0])

    def test_backward_twice_accumulates_into_leaf(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * 3.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_zero_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * x).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * x
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_detach(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x.detach() * x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_comparison_returns_numpy(self):
        x = Tensor(np.array([1.0, -1.0]))
        assert isinstance(x > 0, np.ndarray)

    def test_item_and_numpy(self):
        x = Tensor(np.array([[5.0]]))
        assert x.item() == 5.0
        arr = x.numpy()
        arr[0, 0] = 9.0
        assert x.data[0, 0] == 5.0  # copy, not view

    def test_item_raises_on_non_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)).item()


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)

    def test_prepended_axes(self):
        g = np.ones((5, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 3)), np.full((2, 3), 5.0))

    def test_stretched_axis(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 1)), np.full((2, 1), 3.0))

    def test_both(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (1, 3)), np.full((1, 3), 8.0))
