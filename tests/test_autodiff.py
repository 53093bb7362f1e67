import numpy as np
import pytest

from framecast.autodiff import (
    Tensor,
    cross_entropy_logits,
    gradients,
    layer_norm,
    parameter,
    set_finite_checks,
    softmax,
)
from framecast.errors import ConfigError

from helpers import central_difference, max_relative_error

GRAD_TOL = 1e-6


def check_gradient(build_loss, x0, tol=GRAD_TOL, h=1e-5):
    """Compare backward() against central differences for loss(x)."""
    x = Tensor(np.array(x0, dtype=np.float64), requires_grad=True)
    loss = build_loss(x)
    loss.backward()
    numeric = central_difference(lambda a: build_loss(Tensor(a)).item(), x0, h=h)
    assert max_relative_error(x.grad, numeric) <= tol


class TestBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_elementwise_square(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x * x).sum().backward()
        assert np.array_equal(x.grad, np.array([2.0, 4.0, 6.0]))

    def test_unconnected_leaf_gets_zero(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        grads = gradients(x.sum(), [x, y])
        assert np.array_equal(grads[0], np.ones(3))
        assert np.array_equal(grads[1], np.zeros(2))

    def test_non_scalar_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ConfigError):
            (x * 2).backward()

    def test_broadcast_add_gradient(self):
        check_gradient(lambda x: (x + np.array([1.0, 2.0, 3.0])).sum() * 0.5, np.ones((2, 3)))
        b = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        ((x + b) * (x + b)).sum().backward()
        assert np.array_equal(b.grad, np.full(3, 8.0))

    def test_finite_check_flag(self):
        set_finite_checks(True)
        try:
            with np.errstate(over="ignore"):
                with pytest.raises(FloatingPointError):
                    Tensor(np.array([1e308])) * 10.0
        finally:
            set_finite_checks(False)

    def test_chained_use_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x * 2.0
        y.sum().backward()
        assert x.grad[0] == pytest.approx(2 * 3.0 + 2.0)


class TestMatmul:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 3))
        out = Tensor(np.eye(3)) @ Tensor(x)
        assert np.allclose(out.data, x)

    def test_hand_case(self):
        out = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])) @ Tensor(np.array([[1.0], [1.0]]))
        assert np.array_equal(out.data, np.array([[3.0], [7.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_gradients_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a0 = rng.normal(size=(3, 4))
            b0 = rng.normal(size=(4, 2))
            w = rng.normal(size=(3, 2))
            check_gradient(lambda a: (a @ Tensor(b0) * Tensor(w)).sum(), a0)
            check_gradient(lambda b: (Tensor(a0) @ b * Tensor(w)).sum(), b0)

    def test_batched_gradient(self):
        rng = np.random.default_rng(2)
        a0 = rng.normal(size=(2, 3, 4))
        b0 = rng.normal(size=(4, 5))
        w = rng.normal(size=(2, 3, 5))
        check_gradient(lambda a: (a @ Tensor(b0) * Tensor(w)).sum(), a0)
        check_gradient(lambda b: (Tensor(a0) @ b * Tensor(w)).sum(), b0)


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor(np.array([0.0, 0.0])))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_large_values_stable(self):
        out = softmax(Tensor(np.array([1000.0, 1000.0])))
        assert np.allclose(out.data, [0.5, 0.5])
        assert np.all(np.isfinite(out.data))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax(Tensor(rng.normal(size=(5, 7))), axis=-1)
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_masked_positions_exactly_zero(self):
        rng = np.random.default_rng(4)
        mask = rng.uniform(size=(4, 6)) > 0.4
        mask[:, 0] = True  # keep every row alive
        out = softmax(Tensor(rng.normal(size=(4, 6))), mask=mask)
        assert np.all(out.data[~mask] == 0.0)
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_all_masked_row_is_zero_sentinel(self):
        out = softmax(Tensor(np.ones((2, 3))), mask=np.zeros((2, 3), dtype=bool))
        assert np.all(out.data == 0.0)

    def test_all_masked_row_flagged_in_debug_mode(self):
        set_finite_checks(True)
        try:
            with pytest.warns(UserWarning, match="fully masked"):
                softmax(Tensor(np.ones((1, 3))), mask=np.zeros((1, 3), dtype=bool))
        finally:
            set_finite_checks(False)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x0 = rng.normal(size=(3, 4))
            w = rng.normal(size=(3, 4))
            check_gradient(lambda x: (softmax(x, axis=-1) * Tensor(w)).sum(), x0)

    def test_masked_gradient(self):
        rng = np.random.default_rng(6)
        mask = np.array([[True, True, False], [True, False, True]])
        w = rng.normal(size=(2, 3))
        check_gradient(
            lambda x: (softmax(x, mask=mask, axis=-1) * Tensor(w)).sum(),
            rng.normal(size=(2, 3)),
        )


class TestLayerNorm:
    def test_constant_vector_normalizes_to_zero(self):
        gain = Tensor(np.ones(4))
        bias = Tensor(np.zeros(4))
        out = layer_norm(Tensor(np.full((2, 4), 3.7)), gain, bias)
        assert np.allclose(out.data, 0.0, atol=1e-9)

    def test_mean_equals_bias(self):
        rng = np.random.default_rng(7)
        gain = Tensor(np.full(8, 1.3))
        bias = Tensor(np.full(8, 0.25))
        out = layer_norm(Tensor(rng.normal(size=(3, 8))), gain, bias)
        assert np.abs(out.data.mean(axis=-1) - 0.25).max() <= 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(8)
        g0 = rng.normal(size=6)
        b0 = rng.normal(size=6)
        w = rng.normal(size=(2, 6))
        check_gradient(
            lambda x: (layer_norm(x, Tensor(g0), Tensor(b0)) * Tensor(w)).sum(),
            rng.normal(size=(2, 6)),
        )
        x0 = rng.normal(size=(2, 6))
        check_gradient(
            lambda g: (layer_norm(Tensor(x0), g, Tensor(b0)) * Tensor(w)).sum(), g0
        )


class TestCrossEntropy:
    def test_uniform_two_way(self):
        loss = cross_entropy_logits(Tensor(np.zeros((1, 2))), np.array([0]))
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_confident_prediction(self):
        logits = np.zeros((1, 5))
        logits[0, 3] = 30.0
        loss = cross_entropy_logits(Tensor(logits), np.array([3]))
        assert loss.item() <= 1e-9

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            cross_entropy_logits(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_matches_log_sum_exp(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(4, 6))
        targets = rng.integers(0, 6, size=4)
        expected = np.mean(
            [np.log(np.exp(row).sum()) - row[t] for row, t in zip(logits, targets)]
        )
        assert cross_entropy_logits(Tensor(logits), targets).item() == pytest.approx(expected)

    def test_gradient(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            logits0 = rng.normal(size=(3, 5))
            targets = rng.integers(0, 5, size=3)
            check_gradient(lambda x: cross_entropy_logits(x, targets), logits0)

    def test_one_node_over_a_strided_slice(self):
        rng = np.random.default_rng(13)
        targets = rng.integers(0, 5, size=(2, 3))
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        assert cross_entropy_logits(x, targets)._parents == (x,)
        check_gradient(
            lambda x: cross_entropy_logits(x.slice_axis(1, 1, 4), targets), rng.normal(size=(2, 4, 5))
        )


class TestComposite:
    def test_mlp_loss_gradient(self):
        rng = np.random.default_rng(11)
        w1 = rng.normal(size=(4, 8)) * 0.5
        w2 = rng.normal(size=(8, 3)) * 0.5
        targets = rng.integers(0, 3, size=5)

        def loss_fn(x):
            h = (x @ Tensor(w1)).gelu()
            return cross_entropy_logits(h @ Tensor(w2), targets)

        check_gradient(loss_fn, rng.normal(size=(5, 4)), tol=1e-4)

    def test_gather_rows_gradient(self):
        rng = np.random.default_rng(12)
        idx = np.array([0, 2, 2, 1])
        w = rng.normal(size=(4, 3))
        check_gradient(
            lambda table: (table.gather_rows(idx) * Tensor(w)).sum(),
            rng.normal(size=(5, 3)),
        )

    def test_clip01_gradient_masked_outside(self):
        x = Tensor(np.array([-0.5, 0.25, 1.5]), requires_grad=True)
        x.clip01().sum().backward()
        assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))

    def test_replay_is_deterministic(self):
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=(3, 3))

        def run():
            x = Tensor(x0.copy(), requires_grad=True)
            loss = (softmax(x @ Tensor(np.eye(3)), axis=-1) * x).sum()
            loss.backward()
            return loss.item(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_parameter_factory(self):
        p = parameter(np.random.default_rng(0), (3, 4))
        assert p.requires_grad and p.shape == (3, 4)
