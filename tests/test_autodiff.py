import numpy as np
import pytest

from framecast.autodiff import (
    Tensor,
    cross_entropy_logits,
    gradients,
    init_params,
    layer_norm,
    softmax,
)
from framecast.dynamics import build_block_causal_mask
from framecast.errors import ConfigError

from helpers import (
    assert_backward_matches_eager,
    central_difference,
    max_relative_error,
    softmax_reference,
)

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

    def test_chained_use_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x * 2.0
        y.sum().backward()
        assert x.grad[0] == pytest.approx(2 * 3.0 + 2.0)

    @pytest.mark.parametrize("axis", [None, 1, -1, (0, 1), (-1, 0), (0, 2, 1)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean_matches_numpy(self, axis, keepdims):
        x0 = np.random.default_rng(14).normal(size=(2, 3, 5))
        x = Tensor(x0, requires_grad=True)
        out = x.mean(axis=axis, keepdims=keepdims)
        want = x0.mean(axis=axis, keepdims=keepdims)
        assert out.shape == want.shape
        assert np.allclose(out.data, want, rtol=1e-15, atol=0.0)
        out.sum().backward()
        assert np.array_equal(x.grad, np.full(x0.shape, want.size / x0.size))

    @pytest.mark.parametrize("axes", [(1, 2, 0), (2, 0, 1), (0, 2, 1), [3, 1, 0, 2]])
    def test_transpose_gradient_undoes_permutation(self, axes):
        # a cyclic permutation is not its own inverse, so backward must invert it
        shape = (2, 3, 4, 5)[: len(axes)]
        x0 = np.random.default_rng(21).normal(size=shape)
        x = Tensor(x0, requires_grad=True)
        weights = np.random.default_rng(22).normal(size=x0.transpose(axes).shape)
        (x.transpose(axes) * weights).sum().backward()
        assert np.array_equal(x.grad, weights.transpose(np.argsort(axes)))


def _tape(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


_F32 = np.random.default_rng(17).normal(size=(2, 3, 4)).astype(np.float32)
_I64 = np.arange(-12, 12, dtype=np.int64).reshape(2, 3, 4)
_ROW = np.random.default_rng(18).normal(size=4)  # broadcast onto x's (2, 3, 4)
_UP = np.random.default_rng(19).normal(size=(3, 1, 1, 1))  # broadcasts x up to (3, 2, 3, 4)
_W = np.random.default_rng(20).normal(size=(4, 5)).astype(np.float32)


class TestScalarOperands:
    """A constant operand (a number or an ndarray) gives the bytes and the tape
    of the same op with the constant lifted to a Tensor, the slow reference.

    The reflected ndarray forms call x's method directly; numpy's own
    operators reach the same methods (test_an_ndarray_on_the_left)."""

    CASES = {
        "mul": (lambda x: x * 0.5, lambda x: x * Tensor(0.5)),
        "rmul_int": (lambda x: -3 * x, lambda x: Tensor(-3) * x),
        "mul_negative_zero": (lambda x: x * -0.0, lambda x: x * Tensor(-0.0)),
        "mul_float32": (lambda x: x * np.float32(0.1), lambda x: x * Tensor(np.float32(0.1))),
        "scale": (lambda x: x * (1.0 / np.sqrt(8)), lambda x: x * Tensor(1.0 / np.sqrt(8))),
        "add": (lambda x: x + 1e-5, lambda x: x + Tensor(1e-5)),
        "radd": (lambda x: np.float64(1.5) + x, lambda x: Tensor(1.5) + x),
        "sub": (lambda x: x - 0.25, lambda x: x - Tensor(0.25)),
        "sub_unsigned": (lambda x: x - np.uint8(2), lambda x: x - Tensor(np.uint8(2))),
        "neg": (lambda x: -x, lambda x: x * Tensor(-1.0)),
        "mean": (lambda x: x.mean(axis=(0, 2)), lambda x: x.sum(axis=(0, 2)) * Tensor(1.0 / 8)),
        "add_float32_array": (lambda x: x + _F32, lambda x: x + Tensor(_F32)),
        "mul_int64_array": (lambda x: x * _I64, lambda x: x * Tensor(_I64)),
        "add_0d_array": (lambda x: x + np.array(0.75), lambda x: x + Tensor(0.75)),
        "mul_0d_int_array": (lambda x: x * np.array(-2), lambda x: x * Tensor(-2)),
        "radd_0d_array": (lambda x: np.array(1.5) + x, lambda x: Tensor(1.5) + x),
        "mul_broadcast_row": (lambda x: x * _ROW, lambda x: x * Tensor(_ROW)),
        "add_broadcast_up": (lambda x: x + _UP, lambda x: x + Tensor(_UP)),
        "mul_broadcast_up": (lambda x: x * _UP, lambda x: x * Tensor(_UP)),
        "radd_array": (lambda x: x.__radd__(_ROW), lambda x: Tensor(_ROW) + x),
        "rmul_array": (lambda x: x.__rmul__(_F32), lambda x: Tensor(_F32) * x),
        "sub_array": (lambda x: x - _I64, lambda x: x - Tensor(_I64)),
        "sub_broadcast_up": (lambda x: x - _UP, lambda x: x - Tensor(_UP)),
        "sub_unsigned_array": (lambda x: x - np.arange(4, dtype=np.uint8),
                               lambda x: x - Tensor(np.arange(4, dtype=np.uint8))),
        "matmul_array": (lambda x: x @ _W, lambda x: x @ Tensor(_W)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_number_matches_lifted_tensor(self, case):
        x0 = np.random.default_rng(15).normal(size=(2, 3, 4))
        results = []
        for build in self.CASES[case]:
            x = Tensor(x0.copy(), requires_grad=True)
            out = build(x)
            w = np.random.default_rng(16).normal(size=out.shape)
            w.flat[::3] = 0.0  # zero gradients, so signed zeros would show
            loss = (out * Tensor(w)).sum()
            loss.backward()
            results.append((out.data.tobytes(), x.grad.tobytes(), len(_tape(loss))))
        assert results[0] == results[1]

    def test_a_number_is_never_a_parent(self):
        x = Tensor(np.ones(3), requires_grad=True)
        for out in (x * 2.0, 2.0 * x, x + 1, 1 + x, x - 0.5, -x):
            assert out._parents == (x,)
        # nor is an ndarray constant, of any dtype, rank or side
        row, up = np.arange(3, dtype=np.int64), np.ones((2, 3), dtype=np.float32)
        for out in (x + row, x * up, x - row, x.__radd__(up), x.__rmul__(row),
                    x * np.array(2.0), np.array(2.0) + x):
            assert out._parents == (x,)
        m = Tensor(np.ones((2, 3)), requires_grad=True)
        assert (m @ up.T)._parents == (m,)

    def test_an_ndarray_on_the_left(self):
        # numpy defers to Tensor's reflected methods rather than mapping x
        # over the ndarray's elements, and refuses the ones Tensor lacks
        x = Tensor(np.random.default_rng(21).normal(size=(2, 3)), requires_grad=True)
        w = np.random.default_rng(22).normal(size=(2, 3))
        for left, right in ((np.ones(3) + x, x + np.ones(3)), (w * x, x * w)):
            assert type(left) is type(right) and left._parents == right._parents == (x,)
            assert left.data.tobytes() == right.data.tobytes()
        with pytest.raises(TypeError):
            np.ones(3) - x
        with pytest.raises(TypeError):
            np.ones((4, 2)) @ x


class TestMake:
    def test_numpy_scalar_becomes_a_float64_array(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        out = Tensor._make(np.float64(2.5), (leaf,), lambda g: None)
        assert type(out.data) is np.ndarray
        assert out.data.dtype == np.float64 and out.data.shape == () and out.item() == 2.5
        assert out.requires_grad and out._parents == (leaf,)

    def test_float64_array_is_adopted_and_others_coerced(self):
        data = np.arange(4.0)
        assert Tensor._make(data, (), None).data is data
        out = Tensor._make(np.arange(4, dtype=np.float32), (), None)
        assert out.data.dtype == np.float64 and out.data.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_only_parents_that_need_a_gradient_are_recorded(self):
        const, leaf = Tensor(np.ones(2)), Tensor(np.ones(2), requires_grad=True)
        out = Tensor._make(np.zeros(2), (const, const), lambda g: None)
        assert out._parents == () and out._backward is None and not out.requires_grad
        assert (const + leaf)._parents == (leaf,)


class TestGelu:
    def test_forward_is_the_tanh_formula_to_the_byte(self):
        x = np.random.default_rng(10).normal(scale=3.0, size=(4, 33))
        c = np.sqrt(2.0 / np.pi)
        want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))
        assert Tensor(x).gelu().data.tobytes() == want.tobytes()
        transposed = np.ascontiguousarray(x.T).T  # a non-contiguous input
        assert Tensor(transposed).gelu().data.tobytes() == want.tobytes()


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

    def test_block_causal_masks_match_the_general_rule(self):
        rng = np.random.default_rng(8)
        for n_frames, k in ((1, 1), (5, 1), (4, 4), (3, 16), (9, 16)):
            allow = build_block_causal_mask(n_frames, k).allow
            scores = rng.normal(scale=4.0, size=(2, 2) + allow.shape)
            out = softmax(Tensor(scores), mask=allow).data
            assert out.tobytes() == softmax_reference(scores, allow).tobytes()

    def test_masked_scores_never_reach_exp(self):
        # masked slots hold a score whose exp (or shift) would overflow, and
        # the step guard's errstate turns any such overflow into an error
        rng = np.random.default_rng(17)
        allow = build_block_causal_mask(4, 3).allow
        scores = rng.normal(scale=4.0, size=(2, 2) + allow.shape)
        scores[..., ~allow] = 1e308
        x = Tensor(scores, requires_grad=True)
        w = Tensor(rng.normal(size=scores.shape))
        with np.errstate(over="raise"):
            out = softmax(x, mask=allow)
            (out * w).sum().backward()
        assert out.data.tobytes() == softmax_reference(scores, allow).tobytes()
        assert np.all(np.isfinite(x.grad)) and np.all(x.grad[..., ~allow] == 0.0)

    def test_fully_masked_and_non_finite_rows_match_the_general_rule(self):
        rng = np.random.default_rng(9)
        allow = build_block_causal_mask(3, 2).allow.copy()
        allow[2] = False
        scores = rng.normal(size=(6, 6))
        out = softmax(Tensor(scores), mask=allow).data
        assert out.tobytes() == softmax_reference(scores, allow).tobytes()
        assert np.all(out[2] == 0.0) and not np.signbit(out[2]).any()
        scores[4, 1], scores[5, 0] = np.inf, np.nan
        allow = build_block_causal_mask(3, 2).allow
        with np.errstate(invalid="ignore"):  # inf - inf and nan rows
            out = softmax(Tensor(scores), mask=allow).data
            assert out.tobytes() == softmax_reference(scores, allow).tobytes()

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
        layout = {"w": ((3, 4), lambda rng, shape: rng.normal(size=shape)),
                  "b": ((4,), lambda rng, shape: np.zeros(shape))}
        params = init_params(layout, seed=0)
        assert list(params) == ["w", "b"]
        assert all(p.requires_grad for p in params.values())
        assert params["w"].shape == (3, 4) and not params["b"].data.any()
        assert np.array_equal(params["w"].data, np.random.default_rng(0).normal(size=(3, 4)))


def _ops(rng):
    """One small graph per Tensor op, each using its leaves more than once so
    gradients accumulate; build(a, b) -> scalar loss."""
    weights = rng.normal(size=(4, 6))
    rows = np.array([0, 3, 3, 1])
    return {
        "add": lambda a, b: ((a + b) * (a + 1.5)).sum(),
        "add_self": lambda a, b: ((a + a) * b + (b + b)).sum(),
        "add_constant_side": lambda a, b: ((a + Tensor(weights)) * b + (Tensor(weights[0]) + a) * a).sum(),
        "add_root": lambda a, b: (lambda u: u * 2.0 + u)((a * b).sum()),
        "mul": lambda a, b: (a * b * a).sum(),
        "neg_sub": lambda a, b: ((-a - b) * a).sum(),
        "pow": lambda a, b: ((a * a + 1.0) ** -0.5 * b).sum(),
        "gelu": lambda a, b: (a.gelu() * b + a.gelu()).sum(),
        "clip01": lambda a, b: ((a * 0.3 + 0.5).clip01() * b).sum(),
        "matmul": lambda a, b: (a.matmul(b.transpose((1, 0))) @ a).sum(),
        "sum": lambda a, b: (a.sum(axis=0) * b.sum(axis=1, keepdims=True)).sum() + a.sum(),
        "mean": lambda a, b: (a.mean(axis=1, keepdims=True) * b).mean(),
        "reshape": lambda a, b: (a.reshape(6, 4) * b.reshape((6, 4))).sum(),
        "reshape_chain": lambda a, b: (a.reshape(6, 4).reshape(2, 12).reshape(24) * b.reshape(24)).sum()
        + (a.reshape(24).reshape(3, 8) * 3.0).sum(),
        "transpose": lambda a, b: (a.transpose((1, 0)) @ b).sum(),
        "slice_axis": lambda a, b: (a.slice_axis(1, 0, 4) * a.slice_axis(1, 2, 6) * b.slice_axis(1, 1, 5)).sum(),
        "slice_axis_ends": lambda a, b: (a.slice_axis(0, -3, None) * b.slice_axis(0, 0, 3)).sum()
        + (a.slice_axis(1, 5, 6) * b.slice_axis(1, 4, 4).sum()).sum(),
        "gather_rows": lambda a, b: (a.gather_rows(rows) * b + a.gather_rows(rows[::-1]) * 2.0).sum(),
        "softmax": lambda a, b: (softmax(a, mask=weights > -0.5) * b).sum(),
        "layer_norm": lambda a, b: (layer_norm(a, b.slice_axis(0, 0, 1), b.slice_axis(0, 1, 2)) * a).sum(),
        "cross_entropy": lambda a, b: cross_entropy_logits(a @ b.transpose((1, 0)) @ a, rows),
        "cross_entropy_slice": lambda a, b: cross_entropy_logits((a @ b.transpose((1, 0))).slice_axis(1, 0, 3), rows % 3),
    }


OPS = sorted(_ops(np.random.default_rng(0)))


class TestLazyGradients:
    """Gradients allocated on first use and freed once passed on give the
    bytes of the eager rule that zero-fills every node first."""

    @pytest.mark.parametrize("op", OPS)
    def test_each_op_matches_eager(self, op):
        rng = np.random.default_rng(40)
        build = _ops(rng)[op]
        a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        assert_backward_matches_eager(build(a, b), [a, b])

    @pytest.mark.parametrize("op", OPS)
    def test_root_gradient_still_reads_ones(self, op):
        # the root's closure may hand its gradient over; the root's own
        # ones must not be the array handed over
        rng = np.random.default_rng(40)
        a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        loss = _ops(rng)[op](a, b)
        loss.backward()
        assert loss.grad.tobytes() == np.ones(()).tobytes()

    @pytest.mark.parametrize("case", ["transpose", "scaled_transpose", "strided_slice", "transposed_leaf"])
    def test_view_first_gradient_is_c_contiguous(self, case):
        # every gradient is C-contiguous, whatever the layout of its data, as
        # eager_backward's zeros are: a view's owned row-major contribution
        # is adopted, any other is copied into a row-major array
        rng = np.random.default_rng(43)
        x = Tensor(rng.normal(size=(64, 32)), requires_grad=True)
        w = Tensor(rng.normal(size=(64, 5)), requires_grad=True)
        bias = Tensor(rng.normal(size=(1, 32)), requires_grad=True)
        leaves = [x, w, bias]
        if case == "transpose":
            view = (x + bias).transpose((1, 0))
            loss = (view @ w).gelu().sum()
        elif case == "scaled_transpose":
            view = x.transpose((1, 0)) * bias.reshape(32, 1)
            loss = (view @ w).sum()
        elif case == "strided_slice":
            view = x.slice_axis(1, 3, 29)
            loss = (view.transpose((1, 0)) @ w).gelu().sum() + bias.sum()
        else:
            view = Tensor(rng.normal(size=(32, 64)).T, requires_grad=True)
            leaves.append(view)
            loss = ((view + bias) * x).sum() + (w * w).sum()
        assert not view.data.flags.c_contiguous
        seen = []
        if view._node is not None:
            # an inner view drops its gradient after use: record what its rule is called with
            node, rule = view._node, view._node.rule
            node.rule = lambda vertex, g, *saved: (seen.append(g), rule(vertex, g, *saved))
        loss.backward()
        assert (seen[0] if seen else view.grad).flags.c_contiguous
        assert_backward_matches_eager(loss, leaves)

    def test_inner_gradients_freed_leaves_kept(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        const = Tensor(rng.normal(size=(3, 2)))
        hidden = (a @ b).gelu()
        inner = [hidden, hidden._parents[0], hidden * const]
        loss = (inner[2] + hidden).sum()
        loss.backward()
        assert all(node.grad is None for node in inner)
        assert a.grad.shape == (3, 4) and b.grad.shape == (4, 2)
        assert np.array_equal(loss.grad, np.ones(()))
        assert const.grad is None

    def test_second_backward_starts_afresh(self):
        a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        loss = (a * a).sum()
        loss.backward()
        loss.backward()
        assert np.array_equal(a.grad, 2 * a.data)
