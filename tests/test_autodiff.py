"""Engine-level checks: forward values, gradients vs central differences,
tape replay semantics, and the non-finite fault contract."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmix import autodiff as ad
from gmix.autodiff import (
    NonFiniteError,
    Parameter,
    Tape,
    Tensor,
    backward,
    clip_global_norm,
    finite_diff_check,
    tsum,
)


def taped(value):
    tape = Tape()
    p = Parameter(value)
    return tape, p, p.use(tape)


class TestElementwise:
    def test_add_broadcast(self):
        out = Tensor([1.0, 2.0, 3.0]) + Tensor([10.0])
        np.testing.assert_array_equal(out.data, [11.0, 12.0, 13.0])

    def test_div(self):
        out = Tensor([4.0, 9.0]) / Tensor([2.0, 3.0])
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

    def test_mul_gradient_product_rule(self):
        tape, a, at = taped([2.0])
        b = Tensor([5.0])
        backward((at * b).sum())
        np.testing.assert_array_equal(a.grad, [5.0])

    def test_broadcast_gradient_sums_over_expanded_axes(self):
        tape = Tape()
        a = Parameter([[1.0, 2.0], [3.0, 4.0]])
        b = Parameter([10.0, 20.0])
        out = (a.use(tape) + b.use(tape)).sum()
        backward(out)
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="broadcast"):
            Tensor([1.0, 2.0, 3.0]) + Tensor([1.0, 2.0])

    def test_mixing_tapes_raises(self):
        t1, _, a = taped([1.0])
        t2, _, b = taped([2.0])
        with pytest.raises(ValueError, match="different tapes"):
            a + b


class TestMatmul:
    def test_identity(self):
        out = Tensor(np.eye(2)) @ Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_orthogonal(self):
        out = Tensor([[1.0, 0.0]]) @ Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_gradient_vs_finite_differences(self, rng):
        a = Parameter(rng.uniform(-2, 2, (3, 4)))
        b = Parameter(rng.uniform(-2, 2, (4, 2)))

        def fn():
            tape = Tape()
            return (a.use(tape) @ b.use(tape)).sum()

        assert finite_diff_check(fn, [a, b]) < 1e-5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


class TestMap:
    def test_exp_zero(self):
        np.testing.assert_array_equal(ad.exp(Tensor([0.0])).data, [1.0])

    def test_pow_value_and_gradient(self):
        tape, p, t = taped([3.0])
        out = t ** 2
        np.testing.assert_array_equal(out.data, [9.0])
        backward(out.sum())
        np.testing.assert_array_equal(p.grad, [6.0])

    def test_leaky_relu_slope(self):
        tape, p, t = taped([-2.0, 3.0])
        out = ad.leaky_relu(t)
        np.testing.assert_allclose(out.data, [-0.02, 3.0])
        backward(out.sum())
        np.testing.assert_allclose(p.grad, [0.01, 1.0])

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0])
    def test_leaky_relu_matches_where_bitwise(self, slope, rng):
        tiny = np.finfo(np.float64).tiny
        special = [0.0, -0.0, tiny, -tiny, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308]
        x = np.concatenate([special, rng.normal(scale=10.0, size=1000)])
        out = ad.leaky_relu(Tensor(x), slope).data
        assert out.tobytes() == np.where(x > 0.0, x, slope * x).tobytes()

    @pytest.mark.parametrize("slope", [-0.01, 1.5, float("nan")])
    def test_leaky_relu_rejects_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError, match="slope"):
            ad.leaky_relu(Tensor([1.0, -1.0]), slope)


class TestReduce:
    def test_mean(self):
        assert ad.tmean(Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_sum_axis(self):
        out = ad.tsum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=0)
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mean_gradient_distributes(self):
        tape, p, t = taped([1.0, 2.0, 3.0])
        backward(ad.tmean(t))
        np.testing.assert_allclose(p.grad, [1 / 3, 1 / 3, 1 / 3])

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError, match="empty"):
            ad.tmean(Tensor(np.zeros((0, 3))), axis=0)


class TestLogsumexp:
    def test_extreme_magnitudes(self):
        out = ad.logsumexp(Tensor([1000.0, 1000.0]))
        assert out.item() == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)

    def test_uniform(self):
        assert ad.logsumexp(Tensor([0.0, 0.0, 0.0, 0.0])).item() == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_gradient_is_softmax(self, rng):
        p = Parameter(rng.uniform(-2, 2, 6))

        def fn():
            tape = Tape()
            return ad.logsumexp(p.use(tape))

        assert finite_diff_check(fn, [p]) < 1e-5
        p.zero_grad()
        tape = Tape()
        backward(ad.logsumexp(p.use(tape)))
        expected = np.exp(p.value - p.value.max())
        expected /= expected.sum()
        np.testing.assert_allclose(p.grad, expected, atol=1e-12)

    def test_shift_identity_exact_for_exact_differences(self):
        # Dyadic values keep every subtraction exact, so the identity is exact.
        x = np.array([1000.0, 1000.5, 999.25, 998.0])
        c = 512.0
        lhs = ad.logsumexp(Tensor(x)).item()
        rhs = ad.logsumexp(Tensor(x - c)).item() + c
        assert lhs == rhs

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        st.floats(-100, 100),
    )
    def test_shift_identity_random(self, values, c):
        x = np.array(values)
        lhs = ad.logsumexp(Tensor(x)).item()
        rhs = ad.logsumexp(Tensor(x - c)).item() + c
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_axis_reduction(self):
        out = ad.logsumexp(Tensor([[0.0, 0.0], [1.0, 1.0]]), axis=1)
        np.testing.assert_allclose(out.data, [math.log(2), 1 + math.log(2)])


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        tape = Tape()
        p = Parameter(rng.uniform(-2, 2, (3, 4)))
        backward(p.use(tape).sum())
        np.testing.assert_array_equal(p.grad, np.ones((3, 4)))

    def test_two_consumers_accumulate(self):
        tape, p, t = taped([2.0])
        backward((t * t + t * Tensor([3.0])).sum())
        # d/dx (x^2 + 3x) = 2x + 3 = 7
        np.testing.assert_allclose(p.grad, [7.0])

    def test_perceptron_gradient(self, rng):
        w1 = Parameter(rng.uniform(-1, 1, (5, 7)))
        b1 = Parameter(rng.uniform(-1, 1, 7))
        w2 = Parameter(rng.uniform(-1, 1, (7, 3)))
        b2 = Parameter(rng.uniform(-1, 1, 3))
        x = rng.uniform(-2, 2, (4, 5))

        def fn():
            tape = Tape()
            h = ad.leaky_relu(Tensor(x) @ w1.use(tape) + b1.use(tape))
            out = h @ w2.use(tape) + b2.use(tape)
            return (out ** 2).mean()

        assert finite_diff_check(fn, [w1, b1, w2, b2]) < 1e-4

    def test_non_scalar_loss_raises(self):
        tape, _, t = taped([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            backward(t)

    def test_linearity(self, rng):
        p = Parameter(rng.uniform(-2, 2, 6))

        def grad_of(alpha, beta):
            p.zero_grad()
            tape = Tape()
            t = p.use(tape)
            loss = alpha * (t ** 2).sum() + beta * ad.exp(t).sum()
            backward(loss)
            return p.grad.copy()

        g1 = grad_of(1.0, 0.0)
        g2 = grad_of(0.0, 1.0)
        combo = grad_of(2.5, -1.25)
        np.testing.assert_allclose(combo, 2.5 * g1 - 1.25 * g2, atol=1e-10)

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div, ad.matmul])
    @pytest.mark.parametrize("constant_first", [False, True])
    def test_constant_operand_gets_no_gradient(self, op, constant_first, rng):
        tape, p, t = taped(rng.uniform(1.0, 2.0, (3, 3)))
        c = Tensor(rng.uniform(1.0, 2.0, (3, 3)))
        out = op(c, t) if constant_first else op(t, c)
        backward(out.sum())
        assert c.grad is None
        assert t.grad is not None and p.grad.any()


class TestNonFinite:
    def test_div_by_zero_faults_with_op_name(self):
        with pytest.raises(NonFiniteError, match="div"):
            Tensor([1.0]) / Tensor([0.0])

    def test_exp_overflow_faults(self):
        with pytest.raises(NonFiniteError, match="exp"):
            ad.exp(Tensor([1e4]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("data", [
        [1e308, 1e308],  # finite entries whose sum overflows
        [-1e308, -1e308, 1.0],
        np.float64(2.0),
        np.array(-3.5),
        np.zeros(0),
        np.zeros((0, 4)),
    ], ids=repr)
    def test_finite_check_passes_every_finite_array(self, data):
        ad._check_finite(np.asarray(data), "op")

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("data", [
        [math.nan],
        [math.inf],
        [-math.inf],
        [math.inf, -math.inf],  # the sum is NaN
        [1.0, 2.0, math.nan, 4.0],
        [[1.0, 2.0], [0.0, math.inf]],
        np.array(math.nan),
        np.array(-math.inf),
    ], ids=repr)
    def test_finite_check_rejects_any_non_finite_entry(self, data):
        with pytest.raises(NonFiniteError, match="op produced a non-finite value"):
            ad._check_finite(np.asarray(data, dtype=np.float64), "op")


class TestClipGlobalNorm:
    def test_three_four_five(self):
        p = Parameter(np.zeros(2))
        p.grad[:] = [3.0, 4.0]
        scale = clip_global_norm([p], 1.0)
        assert scale == pytest.approx(0.2)
        np.testing.assert_allclose(p.grad, [0.6, 0.8])

    def test_small_norm_unchanged(self):
        p = Parameter(np.zeros(2))
        p.grad[:] = [0.3, 0.4]
        assert clip_global_norm([p], 1.0) == 1.0
        np.testing.assert_array_equal(p.grad, [0.3, 0.4])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=10))
    def test_post_clip_norm_bounded(self, values):
        p = Parameter(np.zeros(len(values)))
        p.grad[:] = values
        clip_global_norm([p], 1.0)
        assert np.linalg.norm(p.grad) <= 1.0 + 1e-12

    def test_idempotent(self, rng):
        p = Parameter(np.zeros(10))
        p.grad[:] = rng.uniform(-5, 5, 10)
        clip_global_norm([p], 1.0)
        once = p.grad.copy()
        clip_global_norm([p], 1.0)
        np.testing.assert_allclose(p.grad, once, rtol=1e-12)


class TestFiniteDiffCheck:
    def test_quadratic_is_nearly_exact(self, rng):
        p = Parameter(rng.uniform(-2, 2, 5))
        q = rng.uniform(0.5, 2.0, 5)

        def fn():
            tape = Tape()
            return (Tensor(q) * p.use(tape) ** 2).sum()

        assert finite_diff_check(fn, [p]) < 1e-9


def separate_leaf(param, tape):
    """A leaf of its own for every use: the rule the one-leaf-per-tape map replaced."""
    t = Tensor(param.value, tape)

    def backward_leaf():
        if t.grad is not None:
            param.grad += t.grad

    tape.record(backward_leaf)
    return t


class TestLeaf:
    def test_one_leaf_per_parameter_per_tape(self):
        p = Parameter(np.ones(3))
        tape = Tape()
        leaf = p.use(tape)
        assert p.use(tape) is leaf and leaf.tape is tape
        assert len(tape) == 1
        assert p.use(Tape()) is not leaf
        assert p.use(None).tape is None and p.use(None) is not leaf
        tape.clear()
        assert p.use(tape) is not leaf and len(tape) == 1

    @pytest.mark.parametrize("scales", [
        (1.0, 1e16, -1e16),  # the sum depends on the order of the deposits
        (-0.0, -0.0, -0.0),  # and its sign on where the zeros start
        (2.5, -0.0, 0.125),
    ])
    def test_three_uses_equal_three_separate_leaves_bitwise(self, scales, rng):
        value = rng.normal(size=(4, 3))
        value[0] = 0.0
        grads = []
        for leaf in (Parameter.use, separate_leaf):
            p = Parameter(value)
            tape = Tape()
            first = tsum(leaf(p, tape) * Tensor(np.full((4, 3), scales[0])))
            second = tsum(ad.exp(leaf(p, tape)) * Tensor(np.full((4, 3), scales[1])))
            third = tsum(ad.matmul(leaf(p, tape), Tensor(np.full((3, 2), scales[2]))))
            backward(first + second + third)
            grads.append(p.grad)
        assert grads[0].tobytes() == grads[1].tobytes()


class TestParameter:
    def test_zeroing_is_explicit(self):
        p = Parameter([1.0])
        tape = Tape()
        backward(p.use(tape).sum())
        tape2 = Tape()
        backward(p.use(tape2).sum())
        np.testing.assert_array_equal(p.grad, [2.0])
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_gradient_shape_matches_value(self):
        p = Parameter(np.ones((3, 2)))
        assert p.grad.shape == p.value.shape
