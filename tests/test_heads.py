"""Head-layer checks: log-space density values against direct pdf
evaluation, the softmax/KMeans/AAGMM identities, and gradient oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmix.autodiff import (
    BLOCK_ENTRIES,
    NonFiniteError,
    Parameter,
    Tape,
    Tensor,
    backward,
    exp,
    finite_diff_check,
    logsumexp,
    powi,
    reshape,
    row_blocks,
    tsum,
)
from gmix.heads import (
    AagmmHead,
    Backbone,
    KmeansHead,
    conditional,
    init_head,
    log_conditional,
    log_joint,
    log_prior,
    sigmoid_equivalence_params,
)

LOG_2PI = math.log(2.0 * math.pi)


def chain_log_joint(head, z, tape=None):
    """The op-by-op log joint the fused primitive replaced: the reference."""
    n, d = z.shape[0], head.latent_dim
    mu = head.centers.use(tape)
    if head.kind == "kmeans":
        diff = reshape(z, (n, 1, d)) - mu
        quad = tsum(powi(diff, 2), axis=2)
        return (-0.5 * d * LOG_2PI) - 0.5 * quad
    lv = head.log_var.use(tape)
    diff = reshape(z, (n, 1, d)) - mu
    quad = tsum(powi(diff, 2) * exp(-lv), axis=2)
    log_det = tsum(lv, axis=1)
    return (-0.5 * d * LOG_2PI) - 0.5 * log_det - 0.5 * quad


def aagmm(centers, variances):
    return AagmmHead(np.asarray(centers, float), np.log(np.asarray(variances, float)))


class TestLogJoint:
    def test_pdf_peak_1d(self):
        head = aagmm([[0.0]], [[1.0]])
        out = log_joint(head, [[0.0]])
        assert out.data[0, 0] == pytest.approx(-0.5 * LOG_2PI, abs=1e-12)

    def test_direct_formula_2d(self):
        head = aagmm([[1.0, -2.0]], [[4.0, 1.0]])
        out = log_joint(head, [[1.0, -2.0]])
        assert out.data[0, 0] == pytest.approx(-2.5310242469692907, abs=1e-12)

    def test_translation_invariance(self, rng):
        centers = rng.normal(size=(3, 4))
        variances = rng.uniform(0.5, 2.0, size=(3, 4))
        z = rng.normal(size=(5, 4))
        shift = rng.normal(size=4)
        a = log_joint(aagmm(centers, variances), z).data
        b = log_joint(aagmm(centers + shift, variances), z + shift).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_width_mismatch(self):
        head = aagmm([[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="width"):
            log_joint(head, [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans"])
    def test_method_rejects_a_width_that_would_broadcast(self, kind):
        head = init_head(kind, 3, 2, seed=0)
        with pytest.raises(ValueError, match="width 2"):
            head.log_joint(Tensor(np.zeros((5, 1))))

    def test_linear_head_has_no_joint(self):
        head = init_head("linear", 3, 4, seed=0)
        with pytest.raises(TypeError, match="joint"):
            log_joint(head, np.zeros((1, 4)))


class TestLogPrior:
    def test_single_cluster_equals_joint(self, rng):
        head = aagmm(rng.normal(size=(1, 3)), rng.uniform(0.5, 2, (1, 3)))
        z = rng.normal(size=(6, 3))
        np.testing.assert_allclose(
            log_prior(head, z).data, log_joint(head, z).data[:, 0], atol=1e-12
        )

    def test_two_cluster_midpoint(self):
        head = aagmm([[-1.0], [1.0]], [[1.0], [1.0]])
        out = log_prior(head, [[0.0]])
        # Both components evaluate to N(1; 0, 1): log 2N(1) - log 2.
        expected = math.log(2 * math.exp(-0.5) / math.sqrt(2 * math.pi)) - math.log(2)
        assert out.data[0] == pytest.approx(expected, abs=1e-12)

    def test_density_integrates_to_one(self):
        head = aagmm([[-2.0], [0.5], [3.0]], [[0.8], [1.3], [1.0]])
        grid = np.linspace(-14.0, 14.0, 28001)
        dens = np.exp(log_prior(head, grid[:, None]).data)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


class TestConditional:
    def test_mirror_symmetry(self):
        head = aagmm([[-1.0, 0.0], [1.0, 0.0]], np.ones((2, 2)))
        out = conditional(head, [[0.0, 0.0]])
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-12)

    def test_sigmoid_relation(self):
        head = aagmm([[0.0], [2.0]], [[1.0], [1.0]])
        out = conditional(head, [[0.0]])
        assert out.data[0, 0] == pytest.approx(0.8807970779778823, abs=1e-9)

    def test_far_point_stays_normalized(self):
        head = aagmm([[50.0, 0.0], [0.0, 50.0]], np.ones((2, 2)))
        out = conditional(head, [[-20.0, -20.0]]).data
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_rows_sum_to_one(self, seed):
        r = np.random.default_rng(seed)
        head = aagmm(r.normal(size=(4, 3)), r.uniform(0.5, 2, (4, 3)))
        out = conditional(head, r.normal(scale=3.0, size=(8, 3))).data
        assert np.all(out >= 0) and np.all(out <= 1)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_column_uniform_shift_invariance(self, rng):
        # Any constant added uniformly to the log scores cancels in the
        # row softmax, which is why the 1/K mixture weight is irrelevant
        # to the conditional.
        head = aagmm(rng.normal(size=(3, 2)), rng.uniform(0.5, 2, (3, 2)))
        z = rng.normal(size=(5, 2))
        lj = log_joint(head, z).data
        base = np.exp(lj - lj.max(axis=1, keepdims=True))
        base /= base.sum(axis=1, keepdims=True)
        shifted = np.exp(lj + 3.7 - (lj + 3.7).max(axis=1, keepdims=True))
        shifted /= shifted.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(conditional(head, z).data, base, atol=1e-12)
        np.testing.assert_allclose(conditional(head, z).data, shifted, atol=1e-12)


class TestHeadIdentities:
    def test_kmeans_is_softmax_of_neg_half_sqdist(self, rng):
        centers = rng.normal(size=(5, 4))
        head = KmeansHead(centers)
        z = rng.normal(scale=2.0, size=(30, 4))
        sqd = ((z[:, None, :] - centers[None]) ** 2).sum(axis=2)
        logits = -0.5 * sqd
        ref = np.exp(logits - logits.max(axis=1, keepdims=True))
        ref /= ref.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(conditional(head, z).data, ref, atol=1e-9)

    def test_aagmm_unit_variance_reduces_to_kmeans(self, rng):
        centers = rng.normal(size=(4, 3))
        a = AagmmHead(centers, np.zeros((4, 3)))
        k = KmeansHead(centers)
        z = rng.normal(scale=2.0, size=(20, 3))
        np.testing.assert_allclose(
            log_joint(a, z).data, log_joint(k, z).data, atol=1e-12
        )
        np.testing.assert_allclose(
            conditional(a, z).data, conditional(k, z).data, atol=1e-12
        )


class TestForward:
    """The forward pass as the pipeline runs it: Backbone.embed, then the head."""

    def test_empty_input(self):
        backbone = Backbone(6, latent_dim=3, seed=0)
        head = init_head("aagmm", 4, 3, seed=1)
        z = backbone.embed(np.zeros((0, 6)))
        assert z.shape == (0, 3)
        assert conditional(head, z).shape == (0, 4)
        assert log_prior(head, z).shape == (0,)

    def test_deterministic(self, rng):
        backbone = Backbone(6, latent_dim=3, seed=0)
        head = init_head("kmeans", 4, 3, seed=1)
        x = rng.normal(size=(5, 6))
        a = conditional(head, backbone.embed(x)).data
        b = conditional(head, backbone.embed(x)).data
        np.testing.assert_array_equal(a, b)

    def test_rows_sum_to_one(self, rng):
        backbone = Backbone(6, latent_dim=3, seed=0)
        z = backbone.embed(rng.normal(size=(40, 6)))
        for kind in ("aagmm", "linear"):
            cond = conditional(init_head(kind, 4, 3, seed=1), z)
            np.testing.assert_allclose(cond.data.sum(axis=1), 1.0, atol=1e-9)


class TestInitHead:
    def test_variances_in_band(self):
        head = init_head("aagmm", 10, 8, seed=7)
        v = head.variances()
        assert np.all(v >= 0.9) and np.all(v <= 1.1)

    def test_same_seed_identical(self):
        a = init_head("aagmm", 4, 3, seed=42)
        b = init_head("aagmm", 4, 3, seed=42)
        np.testing.assert_array_equal(a.centers.value, b.centers.value)
        np.testing.assert_array_equal(a.log_var.value, b.log_var.value)

    def test_different_seeds_differ(self):
        a = init_head("kmeans", 4, 3, seed=1)
        b = init_head("kmeans", 4, 3, seed=2)
        assert not np.array_equal(a.centers.value, b.centers.value)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown head kind"):
            init_head("mystery", 2, 2, seed=0)


class TestSigmoidEquivalence:
    def test_slope(self):
        m, _ = sigmoid_equivalence_params(1.0, -1.0, 1.0)
        assert m == pytest.approx(2.0)

    def test_degenerate_equal_centers(self):
        m, b = sigmoid_equivalence_params(0.7, 0.7, 1.3)
        assert m == 0.0
        head = aagmm([[0.7], [0.7]], [[1.3 ** 2], [1.3 ** 2]])
        out = conditional(head, np.linspace(-3, 3, 7)[:, None]).data
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            sigmoid_equivalence_params(1.0, 0.0, 0.0)

    def test_reproduces_conditional_on_grid(self):
        mu_a, mu_b, sigma = 0.8, -1.4, 1.7
        m, b = sigmoid_equivalence_params(mu_a, mu_b, sigma)
        head = aagmm([[mu_a], [mu_b]], [[sigma ** 2], [sigma ** 2]])
        grid = np.linspace(-6.0, 6.0, 100)
        cond = conditional(head, grid[:, None]).data[:, 0]
        sig = 1.0 / (1.0 + np.exp(-(m * grid + b)))
        np.testing.assert_allclose(cond, sig, atol=1e-10)


class TestGradients:
    def test_aagmm_conditional_loss(self, rng):
        head = init_head("aagmm", 3, 4, seed=5)
        z = Parameter(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 3, size=6)
        onehot = np.eye(3)[labels]

        def fn():
            tape = Tape()
            lc = log_conditional(head, z.use(tape), tape)
            return -(tsum(lc * Tensor(onehot), axis=1)).mean()

        params = [head.centers, head.log_var, z]
        assert finite_diff_check(fn, params) < 1e-4

    def test_kmeans_conditional_loss(self, rng):
        head = init_head("kmeans", 3, 4, seed=5)
        z = Parameter(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 3, size=6)
        onehot = np.eye(3)[labels]

        def fn():
            tape = Tape()
            lc = log_conditional(head, z.use(tape), tape)
            return -(tsum(lc * Tensor(onehot), axis=1)).mean()

        assert finite_diff_check(fn, [head.centers, z]) < 1e-4


def bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestFusedLogJoint:
    """``_mixture_log_joint`` against the op-by-op chain, bit for bit."""

    DIM = 3

    @staticmethod
    def row_counts(classes, dim):
        """0 rows, 1 row, and two full row blocks plus a remainder."""
        spanning = 2 * (BLOCK_ENTRIES // (classes * dim)) + 7
        assert len(row_blocks(spanning, classes * dim)) == 3
        return [0, 1, spanning]

    @staticmethod
    def head(kind, seed, classes=4, dim=3):
        head = init_head(kind, classes, dim, seed=seed)
        if kind == "aagmm":
            head.log_var.value[...] = np.random.default_rng(seed).uniform(-1.0, 1.0, (classes, dim))
        return head

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans"])
    def test_untaped_forward_is_bitwise_equal(self, kind, rng):
        head = self.head(kind, 3)
        for n in self.row_counts(4, self.DIM):
            z = Tensor(rng.normal(scale=2.0, size=(n, self.DIM)))
            fused = head.log_joint(z)
            assert fused.tape is None
            assert bits(fused.data) == bits(chain_log_joint(head, z).data)

    @staticmethod
    def taped_grads(head, z_value, weights, log_joint_fn):
        """Forward value and gradients of a loss mixing a weighted sum and a logsumexp."""
        for p in head.parameters():
            p.zero_grad()
        z = Parameter(z_value)
        tape = Tape()
        lj = log_joint_fn(head, z.use(tape), tape)
        loss = tsum(lj * Tensor(weights)) + tsum(logsumexp(lj, axis=1))
        backward(loss)
        return [lj.data, z.grad, *(p.grad.copy() for p in head.parameters())]

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans"])
    @pytest.mark.parametrize("classes", [4, 1])
    def test_taped_forward_and_gradients_are_bitwise_equal(self, kind, classes, rng):
        head = self.head(kind, 5, classes=classes)
        for n in self.row_counts(classes, self.DIM):
            z = rng.normal(scale=2.0, size=(n, self.DIM))
            w = rng.normal(size=(n, classes))
            fused = self.taped_grads(head, z, w, lambda h, t, tape: h.log_joint(t, tape))
            chain = self.taped_grads(head, z, w, chain_log_joint)
            assert len(fused) == (4 if kind == "aagmm" else 3)
            for a, b in zip(fused, chain):
                assert a.shape == b.shape
                assert bits(a) == bits(b)

    def test_one_tape_record_besides_the_leaves(self):
        head = self.head("aagmm", 1)
        tape = Tape()
        head.log_joint(Tensor(np.zeros((2, self.DIM)), tape), tape)
        assert len(tape) == 3  # centers leaf, log_var leaf, the primitive

    @pytest.mark.parametrize("n", [0, 3])
    def test_non_finite_variance_raises(self, n):
        head = AagmmHead(np.zeros((2, 2)), np.full((2, 2), -800.0))  # exp(800) overflows
        with pytest.raises(NonFiniteError, match="log_joint"):
            head.log_joint(Tensor(np.ones((n, 2))))

    def test_far_point_raises(self):
        head = KmeansHead(np.zeros((2, 2)))
        with pytest.raises(NonFiniteError, match="log_joint"):
            head.log_joint(Tensor(np.full((1, 2), 1e300)))
