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
    leaky_relu,
    logsumexp,
    matmul,
    powi,
    reshape,
    row_blocks,
    tsum,
)
from gmix import heads
from gmix.heads import (
    DISTANCE_BLOCK_ENTRIES,
    LEAKY_SLOPE,
    AagmmHead,
    Backbone,
    KmeansHead,
    _dense_layer,
    _pairwise_sum0,
    conditional,
    init_head,
    log_conditional,
)

LOG_2PI = math.log(2.0 * math.pi)


def sigmoid_equivalence_params(mu_a: float, mu_b: float, sigma: float) -> tuple[float, float]:
    """Slope and intercept making sigmoid(m*x + b) equal the two-cluster conditional.

    For two equal-variance 1-D Gaussians, the log density ratio is
    affine in x: (mu_a - mu_b)/sigma^2 * x + (mu_b^2 - mu_a^2)/(2 sigma^2).
    The intercept is taken from this derivation so the reproduction of
    the conditional is exact.
    """
    if sigma == 0.0:
        raise ValueError("sigma must be nonzero")
    var = sigma * sigma
    m = (mu_a - mu_b) / var
    b = (mu_b * mu_b - mu_a * mu_a) / (2.0 * var)
    return m, b


def chain_log_joint(head, z):
    """The op-by-op log joint the fused primitive replaced: the reference."""
    n, d = z.shape[0], head.latent_dim
    mu = head.centers.use(z.tape)
    if head.kind == "kmeans":
        diff = reshape(z, (n, 1, d)) - mu
        quad = tsum(powi(diff, 2), axis=2)
        return (-0.5 * d * LOG_2PI) - 0.5 * quad
    lv = head.log_var.use(z.tape)
    diff = reshape(z, (n, 1, d)) - mu
    quad = tsum(powi(diff, 2) * exp(-lv), axis=2)
    log_det = tsum(lv, axis=1)
    return (-0.5 * d * LOG_2PI) - 0.5 * log_det - 0.5 * quad


def aagmm(centers, variances):
    return AagmmHead(np.asarray(centers, float), np.log(np.asarray(variances, float)))


def scores(head, z):
    return head.class_log_scores(Tensor(z))


def mixture_log_density(head, z):
    """Log density of each row under the uniform-weight mixture, shape (n,)."""
    return logsumexp(scores(head, z), axis=1).data - math.log(head.n_classes)


class TestLogJoint:
    def test_pdf_peak_1d(self):
        head = aagmm([[0.0]], [[1.0]])
        out = scores(head, [[0.0]])
        assert out.data[0, 0] == pytest.approx(-0.5 * LOG_2PI, abs=1e-12)

    def test_direct_formula_2d(self):
        head = aagmm([[1.0, -2.0]], [[4.0, 1.0]])
        out = scores(head, [[1.0, -2.0]])
        assert out.data[0, 0] == pytest.approx(-2.5310242469692907, abs=1e-12)

    def test_translation_invariance(self, rng):
        centers = rng.normal(size=(3, 4))
        variances = rng.uniform(0.5, 2.0, size=(3, 4))
        z = rng.normal(size=(5, 4))
        shift = rng.normal(size=4)
        a = scores(aagmm(centers, variances), z).data
        b = scores(aagmm(centers + shift, variances), z + shift).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_width_mismatch(self):
        head = aagmm([[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="width"):
            scores(head, [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans"])
    def test_method_rejects_a_width_that_would_broadcast(self, kind):
        head = init_head(kind, 3, 2, seed=0)
        with pytest.raises(ValueError, match="width 2"):
            head.class_log_scores(Tensor(np.zeros((5, 1))))


class TestMixtureDensity:
    """``logsumexp(class_log_scores) - log K`` is a proper density."""

    def test_single_cluster_equals_joint(self, rng):
        head = aagmm(rng.normal(size=(1, 3)), rng.uniform(0.5, 2, (1, 3)))
        z = rng.normal(size=(6, 3))
        np.testing.assert_allclose(
            mixture_log_density(head, z), scores(head, z).data[:, 0], atol=1e-12
        )

    def test_two_cluster_midpoint(self):
        head = aagmm([[-1.0], [1.0]], [[1.0], [1.0]])
        out = mixture_log_density(head, [[0.0]])
        # Both components evaluate to N(1; 0, 1): log 2N(1) - log 2.
        expected = math.log(2 * math.exp(-0.5) / math.sqrt(2 * math.pi)) - math.log(2)
        assert out[0] == pytest.approx(expected, abs=1e-12)

    def test_density_integrates_to_one(self):
        head = aagmm([[-2.0], [0.5], [3.0]], [[0.8], [1.3], [1.0]])
        grid = np.linspace(-14.0, 14.0, 28001)
        dens = np.exp(mixture_log_density(head, grid[:, None]))
        # The trapezoid rule, written out: np.trapezoid needs numpy 2.
        area = 0.5 * np.sum((dens[1:] + dens[:-1]) * np.diff(grid))
        assert area == pytest.approx(1.0, abs=1e-3)


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
        lj = scores(head, z).data
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
        # KMeans is the AAGMM path at log-variance 0, so the two agree bit for
        # bit, forward and in the taped gradients of z and the centers.
        centers = rng.normal(size=(4, 3))
        a = AagmmHead(centers, np.zeros((4, 3)))
        k = KmeansHead(centers)
        z = rng.normal(scale=2.0, size=(20, 3))
        assert bits(scores(a, z).data) == bits(scores(k, z).data)
        assert bits(conditional(a, z).data) == bits(conditional(k, z).data)
        weights = rng.normal(size=(20, 4))

        def taped(head):
            head.centers.zero_grad()
            zp = Parameter(z)
            tape = Tape()
            lc = log_conditional(head, zp.use(tape))
            backward(tsum(lc * Tensor(weights)))
            return lc.data, zp.grad, head.centers.grad.copy()

        for x, y in zip(taped(a), taped(k)):
            assert bits(x) == bits(y)

    def test_kmeans_scores_through_the_aagmm_method(self):
        assert KmeansHead.class_log_scores is AagmmHead.class_log_scores


class TestForward:
    """The forward pass as the pipeline runs it: Backbone.embed, then the head."""

    def test_empty_input(self):
        backbone = Backbone(6, latent_dim=3, seed=0)
        head = init_head("aagmm", 4, 3, seed=1)
        z = backbone.embed(np.zeros((0, 6)))
        assert z.shape == (0, 3)
        assert conditional(head, z).shape == (0, 4)
        assert mixture_log_density(head, z.data).shape == (0,)

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
            lc = log_conditional(head, z.use(tape))
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
            lc = log_conditional(head, z.use(tape))
            return -(tsum(lc * Tensor(onehot), axis=1)).mean()

        assert finite_diff_check(fn, [head.centers, z]) < 1e-4

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans", "linear"])
    @pytest.mark.parametrize("score", [log_conditional, lambda head, z: head.class_log_scores(z)],
                             ids=["log_conditional", "class_log_scores"])
    def test_taped_embeddings_train_every_head_parameter(self, kind, score, rng):
        # The head records on the tape z carries, so scoring a taped z
        # cannot leave the head out of the gradient.
        head = init_head(kind, 3, 4, seed=5)
        z = Parameter(rng.normal(size=(6, 4)))
        tape = Tape()
        backward(tsum(score(head, z.use(tape)) * Tensor(rng.normal(size=(6, 3)))))
        for p in [z, *head.parameters()]:
            assert np.any(p.grad != 0.0), p.name


def bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestFusedLogJoint:
    """``_mixture_log_joint`` against the op-by-op chain, bit for bit."""

    DIM = 3

    @staticmethod
    def row_counts(classes, dim):
        """0 rows, 1 row, and two full distance blocks plus a remainder."""
        spanning = 2 * (DISTANCE_BLOCK_ENTRIES // (classes * dim)) + 7
        assert len(row_blocks(spanning, classes * dim, DISTANCE_BLOCK_ENTRIES)) == 3
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
            fused = head.class_log_scores(z)
            assert fused.tape is None
            assert bits(fused.data) == bits(chain_log_joint(head, z).data)

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans"])
    @pytest.mark.parametrize("dim", [1, 3, 8, 16])
    @pytest.mark.parametrize("classes", [1, 4, 8])
    def test_untaped_forward_is_bitwise_equal_across_widths_and_class_counts(
            self, kind, dim, classes, rng):
        head = self.head(kind, 3, classes=classes, dim=dim)
        for n in self.row_counts(classes, dim):
            z = Tensor(rng.normal(scale=2.0, size=(n, dim)))
            assert bits(head.class_log_scores(z).data) == bits(chain_log_joint(head, z).data)

    @staticmethod
    def taped_grads(head, z_value, weights, log_joint_fn):
        """Forward value and gradients of a loss mixing a weighted sum and a logsumexp."""
        for p in head.parameters():
            p.zero_grad()
        z = Parameter(z_value)
        tape = Tape()
        lj = log_joint_fn(head, z.use(tape))
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
            fused = self.taped_grads(head, z, w, lambda h, t: h.class_log_scores(t))
            chain = self.taped_grads(head, z, w, chain_log_joint)
            assert len(fused) == (4 if kind == "aagmm" else 3)
            for a, b in zip(fused, chain):
                assert a.shape == b.shape
                assert bits(a) == bits(b)

    # aagmm: centers leaf, log_var leaf, the primitive; kmeans' log variances
    # are an untaped constant, not a parameter, so it has no second leaf.
    @pytest.mark.parametrize("kind, records", [("aagmm", 3), ("kmeans", 2)])
    def test_one_tape_record_besides_the_leaves(self, kind, records):
        head = self.head(kind, 1)
        tape = Tape()
        head.class_log_scores(Tensor(np.zeros((2, self.DIM)), tape))
        assert len(tape) == records

    @pytest.mark.parametrize("n", [0, 3])
    def test_non_finite_variance_raises(self, n):
        head = AagmmHead(np.zeros((2, 2)), np.full((2, 2), -800.0))  # exp(800) overflows
        with pytest.raises(NonFiniteError, match="log_joint"):
            head.class_log_scores(Tensor(np.ones((n, 2))))

    def test_far_point_raises(self):
        head = KmeansHead(np.zeros((2, 2)))
        with pytest.raises(NonFiniteError, match="log_joint"):
            head.class_log_scores(Tensor(np.full((1, 2), 1e300)))


def chain_dense(h, w, b, slope):
    """The op-by-op dense layer the fused primitive replaced."""
    out = matmul(h, w) + b
    return out if slope is None else leaky_relu(out, slope)


def chain_embed(backbone, x, tape=None):
    h = Tensor(x)
    last = len(backbone.weights) - 1
    for i, (w, b) in enumerate(zip(backbone.weights, backbone.biases)):
        h = chain_dense(h, w.use(tape), b.use(tape), LEAKY_SLOPE if i < last else None)
    return h


class TestFusedDense:
    """``_dense_layer`` against the op-by-op chain, bit for bit."""

    @staticmethod
    def inputs(rng, n, fan_in=16, fan_out=64):
        x = rng.normal(size=(n, fan_in))
        b = rng.normal(scale=0.5, size=fan_out)
        if n:
            x[0] = 0.0  # a row whose pre-activation is the bias alone
            b[:3] = [0.0, -0.0, 1e-300]
        return x, rng.normal(size=(fan_in, fan_out)), b

    @staticmethod
    def taped(dense_fn, x, w, b, slope, g):
        """Forward value and x/w/b gradients of sum(out * g)."""
        params = [Parameter(x), Parameter(w), Parameter(b)]
        tape = Tape()
        out = dense_fn(*(p.use(tape) for p in params), slope)
        backward(tsum(out * Tensor(g)))
        return [out.data] + [p.grad for p in params]

    @pytest.mark.parametrize("slope", [LEAKY_SLOPE, None, 0.0, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 20_000])
    def test_untaped_forward_is_bitwise_equal(self, slope, n, rng):
        x, w, b = self.inputs(rng, n)
        fused = _dense_layer(Tensor(x), Tensor(w), Tensor(b), slope)
        assert fused.tape is None
        assert bits(fused.data) == bits(chain_dense(Tensor(x), Tensor(w), Tensor(b), slope).data)

    @pytest.mark.parametrize("slope", [LEAKY_SLOPE, None, 0.0, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 20_000])
    def test_taped_forward_and_gradients_are_bitwise_equal(self, slope, n, rng):
        x, w, b = self.inputs(rng, n)
        g = rng.normal(size=(n, w.shape[1]))
        fused = self.taped(_dense_layer, x, w, b, slope, g)
        chain = self.taped(chain_dense, x, w, b, slope, g)
        for a, c in zip(fused, chain):
            assert a.shape == c.shape
            assert bits(a) == bits(c)

    def test_embed_equals_the_chain_with_every_parameter_gradient(self, rng):
        backbone = Backbone(16, 8, seed=3)
        x = rng.normal(size=(20, 16))
        g = rng.normal(size=(20, 8))
        results = []
        for embed in (backbone.embed, lambda x, tape: chain_embed(backbone, x, tape)):
            for p in backbone.parameters():
                p.zero_grad()
            tape = Tape()
            z = embed(x, tape)
            backward(tsum(z * Tensor(g)))
            results.append([z.data] + [p.grad.copy() for p in backbone.parameters()])
        for a, c in zip(*results):
            assert bits(a) == bits(c)

    def test_taped_input_records_on_its_own_tape(self, rng):
        # With no ``tape=``, a taped input's layers take their parameter
        # leaves on its tape, so every backbone weight and bias trains.
        backbone = Backbone(6, 3, seed=0)
        x = Parameter(rng.normal(size=(5, 6)))
        g = Tensor(rng.normal(size=(5, 3)))
        grads = []
        for embed in (lambda h, tape: backbone.embed(h), backbone.embed):
            for p in backbone.parameters():
                p.zero_grad()
            tape = Tape()
            backward(tsum(embed(x.use(tape), tape) * g))
            grads.append([p.grad.copy() for p in backbone.parameters()])
        for p, a, b in zip(backbone.parameters(), *grads):
            assert np.any(a != 0.0), p.name
            assert bits(a) == bits(b)

    def test_taped_input_on_another_tape_raises(self, rng):
        x = Parameter(rng.normal(size=(5, 6)))
        with pytest.raises(ValueError, match="operands are recorded on different tapes"):
            Backbone(6, 3, seed=0).embed(x.use(Tape()), Tape())

    def test_three_records_per_layer(self):
        # Two parameter leaves and the primitive, for each of the 3 layers.
        tape = Tape()
        Backbone(16, 8, seed=0).embed(np.zeros((2, 16)), tape)
        assert len(tape) == 9

    def test_constant_input_gets_no_gradient(self, rng):
        x, w, b = self.inputs(rng, 4)
        tape = Tape()
        h = Tensor(x)
        out = _dense_layer(h, Parameter(w).use(tape), Parameter(b).use(tape), LEAKY_SLOPE)
        backward(tsum(out))
        assert h.grad is None

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_matmul_overflow_names_matmul(self):
        with pytest.raises(NonFiniteError, match="matmul produced"):
            _dense_layer(Tensor(np.full((1, 2), 1e200)), Tensor(np.full((2, 3), 1e200)),
                         Tensor(np.zeros(3)), LEAKY_SLOPE)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_bias_overflow_names_add(self):
        with pytest.raises(NonFiniteError, match="add produced"):
            _dense_layer(Tensor(np.full((1, 1), 1e308)), Tensor(np.ones((1, 2))),
                         Tensor(np.full(2, 1e308)), None)

    @pytest.mark.parametrize("rows", [2, 0])
    def test_wrong_width_raises(self, rows):
        with pytest.raises(ValueError, match="inner dimensions"):
            Backbone(16, 8, seed=0).embed(np.zeros((rows, 15)))

    @pytest.mark.parametrize("shape", [(), (16,), (2, 3, 16)])
    def test_input_that_is_not_2d_raises(self, shape):
        with pytest.raises(ValueError, match="2-D operands"):
            Backbone(16, 8, seed=0).embed(np.zeros(shape))


def chain_log_conditional(head, z):
    """The two-record log conditional the fused one replaced."""
    scores = head.class_log_scores(z)
    return scores - logsumexp(scores, axis=1, keepdims=True)


class TestFusedLogConditional:
    """``log_conditional`` against the logsumexp-and-sub chain, bit for bit."""

    @staticmethod
    def head(kind, classes, dim=3):
        head = init_head(kind, classes, dim, seed=7)
        if kind == "aagmm":
            head.log_var.value[...] = np.random.default_rng(7).uniform(-1.0, 1.0, (classes, dim))
        return head

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans", "linear"])
    @pytest.mark.parametrize("classes", [4, 1])
    def test_untaped_forward_is_bitwise_equal(self, kind, classes, rng):
        head = self.head(kind, classes)
        for n in (0, 1, 50):
            z = Tensor(rng.normal(scale=2.0, size=(n, 3)))
            fused = log_conditional(head, z)
            assert fused.tape is None
            assert bits(fused.data) == bits(chain_log_conditional(head, z).data)

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans", "linear"])
    @pytest.mark.parametrize("classes", [4, 1])
    def test_taped_forward_and_gradients_are_bitwise_equal(self, kind, classes, rng):
        head = self.head(kind, classes)
        z_value = rng.normal(scale=2.0, size=(50, 3))
        w = rng.normal(size=(50, classes))
        w[:5] = -0.0  # rows whose gradient is all signed zeros
        results = []
        for fn in (log_conditional, chain_log_conditional):
            for p in head.parameters():
                p.zero_grad()
            z = Parameter(z_value)
            tape = Tape()
            lc = fn(head, z.use(tape))
            backward(tsum(lc * Tensor(w)))
            results.append([lc.data, z.grad, *(p.grad.copy() for p in head.parameters())])
        for a, b in zip(*results):
            assert bits(a) == bits(b)

    def test_shared_logsumexp_equals_the_formula_bitwise(self, rng):
        """``logsumexp`` and ``log_conditional`` run one max-shifted forward;
        both equal it written out, forward and reverse, also near +-1e300."""
        x = rng.normal(scale=30.0, size=(40, 5))
        x[0] = [1e300, -1e300, 0.0, 1e300, -5.0]
        x[1] = -1e300
        x[2] = [9.99e299, 1e300, 1.5, -1e300, 1e300]
        x[3] = [-1e300, -9.99e299, -1e300, -2e299, -1e300]
        w = rng.normal(size=x.shape)
        m = x.max(axis=1, keepdims=True)
        shifted = np.exp(x - m)
        total = shifted.sum(axis=1, keepdims=True)
        lse = np.log(total) + m
        softmax = shifted / total

        p = Parameter(x)
        tape = Tape()
        out = logsumexp(p.use(tape), axis=1, keepdims=True)
        backward(tsum(out))
        assert bits(out.data) == bits(lse)
        assert bits(p.grad) == bits(np.ones_like(lse) * softmax)

        class FixedScores:
            latent_dim = 1

            def class_log_scores(self, z):
                return p.use(z.tape)

        p.zero_grad()
        tape = Tape()
        lc = log_conditional(FixedScores(), Tensor(np.zeros((40, 1)), tape))
        backward(tsum(lc * Tensor(w)))
        assert bits(lc.data) == bits(x - lse)
        assert bits(p.grad) == bits(w + (-w).sum(axis=1, keepdims=True) * softmax)

    def test_one_record_past_the_scores(self):
        tape = Tape()
        log_conditional(self.head("aagmm", 4), Tensor(np.zeros((2, 3)), tape))
        assert len(tape) == 4  # centers leaf, log_var leaf, log joint, log conditional

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_names_sub(self):
        head = init_head("linear", 2, 1, seed=0)
        head.bias.value[...] = [1.7e308, -1.7e308]
        for fn in (log_conditional, chain_log_conditional):
            with pytest.raises(NonFiniteError, match="sub produced"):
                fn(head, Tensor(np.zeros((1, 1))))


class TestPairwiseSum:
    @pytest.mark.parametrize("width", [*range(1, 41), 64, 127, 128, 129, 200, 300])
    def test_equals_numpy_sum_bitwise(self, width, rng):
        # Magnitudes spread over 16 decades make every change of order show.
        a = rng.normal(size=(3, 5, width)) * 10.0 ** rng.uniform(-8, 8, (3, 5, width))
        a[0, 0] = -0.0  # numpy's sum of negative zeros is +0.0
        expected = a.sum(axis=-1)
        got = _pairwise_sum0(np.moveaxis(a, -1, 0).copy())
        assert bits(got) == bits(expected)


class TestBlockedEmbed:
    """An untaped ``embed`` runs in row blocks; each row equals the unblocked chain."""

    ROWS = BLOCK_ENTRIES // 64  # rows per block at the widest layer

    @pytest.mark.parametrize("n", [3 * ROWS + 37, 2 * ROWS + 1, ROWS, 31, 1])
    def test_blocked_embed_equals_the_chain_bitwise(self, n, rng):
        backbone = Backbone(16, 8, seed=4)
        x = rng.normal(size=(n, 16))
        z = backbone.embed(x)
        assert z.tape is None
        assert bits(z.data) == bits(chain_embed(backbone, x).data)

    def test_blocked_embed_at_an_odd_latent_width_is_close(self, rng):
        # Bit for bit holds only at the default widths: at latent_dim 17
        # OpenBLAS can round a 512-row block's product otherwise than the
        # one-pass product, so rows agree to rounding, not in every bit.
        backbone = Backbone(16, 17, seed=4)
        x = rng.normal(size=(3 * self.ROWS + 37, 16))
        blocked = backbone.embed(x).data
        one_pass = backbone.embed(x, Tape()).data
        np.testing.assert_allclose(blocked, one_pass, rtol=1e-12,
                                   atol=1e-12 * np.abs(one_pass).max())

    def test_taped_embed_is_one_block(self, rng):
        backbone = Backbone(16, 8, seed=4)
        x = rng.normal(size=(2 * self.ROWS + 9, 16))
        tape = Tape()
        z = backbone.embed(x, tape)
        assert len(tape) == 9
        assert bits(z.data) == bits(chain_embed(backbone, x).data)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_matmul_overflow_in_a_later_block_names_matmul(self):
        backbone = Backbone(16, 8, seed=0)
        backbone.weights[0].value[...] = 1.0
        x = np.zeros((3 * self.ROWS, 16))
        x[2 * self.ROWS + 5] = 1e308  # sums 16 times 1e308
        with pytest.raises(NonFiniteError, match="matmul produced"):
            backbone.embed(x)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_bias_overflow_in_a_later_block_names_add(self):
        backbone = Backbone(1, 8, seed=0)
        backbone.weights[0].value[...] = 1.0
        backbone.biases[0].value[...] = 1e308
        x = np.full((3 * self.ROWS, 1), -1e308)
        x[2 * self.ROWS + 5] = 1e308
        with pytest.raises(NonFiniteError, match="add produced"):
            backbone.embed(x)

    # An untaped block checks only its output; a block that fails runs
    # again through the checked layers, to name the op the layers name.

    @staticmethod
    def second_layer_fault(weight, bias):
        """A backbone whose second hidden layer faults on row 2 * ROWS + 5 only.

        That row's first layer is finite, 1.6e9 per entry; its second
        layer's product is 1.024e11 times ``weight`` per entry, to which
        ``bias`` is added. The last layer's weights are zero, so every other
        row ends finite and the faulty one ends NaN (inf * 0).
        """
        backbone = Backbone(16, 8, seed=0)
        backbone.weights[0].value[...] = 0.01
        backbone.weights[1].value[...] = weight
        backbone.biases[1].value[...] = bias
        backbone.weights[2].value[...] = 0.0
        x = np.zeros((3 * TestBlockedEmbed.ROWS, 16))
        x[2 * TestBlockedEmbed.ROWS + 5] = 1e10
        first = Tensor(x) @ backbone.weights[0].value + backbone.biases[0].value
        assert np.all(np.isfinite(first.data))
        return backbone, x

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_second_layer_matmul_overflow_in_a_later_block_names_matmul(self):
        backbone, x = self.second_layer_fault(1e300, 0.0)
        for embed in (backbone.embed, lambda x: chain_embed(backbone, x)):
            with pytest.raises(NonFiniteError, match="matmul produced"):
                embed(x)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_second_layer_bias_overflow_in_a_later_block_names_add(self):
        backbone, x = self.second_layer_fault(1e297, 1.7e308)
        for embed in (backbone.embed, lambda x: chain_embed(backbone, x)):
            with pytest.raises(NonFiniteError, match="add produced"):
                embed(x)

    def test_nan_input_row_in_a_later_block_names_matmul(self, rng):
        backbone = Backbone(16, 8, seed=0)
        x = rng.normal(size=(3 * self.ROWS, 16))
        x[2 * self.ROWS + 5, 3] = np.nan
        for embed in (backbone.embed, lambda x: chain_embed(backbone, x)):
            with pytest.raises(NonFiniteError, match="matmul produced"):
                embed(x)

    @pytest.mark.parametrize("n", [3 * ROWS, 32])
    def test_finite_blocks_take_no_checked_run(self, monkeypatch, n, rng):
        backbone = Backbone(16, 8, seed=0)
        x = rng.normal(size=(n, 16))
        checked = []
        monkeypatch.setattr(heads, "_check_finite",
                            lambda data, op: checked.append(op))
        backbone.embed(x)
        assert checked == []
