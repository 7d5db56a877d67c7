"""Outlier-gate checks: distance formulas, nearest-rank thresholds,
aggregation modes, and the monotonicity / equivariance properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmix.autodiff import BLOCK_ENTRIES, row_blocks
from gmix.heads import AagmmHead, KmeansHead
from gmix.outlier import (
    OutlierGate,
    fit_threshold,
    mask,
    nearest_rank_percentile,
    scores,
)


def head_with(centers, variances):
    return AagmmHead(np.asarray(centers, float), np.log(np.asarray(variances, float)))


def one_cluster(center, variances):
    return head_with([center], [variances])


def dense_scores(head, z, mode):
    """The full (n, K, D) formula the row-blocked scores replaced: the reference."""
    d2 = (((z[:, None, :] - head.centers.value[None]) ** 2) / head.variances()[None]).sum(axis=2)
    dist = np.sqrt(d2)
    return dist.max(axis=1) if mode == "max" else dist.min(axis=1)


class TestMahalanobis:
    """The distance formula, on ``scores`` with a one-cluster head."""

    def test_identity_covariance_is_euclidean(self, rng):
        z = rng.normal(size=5)
        c = rng.normal(size=5)
        s = scores(one_cluster(c, np.ones(5)), z)
        assert s[0] == pytest.approx(np.linalg.norm(z - c))

    def test_direct_formula(self):
        s = scores(one_cluster([0.0, 0.0], [4.0, 1.0]), [2.0, 1.0])
        assert s[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_zero_at_center(self):
        assert scores(one_cluster([1.0, -2.0], [3.0, 0.5]), [1.0, -2.0])[0] == 0.0

    def test_nonpositive_variance_rejected(self):
        head = AagmmHead(np.zeros((1, 1)), np.full((1, 1), -np.inf))  # variance exp(-inf) = 0
        with pytest.raises(ValueError, match="positive"):
            scores(head, [1.0])

    @given(st.floats(0.01, 100.0))
    def test_scale_equivariance(self, c):
        # Scaling residual and sigma jointly by c leaves the distance alone.
        z = np.array([1.0, 2.0, -0.5])
        center = np.array([0.2, -0.3, 0.1])
        var = np.array([2.0, 0.5, 1.5])
        base = scores(one_cluster(center, var), z)[0]
        scaled = scores(one_cluster(center, c * c * var), center + c * (z - center))[0]
        assert scaled == pytest.approx(base, rel=1e-9)


class TestScore:
    def test_single_cluster_both_modes(self):
        head = one_cluster([0.0, 0.0], [1.0, 1.0])
        for mode in ("max", "min"):
            assert scores(head, [3.0, 4.0], mode)[0] == pytest.approx(5.0)

    def test_two_cluster_aggregation(self):
        head = head_with([[1.0], [5.0]], [[1.0], [1.0]])
        z = np.array([0.0])
        assert scores(head, z, "max")[0] == pytest.approx(5.0)
        assert scores(head, z, "min")[0] == pytest.approx(1.0)

    def test_scores_nonnegative(self, rng):
        head = head_with(rng.normal(size=(4, 3)), rng.uniform(0.5, 2, (4, 3)))
        s = scores(head, rng.normal(scale=5, size=(50, 3)), "min")
        assert np.all(s >= 0)

    def test_kmeans_head_is_euclidean_filter(self, rng):
        centers = rng.normal(size=(3, 4))
        head = KmeansHead(centers)
        z = rng.normal(size=(20, 4))
        expected = np.linalg.norm(z[:, None, :] - centers[None], axis=2).min(axis=1)
        np.testing.assert_allclose(scores(head, z, "min"), expected, atol=1e-12)


class TestBlockedScores:
    @pytest.mark.parametrize("kind", ["aagmm", "kmeans"])
    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_bitwise_equal_to_the_dense_formula(self, rng, kind, mode):
        centers = rng.normal(size=(5, 4))
        if kind == "aagmm":
            head = head_with(centers, rng.uniform(0.3, 3.0, (5, 4)))
        else:
            head = KmeansHead(centers)
        spanning = 2 * (BLOCK_ENTRIES // centers.size) + 11
        assert len(row_blocks(spanning, centers.size)) == 3
        for n in (0, 1, spanning):
            z = rng.normal(scale=3.0, size=(n, 4))
            assert scores(head, z, mode).tobytes() == dense_scores(head, z, mode).tobytes()

    def test_wrong_width_is_rejected_not_broadcast(self):
        head = head_with(np.zeros((3, 2)), np.ones((3, 2)))
        gate = OutlierGate()
        with pytest.raises(ValueError, match="width 2"):
            scores(head, np.zeros((5, 1)))
        with pytest.raises(ValueError, match="width 2"):
            fit_threshold(gate, np.zeros((5, 1)), head)
        gate.tau = 1.0
        with pytest.raises(ValueError, match="width 2"):
            mask(gate, head, np.zeros((5, 3)))


class TestFitThreshold:
    def test_nearest_rank_on_ten_scores(self):
        assert nearest_rank_percentile(np.arange(1.0, 11.0), 90.0) == 9.0

    def test_constant_scores(self):
        head = head_with([[0.0]], [[1.0]])
        gate = OutlierGate()
        tau = fit_threshold(gate, np.full((7, 1), 2.0), head)
        assert tau == pytest.approx(2.0)
        assert gate.fitted

    def test_labeled_flag_fraction_at_most_ten_percent(self, rng):
        head = head_with(rng.normal(size=(3, 2)), rng.uniform(0.5, 2, (3, 2)))
        for n in (7, 10, 40, 113):
            labeled = rng.normal(scale=2, size=(n, 2))
            gate = OutlierGate(percentile=90.0)
            fit_threshold(gate, labeled, head)
            flagged = ~mask(gate, head, labeled)
            assert flagged.mean() <= 0.10

    def test_empty_labeled_set_rejected(self):
        head = head_with([[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="empty"):
            fit_threshold(OutlierGate(), np.zeros((0, 1)), head)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=30))
    def test_tau_monotone_in_percentile(self, values):
        values = np.asarray(values)
        taus = [nearest_rank_percentile(values, q) for q in (10, 50, 90, 100)]
        assert all(a <= b for a, b in zip(taus, taus[1:]))


class TestMask:
    def test_above_tau_excluded(self):
        head = head_with([[0.0]], [[1.0]])
        gate = OutlierGate()
        gate.tau = 3.0
        keep = mask(gate, head, np.array([[5.0]]))
        assert not keep[0]

    def test_boundary_score_kept(self):
        head = head_with([[0.0]], [[1.0]])
        gate = OutlierGate()
        gate.tau = 5.0
        keep = mask(gate, head, np.array([[5.0]]))
        assert keep[0]

    def test_center_kept_in_min_mode(self, rng):
        centers = rng.normal(size=(3, 2))
        head = head_with(centers, rng.uniform(0.5, 2, (3, 2)))
        gate = OutlierGate(mode="min")
        gate.tau = 0.0
        keep = mask(gate, head, centers)
        assert keep.all()

    def test_unfitted_gate_rejects_nothing_and_flags_itself(self):
        gate = OutlierGate()
        assert not gate.fitted
        head = head_with([[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="unfitted"):
            mask(gate, head, np.array([[1.0]]))

    def test_raising_tau_grows_kept_set(self, rng):
        head = head_with(rng.normal(size=(2, 3)), rng.uniform(0.5, 2, (2, 3)))
        z = rng.normal(scale=3, size=(100, 3))
        gate = OutlierGate()
        gate.tau = 1.0
        small = mask(gate, head, z)
        gate.tau = 4.0
        large = mask(gate, head, z)
        assert small.sum() <= large.sum()
        assert np.all(large[small])


class TestGateValidation:
    def test_percentile_bounds(self):
        with pytest.raises(ValueError, match="percentile"):
            OutlierGate(percentile=150.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            OutlierGate(mode="median")
