"""Generator contracts: determinism, split hygiene, outlier injection,
and augmentation statistics."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from gmix.datasets import (
    LIFT_GAIN,
    LIFT_OFFSET,
    Dataset,
    SyntheticSpec,
    _balanced_labels,
    _base_dim,
    _base_points,
    augment_strong,
    augment_weak,
    generate,
)

DEFAULT = SyntheticSpec()


def reference_base_points(spec, labels, rng):
    """The base points before the warped ones were built in place.

    The warped mixture adds the noise to a zero array holding the centers.
    """
    if spec.kind != "warped-mixture":
        return _base_points(spec, labels, rng)
    angles = 2.0 * math.pi * labels / spec.n_classes
    centers = np.zeros((labels.shape[0], spec.ambient_dim))
    centers[:, 0] = np.cos(angles)
    centers[:, 1] = np.sin(angles)
    return centers + spec.cluster_noise * rng.standard_normal(centers.shape)


def reference_lift_map(spec):
    """The generator's rng and the lift map it draws before any sample."""
    rng = np.random.default_rng(spec.seed)
    base_dim = _base_dim(spec)
    affine = rng.standard_normal((base_dim, spec.ambient_dim)) * (LIFT_GAIN / math.sqrt(base_dim))
    offset = rng.standard_normal(spec.ambient_dim) * LIFT_OFFSET
    return rng, affine, offset


def reference_generate(spec):
    """The generator before it wrote each split into one preallocated array.

    Each split is lifted on its own and concatenated.
    """
    def base_points(labels):
        return reference_base_points(spec, labels, rng)

    rng, affine, offset = reference_lift_map(spec)
    n_labeled = spec.labels_per_class * spec.n_classes
    labeled_y = np.repeat(np.arange(spec.n_classes), spec.labels_per_class)
    unlabeled_y = rng.integers(0, spec.n_classes, size=spec.n_unlabeled)
    test_y = _balanced_labels(spec.n_test, spec.n_classes)
    labeled_x, unlabeled_x, test_x = (
        np.tanh(base_points(y) @ affine + offset) for y in (labeled_y, unlabeled_y, test_y))
    train_clean = np.concatenate([labeled_x, unlabeled_x], axis=0)
    feature_scale = np.maximum(train_clean.std(axis=0), 1e-12)
    outlier = np.zeros(n_labeled + spec.n_unlabeled + spec.n_test, dtype=bool)
    labels = np.concatenate([labeled_y, unlabeled_y, test_y])
    n_out = round(spec.outlier_frac * spec.n_unlabeled)
    if n_out:
        radius = float(np.linalg.norm(train_clean, axis=1).max())
        idx = rng.choice(spec.n_unlabeled, size=n_out, replace=False)
        unlabeled_x[idx] = rng.uniform(-5.0 * radius, 5.0 * radius, size=(n_out, spec.ambient_dim))
        outlier[n_labeled + idx] = True
        labels[n_labeled + idx] = -1
    features = np.concatenate([labeled_x, unlabeled_x, test_x], axis=0)
    split = np.array(["labeled"] * n_labeled + ["unlabeled"] * spec.n_unlabeled
                     + ["test"] * spec.n_test)
    return {
        "labeled_x": features[split == "labeled"],
        "labeled_y": labels[split == "labeled"],
        "unlabeled_x": features[split == "unlabeled"],
        "unlabeled_y": labels[split == "unlabeled"],
        "unlabeled_outlier": outlier[split == "unlabeled"],
        "test_x": features[split == "test"],
        "test_y": labels[split == "test"],
        "feature_scale": feature_scale,
    }


ARRAY_FIELDS = [f.name for f in dataclasses.fields(Dataset) if f.name != "spec"]


class TestGenerate:
    def test_same_seed_identical(self):
        a = generate(SyntheticSpec(seed=11, outlier_frac=0.05))
        b = generate(SyntheticSpec(seed=11, outlier_frac=0.05))
        for name in ARRAY_FIELDS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_differs(self):
        a = generate(SyntheticSpec(seed=1))
        b = generate(SyntheticSpec(seed=2))
        assert not np.array_equal(a.unlabeled_x, b.unlabeled_x)

    def test_labeled_split_exactly_balanced(self):
        ds = generate(DEFAULT)
        assert ds.labeled_x.shape[0] == 32
        counts = np.bincount(ds.labeled_y, minlength=8)
        np.testing.assert_array_equal(counts, np.full(8, 4))

    def test_splits_sized(self):
        ds = generate(DEFAULT)
        sizes = {name: (getattr(ds, f"{name}_x").shape, getattr(ds, f"{name}_y").shape)
                 for name in ("labeled", "unlabeled", "test")}
        assert sizes == {"labeled": ((32, 16), (32,)), "unlabeled": ((8000, 16), (8000,)),
                         "test": ((2000, 16), (2000,))}
        assert ds.unlabeled_outlier.shape == (8000,)
        assert not ds.unlabeled_outlier.any()
        assert ds.unlabeled_y.min() >= 0

    def test_outlier_count_exact(self):
        ds = generate(SyntheticSpec(outlier_frac=0.05, seed=3))
        assert int(ds.unlabeled_outlier.sum()) == 400
        np.testing.assert_array_equal(ds.unlabeled_y == -1, ds.unlabeled_outlier)
        assert ds.labeled_y.min() >= 0
        assert ds.test_y.min() >= 0

    def test_outliers_are_recoverable(self):
        """Every injected outlier sits farther from all true cluster
        centers than the 99th percentile of inlier center distances."""
        spec = SyntheticSpec(outlier_frac=0.05, seed=3)
        ds = generate(spec)
        inlier = ds.unlabeled_x[~ds.unlabeled_outlier]
        outlier = ds.unlabeled_x[ds.unlabeled_outlier]
        # The ambient images of the noise-free class centers, lifted by the
        # map the generator draws first from the same seed.
        _, affine, offset = reference_lift_map(spec)
        angles = 2.0 * math.pi * np.arange(spec.n_classes) / spec.n_classes
        centers = np.zeros((spec.n_classes, spec.ambient_dim))
        centers[:, 0] = np.cos(angles)
        centers[:, 1] = np.sin(angles)
        centers = np.tanh(centers @ affine + offset)

        def min_center_dist(x):
            return np.linalg.norm(x[:, None, :] - centers[None], axis=2).min(axis=1)

        threshold = np.quantile(min_center_dist(inlier), 0.99)
        assert min_center_dist(outlier).min() > threshold

    def test_two_moons_and_rings(self):
        moons = generate(SyntheticSpec(kind="two-moons", n_classes=2, seed=4,
                                       n_unlabeled=500, n_test=100))
        assert moons.spec.n_classes == 2
        rings = generate(SyntheticSpec(kind="rings", n_classes=3, seed=4,
                                       n_unlabeled=500, n_test=100))
        assert set(np.unique(rings.test_y)) == {0, 1, 2}

    def test_two_moons_needs_two_classes(self):
        with pytest.raises(ValueError, match="two-moons"):
            SyntheticSpec(kind="two-moons", n_classes=3)

    def test_label_budget_validation(self):
        with pytest.raises(ValueError, match="labeled budget"):
            SyntheticSpec(labels_per_class=2000, n_unlabeled=100)

    def test_outlier_frac_bounds(self):
        with pytest.raises(ValueError, match="outlier_frac"):
            SyntheticSpec(outlier_frac=0.5)


class TestAgainstReference:
    SPECS = [
        SyntheticSpec(kind=kind, n_classes=2 if kind == "two-moons" else 3, ambient_dim=dim,
                      n_unlabeled=pool, n_test=test, labels_per_class=2,
                      outlier_frac=frac, seed=seed)
        for kind, dim, (pool, test), frac, seed in itertools.product(
            ["warped-mixture", "two-moons", "rings"], [2, 16], [(30, 1), (2000, 500)],
            [0.0, 0.05, 0.3], [0, 1])
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: (
        f"{s.kind}-d{s.ambient_dim}-n{s.n_unlabeled}-o{s.outlier_frac}-s{s.seed}"))
    def test_every_field_is_bitwise_equal(self, spec):
        ds = generate(spec)
        for name, want in reference_generate(spec).items():
            got = getattr(ds, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name

    def test_warped_base_points_keep_the_sign_of_zero(self):
        # Noise this small rounds to signed zeros, which the sum with the
        # zero center coordinates turned into +0.0.
        spec = SyntheticSpec(cluster_noise=5e-324)
        labels = np.arange(40) % spec.n_classes
        got = _base_points(spec, labels, np.random.default_rng(3))
        want = reference_base_points(spec, labels, np.random.default_rng(3))
        assert np.count_nonzero(spec.cluster_noise * np.random.default_rng(3).standard_normal(
            got.shape) == 0.0) > 0
        assert got.tobytes() == want.tobytes()


class TestAugment:
    def test_weak_is_unbiased(self):
        x = np.zeros((1, 4))
        scale = np.ones(4)
        rng = np.random.default_rng(0)
        draws = np.stack([augment_weak(x, scale, rng)[0] for _ in range(10_000)])
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * se)

    def test_weak_preserves_nearest_cluster(self):
        ds = generate(DEFAULT)
        rng = np.random.default_rng(7)
        x = ds.unlabeled_x[:2000]
        y = ds.unlabeled_y[:2000]
        centroids = np.stack([
            ds.unlabeled_x[ds.unlabeled_y == c].mean(axis=0) for c in range(8)
        ])
        aug = augment_weak(x, ds.feature_scale, rng)
        nearest = np.argmin(
            np.linalg.norm(aug[:, None, :] - centroids[None], axis=2), axis=1
        )
        before = np.argmin(
            np.linalg.norm(x[:, None, :] - centroids[None], axis=2), axis=1
        )
        same = (nearest == before).mean()
        assert same >= 0.99

    def test_strong_drop_fraction(self):
        x = np.full((200, 50), 5.0)  # values never zeroed by noise alone
        rng = np.random.default_rng(1)
        out = augment_strong(x, np.ones(50) * 0.01, rng)
        frac = (out == 0.0).mean()
        se = np.sqrt(0.25 * 0.75 / out.size)
        assert abs(frac - 0.25) < 3 * se

    def test_strong_perturbs_more_than_weak(self):
        ds = generate(DEFAULT)
        x = ds.unlabeled_x[:500]
        rng_w = np.random.default_rng(2)
        rng_s = np.random.default_rng(2)
        dw = np.linalg.norm(augment_weak(x, ds.feature_scale, rng_w) - x, axis=1).mean()
        dstr = np.linalg.norm(augment_strong(x, ds.feature_scale, rng_s) - x, axis=1).mean()
        assert dstr > dw

    def test_deterministic_per_seed(self, rng):
        x = rng.normal(size=(6, 4))
        a = augment_strong(x, np.ones(4), np.random.default_rng(99))
        b = augment_strong(x, np.ones(4), np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)


class TestSeparability:
    def test_fully_supervised_on_all_labels_exceeds_98_percent(self):
        """The default warped mixture is separable: with every training
        label revealed, a plain supervised run clears 98% test accuracy."""
        from gmix.moments import MomentSpec
        from gmix.pipeline import (
            RunConfig,
            evaluate,
            init_state,
            sample_labeled,
            train_step,
        )

        ds = generate(DEFAULT)
        ds_full = dataclasses.replace(
            ds,
            labeled_x=np.concatenate([ds.labeled_x, ds.unlabeled_x]),
            labeled_y=np.concatenate([ds.labeled_y, ds.unlabeled_y]),
        )
        config = RunConfig(
            seed=0, steps=4000, eval_every=4000, head_kind="linear",
            lambda_u=0.0, moments=MomentSpec(max_order=0),
            labeled_batch=128, lr=0.05,
        )
        state = init_state(config, ds_full)
        for _ in range(config.steps):
            train_step(state, sample_labeled(ds_full, state.rng, config), None, config)
        accuracy = evaluate(state, ds.test_x, ds.test_y).accuracy
        assert accuracy >= 0.98


class TestReadOnlyFields:
    DATASET = generate(SyntheticSpec(n_unlabeled=300, n_test=60, outlier_frac=0.1, seed=4,
                                     n_classes=3, labels_per_class=2))

    @pytest.mark.parametrize("name", ARRAY_FIELDS)
    def test_arrays_are_read_only(self, name):
        rows = getattr(self.DATASET, name)
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = rows[-1]

    @pytest.mark.parametrize("name", ARRAY_FIELDS)
    def test_fields_cannot_be_reassigned(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.DATASET, name, np.zeros(1))
