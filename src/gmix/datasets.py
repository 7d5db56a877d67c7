"""Deterministic synthetic datasets with labeled/unlabeled/test splits.

Generators draw points in a base space and lift them to the ambient
dimension through a seeded random affine map followed by a coordinatewise
tanh warp. The warp makes the ambient distribution non-Gaussian, so a
latent shape constraint has real work to do.

For the warped mixture, cluster centers sit on a 2-D circle inside a base
space of full ambient dimensionality and the isotropic cluster noise fills
all of it: the Bayes boundary depends only on the projection along center
differences (so the problem stays separable), but a few labeled samples
per class badly under-determine the warped boundary, which is exactly the
regime where unlabeled data pays off. The crescents and rings keep their
classic 2-D base geometry.

Injected outliers are drawn uniformly from a box five times the inlier
radius and carry ground-truth flags, so detector quality is measurable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

DATASET_KINDS = ("warped-mixture", "two-moons", "rings")

WEAK_NOISE = 0.05
STRONG_NOISE = 0.15
STRONG_DROP = 0.25
STRONG_JITTER = 0.10

# Lift map: pre-tanh gain and per-coordinate offset spread. The gain is
# normalized by sqrt(base dim), so coordinates saturate comparably across
# generator kinds.
LIFT_GAIN = 2.0
LIFT_OFFSET = 0.4


@dataclass(frozen=True)
class SyntheticSpec:
    """Full description of one generated dataset."""

    kind: str = "warped-mixture"
    n_classes: int = 8
    ambient_dim: int = 16
    n_unlabeled: int = 8000
    n_test: int = 2000
    labels_per_class: int = 4
    cluster_noise: float = 0.13
    outlier_frac: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"kind must be one of {DATASET_KINDS}")
        if self.kind == "two-moons" and self.n_classes != 2:
            raise ValueError("two-moons generates exactly 2 classes")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.ambient_dim < 2:
            raise ValueError("ambient_dim must be at least 2")
        if self.labels_per_class < 1 or self.n_unlabeled < 1 or self.n_test < 1:
            raise ValueError("all split sizes must be positive")
        if self.labels_per_class * self.n_classes > self.n_unlabeled:
            raise ValueError("labeled budget exceeds the unlabeled pool size")
        if not 0.0 <= self.outlier_frac < 0.5:
            raise ValueError("outlier_frac must be in [0, 0.5)")
        if self.cluster_noise <= 0.0:
            raise ValueError("cluster_noise must be positive")


@dataclass
class Dataset:
    """Generated samples with split membership and outlier ground truth.

    ``labels`` is -1 for injected outliers. ``feature_scale`` is the
    per-feature standard deviation of the clean training pool, which the
    augmentation operators use as their unit of perturbation.
    ``true_centers`` are the ambient images of the noise-free class
    centers (zeros for kinds without point centers, like two-moons).
    """

    spec: SyntheticSpec
    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray
    outlier: np.ndarray
    feature_scale: np.ndarray
    true_centers: np.ndarray

    def _select(self, name: str) -> np.ndarray:
        return self.split == name

    @property
    def labeled_x(self) -> np.ndarray:
        return self.features[self._select("labeled")]

    @property
    def labeled_y(self) -> np.ndarray:
        return self.labels[self._select("labeled")]

    @property
    def unlabeled_x(self) -> np.ndarray:
        return self.features[self._select("unlabeled")]

    @property
    def unlabeled_y(self) -> np.ndarray:
        return self.labels[self._select("unlabeled")]

    @property
    def unlabeled_outlier(self) -> np.ndarray:
        return self.outlier[self._select("unlabeled")]

    @property
    def test_x(self) -> np.ndarray:
        return self.features[self._select("test")]

    @property
    def test_y(self) -> np.ndarray:
        return self.labels[self._select("test")]


def _balanced_labels(count: int, n_classes: int) -> np.ndarray:
    """Class labels as evenly split as possible, in class order."""
    per, extra = divmod(count, n_classes)
    return np.repeat(np.arange(n_classes), per + (np.arange(n_classes) < extra))


def _base_dim(spec: SyntheticSpec) -> int:
    return spec.ambient_dim if spec.kind == "warped-mixture" else 2


def _base_points(spec: SyntheticSpec, labels: np.ndarray, rng) -> np.ndarray:
    n = labels.shape[0]
    noise = spec.cluster_noise
    if spec.kind == "warped-mixture":
        angles = 2.0 * math.pi * labels / spec.n_classes
        centers = np.zeros((n, spec.ambient_dim))
        centers[:, 0] = np.cos(angles)
        centers[:, 1] = np.sin(angles)
        return centers + noise * rng.standard_normal((n, spec.ambient_dim))
    if spec.kind == "two-moons":
        t = rng.uniform(0.0, math.pi, size=n)
        upper = np.stack([np.cos(t), np.sin(t)], axis=1)
        lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
        pts = np.where(labels[:, None] == 0, upper, lower)
        return pts + noise * rng.standard_normal((n, 2))
    # rings: concentric annuli with radii spaced to a unit outer radius
    t = rng.uniform(0.0, 2.0 * math.pi, size=n)
    radius = (labels + 1.0) / spec.n_classes + noise * rng.standard_normal(n)
    return np.stack([radius * np.cos(t), radius * np.sin(t)], axis=1)


def _lift(points: np.ndarray, affine: np.ndarray, offset: np.ndarray) -> np.ndarray:
    return np.tanh(points @ affine + offset)


def generate(spec: SyntheticSpec) -> Dataset:
    """Generate a dataset; byte-identical for identical specs."""
    rng = np.random.default_rng(spec.seed)
    # The lift map is fixed per seed, drawn before any samples.
    base_dim = _base_dim(spec)
    affine = rng.standard_normal((base_dim, spec.ambient_dim)) * (
        LIFT_GAIN / math.sqrt(base_dim)
    )
    offset = rng.standard_normal(spec.ambient_dim) * LIFT_OFFSET

    n_labeled = spec.labels_per_class * spec.n_classes
    labeled_y = np.repeat(np.arange(spec.n_classes), spec.labels_per_class)
    unlabeled_y = rng.integers(0, spec.n_classes, size=spec.n_unlabeled)
    test_y = _balanced_labels(spec.n_test, spec.n_classes)

    labeled_x = _lift(_base_points(spec, labeled_y, rng), affine, offset)
    unlabeled_x = _lift(_base_points(spec, unlabeled_y, rng), affine, offset)
    test_x = _lift(_base_points(spec, test_y, rng), affine, offset)

    train_clean = np.concatenate([labeled_x, unlabeled_x], axis=0)
    feature_scale = np.maximum(train_clean.std(axis=0), 1e-12)

    outlier = np.zeros(n_labeled + spec.n_unlabeled + spec.n_test, dtype=bool)
    labels = np.concatenate([labeled_y, unlabeled_y, test_y])
    n_out = round(spec.outlier_frac * spec.n_unlabeled)
    if n_out:
        radius = float(np.linalg.norm(train_clean, axis=1).max())
        idx = rng.choice(spec.n_unlabeled, size=n_out, replace=False)
        unlabeled_x[idx] = rng.uniform(
            -5.0 * radius, 5.0 * radius, size=(n_out, spec.ambient_dim)
        )
        outlier[n_labeled + idx] = True
        labels[n_labeled + idx] = -1

    features = np.concatenate([labeled_x, unlabeled_x, test_x], axis=0)
    split = np.array(
        ["labeled"] * n_labeled
        + ["unlabeled"] * spec.n_unlabeled
        + ["test"] * spec.n_test
    )
    if spec.kind == "warped-mixture":
        angles = 2.0 * math.pi * np.arange(spec.n_classes) / spec.n_classes
        centers_base = np.zeros((spec.n_classes, base_dim))
        centers_base[:, 0] = np.cos(angles)
        centers_base[:, 1] = np.sin(angles)
        true_centers = _lift(centers_base, affine, offset)
    else:
        true_centers = np.zeros((spec.n_classes, spec.ambient_dim))
    return Dataset(spec, features, labels, split, outlier, feature_scale, true_centers)


def augment_weak(x: np.ndarray, scale: np.ndarray, rng, sigma: float = WEAK_NOISE) -> np.ndarray:
    """Additive isotropic Gaussian noise at ``sigma`` of the feature scale."""
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    x = np.asarray(x, dtype=np.float64)
    return x + sigma * scale * rng.standard_normal(x.shape)


def augment_strong(
    x: np.ndarray,
    scale: np.ndarray,
    rng,
    sigma: float = STRONG_NOISE,
    drop: float = STRONG_DROP,
    jitter: float = STRONG_JITTER,
) -> np.ndarray:
    """Heavier noise, random coordinate dropout, and per-coordinate scale jitter."""
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    x = np.asarray(x, dtype=np.float64)
    out = x + sigma * scale * rng.standard_normal(x.shape)
    out = np.where(rng.random(x.shape) < drop, 0.0, out)
    return out * rng.uniform(1.0 - jitter, 1.0 + jitter, size=x.shape)


def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset as CSV: feature columns, label, split, outlier flag."""
    dim = dataset.features.shape[1]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"f{i}" for i in range(dim)] + ["label", "split", "outlier"])
        for row, label, split, flag in zip(
            dataset.features, dataset.labels, dataset.split, dataset.outlier
        ):
            writer.writerow(
                [f"{v:.17g}" for v in row] + [int(label), split, int(flag)]
            )


def load_csv(path, spec: SyntheticSpec | None = None) -> Dataset:
    """Read a dataset written by :func:`save_csv`."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        dim = sum(1 for name in header if name.startswith("f"))
        rows = list(reader)
    features = np.array([[float(v) for v in r[:dim]] for r in rows])
    labels = np.array([int(r[dim]) for r in rows])
    split = np.array([r[dim + 1] for r in rows])
    outlier = np.array([bool(int(r[dim + 2])) for r in rows])
    clean = features[(split != "test") & ~outlier]
    feature_scale = np.maximum(clean.std(axis=0), 1e-12)
    if spec is None:
        spec = SyntheticSpec(
            n_classes=int(labels.max()) + 1,
            ambient_dim=dim,
            n_unlabeled=int((split == "unlabeled").sum()),
            n_test=int((split == "test").sum()),
            labels_per_class=max(
                1, int((split == "labeled").sum()) // (int(labels.max()) + 1)
            ),
        )
    # class means stand in for the lifted centers, which the CSV lacks
    centers = np.stack([
        features[(labels == c) & ~outlier].mean(axis=0)
        if ((labels == c) & ~outlier).any() else np.zeros(dim)
        for c in range(spec.n_classes)
    ])
    return Dataset(spec, features, labels, split, outlier, feature_scale, centers)
