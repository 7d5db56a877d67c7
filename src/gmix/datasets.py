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
        for name in ("labels_per_class", "n_unlabeled", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.labels_per_class * self.n_classes > self.n_unlabeled:
            raise ValueError("labeled budget exceeds the unlabeled pool size")
        if not 0.0 <= self.outlier_frac < 0.5:
            raise ValueError("outlier_frac must be in [0, 0.5)")
        if self.cluster_noise <= 0.0:
            raise ValueError("cluster_noise must be positive")
        if self.seed < 0:
            raise ValueError("the dataset seed must be nonnegative")


@dataclass(frozen=True)
class Dataset:
    """The labeled, unlabeled and test splits of a generated dataset.

    Labels are -1 for injected outliers, which only the unlabeled pool
    holds; ``unlabeled_outlier`` flags them. ``feature_scale`` is the
    per-feature standard deviation of the labeled and unlabeled rows before
    the outliers replace some of them; the augmentation operators use it as
    their unit of perturbation.

    Every array is read-only: the training loop samples the splits every
    step. Change the data by building a new instance, for example with
    ``dataclasses.replace``, never in place.
    """

    spec: SyntheticSpec
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    unlabeled_y: np.ndarray
    unlabeled_outlier: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    feature_scale: np.ndarray


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
        # The class center plus the noise, built in place. Adding 0.0 first
        # turns a -0.0 noise value into +0.0, as its sum with a zero center
        # coordinate did; on the first two axes the center's add that
        # follows gives the same value either way.
        angles = 2.0 * math.pi * labels / spec.n_classes
        pts = rng.standard_normal((n, spec.ambient_dim))
        pts *= noise
        pts += 0.0
        pts[:, 0] += np.cos(angles)
        pts[:, 1] += np.sin(angles)
        return pts
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

    # Each split's lifted points are written straight into its rows.
    labels = np.concatenate([labeled_y, unlabeled_y, test_y])
    features = np.empty((labels.shape[0], spec.ambient_dim))
    lo = 0
    for y in (labeled_y, unlabeled_y, test_y):
        rows = features[lo:lo + y.shape[0]]
        np.matmul(_base_points(spec, y, rng), affine, out=rows)
        rows += offset
        np.tanh(rows, out=rows)
        lo += y.shape[0]

    # The scale and the outlier radius come from the clean training rows,
    # read before any outlier is written over them.
    n_train = n_labeled + spec.n_unlabeled
    train_clean = features[:n_train]
    feature_scale = np.maximum(train_clean.std(axis=0), 1e-12)

    outlier = np.zeros(labels.shape[0], dtype=bool)
    n_out = round(spec.outlier_frac * spec.n_unlabeled)
    if n_out:
        radius = float(np.linalg.norm(train_clean, axis=1).max())
        idx = n_labeled + rng.choice(spec.n_unlabeled, size=n_out, replace=False)
        features[idx] = rng.uniform(-5.0 * radius, 5.0 * radius, size=(n_out, spec.ambient_dim))
        outlier[idx] = True
        labels[idx] = -1

    # Read-only before slicing, so every split's row range is read-only too.
    for array in (features, labels, outlier, feature_scale):
        array.setflags(write=False)
    pool = slice(n_labeled, n_train)
    return Dataset(
        spec,
        labeled_x=features[:n_labeled], labeled_y=labels[:n_labeled],
        unlabeled_x=features[pool], unlabeled_y=labels[pool], unlabeled_outlier=outlier[pool],
        test_x=features[n_train:], test_y=labels[n_train:], feature_scale=feature_scale,
    )


def augment_weak(x: np.ndarray, scale: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Additive isotropic Gaussian noise at ``WEAK_NOISE`` of the feature scale."""
    x = np.asarray(x, dtype=np.float64)
    return x + WEAK_NOISE * scale * rng.standard_normal(x.shape)


def augment_strong(x: np.ndarray, scale: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Heavier noise, random coordinate dropout, and per-coordinate scale jitter."""
    x = np.asarray(x, dtype=np.float64)
    out = x + STRONG_NOISE * scale * rng.standard_normal(x.shape)
    out = np.where(rng.random(x.shape) < STRONG_DROP, 0.0, out)
    return out * rng.uniform(1.0 - STRONG_JITTER, 1.0 + STRONG_JITTER, size=x.shape)
