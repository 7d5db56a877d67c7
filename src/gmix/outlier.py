"""Mahalanobis-distance outlier gate over the latent space.

A sample's score aggregates its Mahalanobis distances to every cluster
(max by default; min treats a sample as an inlier if any cluster is
close). The threshold is the nearest-rank percentile of scores over the
labeled population, so at the default 90th percentile at most 10% of
labeled samples can ever be flagged. Scoring is detached from training:
everything here is plain numpy on frozen head parameters, computed in row
blocks so that a large pool never builds its full (n, K, D) residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .heads import squared_residual_blocks

GATE_MODES = ("max", "min")


@dataclass
class OutlierGate:
    """Percentile-thresholded score gate with a cached threshold.

    An unfitted gate rejects nothing; callers can check ``fitted``
    before masking. ``refresh_every`` is the training-step cadence at
    which the threshold is refit on current labeled embeddings.
    """

    percentile: float = 90.0
    mode: str = "max"
    refresh_every: int = 50
    tau: float | None = field(default=None)

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.mode not in GATE_MODES:
            raise ValueError(f"mode must be one of {GATE_MODES}")
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be at least 1")

    @property
    def fitted(self) -> bool:
        return self.tau is not None


def scores(head, z: np.ndarray, mode: str = "max") -> np.ndarray:
    """Aggregated Mahalanobis score of each sample, shape (n,).

    A single sample may be given as a 1-D vector. Embeddings whose width
    is not the head's latent dimension raise ``ValueError``.
    """
    if mode not in GATE_MODES:
        raise ValueError(f"mode must be one of {GATE_MODES}")
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    variances = head.variances()
    if np.any(variances <= 0.0):
        raise ValueError("variances must be strictly positive")
    aggregate = np.max if mode == "max" else np.min
    out = np.empty(z.shape[0])
    for lo, hi, sq in squared_residual_blocks(z, head.centers.value):
        np.divide(sq, variances, out=sq)
        dist = sq.sum(axis=2)
        np.sqrt(dist, out=dist)
        aggregate(dist, axis=1, out=out[lo:hi])
    return out


def nearest_rank_percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: no interpolation, reproducible on tiny samples."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.size
    if n == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(values[rank - 1])


def fit_threshold(gate: OutlierGate, labeled_z: np.ndarray, head) -> float:
    """Fit the gate's threshold from labeled-population scores; caches tau."""
    labeled_z = np.asarray(labeled_z, dtype=np.float64)
    if labeled_z.shape[0] == 0:
        raise ValueError("cannot fit a threshold on an empty labeled set")
    s = scores(head, labeled_z, gate.mode)
    gate.tau = nearest_rank_percentile(s, gate.percentile)
    return gate.tau


def mask(gate: OutlierGate, head, unlabeled_z: np.ndarray) -> np.ndarray:
    """Inlier mask (True = keep): samples scoring strictly above tau are dropped."""
    if not gate.fitted:
        raise ValueError("gate is unfitted; fit_threshold first")
    return scores(head, unlabeled_z, gate.mode) <= gate.tau
