"""Mahalanobis-distance outlier gate over the latent space.

A sample's score aggregates its Mahalanobis distances to every cluster
(max by default; min treats a sample as an inlier if any cluster is
close). The threshold is the nearest-rank percentile of scores over the
labeled population, so at the default 90th percentile at most 10% of
labeled samples can ever be flagged. Scoring is detached from training:
everything here is plain numpy on frozen head parameters.

Scores take the squared distances from ``heads.squared_distance_blocks``:
row blocks of about ``heads.DISTANCE_BLOCK_ENTRIES`` entries laid out
dimension-major, (D, K, rows), in one reused buffer, summed over D in
numpy's pairwise order. The max or min over clusters is
taken before the square root, which is monotone, so each row needs one
root. Every score equals the dense formula's bit for bit, and a large pool
never builds its full (n, K, D) residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError
from .heads import squared_distance_blocks

GATE_MODES = ("max", "min")


@dataclass
class OutlierGate:
    """Percentile-thresholded score gate with a cached threshold.

    It holds only what scoring reads: ``percentile``, ``mode`` and the
    fitted ``tau``. An unfitted gate rejects nothing; callers can check
    ``fitted`` before masking.
    """

    percentile: float = 90.0
    mode: str = "max"
    tau: float | None = field(default=None)

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.mode not in GATE_MODES:
            raise ValueError(f"mode must be one of {GATE_MODES}")

    @property
    def fitted(self) -> bool:
        return self.tau is not None


def scores(head, z: np.ndarray, mode: str = "max") -> np.ndarray:
    """Aggregated Mahalanobis score of each sample, shape (n,).

    A single sample may be given as a 1-D vector. Embeddings whose width
    is not the head's latent dimension raise ``ValueError``. Variances
    that are not finite raise ``NonFiniteError``: an infinite variance
    would score every sample 0 and keep it. A variance of 0 (``exp``
    underflows to it below a log variance of about -745) raises
    ``FloatingPointError``: every distance would divide by zero.
    """
    if mode not in GATE_MODES:
        raise ValueError(f"mode must be one of {GATE_MODES}")
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    variances = head.variances()
    if np.any(variances <= 0.0):
        raise FloatingPointError(f"{head.kind} head variances underflowed to 0")
    if not np.all(np.isfinite(variances)):
        raise NonFiniteError(f"{head.kind} head variances are not finite")
    aggregate = np.maximum.reduce if mode == "max" else np.minimum.reduce
    out = np.empty(z.shape[0])
    for lo, hi, quad in squared_distance_blocks(z, head.centers.value, variances, np.divide):
        aggregate(quad, axis=0, out=out[lo:hi])
    # sqrt is monotone, so the root of the extreme squared distance is the
    # extreme distance: one root per row instead of one per cluster.
    np.sqrt(out, out=out)
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
