"""Evaluation quantities and the per-run metrics table.

Empty-set conventions keep early-training rows well-defined: keeping no
pseudo-labels yields accuracy 1 (there is nothing to be wrong about yet).
The CSV schema is documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fileio import atomic_write

CSV_COLUMNS = (
    "step",
    "loss_sup",
    "loss_unsup",
    "loss_mom_total",
    "loss_mom_p1",
    "loss_mom_p2",
    "loss_mom_p3",
    "loss_mom_p4",
    "pseudo_rate",
    "pseudo_acc",
    "outlier_tau",
    "outlier_rate",
    "test_acc",
    "compactness",
)


@dataclass
class MetricsReport:
    """Ordered evaluation rows; steps strictly increase, entries stay finite."""

    rows: list[dict] = field(default_factory=list)

    def append(self, row: dict) -> None:
        missing = set(CSV_COLUMNS) - set(row)
        if missing:
            raise ValueError(f"metrics row is missing columns: {sorted(missing)}")
        if self.rows and row["step"] <= self.rows[-1]["step"]:
            raise ValueError("metrics steps must strictly increase")
        for key in CSV_COLUMNS:
            if not np.isfinite(row[key]):
                raise ValueError(f"non-finite metrics entry {key}={row[key]!r}")
        self.rows.append({k: row[k] for k in CSV_COLUMNS})

    def to_csv(self, path) -> None:
        with atomic_write(path) as f:
            f.write(",".join(CSV_COLUMNS) + "\n")
            for row in self.rows:
                f.write(",".join(_fmt(row[k]) for k in CSV_COLUMNS) + "\n")

    @property
    def final(self) -> dict:
        if not self.rows:
            raise ValueError("report is empty")
        return self.rows[-1]


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def compactness(z: np.ndarray, assignments: np.ndarray, centers: np.ndarray) -> float:
    """Mean L2 distance from each point to its assigned cluster center."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] == 0:
        raise ValueError("compactness of an empty sample")
    assignments = np.asarray(assignments)
    if assignments.min() < 0 or assignments.max() >= centers.shape[0]:
        raise ValueError("assignments out of range")
    return float(np.linalg.norm(z - centers[assignments], axis=1).mean())


def pseudo_quality(kept, pseudo_labels, true_labels) -> tuple[float, float]:
    """Kept fraction and accuracy over kept samples (1.0 when none kept)."""
    kept = np.asarray(kept, dtype=bool)
    pseudo_labels = np.asarray(pseudo_labels)
    true_labels = np.asarray(true_labels)
    if not (kept.shape == pseudo_labels.shape == true_labels.shape):
        raise ValueError("inputs differ in length")
    rate = float(kept.mean()) if kept.size else 0.0
    if not kept.any():
        return rate, 1.0
    acc = float((pseudo_labels[kept] == true_labels[kept]).mean())
    return rate, acc
