"""Evaluation quantities and the per-run metrics table.

Empty-set conventions keep early-training rows well-defined: keeping no
pseudo-labels yields accuracy 1 (there is nothing to be wrong about yet).
The metrics row's schema lives here and only here: ``StepStats`` declares
its training columns, ``EvalResult`` its evaluation ones, and
``CSV_COLUMNS`` is derived from the two. The README documents the CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .fileio import atomic_write


_NOT_A_COLUMN = {"column": False}


@dataclass(slots=True)
class StepStats:
    """One training step's numbers: the metrics row's training columns.

    The defaults are the step-0 row's values, before any step ran.
    """

    loss_total: float = field(default=0.0, metadata=_NOT_A_COLUMN)
    grad_scale: float = field(default=1.0, metadata=_NOT_A_COLUMN)
    loss_sup: float = 0.0
    loss_unsup: float = 0.0
    loss_mom_total: float = 0.0
    loss_mom_p1: float = 0.0
    loss_mom_p2: float = 0.0
    loss_mom_p3: float = 0.0
    loss_mom_p4: float = 0.0
    pseudo_rate: float = 0.0
    pseudo_acc: float = 1.0  # nothing kept, nothing wrong
    outlier_tau: float = 0.0
    outlier_rate: float = 0.0


@dataclass
class EvalResult:
    accuracy: float
    per_class: np.ndarray
    compactness: float


_TRAIN_COLUMNS = tuple(f.name for f in fields(StepStats) if f.metadata.get("column", True))
CSV_COLUMNS = ("step", *_TRAIN_COLUMNS, "test_acc", "compactness")


@dataclass
class MetricsReport:
    """Ordered evaluation rows; steps strictly increase, entries stay finite."""

    rows: list[dict] = field(default_factory=list)

    def append(self, step: int, stats: StepStats, ev: EvalResult) -> None:
        if self.rows and step <= self.rows[-1]["step"]:
            raise ValueError("metrics steps must strictly increase")
        row = {"step": step, **{k: getattr(stats, k) for k in _TRAIN_COLUMNS},
               "test_acc": ev.accuracy, "compactness": ev.compactness}
        for key, value in row.items():
            if not np.isfinite(value):
                raise ValueError(f"non-finite metrics entry {key}={value!r}")
        self.rows.append(row)

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
