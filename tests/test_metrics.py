"""Metric conventions and the metrics table contract."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmix.metrics import (
    CSV_COLUMNS,
    EvalResult,
    MetricsReport,
    StepStats,
    compactness,
    pseudo_quality,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def outlier_pr(flags_true, flags_pred) -> tuple[float, float]:
    """Standard precision/recall with the (1, 1) empty-set convention."""
    t = np.asarray(flags_true, dtype=bool)
    p = np.asarray(flags_pred, dtype=bool)
    if t.shape != p.shape:
        raise ValueError("flag vectors differ in length")
    hits = int((t & p).sum())
    precision = hits / int(p.sum()) if p.any() else 1.0
    recall = hits / int(t.sum()) if t.any() else 1.0
    return precision, recall


class TestCompactness:
    def test_points_at_centers(self):
        centers = np.array([[0.0, 0.0], [3.0, 3.0]])
        z = centers[[0, 1, 1]]
        assert compactness(z, [0, 1, 1], centers) == 0.0

    def test_mean_of_distances(self):
        centers = np.array([[0.0], [10.0]])
        z = np.array([[1.0], [13.0]])
        assert compactness(z, [0, 1], centers) == pytest.approx(2.0)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_translation_equivariance(self, dx, dy):
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(3, 2))
        z = rng.normal(size=(20, 2))
        a = rng.integers(0, 3, 20)
        shift = np.array([dx, dy])
        base = compactness(z, a, centers)
        moved = compactness(z + shift, a, centers + shift)
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compactness(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros((2, 2)))

    def test_out_of_range_assignment(self):
        with pytest.raises(ValueError, match="range"):
            compactness(np.zeros((1, 2)), [5], np.zeros((2, 2)))


class TestOutlierPR:
    def test_perfect(self):
        t = np.array([True, False, True])
        assert outlier_pr(t, t) == (1.0, 1.0)

    def test_predict_all(self):
        t = np.zeros(100, dtype=bool)
        t[:5] = True
        p = np.ones(100, dtype=bool)
        precision, recall = outlier_pr(t, p)
        assert precision == pytest.approx(0.05)
        assert recall == 1.0

    def test_predict_none(self):
        t = np.array([True, False])
        p = np.zeros(2, dtype=bool)
        assert outlier_pr(t, p) == (1.0, 0.0)

    def test_both_empty(self):
        z = np.zeros(4, dtype=bool)
        assert outlier_pr(z, z) == (1.0, 1.0)

    def test_recall_monotone_in_predicted_set(self, rng):
        t = rng.random(50) < 0.2
        scores = rng.random(50)
        last = 0.0
        for thresh in (0.8, 0.5, 0.2, 0.0):
            _, recall = outlier_pr(t, scores >= thresh)
            assert recall >= last
            last = recall

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            outlier_pr([True], [True, False])


class TestPseudoQuality:
    def test_all_kept_correct(self):
        kept = np.ones(4, dtype=bool)
        labels = np.arange(4)
        assert pseudo_quality(kept, labels, labels) == (1.0, 1.0)

    def test_half_kept(self):
        kept = np.array([True, True, False, False])
        labels = np.array([0, 1, 2, 3])
        true = np.array([0, 1, 9, 9])
        assert pseudo_quality(kept, labels, true) == (0.5, 1.0)

    def test_none_kept_convention(self):
        kept = np.zeros(3, dtype=bool)
        assert pseudo_quality(kept, np.zeros(3), np.ones(3)) == (0.0, 1.0)


class TestMetricsReport:
    @staticmethod
    def append(report, step, test_acc=0.25, **stats):
        report.append(step, StepStats(**stats), EvalResult(test_acc, np.ones(2), 0.5))

    def test_roundtrip_csv(self, tmp_path):
        report = MetricsReport()
        self.append(report, 0)
        self.append(report, 200, test_acc=0.5)
        path = tmp_path / "metrics.csv"
        report.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_row_is_built_from_the_records(self):
        report = MetricsReport()
        self.append(report, 7, test_acc=0.75, loss_total=9.0, grad_scale=0.5,
                    loss_sup=1.5, loss_mom_p4=2.5, outlier_rate=0.125)
        expected = {k: 0.0 for k in CSV_COLUMNS}
        expected.update(step=7, loss_sup=1.5, loss_mom_p4=2.5, pseudo_acc=1.0,
                        outlier_rate=0.125, test_acc=0.75, compactness=0.5)
        assert list(report.rows[0]) == list(CSV_COLUMNS)
        assert report.final == expected

    def test_steps_must_increase(self):
        report = MetricsReport()
        self.append(report, 10)
        with pytest.raises(ValueError, match="increase"):
            self.append(report, 10)

    def test_entries_must_be_finite(self):
        report = MetricsReport()
        with pytest.raises(ValueError, match="finite"):
            self.append(report, 0, loss_sup=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            self.append(report, 0, test_acc=float("inf"))
        assert report.rows == []


class TestCsvSchema:
    def test_columns_are_the_readme_list(self):
        # Pinned here because the golden digests only run on one machine.
        section = README.read_text().split("## File formats", 1)[1]
        listed = re.search(r"\*\*Metrics CSV\*\*[^`]*`([^`]*)`", section).group(1)
        names = tuple(name.strip() for name in listed.split(","))
        assert len(names) == 14
        assert CSV_COLUMNS == names
