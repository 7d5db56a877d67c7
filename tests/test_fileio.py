"""Run artifacts are written whole or not at all: a write that fails
part-way leaves neither a partial file nor a temporary one, and a file
already at the path keeps its old bytes."""

import errno
import json
import os

import numpy as np
import pytest

from gmix import cli, metrics, pipeline
from gmix.checkpoint import save_checkpoint
from gmix.config import parse_config_text
from gmix.fileio import atomic_write
from gmix.metrics import CSV_COLUMNS, EvalResult, MetricsReport, StepStats


def listing(directory):
    return sorted(p.name for p in directory.iterdir())


def raising_after(calls, fn, exc):
    """``fn`` for the first ``calls`` calls, then ``exc`` raised."""
    count = 0

    def wrapped(*args, **kwargs):
        nonlocal count
        count += 1
        if count > calls:
            raise exc
        return fn(*args, **kwargs)

    return wrapped


class TestCheckpoint:
    BAD = {"a": np.zeros(3), "b": "not a number"}  # fails after "a" is written

    def test_failed_save_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "checkpoint.bin", self.BAD)
        assert listing(tmp_path) == []

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, {"a": np.ones(3)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(path, self.BAD)
        assert path.read_bytes() == before
        assert listing(tmp_path) == ["checkpoint.bin"]


class TestMetricsCsv:
    @staticmethod
    def report():
        report = MetricsReport()
        for step in (0, 10):
            report.append(step, StepStats(), EvalResult(0.5, np.ones(2), 0.5))
        return report

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.csv"
        path.write_text("old\n")
        # Fail in the middle of the second row.
        failing = raising_after(len(CSV_COLUMNS) + 3, metrics._fmt, OSError("disk full"))
        monkeypatch.setattr(metrics, "_fmt", failing)
        with pytest.raises(OSError, match="disk full"):
            self.report().to_csv(path)
        assert path.read_text() == "old\n"
        assert listing(tmp_path) == ["metrics.csv"]

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(metrics, "_fmt", raising_after(2, metrics._fmt, OSError("disk full")))
        with pytest.raises(OSError):
            self.report().to_csv(tmp_path / "metrics.csv")
        assert listing(tmp_path) == []


class TestManifest:
    def test_failed_write_keeps_the_old_run(self, tmp_path, monkeypatch):
        config, spec, _ = parse_config_text("run.steps = 2\nrun.eval_every = 1\n")
        pipeline.run(config, spec, out_dir=tmp_path)
        before = {name: (tmp_path / name).read_bytes() for name in listing(tmp_path)}
        assert sorted(before) == ["checkpoint.bin", "manifest.json", "metrics.csv"]

        def partial_dump(obj, f, **kwargs):
            f.write('{"seed": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", partial_dump)
        with pytest.raises(OSError, match="disk full"):
            pipeline.run(config, spec, out_dir=tmp_path)
        assert listing(tmp_path) == sorted(before)
        assert (tmp_path / "manifest.json").read_bytes() == before["manifest.json"]


class TestExportEmbeddings:
    def test_failed_export_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("run.steps = 2\nrun.eval_every = 1\n")
        config, spec, _ = parse_config_text(config_path.read_text())
        pipeline.run(config, spec, out_dir=tmp_path / "run")
        tsv = tmp_path / "emb.tsv"
        args = ["export-embeddings", str(config_path),
                "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"), "--out", str(tsv)]
        real_scores = cli.outlier_scores

        def scores_failing_at_row_3(*a):
            def rows():
                yield from real_scores(*a)[:2]
                raise OSError("disk full")
            return rows()

        monkeypatch.setattr(cli, "outlier_scores", scores_failing_at_row_3)
        assert cli.main(args) == 1
        assert "error: disk full" in capsys.readouterr().err
        assert listing(tmp_path) == ["run", "run.cfg"]

        monkeypatch.setattr(cli, "outlier_scores", real_scores)
        assert cli.main(args) == 0
        before = tsv.read_bytes()
        monkeypatch.setattr(cli, "outlier_scores", scores_failing_at_row_3)
        assert cli.main(args) == 1
        assert tsv.read_bytes() == before
        assert listing(tmp_path) == ["emb.tsv", "run", "run.cfg"]

    # The open of the temporary file fails in a missing directory; the
    # final rename fails onto a directory.
    @pytest.mark.parametrize("name, code", [("missing/x.tsv", errno.ENOENT),
                                            ("adir", errno.EISDIR)])
    def test_unwritable_out_names_the_requested_path(self, tmp_path, capsys, name, code):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("run.steps = 2\nrun.eval_every = 1\n")
        config, spec, _ = parse_config_text(config_path.read_text())
        pipeline.run(config, spec, out_dir=tmp_path / "run")
        (tmp_path / "adir").mkdir()
        out = tmp_path / name
        assert cli.main(["export-embeddings", str(config_path), "--checkpoint",
                         str(tmp_path / "run" / "checkpoint.bin"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {code}] {os.strerror(code)}: '{out}'\n"
        )
        assert listing(tmp_path) == ["adir", "run", "run.cfg"]
        assert listing(tmp_path / "adir") == []


class TestAtomicWrite:
    def test_failed_rename_names_the_path_and_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "adir"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            with atomic_write(target) as f:
                f.write("x")
        assert str(target) in str(info.value) and ".tmp" not in str(info.value)
        assert listing(tmp_path) == ["adir"]
