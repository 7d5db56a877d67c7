"""Config-file parsing contracts and CLI subcommand behavior."""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gmix
from gmix import cli, moments, outlier
from gmix.autodiff import Tensor
from gmix.cli import main
from gmix.config import SCHEMA, ConfigError, _lookup, config_hash, parse_config_text
from gmix.datasets import SyntheticSpec, generate
from gmix.pipeline import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"

TINY_RUN = """
# quick desk run
run.steps = 20
run.eval_every = 10
ssl.labeled_batch = 8
ssl.unlabeled_ratio = 2
head.latent_dim = 4
data.classes = 4
data.ambient = 8
data.unlabeled = 300
data.test = 100
data.noise = 0.12
"""

# A config that breaks one dataclass constraint, and the message it gives.
CONSTRAINT_VIOLATIONS = [
    ("mom.weights = 1,1,1", "mom.weights must have 4 entries"),
    ("mom.weights = 1,-1,1,1", "mom.weights must be nonnegative"),
    ("mom.orders = 5", "mom.orders must be in 0..4"),
    ("gate.percentile = 0", "gate.percentile must be in (0, 100]"),
    ("opt.lr = 0", "opt.lr must be positive"),
    ("opt.clip_norm = 0", "opt.clip_norm must be positive"),
    ("opt.momentum = 1", "opt.momentum must be in [0, 1)"),
    ("opt.weight_decay = -1", "opt.weight_decay must be nonnegative"),
    ("ssl.lambda_u = -1", "ssl.lambda_u must be nonnegative"),
    ("ssl.conf_threshold = 0", "ssl.conf_threshold must be in (0, 1]"),
    ("ssl.ema_decay = 1", "ssl.ema_decay must be in [0, 1)"),
    ("run.steps = -1", "run.steps must be nonnegative"),
    ("run.eval_every = 0", "run.eval_every must be at least 1"),
    ("ssl.labeled_batch = 0", "ssl.labeled_batch must be at least 1"),
    ("ssl.unlabeled_ratio = 0", "ssl.unlabeled_ratio must be at least 1"),
    ("head.latent_dim = 0", "head.latent_dim must be at least 1"),
    ("gate.refresh = 0", "gate.refresh must be at least 1"),
    ("data.classes = 1", "data.classes must be at least 2"),
    ("data.labels_per_class = 0", "data.labels_per_class must be at least 1"),
    ("data.unlabeled = 0", "data.unlabeled must be at least 1"),
    ("data.test = 0", "data.test must be at least 1"),
    ("data.outlier_frac = 0.5", "data.outlier_frac must be in [0, 0.5)"),
    ("data.noise = 0", "data.noise must be positive"),
    ("head.kind = linear\ngate.enabled = true", "the outlier gate needs a mixture head"),
    ("run.seed = -1", "run.seed must be nonnegative"),
    ("data.seed = -1", "data.seed must be nonnegative"),
]

# Every key whose default is a float or a tuple of floats.
FLOAT_KEYS = [
    key for key, k in SCHEMA.items()
    if isinstance(_lookup({"run": RunConfig(), "data": SyntheticSpec()}, k.path), (float, tuple))
]


class TestParsing:
    def test_empty_file_is_all_defaults(self):
        config, data, flat = parse_config_text("")
        assert config.steps == 4000
        assert config.lr == 0.03
        assert config.conf_threshold == 0.95
        assert data.n_classes == 8
        assert flat["mom.orders"] == "1"

    def test_inclusive_lower_orders(self):
        config, _, _ = parse_config_text("head.kind=aagmm\nmom.orders=2\n")
        assert config.head_kind == "aagmm"
        assert config.moments.max_order == 2
        assert sorted(p for p in range(1, config.moments.max_order + 1)) == [1, 2]

    def test_comments_and_blank_lines(self):
        config, _, _ = parse_config_text("\n# comment\nrun.seed = 7  # trailing\n\n")
        assert config.seed == 7

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match=":3: unknown key 'run.sped'"):
            parse_config_text("\n\nrun.sped=1\n")

    def test_type_error_with_line_number(self):
        with pytest.raises(ConfigError, match=":1: bad value for run.steps"):
            parse_config_text("run.steps=soon\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("run.seed=1\nrun.seed=2\n")

    def test_constraint_violation_reported(self):
        with pytest.raises(ConfigError, match="percentile"):
            parse_config_text("gate.percentile=150\ngate.enabled=true\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_config_text("run.steps\n")

    def test_enum_value_rejected(self):
        with pytest.raises(ConfigError, match="one of"):
            parse_config_text("head.kind=quadratic\n")

    def test_gate_needs_mixture_head(self):
        with pytest.raises(ConfigError, match="mixture head"):
            parse_config_text("head.kind=linear\ngate.enabled=true\nmom.orders=0\n")

    def test_mom_weights_wrong_length(self):
        with pytest.raises(ConfigError, match="4 entries"):
            parse_config_text("mom.weights=1.0,0.5\n")

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_float_rejected_with_line_number(self, key, value):
        with pytest.raises(ConfigError, match=f":2: bad value for {key}: expected a finite"):
            parse_config_text(f"run.seed = 1\n{key} = {value}\n")

    def test_two_moons_class_count_checked(self):
        with pytest.raises(ConfigError, match="two-moons"):
            parse_config_text("data.kind=two-moons\ndata.classes=5\n")


class TestFlatten:
    def test_flatten_covers_every_key_and_roundtrips(self):
        config, data, flat = parse_config_text("run.seed=9\nmom.weights=1.0,1.0,1.0,1.0\n")
        text = "\n".join(f"{k}={v}" for k, v in flat.items())
        config2, data2, flat2 = parse_config_text(text)
        assert config2 == config
        assert data2 == data
        assert flat2 == flat

    def test_hash_stable_and_sensitive(self):
        _, _, flat = parse_config_text("")
        h1 = config_hash(flat)
        assert len(h1) == 12
        _, _, flat2 = parse_config_text("run.seed=1\n")
        assert config_hash(flat2) != h1

    @pytest.mark.parametrize("text, expected", [
        ("", "838f0f3ace15"),
        ("mom.orders = 4\n", "feb997043031"),
    ])
    def test_hash_pinned(self, text, expected):
        # Run directories are named by this hash; a change renames them all.
        _, _, flat = parse_config_text(text)
        assert config_hash(flat) == expected


def readme_defaults() -> dict[str, str]:
    """The key and default columns of the README's config table."""
    lines = README.read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows[key] = default
    return rows


def readme_synopsis() -> dict[str, str]:
    """Each subcommand's line of the README's CLI synopsis, by name."""
    block = README.read_text().split("## CLI\n", 1)[1].split("```")[1]
    return {line.split()[1]: line for line in block.splitlines() if line.startswith("gmix ")}


class TestReadmeTable:
    def test_rows_are_the_schema_keys(self):
        assert list(readme_defaults()) == list(SCHEMA)

    def test_defaults_match_the_dataclasses(self):
        roots = {"run": RunConfig(), "data": SyntheticSpec()}
        for key, text in readme_defaults().items():
            assert SCHEMA[key].parse(text) == _lookup(roots, SCHEMA[key].path), key

    def test_synopsis_shows_every_option_of_each_subcommand(self):
        # An option with choices is shown with them: --split labeled|unlabeled|test.
        (subcommands,) = [a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)]
        lines = readme_synopsis()
        assert list(lines) == list(subcommands.choices)
        for name, parser in subcommands.choices.items():
            for action in parser._actions:
                for option in action.option_strings:
                    if not option.startswith("--") or option == "--help":
                        continue
                    choices = "" if action.choices is None else " " + "|".join(action.choices)
                    shown = option + choices
                    assert re.search(re.escape(shown) + r"(?![\w-])", lines[name]), (name, shown)


class TestCli:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_gradcheck_quick_passes(self, capsys):
        assert main(["gradcheck", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_moments_selftest(self, capsys):
        code = main(["moments-selftest", "--dim", "4", "--repeats", "3",
                     "--samples", "200", "--csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "order,hyperdiags,class_size,weight" in out
        patterns = out.split("pattern,target\n")[1].split("\n\n")[0].splitlines()
        assert patterns == ["i,0", "ii,1", "ij,0", "iii,0", "iij,0", "ijk,0",
                            "iiii,3", "iijj,1", "iiij,0", "iijk,0", "ijkl,0"]
        assert "self-test passed" in out

    def test_moments_selftest_fails_on_a_wrong_class_size(self, capsys, monkeypatch):
        def off_by_one(p, dim, h):
            return moments.class_size(p, dim, h) + (h == 0)

        monkeypatch.setattr(cli, "class_size", off_by_one)
        code = main(["moments-selftest", "--dim", "4", "--repeats", "2", "--samples", "20"])
        assert code == 1
        assert "self-test FAILED (dim=4)" in capsys.readouterr().out

    @pytest.mark.parametrize("args, message", [
        (["--max-order", "5"], "error: --max-order must be in 1..4"),
        (["--max-order", "0"], "error: --max-order must be in 1..4"),
        (["--dim", "0"], "error: --dim must be at least 1"),
        (["--repeats", "1"], "error: --repeats must be at least 2"),
    ])
    def test_moments_selftest_rejects_out_of_range(self, capsys, args, message):
        code = main(["moments-selftest", "--samples", "20", *args])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(message)
        assert "self-test passed" not in captured.out

    def test_train_eval_export_cycle(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        out_root = tmp_path / "runs"
        assert main(["train", str(config_path), "--out-root", str(out_root)]) == 0
        run_dirs = list(out_root.iterdir())
        assert len(run_dirs) == 1
        run_dir = run_dirs[0]
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "manifest.json").exists()
        ckpt = run_dir / "checkpoint.bin"
        assert ckpt.exists()

        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["run.steps"] == "20"

        assert main(["eval", str(config_path), "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "test_acc=" in out

        tsv = tmp_path / "emb.tsv"
        assert main([
            "export-embeddings", str(config_path),
            "--checkpoint", str(ckpt), "--out", str(tsv), "--split", "test",
        ]) == 0
        header = tsv.read_text().splitlines()[0].split("\t")
        assert header == [f"z{i}" for i in range(4)] + ["label", "predicted", "score"]
        assert len(tsv.read_text().splitlines()) == 101

    def test_export_embeddings_of_the_training_splits(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN + "data.outlier_frac = 0.1\n")
        out_root = tmp_path / "runs"
        assert main(["train", str(config_path), "--out-root", str(out_root)]) == 0
        ckpt = next(out_root.iterdir()) / "checkpoint.bin"
        _, data_spec, _ = parse_config_text(config_path.read_text())
        dataset = generate(data_spec)
        n_labeled = data_spec.n_classes * data_spec.labels_per_class
        for split, size in [("labeled", n_labeled), ("unlabeled", data_spec.n_unlabeled)]:
            tsv = tmp_path / f"{split}.tsv"
            assert main([
                "export-embeddings", str(config_path),
                "--checkpoint", str(ckpt), "--out", str(tsv), "--split", split,
            ]) == 0
            rows = [line.split("\t") for line in tsv.read_text().splitlines()[1:]]
            assert len(rows) == size
            labels = np.array([int(row[4]) for row in rows])
            np.testing.assert_array_equal(labels, getattr(dataset, f"{split}_y"))
        assert np.count_nonzero(dataset.unlabeled_outlier) == 30
        np.testing.assert_array_equal(labels == -1, dataset.unlabeled_outlier)

    @pytest.mark.parametrize("extra", [
        "gate.mode = min\n",
        "head.kind = linear\nmom.mode = global\n",
    ], ids=["aagmm", "linear"])
    def test_export_embeddings_score_column(self, tmp_path, extra):
        # A mixture head exports the gate's Mahalanobis score; the linear
        # head, which has no clusters, its maximum class probability.
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN + extra)
        out_root = tmp_path / "runs"
        assert main(["train", str(config_path), "--out-root", str(out_root)]) == 0
        ckpt = next(out_root.iterdir()) / "checkpoint.bin"
        tsv = tmp_path / "emb.tsv"
        assert main([
            "export-embeddings", str(config_path), "--checkpoint", str(ckpt), "--out", str(tsv),
        ]) == 0
        rows = [line.split("\t") for line in tsv.read_text().splitlines()[1:]]
        config, data_spec, _ = parse_config_text(config_path.read_text())
        _, state = cli._load_state_for(config, data_spec, ckpt)
        z = state.backbone.embed(Tensor(generate(data_spec).test_x)).data
        np.testing.assert_array_equal([row[:4] for row in rows],
                                      [[f"{v:.10g}" for v in r] for r in z])
        column = [row[6] for row in rows]
        if state.head.generative:
            expected = outlier.scores(state.head, z, config.gate.mode)
            assert column == [f"{s:.10g}" for s in expected]
        else:
            logits = z @ state.head.weight.value + state.head.bias.value
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            expected = (probs / probs.sum(axis=1, keepdims=True)).max(axis=1)
            assert np.all(expected >= 1.0 / data_spec.n_classes)
            np.testing.assert_allclose(np.array(column, dtype=float), expected,
                                       rtol=1e-9, atol=0)

    def test_eval_reports_the_manifest_accuracy_with_ema(self, tmp_path, capsys):
        config_path = tmp_path / "ema.cfg"
        config_path.write_text(TINY_RUN + "ssl.ema_decay = 0.9\n")
        out_root = tmp_path / "runs"
        assert main(["train", str(config_path), "--out-root", str(out_root)]) == 0
        run_dir = next(out_root.iterdir())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        capsys.readouterr()
        ckpt = run_dir / "checkpoint.bin"
        assert main(["eval", str(config_path), "--checkpoint", str(ckpt)]) == 0
        expected = manifest["final_metrics"]["test_acc"]
        assert f"test_acc={expected:.4f}" in capsys.readouterr().out

    def test_eval_on_truncated_checkpoint(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        ckpt = tmp_path / "cut.bin"
        ckpt.write_bytes(b"GMIXCKPT\x01\x00\x00\x00\x07\x00")  # 14 bytes, cut in the header
        assert main(["eval", str(config_path), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated checkpoint")

    def test_train_determinism_bytes(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        root_a, root_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", str(config_path), "--out-root", str(root_a)]) == 0
        assert main(["train", str(config_path), "--out-root", str(root_b)]) == 0
        csv_a = next(root_a.iterdir()) / "metrics.csv"
        csv_b = next(root_b.iterdir()) / "metrics.csv"
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("run.steps=never\n")
        assert main(["train", str(config_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_diverging_run_prints_one_error_line(self, tmp_path):
        # A learning rate of 1e6 moves the weights so far in one clipped step
        # that the second step's log joint overflows.
        config_path = tmp_path / "diverge.cfg"
        config_path.write_text(TINY_RUN + "opt.lr = 1e6\n")
        out_root = tmp_path / "runs"
        env = {**os.environ, "PYTHONPATH": str(Path(gmix.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "gmix.cli", "train", str(config_path),
             "--out-root", str(out_root)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: step 2: log_joint produced a non-finite value"]
        assert not out_root.exists()

    @pytest.mark.parametrize("line", [
        "data.ambient = 1000000000",  # a 6.94 EiB draw: MemoryError
        "ssl.labeled_batch = 100000000000000000000",  # past a C long: OverflowError
        "data.test = 100000000000000000000",
    ], ids=["ambient", "labeled_batch", "test"])
    def test_size_beyond_the_address_space_prints_one_error_line(self, tmp_path, capsys, line):
        # Only sizes past the address space, which numpy refuses before
        # allocating: a merely huge one could start filling memory on a
        # host that overcommits.
        config_path = tmp_path / "huge.cfg"
        config_path.write_text(f"run.steps = 2\nrun.eval_every = 1\n{line}\n")
        out_root = tmp_path / "runs"
        assert main(["train", str(config_path), "--out-root", str(out_root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out_root.exists()

    @pytest.mark.parametrize("sig, code, line", [
        (signal.SIGINT, 130, "error: interrupted"),
        (signal.SIGTERM, 143, "error: terminated"),
    ], ids=["sigint", "sigterm"])
    @pytest.mark.parametrize("args, group", [
        (["train"], False),
        (["sweep", "--grid", "run.seed=0,1", "--jobs", "2"], True),
    ], ids=["train", "sweep"])
    def test_interrupt_prints_one_error_line(self, tmp_path, args, group, sig, code, line):
        # Ctrl-C signals the whole foreground process group; the sweep runs in
        # its own session, so only its parent and pool workers get the signal.
        # A group-wide SIGTERM reaches the workers too.
        config_path = tmp_path / "long.cfg"
        config_path.write_text(TINY_RUN.replace("run.steps = 20", "run.steps = 1000000"))
        out_root = tmp_path / "runs"
        env = {**os.environ, "PYTHONPATH": str(Path(gmix.__file__).parents[1])}
        # Say "ready" once the CLI is imported, so the signal lands in main.
        program = ("import sys; from gmix.cli import main; print('ready', flush=True); "
                   "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.Popen(
            [sys.executable, "-c", program, *args, str(config_path), "--out-root", str(out_root)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=group,
        )
        kill = (lambda sig: os.killpg(proc.pid, sig)) if group else proc.send_signal
        try:
            assert proc.stdout.readline() == "ready\n"
            time.sleep(1.0)  # past argument parsing and the pool workers' start
            kill(sig)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                kill(signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == code
        assert "Traceback" not in stderr
        assert [e for e in stderr.splitlines() if e.startswith("error:")] == [line]
        assert not out_root.exists()

    def test_main_restores_the_callers_sigterm_handler(self, tmp_path):
        def handler(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            assert main(["train", str(tmp_path / "missing.cfg")]) == 1
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_each_constraint_message_names_one_violation(self):
        messages = [message for _, message in CONSTRAINT_VIOLATIONS]
        assert len(set(messages)) == len(messages)

    @pytest.mark.parametrize("text, message", CONSTRAINT_VIOLATIONS,
                             ids=[text.replace("\n", "; ") for text, _ in CONSTRAINT_VIOLATIONS])
    def test_constraint_violation_exits_before_the_run(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text(text + "\n")
        out_root = tmp_path / "runs"
        assert main(["train", str(config_path), "--out-root", str(out_root)]) == 1
        assert capsys.readouterr().err == f"config error: {config_path}: {message}\n"
        assert not out_root.exists()

    def test_eval_with_mismatched_checkpoint_fails(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        out_root = tmp_path / "runs"
        assert main(["train", str(config_path), "--out-root", str(out_root)]) == 0
        ckpt = next(out_root.iterdir()) / "checkpoint.bin"
        other = tmp_path / "other.cfg"
        other.write_text(TINY_RUN + "head.latent_dim = 6\n")
        assert main(["eval", str(other), "--checkpoint", str(ckpt)]) == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_expands_grid(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        out_root = tmp_path / "sweep"
        code = main([
            "sweep", str(config_path), "--grid", "run.seed=0,1",
            "--jobs", "2", "--out-root", str(out_root),
        ])
        assert code == 0
        assert len(list(out_root.iterdir())) == 2
        out = capsys.readouterr().out
        assert "run.seed=0" in out and "run.seed=1" in out

    def test_sweep_jobs_default_to_the_usable_cpus(self, tmp_path, monkeypatch, capsys):
        # One usable CPU runs the combos in this process, without a Pool.
        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep on one usable CPU created a Pool")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli, "Pool", no_pool)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        out_root = tmp_path / "sweep"
        code = main(["sweep", str(config_path), "--grid", "run.seed=0,1",
                     "--out-root", str(out_root)])
        assert code == 0
        assert len(list(out_root.iterdir())) == 2

    def test_sweep_grid_value_replaces_the_files(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)  # sets run.steps = 20
        out_root = tmp_path / "sweep"
        code = main([
            "sweep", str(config_path), "--grid", "run.steps=10,20",
            "--jobs", "1", "--out-root", str(out_root),
        ])
        assert code == 0
        run_dirs = list(out_root.iterdir())
        assert len(run_dirs) == 2
        steps = sorted(json.loads((d / "manifest.json").read_text())["config"]["run.steps"]
                       for d in run_dirs)
        assert steps == ["10", "20"]

    @pytest.mark.parametrize("grid, message", [
        (["run.steps=10,x"], "config error: --grid run.steps: bad value for run.steps: "),
        (["run.steps=10,-1"], "config error: --grid run.steps: run.steps must be nonnegative"),
        (["run.nope=1"], "config error: --grid run.nope: unknown key 'run.nope'"),
        (["run.seed=0", "run.seed=1"],
         "error: bad --grid 'run.seed=1': run.seed is already on the grid"),
    ], ids=["bad-value", "constraint", "unknown-key", "repeated-key"])
    def test_sweep_rejects_a_bad_grid_before_any_run(self, tmp_path, capsys, grid, message):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        out_root = tmp_path / "sweep"
        args = [a for g in grid for a in ("--grid", g)]
        code = main(["sweep", str(config_path), *args, "--jobs", "1", "--out-root", str(out_root)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out_root.exists()

    @pytest.mark.parametrize("values", ["10,10", "10,010"])
    def test_sweep_rejects_combos_with_one_config(self, tmp_path, capsys, values):
        # Both combos would train into the same run directory.
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        out_root = tmp_path / "sweep"
        second = values.split(",")[1]
        code = main([
            "sweep", str(config_path), "--grid", f"run.steps={values}",
            "--jobs", "2", "--out-root", str(out_root),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --grid combos 'run.steps=10' and 'run.steps={second}' give one config\n"
        )
        assert not out_root.exists()

    def test_sweep_config_error_names_the_file_line(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN + "run.steps = 30\n")
        out_root = tmp_path / "sweep"
        code = main([
            "sweep", str(config_path), "--grid", "run.seed=0,1", "--out-root", str(out_root),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: {config_path}:13: duplicate key 'run.steps' (first set on line 3)\n"
        )
        assert not out_root.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        out_root = tmp_path / "sweep"
        code = main([
            "sweep", str(config_path), "--grid", "run.seed=0,1",
            "--jobs", jobs, "--out-root", str(out_root),
        ])
        assert code == 1
        assert f"error: --jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out_root.exists()

    def test_sweep_rejects_grid_without_values(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        out_root = tmp_path / "sweep"
        code = main([
            "sweep", str(config_path), "--grid", "run.seed", "--out-root", str(out_root),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad --grid 'run.seed'")
        assert not out_root.exists()

    def test_out_root_env_var(self, tmp_path, capsys, monkeypatch):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_RUN)
        env_root = tmp_path / "from-env"
        monkeypatch.setenv("GMIX_OUT_ROOT", str(env_root))
        assert main(["train", str(config_path)]) == 0
        assert env_root.exists() and len(list(env_root.iterdir())) == 1
