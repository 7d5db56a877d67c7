"""Fuzzing the two readers of outside input, checkpoint files and config
text, and whole runs of valid configs.

Every input, however mangled, must give a value or the reader's
documented error, a ``ValueError`` (``ConfigError`` is one), which the
CLI turns into an error line and exit 1; never another exception. Every
valid config must run, or fault with a ``FloatingPointError`` that names
its step.
"""

import math
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gmix.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from gmix.config import SCHEMA, _fmt_value, _lookup, parse_config_text
from gmix.datasets import DATASET_KINDS
from gmix.heads import HEAD_KINDS
from gmix.moments import MODES
from gmix.outlier import GATE_MODES
from gmix.pipeline import MOM_VIEWS, run

# The guard fixture is set up once per test, not per example; that is fine.
FUZZ = settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])


def valid_checkpoint() -> bytes:
    fd, path = tempfile.mkstemp()
    os.close(fd)
    try:
        save_checkpoint(path, {
            "backbone.w0": np.arange(6.0).reshape(2, 3),
            "scalar": np.array(1.5),
            "é": np.zeros((0, 4)),
        })
        with open(path, "rb") as f:
            return f.read()
    finally:
        os.remove(path)


VALID = valid_checkpoint()


def load_bytes(data: bytes):
    """``load_checkpoint`` of ``data``: the arrays, or None for a ``ValueError``."""
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        try:
            return load_checkpoint(path)
        except ValueError:
            return None
    finally:
        os.remove(path)


class TestCheckpointFuzz:
    def test_the_valid_file_loads(self, guarded_checkpoint_reads):
        loaded = load_bytes(VALID)
        assert list(loaded) == ["backbone.w0", "scalar", "é"]
        assert loaded["é"].shape == (0, 4)

    @FUZZ
    @given(cut=st.integers(0, len(VALID) - 1))
    def test_truncation(self, guarded_checkpoint_reads, cut):
        assert load_bytes(VALID[:cut]) is None

    @FUZZ
    @given(flips=st.lists(st.integers(0, 8 * len(VALID) - 1), min_size=1, max_size=4))
    def test_bit_flips(self, guarded_checkpoint_reads, flips):
        data = bytearray(VALID)
        for bit in flips:
            data[bit // 8] ^= 1 << (bit % 8)
        loaded = load_bytes(bytes(data))
        if loaded is not None:
            assert all(a.dtype == np.float64 for a in loaded.values())

    @FUZZ
    @given(count=st.integers(0, 2**32 - 1), body=st.binary(max_size=200))
    def test_random_bytes_after_a_valid_header(self, guarded_checkpoint_reads, count, body):
        load_bytes(MAGIC + struct.pack("<II", VERSION, count) + body)

    @FUZZ
    @given(data=st.binary(max_size=200))
    def test_random_bytes(self, guarded_checkpoint_reads, data):
        assert load_bytes(data) is None or data.startswith(MAGIC)


def parse_or_error(text: str):
    """The parsed config, or None for a ``ValueError`` (``ConfigError`` is one)."""
    try:
        return parse_config_text(text, source="<fuzz>")
    except ValueError:
        return None


ODD_VALUES = st.sampled_from([
    "", "0", "-1", "1", "2", "3", "4", "5", "0.5", "1e400", "-1e400", "nan", "inf", "-inf",
    "1e-320", "9" * 5000, "true", "false", "True", "1,2,3,4", "1,2", "nan,0,0,0", ",,,",
    "aagmm", "linear", "kmeans", "global", "weak", "strong", "max", "min", "rings",
    "two-moons", "\x00", "٣", "１", "=", "#",
])
LINES = st.lists(
    st.tuples(st.sampled_from(sorted(SCHEMA)), st.one_of(ODD_VALUES, st.text(max_size=12))),
    max_size=8,
).map(lambda pairs: "\n".join(f"{k} = {v}" for k, v in pairs))


class TestConfigFuzz:
    @settings(max_examples=300)
    @given(text=st.text())
    def test_arbitrary_text(self, text):
        parse_or_error(text)

    @settings(max_examples=300)
    @given(data=st.binary(), codec=st.sampled_from(["latin-1", "utf-8"]))
    def test_odd_bytes(self, data, codec):
        parse_or_error(data.decode(codec, errors="surrogateescape"))

    @settings(max_examples=500)
    @given(text=LINES)
    def test_known_keys_with_odd_values(self, text):
        result = parse_or_error(text)
        if result is not None:
            run_config, data_spec, flat = result
            assert set(flat) == set(SCHEMA)
            roots = {"run": run_config, "data": data_spec}
            for k in SCHEMA.values():
                value = _lookup(roots, k.path)
                for v in value if isinstance(value, tuple) else (value,):
                    assert not isinstance(v, float) or math.isfinite(v), (k.path, v)



def log_uniform(lo: float, hi: float):
    """Positive floats spread evenly over the decades from lo to hi."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


NONNEGATIVE = st.one_of(st.just(0.0), log_uniform(1e-8, 1e4))
UNIT = st.floats(0.0, 1.0, exclude_max=True)  # [0, 1)


@st.composite
def run_configs(draw) -> str:
    """Config text setting every schema key to a valid value.

    The values span each key's range, except that the data, the batches,
    the latent width and the run stay small, which bounds each run's cost:
    at most 500 unlabeled rows, 100 test rows and 7 steps.
    """
    head = draw(st.sampled_from(HEAD_KINDS))
    data_kind = draw(st.sampled_from(DATASET_KINDS))
    classes = 2 if data_kind == "two-moons" else draw(st.integers(2, 6))
    labels_per_class = draw(st.integers(1, 5))
    values = {
        "run.seed": draw(st.integers(0, 2**32 - 1)),
        "run.steps": draw(st.integers(0, 7)),
        "run.eval_every": draw(st.integers(1, 8)),
        "opt.lr": draw(log_uniform(1e-8, 1e8)),
        "opt.momentum": draw(UNIT),
        "opt.weight_decay": draw(NONNEGATIVE),
        "opt.clip_norm": draw(log_uniform(1e-8, 1e8)),
        "ssl.labeled_batch": draw(st.integers(1, 32)),
        "ssl.unlabeled_ratio": draw(st.integers(1, 8)),
        "ssl.conf_threshold": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "ssl.lambda_u": draw(NONNEGATIVE),
        "ssl.curriculum": draw(st.booleans()),
        "ssl.ema_decay": draw(UNIT),
        "head.kind": head,
        "head.latent_dim": draw(st.integers(1, 8)),
        "mom.orders": draw(st.integers(0, 4)),
        "mom.weights": tuple(draw(st.lists(NONNEGATIVE, min_size=4, max_size=4))),
        # The linear head has no clusters to gate or centre on.
        "mom.mode": "global" if head == "linear" else draw(st.sampled_from(MODES)),
        "mom.view": draw(st.sampled_from(MOM_VIEWS)),
        "gate.enabled": head != "linear" and draw(st.booleans()),
        "gate.percentile": draw(st.floats(0.0, 100.0, exclude_min=True)),
        "gate.mode": draw(st.sampled_from(GATE_MODES)),
        "gate.refresh": draw(st.integers(1, 8)),
        "gate.exclude_mom": draw(st.booleans()),
        "data.kind": data_kind,
        "data.classes": classes,
        "data.ambient": draw(st.integers(2, 24)),
        "data.unlabeled": draw(st.integers(labels_per_class * classes, 500)),
        "data.test": draw(st.integers(1, 100)),
        "data.labels_per_class": labels_per_class,
        "data.noise": draw(log_uniform(1e-4, 1e2)),
        "data.outlier_frac": draw(st.floats(0.0, 0.5, exclude_max=True)),
        "data.seed": draw(st.integers(0, 2**32 - 1)),
    }
    assert values.keys() == SCHEMA.keys()
    return "\n".join(f"{k} = {_fmt_value(v)}" for k, v in values.items())


class TestRunFuzz:
    # Diverging runs overflow along the way (the clip's squared sum, the
    # variances); the test checks how they end, not the warnings.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    # 300 small examples take about 5 s on 2 vCPUs.
    @settings(max_examples=300, deadline=None)
    @given(text=run_configs())
    def test_a_valid_config_runs_or_faults_naming_its_step(self, text):
        config, spec, _ = parse_config_text(text, source="<fuzz>")
        try:
            run(config, spec)
        except FloatingPointError as e:
            assert re.match(r"step \d+: ", str(e)), str(e)
            event(f"{config.head_kind}: faulted")
        else:
            event(f"{config.head_kind}: ran")
