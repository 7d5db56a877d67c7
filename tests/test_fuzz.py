"""Fuzzing the two readers of outside input: checkpoint files and config text.

Every input, however mangled, must give a value or the reader's
documented error, a ``ValueError`` (``ConfigError`` is one), which the
CLI turns into an error line and exit 1; never another exception.
"""

import os
import struct
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gmix.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from gmix.config import SCHEMA, parse_config_text

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

