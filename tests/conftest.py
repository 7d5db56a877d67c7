import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def load_bench(monkeypatch):
    """Import a module of the benchmark by file name, under that name.

    No bytecode is written, so perfbench/ is left untouched, and the
    module is dropped from ``sys.modules`` after the test.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name: str):
        spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    return load
