"""pipeline.run and the dataset lift keep numpy's BLAS on one thread where it gains nothing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmix
from gmix import _blas
from gmix.config import parse_config_text
from gmix.pipeline import _largest_step_product

# Reads the thread count through the own getter of every mapped BLAS library
# that has one: before and after `import gmix`, and after each `pipeline.run`
# of RUNS. Prints one JSON line; empty lists when no library has a getter.
GETTERS = """
import ctypes, json, os, sys
import numpy

GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
           "openblas_get_num_threads")

def getters():
    with open("/proc/self/maps") as f:
        paths = [line.split(maxsplit=5)[5].strip() for line in f if len(line.split()) >= 6]
    found = []
    for path in dict.fromkeys(paths):
        if "blas" in os.path.basename(path).lower():
            lib = ctypes.CDLL(path)
            found += [getattr(lib, n) for n in GETTERS if hasattr(lib, n)][:1]
    return found

gets = getters()
counts = {"before": [g() for g in gets]}
"""
PROBE = GETTERS + """import gmix.config, gmix.pipeline
counts["imported"] = [g() for g in gets]
counts["runs"] = []
for extra in json.loads(sys.argv[1]):
    text = "run.steps = 1\\nrun.eval_every = 1\\ndata.unlabeled = 100\\ndata.test = 50\\n" + extra
    gmix.pipeline.run(*gmix.config.parse_config_text(text, source="<probe>")[:2])
    counts["runs"].append([g() for g in gets])
print(json.dumps(counts))
"""

# Reads the counts at each numpy.matmul call of a default `generate`, and
# after it. The default spec's 8,000-row lift is above the one-thread limit.
LIFT_PROBE = GETTERS + """import gmix.datasets
matmul = numpy.matmul
counts["lift"] = []
def reading_matmul(*args, **kwargs):
    counts["lift"].append([g() for g in gets])
    return matmul(*args, **kwargs)
numpy.matmul = reading_matmul
gmix.datasets.generate(gmix.datasets.SyntheticSpec())
counts["after"] = [g() for g in gets]
print(json.dumps(counts))
"""

# 224×64×64 layer products, above OpenBLAS's one-thread limit; a step of
# this config was 24 % slower on one thread than on two.
LARGE_BATCH = "ssl.labeled_batch = 32\n"


def probe(runs: list[str], script: str = PROBE) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(gmix.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    counts = json.loads(proc.stdout)
    if not counts["before"]:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count getter")
    return counts


needs_maps = pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                                reason="needs /proc/self/maps")


@needs_maps
def test_run_sets_one_blas_thread_and_import_does_not():
    counts = probe([""])
    assert counts["imported"] == counts["before"], counts
    assert counts["runs"] == [[1] * len(counts["before"])], counts


@needs_maps
def test_run_whose_step_products_split_puts_the_count_back():
    counts = probe(["", LARGE_BATCH, ""])
    one = [1] * len(counts["before"])
    assert counts["runs"] == [one, counts["before"], one], counts


@needs_maps
def test_lift_runs_on_one_thread_and_puts_the_count_back():
    counts = probe([], LIFT_PROBE)
    assert counts["lift"] == [[1] * len(counts["before"])] * 3, counts
    assert counts["after"] == counts["before"], counts


def test_step_product_limit_falls_between_the_default_and_a_32_row_batch():
    small, spec, _ = parse_config_text("", source="<default>")
    large, _, _ = parse_config_text(LARGE_BATCH, source="<large>")
    assert _largest_step_product(small, spec) == 112 * 64 * 64 < _blas.ONE_THREAD_LIMIT
    assert _largest_step_product(large, spec) == 224 * 64 * 64 > _blas.ONE_THREAD_LIMIT


def test_step_product_of_a_moment_bound_config_is_the_moment_reverse_matmul():
    # At latent_dim 16 and order 4 the moment loss's reverse matmul, 112
    # rows × 969 lower products × 32 columns, outgrows every layer product.
    config, spec, _ = parse_config_text("head.latent_dim = 16\nmom.orders = 4\n", source="<d16>")
    assert _largest_step_product(config, spec) == 112 * 969 * 32 > _blas.ONE_THREAD_LIMIT


class FakeLibrary:
    """An OpenBLAS stand-in at ``count`` threads; named by its path."""

    def __init__(self, path, count=4):
        self.count = count
        self.sets = 0
        if path != "cblas-without-setter.so":
            prefix = "openblas" if path == "other-blas.so" else "scipy_openblas"
            suffix = "" if path == "other-blas.so" else "64_"
            setattr(self, f"{prefix}_set_num_threads{suffix}", self._set)
            setattr(self, f"{prefix}_get_num_threads{suffix}", lambda: self.count)

    def _set(self, n):
        self.count = n
        self.sets += 1


def fake_libraries(monkeypatch, counts: dict[str, int]) -> dict[str, FakeLibrary]:
    """Map the fakes in place of the real libraries, resolved afresh."""
    libs = {p: FakeLibrary(p, c) for p, c in counts.items()}
    monkeypatch.setattr(_blas, "_blas_libraries", lambda: list(libs))
    monkeypatch.setattr(_blas.ctypes, "CDLL", libs.__getitem__)
    monkeypatch.setattr(_blas, "_LIBRARIES", None)
    return libs


def test_every_library_with_a_setter_is_set_and_put_back(monkeypatch):
    # Maps list libraries by address: a second OpenBLAS may come before numpy's.
    libs = fake_libraries(monkeypatch, dict.fromkeys(
        ["other-blas.so", "cblas-without-setter.so", "numpy-blas.so"], 4))
    _blas.limit_threads(one=False)  # nothing set yet: nothing to put back
    assert [(lib.count, lib.sets) for lib in libs.values()] == [(4, 0)] * 3
    _blas.limit_threads(one=True)
    _blas.limit_threads(one=True)
    assert [(lib.count, lib.sets) for lib in libs.values()] == [(1, 1), (4, 0), (1, 1)]
    _blas.limit_threads(one=False)
    assert [lib.count for lib in libs.values()] == [4, 4, 4]


def test_scope_sets_one_thread_and_puts_each_entry_count_back(monkeypatch):
    libs = fake_libraries(monkeypatch, {"other-blas.so": 4, "cblas-without-setter.so": 4,
                                        "numpy-blas.so": 1})
    libs["other-blas.so"].count = 3  # the count on entry, not the first one, comes back
    with _blas.one_thread():
        assert [lib.count for lib in libs.values()] == [1, 4, 1]
    assert [lib.count for lib in libs.values()] == [3, 4, 1]
    with pytest.raises(RuntimeError, match="body"):
        with _blas.one_thread():
            assert [lib.count for lib in libs.values()] == [1, 4, 1]
            raise RuntimeError("body")
    assert [(lib.count, lib.sets) for lib in libs.values()] == [(3, 4), (4, 0), (1, 0)]


def test_libraries_are_resolved_once(monkeypatch):
    fake_libraries(monkeypatch, {"numpy-blas.so": 4})
    calls = []
    monkeypatch.setattr(_blas, "_blas_libraries", lambda: calls.append(1) or ["numpy-blas.so"])
    for one in (True, False):
        _blas.limit_threads(one=one)
        with _blas.one_thread():
            pass
    assert calls == [1]


def test_no_setter_does_nothing(monkeypatch):
    monkeypatch.setattr(_blas, "_blas_libraries", lambda: ["a-blas.so"])
    monkeypatch.setattr(_blas.ctypes, "CDLL", lambda path: object())
    monkeypatch.setattr(_blas, "_LIBRARIES", None)
    _blas.limit_threads(one=True)
    with _blas.one_thread():
        pass
    assert _blas._libraries() == []


def test_without_proc_maps_the_bundled_library_is_found(monkeypatch):
    bundled = Path(_blas.np.__file__).resolve().parents[1] / "numpy.libs"
    if not any(bundled.glob("*blas*")):
        pytest.skip("this numpy bundles no BLAS library in numpy.libs")

    def no_maps(path, *args, **kwargs):
        raise OSError(f"no {path}")
    monkeypatch.setattr(_blas, "open", no_maps, raising=False)
    monkeypatch.setattr(_blas, "_LIBRARIES", None)
    assert _blas._blas_libraries() == [str(p) for p in sorted(bundled.glob("*blas*"))]
    libraries = _blas._libraries()
    assert libraries
    with _blas.one_thread():
        assert [get() for get, _, _ in libraries] == [1] * len(libraries)
