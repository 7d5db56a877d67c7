"""The benchmark tracer wraps gmix functions by name; every name it
patches must still exist, so a rename fails here rather than mid-benchmark."""

import importlib.util
import sys
from pathlib import Path

import gmix
import gmix.cli  # noqa: F401  loads every gmix module the tracer patches

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("gmix_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_patch_site_resolves(monkeypatch):
    sites = load_tracer(monkeypatch).patch_sites(gmix)
    assert sites
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in sites
               if attr not in vars(owner)]
    assert not missing
