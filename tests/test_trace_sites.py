"""The benchmark tracer wraps gmix functions by name; every name it
patches must still exist, so a rename fails here rather than mid-benchmark."""

import gmix
import gmix.cli  # noqa: F401  loads every gmix module the tracer patches
from gmix.datasets import SyntheticSpec
from gmix.moments import MomentSpec
from gmix.pipeline import GateConfig, RunConfig


def test_every_patch_site_resolves(load_bench):
    sites = load_bench("tracer").patch_sites(gmix)
    assert sites
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in sites
               if attr not in vars(owner)]
    assert not missing


def test_a_run_records_every_site_but_parse_and_load(load_bench, tmp_path):
    """``pipeline.run`` imports ``checkpoint`` and ``config`` at call time, so
    a patched function there is the one it calls; a module-level import would
    bind the original and leave its span, and its metric, empty."""
    tracer = load_bench("tracer")
    config = RunConfig(steps=4, eval_every=2, labeled_batch=4, unlabeled_ratio=2,
                       moments=MomentSpec(max_order=2), gate=GateConfig(enabled=True))
    data = SyntheticSpec(n_classes=3, n_unlabeled=60, n_test=30, labels_per_class=2)
    t = tracer.Tracer()
    t.install(gmix)
    try:
        gmix.pipeline.run(config, data, out_dir=tmp_path)
    finally:
        t.uninstall()
    expected = {name for _, _, name in tracer.patch_sites(gmix)}
    expected -= {"config.parse_config_text", "checkpoint.load_model"}
    assert expected - {s.name for s in t.spans} == set()
