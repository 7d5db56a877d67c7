"""The benchmark tracer wraps gmix functions by name; every name it
patches must still exist, so a rename fails here rather than mid-benchmark."""

import gmix
import gmix.cli  # noqa: F401  loads every gmix module the tracer patches


def test_every_patch_site_resolves(load_bench):
    sites = load_bench("tracer").patch_sites(gmix)
    assert sites
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in sites
               if attr not in vars(owner)]
    assert not missing
