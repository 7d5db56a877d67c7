"""The benchmark's golden outputs, held in tier-1: every seed of each training
workload pinned in perfbench/golden.json writes the metrics.csv whose sha256
it pins.

The config text and step counts come from the benchmark's own workload
table, so this test and the benchmark cannot drift apart. The pins hold
only on the machine they were made on; elsewhere the test is skipped.
"""

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from gmix.config import parse_config_text
from gmix.pipeline import run

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
MACHINE = {
    "nproc": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": np.__version__,
}


@pytest.mark.parametrize("workload, seed", [
    (workload, seed)
    for workload, pins in GOLDEN["metrics_csv_sha256"].items()
    for seed in pins
])
def test_metrics_csv_matches_the_pin(load_bench, tmp_path, workload, seed):
    pinned_on = {k: GOLDEN["machine"][k] for k in MACHINE}
    if MACHINE != pinned_on:
        pytest.skip(f"the pins were made on {pinned_on}; this machine is {MACHINE}")
    load_bench("tracer")  # the workloads module imports it by this name
    training = load_bench("workloads").Training(workload, int(seed), tmp_path)
    config, spec, _ = parse_config_text(training.text, source=f"<{workload}>")
    run(config, spec, out_dir=tmp_path / "run")
    digest = hashlib.sha256((tmp_path / "run" / "metrics.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN["metrics_csv_sha256"][workload][seed]
