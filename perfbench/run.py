"""gmix benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run one workload in this process:

    python3 perfbench/run.py --workload ssl-default --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same inputs untraced and then traced and prints the
per-layer metrics, with the spans written under ``perfbench/out/``.
Without ``--workload`` every workload runs, each in a fresh process, one
after another, including ``ssl-default``, which ``BENCHMARK.json`` does
not gate (see ``workloads.py``). The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero when an output check fails or the program cannot be imported.
Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Moves: which end-to-end metric, on which workload, each per-layer
# metric should move. Printed next to each traced value.
MOVES = {
    "pipeline.sample_ms": "step_ms_p50 on ssl-default",
    "datasets.augment_ms": "step_ms_p50 on ssl-default",
    "datasets.generate_ms": "setup_s on all workloads",
    "config.parse_ms": "setup_s on all workloads",
    "heads.embed_ms": "step_ms_p50 on ssl-default and score-pool",
    "heads.embed_calls": "step_ms_p50 on ssl-default and score-pool",
    "heads.log_conditional_ms": "step_ms_p50 on ssl-default and score-pool",
    "moments.mom_loss_ms": "step_ms_p50 and peak_rss_mb on mom4",
    "moments.centralize_ms": "step_ms_p50 and peak_rss_mb on mom4",
    "autodiff.backward_ms": "step_ms_p50 on mom4 and ssl-default",
    "autodiff.clip_ms": "step_ms_p50 on ssl-default",
    "autodiff.tape_records": "step_ms_p50 and peak_rss_mb on mom4",
    "autodiff.tensor_bytes": "step_ms_p50 and peak_rss_mb on mom4",
    "pipeline.optimizer_ms": "step_ms_p50 on ssl-default",
    "pipeline.train_step_self_ms": "step_ms_p50 on ssl-default",
    "pipeline.evaluate_ms": "run_s on ssl-default and mom4, step_ms_p50 on score-pool",
    "pipeline.pseudo_kept_frac": "test_acc on ssl-default",
    "outlier.scores_ms": "step_ms_p50 on score-pool",
    "outlier.fit_ms": "step_ms_p50 on score-pool",
    "outlier.flagged_frac": "step_ms_p50 on score-pool",
    "checkpoint.save_ms": "run_s on ssl-default and mom4",
    "checkpoint.load_ms": "setup_s on score-pool",
    "metrics.to_csv_ms": "run_s on ssl-default and mom4",
    "tracing.overhead_s": "nothing: the cost of tracing itself",
}


def blas_threads() -> int:
    """Cap BLAS at the cores this process may use; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    wanted = [int(os.environ[v]) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
              if os.environ.get(v, "").isdigit() and int(os.environ[v]) > 0]
    threads = min([cores, *wanted])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all",
                        help="ssl-default, mom4, score-pool, or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, names) -> int:
    """Each workload in its own process, in turn; a failure moves on to the next."""
    results, status = {}, 0
    for name in names:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "error": f"exit code {proc.returncode}"}
        if proc.returncode != 0:
            status = 1
            print(f"== {name}: FAILED with exit code {proc.returncode}", flush=True)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    threads = blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import gmix  # the program under test, from this checkout
    except ImportError as e:
        print(f"error: cannot import gmix from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if Path(gmix.__file__).resolve().parent != ROOT / "src" / "gmix":
        print(f"error: gmix was imported from {gmix.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import numpy
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(BENCH_DIR / "golden.json") as f:
        golden = json.load(f)
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; closed loop, 1 caller")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"note: {args.workload} is not a gated workload of BENCHMARK.json; "
              "its figures are reported, not bounded")
    if machine != golden["machine"]:
        print("note: the metrics.csv pins were made on another machine: "
              + ", ".join(f"{k} {v}" for k, v in golden["machine"].items()))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.jsonl"
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            work_dir, golden["metrics_csv_sha256"], trace_path)
    finally:
        shutil.rmtree(work_dir)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in out.metrics]
    if missing and out.correct:
        out.fail_check(f"not measured: {', '.join(missing)}")
    metrics = {}
    for m in declared:
        if m["name"] in missing:
            continue
        value = out.metrics[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        moves = f"  -> {MOVES[m['name']]}" if args.trace else ""
        print(f"{m['name']:<28} {value:>14.6g} {m['unit']:<8} "
              f"n={out.samples[m['name']]}{moves}")
    # Printed, not bounded: they are 0 or vary with the seed's data, so the
    # bounds in BENCHMARK.json cannot hold them.
    for name in ("test_acc", "error_rate"):
        if name in out.metrics:
            print(f"{name:<28} {out.metrics[name]:>14.6g} {'ratio':<8} n={out.samples[name]}")
    if not args.trace:
        print(f"{out.failed} of {out.attempted} operations failed")
    for note in out.notes:
        print(note)
    for error in out.errors:
        print(f"ERROR {error}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
