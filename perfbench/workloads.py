"""The gmix benchmark's workloads, their end-to-end metrics and output checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. The seed sets the config's ``run.seed``
and ``data.seed``; the program sees only that config text and the data
it generates from it.

- ``ssl-default``: ``pipeline.run`` on the default config, shortened to
  a few hundred steps. Tiny batches, so per-op overhead dominates.
  ``BENCHMARK.json`` does not gate it: its interpreter-bound step moved
  by up to 1.5x with the load on the shared host (medians of 5.7 and
  8.5 ms in consecutive 30 s runs), beyond the largest bound a gated
  metric may have. It still runs by name and in the all-workload run.
- ``mom4``: the same with ``mom.orders = 4``; the dense moment chain and
  its reverse pass dominate.
- ``score-pool``: a checkpoint loaded through ``gmix.checkpoint`` scores a
  20,000-row unlabelled pool with 5 % outliers along the path of
  ``gmix export-embeddings --split unlabeled``, then evaluates the test
  split. One operation is one such pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import gmix
import gmix.checkpoint
import gmix.config
import gmix.datasets
import gmix.metrics
import gmix.outlier
import gmix.pipeline
from gmix.autodiff import Tensor

from tracer import Tracer, per_layer

SETUP_REPEATS = 25
PASSES_PER_RUN = 10
PREP_STEPS = 200
MIN_RECALL = 0.9

TRAINING = {
    # name: (config overrides, steps, eval_every)
    "ssl-default": ("", 300, 100),
    "mom4": ("mom.orders = 4\n", 32, 8),
}
SCORE_POOL_CONFIG = (
    "data.unlabeled = 20000\n"
    "data.outlier_frac = 0.05\n"
    "gate.enabled = true\n"
    "gate.mode = min\n"
    f"run.steps = {PREP_STEPS}\n"
    "run.eval_every = 100\n"
)
WORKLOADS = (*TRAINING, "score-pool")


@dataclasses.dataclass
class Outcome:
    """What one workload process measured and found."""

    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    samples: dict[str, int] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    notes: list[str] = dataclasses.field(default_factory=list)
    correct: bool = True

    def fail_check(self, message: str) -> None:
        self.correct = False
        self.errors.append(f"check failed: {message}")

    def fail_op(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        traceback.print_exc(file=sys.stderr)


def _timed_setup(text: str, checkpoint=None):
    """Parse, generate and initialise (and load the model), timed."""
    start = perf_counter()
    config, spec, _ = gmix.config.parse_config_text(text, source="<bench>")
    dataset = gmix.datasets.generate(spec)
    state = gmix.pipeline.init_state(config, dataset)
    if checkpoint is not None:
        gmix.checkpoint.load_model(checkpoint, state.backbone, state.head)
    return perf_counter() - start, config, spec, dataset, state


class StepClock:
    """Timestamps every ``train_step`` return while open."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._original = gmix.pipeline.__dict__["train_step"]
        original, times = self._original, self.times

        def timed(*args, **kwargs):
            result = original(*args, **kwargs)
            times.append(perf_counter())
            return result

        gmix.pipeline.train_step = timed

    def close(self) -> None:
        gmix.pipeline.train_step = self._original


def check_metrics_csv(data: bytes, steps: int, eval_every: int) -> list[str]:
    """Problems with a run's metrics.csv: header, row steps, finiteness."""
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != ",".join(gmix.metrics.CSV_COLUMNS):
        return ["metrics.csv header differs from the documented columns"]
    expected = [0] + [s for s in range(1, steps + 1) if s % eval_every == 0 or s == steps]
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if [r[0] for r in rows] != [str(s) for s in expected]:
        problems.append(f"metrics.csv has rows at steps {[r[0] for r in rows]}, "
                        f"expected {expected}")
    for r in rows:
        if len(r) != len(gmix.metrics.CSV_COLUMNS):
            problems.append(f"metrics.csv row {r[0]} has {len(r)} fields")
        elif not all(math.isfinite(float(v)) for v in r):
            problems.append(f"metrics.csv row {r[0]} is not finite")
    return problems


class Training:
    """``pipeline.run`` repeated on one config; one operation is one run."""

    checkpoint = None

    def __init__(self, name: str, seed: int, work_dir: Path) -> None:
        overrides, self.steps, self.eval_every = TRAINING[name]
        self.work_dir = work_dir
        self.text = (
            f"run.seed = {seed}\ndata.seed = {seed}\n"
            f"run.steps = {self.steps}\nrun.eval_every = {self.eval_every}\n" + overrides
        )
        self.test_acc = 0.0

    def prepare(self) -> list[float]:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, self.config, self.spec, _, _ = _timed_setup(self.text)
            setups.append(elapsed)
        c = self.config
        self.rows_per_run = self.steps * c.labeled_batch * (1 + c.unlabeled_ratio)
        # Warm-up: a short run fills caches and lazy numpy set-up; untimed.
        gmix.pipeline.run(dataclasses.replace(c, steps=self.eval_every), self.spec)
        return setups

    def op(self, out: Outcome, index: int, tracer: Tracer | None):
        """One run: (seconds, step intervals, metrics.csv bytes), or None."""
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.work_dir))
        clock = StepClock()
        out.attempted += 1
        try:
            start = perf_counter()
            if tracer is None:
                report, _, _ = gmix.pipeline.run(self.config, self.spec, out_dir=run_dir)
            else:
                tracer.run = index
                report, _, _ = tracer.span(
                    "pipeline.run", gmix.pipeline.run, self.config, self.spec, out_dir=run_dir
                )
            elapsed = perf_counter() - start
            csv = (run_dir / "metrics.csv").read_bytes()
            missing = [f for f in ("manifest.json", "checkpoint.bin")
                       if not (run_dir / f).is_file()]
        except Exception as e:  # keep measuring; the failure is counted and named
            out.fail_op(f"op pipeline.run #{index} failed in step {len(clock.times) + 1}: "
                        f"{type(e).__name__}: {e}")
            return None
        finally:
            clock.close()
            shutil.rmtree(run_dir, ignore_errors=True)
        for problem in check_metrics_csv(csv, self.steps, self.eval_every):
            out.fail_check(problem)
        for f in missing:
            out.fail_check(f"run artifact {f} was not written")
        self.test_acc = float(report.final["test_acc"])
        if self.test_acc <= report.rows[0]["test_acc"]:
            out.fail_check(f"op #{index}: test_acc {self.test_acc} did not improve on the "
                           f"untrained {report.rows[0]['test_acc']}")
        t = clock.times
        return elapsed, [b - a for a, b in zip(t, t[1:])], csv

    def report(self, out: Outcome, output: bytes | None, seed: int, golden: dict) -> None:
        if output is None:
            return
        digest = hashlib.sha256(output).hexdigest()
        pinned = golden.get(str(seed))
        if pinned is None:
            verdict = "unpinned for this seed"
        elif digest == pinned:
            verdict = "matches the pinned value"
        else:
            verdict = f"MISMATCH with the pinned {pinned} (reported, not counted as a failure)"
        out.notes.append(f"metrics.csv sha256 {digest} {verdict}")


class ScorePool:
    """Score a loaded model over a 20,000-row pool; one operation is one pass."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.text = f"run.seed = {seed}\ndata.seed = {seed}\n" + SCORE_POOL_CONFIG
        self.checkpoint = work_dir / "score-pool-model.bin"
        self.problems: list[str] = []

    def prepare(self) -> list[float]:
        # The model to score is trained here, as input generation; untimed.
        config, spec, _ = gmix.config.parse_config_text(self.text, source="<bench>")
        model_dir = Path(tempfile.mkdtemp(prefix="model-", dir=self.work_dir))
        try:
            gmix.pipeline.run(config, spec, out_dir=model_dir)
            shutil.move(model_dir / "checkpoint.bin", self.checkpoint)
        finally:
            shutil.rmtree(model_dir, ignore_errors=True)
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, _, _, dataset, self.state = _timed_setup(self.text, self.checkpoint)
            setups.append(elapsed)
        self.labeled_x = dataset.labeled_x
        self.pool_x = dataset.unlabeled_x
        self.pool_outlier = dataset.unlabeled_outlier
        self.test_x, self.test_y = dataset.test_x, dataset.test_y
        self.rows_per_run = PASSES_PER_RUN * (self.pool_x.shape[0] + self.test_x.shape[0])
        # The warm-up pass gives the expected output; every timed pass must equal it.
        pred, scores, keep, ev = self._score()
        self.expected = self._digest(pred, scores, keep, ev)
        if not np.all(np.isfinite(scores)):
            self.problems.append("outlier scores are not finite")
        truth = self.pool_outlier
        self.recall = float((~keep & truth).sum() / truth.sum())
        if self.recall < MIN_RECALL:
            self.problems.append(f"outlier recall {self.recall:.4f} below {MIN_RECALL}")
        self.test_acc = ev.accuracy
        chance = 1.0 / self.state.head.n_classes
        if self.test_acc <= chance:
            self.problems.append(f"test_acc {self.test_acc} is no better than chance {chance}")
        return setups

    def _score(self):
        state = self.state
        backbone, head, gate = state.backbone, state.head, state.gate
        z = backbone.embed(Tensor(self.pool_x)).data
        pred = np.argmax(head.class_log_scores(Tensor(z)).data, axis=1)
        gmix.outlier.fit_threshold(gate, backbone.embed(Tensor(self.labeled_x)).data, head)
        scores = gmix.outlier.scores(head, z, gate.mode)
        keep = gmix.outlier.mask(gate, head, z)
        ev = gmix.pipeline.evaluate(state, self.test_x, self.test_y)
        return pred, scores, keep, ev

    @staticmethod
    def _digest(pred, scores, keep, ev) -> bytes:
        return hashlib.sha256(
            pred.tobytes() + scores.tobytes() + keep.tobytes() + repr(ev.accuracy).encode()
        ).digest()

    def op(self, out: Outcome, index: int, tracer: Tracer | None):
        """A run of ``PASSES_PER_RUN`` passes: (seconds, pass times, output), or None."""
        passes = []
        for p in range(PASSES_PER_RUN):
            out.attempted += 1
            try:
                start = perf_counter()
                if tracer is None:
                    result = self._score()
                else:
                    tracer.run = PASSES_PER_RUN * (index - 1) + p + 1
                    result = tracer.span("bench.score_pass", self._score)
                passes.append(perf_counter() - start)
            except Exception as e:  # keep measuring; the failure is counted and named
                out.fail_op(f"op score pass #{index}.{p} failed: {type(e).__name__}: {e}")
                continue
            if self._digest(*result) != self.expected:
                out.failed += 1
                out.fail_check(f"pass #{index}.{p}: output differs from the warm-up pass "
                               "over the same pool")
        if len(passes) < PASSES_PER_RUN:
            return None
        return sum(passes), passes, self.expected

    def report(self, out: Outcome, output: bytes | None, seed: int, golden: dict) -> None:
        for problem in self.problems:
            out.fail_check(problem)
        out.notes.append(f"outlier recall {self.recall:.4f} against the ground-truth flags "
                         f"of {int(self.pool_outlier.sum())} injected outliers")


def make(name: str, seed: int, work_dir: Path):
    if name in TRAINING:
        return Training(name, seed, work_dir)
    if name == "score-pool":
        return ScorePool(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def _measure(workload, out: Outcome, seconds: float, tracer: Tracer | None, min_runs: int):
    """Closed loop until ``seconds`` have passed and ``min_runs`` runs succeeded.

    Returns the runs' wall clocks, the unit intervals (steps or passes)
    and the runs' outputs. Outputs of repeats must be identical; each
    repeat that differs from the first counts as a failed operation.
    """
    runs, intervals, outputs = [], [], []
    index = 0
    started = perf_counter()
    while perf_counter() - started < seconds or len(runs) < min_runs:
        index += 1
        done = workload.op(out, index, tracer)
        if done is not None:
            runs.append(done[0])
            intervals += done[1]
            outputs.append(done[2])
        elif out.failed == out.attempted and index >= min_runs:
            break  # nothing succeeds; stop rather than spin
    drift = sum(1 for o in outputs if o != outputs[0])
    if drift:
        out.failed += drift
        out.fail_check(f"{drift} of {len(outputs)} repeats of the same inputs gave a "
                       "different output (nondeterministic)")
    return runs, intervals, outputs


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        golden: dict, trace_path: Path) -> Outcome:
    out = Outcome()
    workload = make(name, seed, work_dir)
    setups = workload.prepare()
    if trace:
        outputs = _traced(workload, out, seconds, trace_path)
    else:
        runs, intervals, outputs = _measure(workload, out, seconds, None, min_runs=2)
        out.metrics["error_rate"] = out.failed / out.attempted
        out.samples["error_rate"] = out.attempted
        _end_to_end(workload, out, setups, runs, intervals)
    workload.report(out, outputs[0] if outputs else None, seed, golden.get(name, {}))
    return out


def _end_to_end(workload, out: Outcome, setups, runs, intervals) -> None:
    if not runs or len(intervals) < 2:
        out.fail_check("no operation completed, so nothing was measured")
        return
    deciles = statistics.quantiles(intervals, n=10, method="inclusive")
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "run_s": (statistics.median(runs), len(runs)),
        "step_ms_p50": (1e3 * statistics.median(intervals), len(intervals)),
        "step_ms_p90": (1e3 * deciles[8], len(intervals)),
        "samples_per_s": (workload.rows_per_run * len(runs) / sum(runs), len(runs)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "test_acc": (workload.test_acc, 1),
    }
    for key, (value, n) in values.items():
        out.metrics[key] = value
        out.samples[key] = n


def _traced(workload, out: Outcome, seconds: float, trace_path: Path) -> list:
    """Untraced runs, then traced runs of the same inputs; per-layer metrics."""
    plain_runs, _, plain_outputs = _measure(workload, out, seconds / 2, None, min_runs=1)
    tracer = Tracer()
    tracer.install(gmix)
    try:
        _timed_setup(workload.text, workload.checkpoint)
        traced_runs, _, traced_outputs = _measure(workload, out, seconds / 2, tracer, min_runs=2)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    out.notes.append(f"{len(tracer.spans)} spans written to {trace_path}")
    if not plain_runs or not traced_runs:
        out.fail_check("no operation completed, so nothing was measured")
        return plain_outputs
    if traced_outputs[0] != plain_outputs[0]:
        out.fail_check("the traced run's output differs from the untraced run's")
    for problem in count_drift(tracer.spans):
        out.fail_check(problem)
    metrics, unit_ms, shares = per_layer(tracer.spans)
    metrics["tracing.overhead_s"] = statistics.median(traced_runs) - statistics.median(plain_runs)
    out.metrics.update(metrics)
    out.samples.update({k: len(traced_runs) for k in metrics})
    out.notes.append(f"traced unit {unit_ms:.4f} ms; self-time share by module: "
                     + ", ".join(f"{m} {s:.1%}" for m, s in shares.items()))
    top = (metrics["moments.mom_loss_ms"] + metrics["autodiff.backward_ms"]) / unit_ms
    out.notes.append(f"moments.mom_loss_ms + autodiff.backward_ms = {top:.1%} of the unit")
    return plain_outputs


def count_drift(spans) -> list[str]:
    """Exact counts per traced run must repeat: tape records, embed calls, tensor bytes."""
    per_run: dict[int, dict] = {}
    for s in spans:
        if s.run < 1:
            continue
        c = per_run.setdefault(s.run, {"autodiff.tape_records": [], "heads.embed_calls": 0,
                                       "autodiff.tensor_bytes": 0})
        if s.name == "autodiff.backward":
            c["autodiff.tape_records"].append(s.value)
        c["heads.embed_calls"] += s.name == "heads.embed"
        c["autodiff.tensor_bytes"] += s.tensor_bytes
    first, *rest = sorted(per_run)
    problems = []
    for r in rest:
        for label, expected in per_run[first].items():
            if per_run[r][label] != expected:
                problems.append(f"exact count {label} drifted between traced runs {first} "
                                f"and {r}")
    return problems
