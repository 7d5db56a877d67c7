"""Outside-in span tracer for the gmix benchmark.

The tracer replaces public functions of the ``gmix`` modules, at the
names their callers look them up by, with wrappers that record one span
per call: name, start, end, parent span and run id. Spans stay in memory
and are written out as JSON lines when the run ends. Nothing under
``src/`` changes; ``uninstall`` puts every original back, so untraced
runs execute the unmodified program.

Besides time, the wrappers record the counts the per-layer metrics need
at the boundary where the work happens: the tape length at ``backward``,
the bytes of every array wrapped in a ``Tensor`` (computed from array
sizes, not measured), the flagged share at ``outlier.mask`` and the
pseudo-label kept share returned by ``train_step``.
"""

from __future__ import annotations

import functools
import json
import statistics
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    run: int
    start: float
    end: float = 0.0
    tensor_bytes: int = 0
    value: float | None = None


# Values read off a call at its boundary: (args, result) -> number.
_OBSERVERS = {
    "autodiff.backward": lambda args, result: len(args[0].tape),
    "outlier.mask": lambda args, result: float(1.0 - result.mean()),
    "pipeline.train_step": lambda args, result: result.pseudo_rate,
}


def patch_sites(gmix):
    """(owner, attribute, span name) for every traced boundary.

    Each function is wrapped where its caller resolves it: ``pipeline``
    imports most of its collaborators by name, so those bindings are
    patched in ``pipeline`` as well as in the defining module.
    """
    p, h = gmix.pipeline, gmix.heads
    sites = [
        (p, "generate", "datasets.generate"),
        (gmix.datasets, "generate", "datasets.generate"),
        (p, "augment_weak", "datasets.augment_weak"),
        (p, "augment_strong", "datasets.augment_strong"),
        (gmix.config, "parse_config_text", "config.parse_config_text"),
        (gmix.config, "flatten_config", "config.flatten_config"),
        (gmix.config, "config_hash", "config.config_hash"),
        (p, "init_state", "pipeline.init_state"),
        (p, "sample_labeled", "pipeline.sample_labeled"),
        (p, "sample_unlabeled", "pipeline.sample_unlabeled"),
        (p, "train_step", "pipeline.train_step"),
        (p, "evaluate", "pipeline.evaluate"),
        (p.SgdMomentum, "step", "pipeline.optimizer_step"),
        (h.Backbone, "embed", "heads.embed"),
        (p, "log_conditional", "heads.log_conditional"),
        (h, "log_conditional", "heads.log_conditional"),
        (h, "conditional", "heads.conditional"),
        (p, "mom_loss", "moments.mom_loss"),
        (gmix.moments, "centralize", "moments.centralize"),
        (p, "backward", "autodiff.backward"),
        (p, "clip_global_norm", "autodiff.clip_global_norm"),
        (p, "fit_threshold", "outlier.fit_threshold"),
        (gmix.outlier, "fit_threshold", "outlier.fit_threshold"),
        (p, "gate_mask", "outlier.mask"),
        (gmix.outlier, "mask", "outlier.mask"),
        (gmix.outlier, "scores", "outlier.scores"),
        (p, "pseudo_quality", "metrics.pseudo_quality"),
        (p, "compactness", "metrics.compactness"),
        (gmix.metrics.MetricsReport, "to_csv", "metrics.to_csv"),
        (gmix.checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
        (gmix.checkpoint, "load_model", "checkpoint.load_model"),
    ]
    for cls in (h.AagmmHead, h.KmeansHead, h.LinearSoftmaxHead):
        sites.append((cls, "class_log_scores", "heads.class_log_scores"))
    return sites


class Tracer:
    """Records spans while installed; ``span`` opens one from the caller."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.run, perf_counter()))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid].end = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                self.spans[sid].value = observe(args, result)
            return result

        return traced

    def install(self, gmix) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in patch_sites(gmix):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

        tensor = gmix.autodiff.Tensor
        original_init = tensor.__dict__["__init__"]
        spans, stack = self.spans, self._stack

        def init(t, data, tape=None):
            original_init(t, data, tape)
            if stack:
                spans[stack[-1]].tensor_bytes += t.data.nbytes

        self._saved.append((tensor, "__init__", original_init))
        tensor.__init__ = init

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, s in enumerate(self.spans):
                f.write(json.dumps({"id": sid, **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _ancestry(spans: list[Span]) -> tuple[list[int], list[str | None]]:
    """Each span's root index, and the name of its ancestor just below the root."""
    root: list[int] = []
    top: list[str | None] = []
    for i, s in enumerate(spans):
        if s.parent < 0:
            root.append(i)
            top.append(None)
        else:
            root.append(root[s.parent])
            top.append(s.name if spans[s.parent].parent < 0 else top[s.parent])
    return root, top


# Children of a ``pipeline.run`` root that belong to the training loop;
# evaluation, data generation and artifact writes are the run's other
# phases. ``heads.embed`` and ``outlier.fit_threshold`` at that level are
# the gate refits between steps.
_LOOP_PHASES = {
    "pipeline.sample_labeled",
    "pipeline.sample_unlabeled",
    "pipeline.train_step",
    "heads.embed",
    "outlier.fit_threshold",
}

UNIT_ROOTS = {"pipeline.run": "pipeline.train_step", "bench.score_pass": "bench.score_pass"}


def per_layer(spans: list[Span]) -> tuple[dict[str, float], float, dict[str, float]]:
    """Per-layer metrics, the unit's time and per-module self-time shares.

    The unit is one training step (a ``pipeline.train_step`` with the
    sampling before it) or one scoring pass. Loop quantities are summed
    over the loop and divided by the number of units; whole-call
    quantities (generate, parse, evaluate, save, load) are the median
    per call. Returns ``(metrics, unit_ms, module_shares)``.
    """
    roots = {s.name for s in spans if s.parent < 0} & set(UNIT_ROOTS)
    if len(roots) != 1:
        raise ValueError(f"expected spans under one kind of unit root, got {sorted(roots)}")
    root_name = roots.pop()
    unit_name = UNIT_ROOTS[root_name]
    root, top = _ancestry(spans)
    own = self_times(spans)
    in_loop = [
        spans[r].name == root_name and (root_name == "bench.score_pass" or t in _LOOP_PHASES)
        for r, t in zip(root, top)
    ]
    units = sum(1 for s in spans if s.name == unit_name)
    if units == 0:
        raise ValueError(f"no {unit_name} spans recorded")
    loop = [s for i, s in enumerate(spans) if in_loop[i]]

    def loop_ms(*names: str) -> float:
        return 1e3 * sum(s.end - s.start for s in loop if s.name in names) / units

    def loop_count(name: str) -> float:
        return sum(1 for s in loop if s.name == name) / units

    def per_call_ms(name: str) -> float:
        durations = [s.end - s.start for s in spans if s.name == name]
        return 1e3 * statistics.median(durations) if durations else 0.0

    def mean_value(name: str) -> float:
        values = [s.value for s in spans if s.name == name and s.value is not None]
        return statistics.fmean(values) if values else 0.0

    step_self = sum(own[i] for i, s in enumerate(spans)
                    if in_loop[i] and s.name == "pipeline.train_step")
    metrics = {
        "pipeline.sample_ms": loop_ms("pipeline.sample_labeled", "pipeline.sample_unlabeled"),
        "datasets.augment_ms": loop_ms("datasets.augment_weak", "datasets.augment_strong"),
        "datasets.generate_ms": per_call_ms("datasets.generate"),
        "config.parse_ms": per_call_ms("config.parse_config_text"),
        "heads.embed_ms": loop_ms("heads.embed"),
        "heads.embed_calls": loop_count("heads.embed"),
        "heads.log_conditional_ms": loop_ms("heads.log_conditional"),
        "moments.mom_loss_ms": loop_ms("moments.mom_loss"),
        "moments.centralize_ms": loop_ms("moments.centralize"),
        "autodiff.backward_ms": loop_ms("autodiff.backward"),
        "autodiff.clip_ms": loop_ms("autodiff.clip_global_norm"),
        "autodiff.tape_records": sum(
            s.value for s in loop if s.name == "autodiff.backward"
        ) / units,
        "autodiff.tensor_bytes": sum(s.tensor_bytes for s in loop) / units,
        "pipeline.optimizer_ms": loop_ms("pipeline.optimizer_step"),
        "pipeline.train_step_self_ms": 1e3 * step_self / units,
        "pipeline.evaluate_ms": per_call_ms("pipeline.evaluate"),
        "pipeline.pseudo_kept_frac": mean_value("pipeline.train_step"),
        "outlier.scores_ms": loop_ms("outlier.scores"),
        "outlier.fit_ms": loop_ms("outlier.fit_threshold"),
        "outlier.flagged_frac": mean_value("outlier.mask"),
        "checkpoint.save_ms": per_call_ms("checkpoint.save_checkpoint"),
        "checkpoint.load_ms": per_call_ms("checkpoint.load_model"),
        "metrics.to_csv_ms": per_call_ms("metrics.to_csv"),
    }

    # The loop's outermost spans tile the unit; their total is its time.
    unit_time = sum(
        s.end - s.start for i, s in enumerate(spans)
        if in_loop[i] and (s.parent < 0 or not in_loop[s.parent])
    )
    by_module: dict[str, float] = {}
    for i, s in enumerate(spans):
        if in_loop[i]:
            module = s.name.split(".", 1)[0]
            by_module[module] = by_module.get(module, 0.0) + own[i]
    shares = {m: t / unit_time for m, t in sorted(by_module.items())}
    return metrics, 1e3 * unit_time / units, shares
