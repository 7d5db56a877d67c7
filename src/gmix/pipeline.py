"""Semi-supervised pseudo-labeling training loop.

Each step combines supervised cross-entropy on a labeled batch,
confidence-masked consistency between weak and strong views of an
unlabeled batch (with optional per-class curriculum thresholds), the
moment constraint on the weak-view embeddings, and the outlier gate.
Gradients are clipped to a global norm and applied with SGD momentum.

The moment loss consumes the same unlabeled batch as the consistency
loss, on the weak view by default: the weak view is the model's clean
estimate, while the strong view carries deliberate augmentation noise
that a shape constraint should not chase. Both choices are config
options. Pseudo-labels are extracted from detached weak-view
probabilities, so no gradient flows through the labeling decision.

A step's numbers come back as a ``metrics.StepStats`` and an evaluation's
as a ``metrics.EvalResult``; ``gmix.metrics`` builds the metrics row from
the two and owns its schema.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _blas
from .autodiff import (
    Parameter,
    Tape,
    Tensor,
    _check_finite,
    _result,
    backward,
    clip_global_norm,
    tsum,
)
from .datasets import Dataset, SyntheticSpec, augment_strong, augment_weak, generate
from .fileio import atomic_write
from .heads import HEAD_KINDS, HIDDEN_WIDTHS, Backbone, conditional, init_head, log_conditional
from .metrics import EvalResult, MetricsReport, StepStats, compactness, pseudo_quality
from .moments import MomentSpec, _reverse_matmul_size, mom_loss
from .outlier import OutlierGate, fit_threshold, mask as gate_mask


# The augmented view of the unlabeled batch that the moment loss reads.
MOM_VIEWS = ("weak", "strong")


@dataclass(frozen=True)
class GateConfig:
    """Outlier-gate settings as they appear in run configuration."""

    enabled: bool = False
    percentile: float = 90.0
    mode: str = "max"
    refresh_every: int = 50
    exclude_from_mom: bool = True

    def __post_init__(self) -> None:
        # The gate's own constraints, enforced at parse time.
        OutlierGate(self.percentile, self.mode)
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be at least 1")


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run depends on besides the dataset."""

    seed: int = 0
    steps: int = 4000
    eval_every: int = 200
    labeled_batch: int = 16
    unlabeled_ratio: int = 7
    lr: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 5e-4
    clip_norm: float = 1.0
    conf_threshold: float = 0.95
    lambda_u: float = 1.0
    curriculum: bool = True
    ema_decay: float = 0.0
    head_kind: str = "aagmm"
    latent_dim: int = 8
    moments: MomentSpec = field(default_factory=MomentSpec)
    mom_view: str = "weak"
    gate: GateConfig = field(default_factory=GateConfig)

    def __post_init__(self) -> None:
        if self.head_kind not in HEAD_KINDS:
            raise ValueError(f"head_kind must be one of {HEAD_KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("lr", "clip_norm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        for name in ("weight_decay", "lambda_u"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0.0 < self.conf_threshold <= 1.0:
            raise ValueError("conf_threshold must be in (0, 1]")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError("ema_decay must be in [0, 1)")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        for name in ("eval_every", "labeled_batch", "unlabeled_ratio", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.mom_view not in MOM_VIEWS:
            raise ValueError(f"mom_view must be one of {MOM_VIEWS}")
        if self.head_kind == "linear":
            if self.gate.enabled:
                raise ValueError("the outlier gate needs a mixture head")
            if self.moments.max_order >= 1 and self.moments.mode == "per-cluster-soft":
                raise ValueError(
                    "per-cluster moment constraints need a mixture head; use global mode"
                )

    @property
    def ssl_active(self) -> bool:
        return self.lambda_u > 0 or self.moments.max_order >= 1


class SgdMomentum:
    """Plain SGD with momentum; weight decay is folded into the gradient."""

    def __init__(self, params, lr: float, momentum: float, weight_decay: float) -> None:
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p, v in zip(self.params, self.velocity):
            g = p.grad + self.weight_decay * p.value
            v *= self.momentum
            v += g
            p.value -= self.lr * v


@dataclass
class TrainState:
    backbone: Backbone
    head: object
    optimizer: SgdMomentum
    gate: OutlierGate
    unlabeled_status: np.ndarray
    rng: np.random.Generator
    step: int = 0
    ema: dict[str, np.ndarray] | None = None

    def parameters(self) -> list[Parameter]:
        return self.optimizer.params

    def class_counts(self) -> np.ndarray:
        """Current per-class confident-prediction counts over the pool."""
        confident = self.unlabeled_status[self.unlabeled_status >= 0]
        return np.bincount(confident, minlength=self.head.n_classes)


@dataclass
class UnlabeledBatch:
    indices: np.ndarray
    weak: np.ndarray
    strong: np.ndarray
    true_labels: np.ndarray


def init_state(config: RunConfig, dataset: Dataset) -> TrainState:
    ss = np.random.SeedSequence(config.seed)
    backbone_seed, head_seed, batch_seed = ss.spawn(3)
    spec = dataset.spec
    backbone = Backbone(spec.ambient_dim, config.latent_dim, seed=backbone_seed)
    head = init_head(config.head_kind, spec.n_classes, config.latent_dim, seed=head_seed)
    params = backbone.parameters() + head.parameters()
    optimizer = SgdMomentum(params, config.lr, config.momentum, config.weight_decay)
    ema = None
    if config.ema_decay > 0:
        ema = {p.name: p.value.copy() for p in params}
    return TrainState(
        backbone=backbone,
        head=head,
        optimizer=optimizer,
        gate=OutlierGate(config.gate.percentile, config.gate.mode),
        unlabeled_status=np.full(spec.n_unlabeled, -1, dtype=np.int64),
        rng=np.random.default_rng(batch_seed),
        ema=ema,
    )


def sample_labeled(dataset: Dataset, rng: np.random.Generator,
                   config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    n = dataset.labeled_x.shape[0]
    idx = rng.choice(n, size=config.labeled_batch, replace=config.labeled_batch > n)
    x = augment_weak(dataset.labeled_x[idx], dataset.feature_scale, rng)
    return x, dataset.labeled_y[idx]


def sample_unlabeled(dataset: Dataset, rng: np.random.Generator,
                     config: RunConfig) -> UnlabeledBatch:
    m = config.labeled_batch * config.unlabeled_ratio
    n = dataset.unlabeled_x.shape[0]
    idx = rng.choice(n, size=m, replace=m > n)
    raw = dataset.unlabeled_x[idx]
    return UnlabeledBatch(
        indices=idx,
        weak=augment_weak(raw, dataset.feature_scale, rng),
        strong=augment_strong(raw, dataset.feature_scale, rng),
        true_labels=dataset.unlabeled_y[idx],
    )


def pseudo_label(weak_probs: np.ndarray, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels by row argmax (ties to the lowest class index) and the
    confidence mask against each label's threshold."""
    labels = np.argmax(weak_probs, axis=1)
    confident = weak_probs.max(axis=1) >= thresholds[labels]
    return labels, confident


def curriculum_thresholds(counts: np.ndarray, conf_threshold: float) -> np.ndarray:
    """Per-class thresholds scaled by how readily each class is learned.

    Classes with fewer confident predictions get lower thresholds
    (floored at 0.5, or at the base threshold when that is lower) so they
    can catch up; no class is ever stricter than the base. With no signal
    yet every class uses the base threshold.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.max() <= 0:
        return np.full(counts.shape, conf_threshold)
    return np.maximum(min(0.5, conf_threshold), conf_threshold * counts / counts.max())


def _nll(log_cond: Tensor, labels: np.ndarray, n_classes: int) -> Tensor:
    """Per-row negative log-likelihood of ``labels``, one tape record.

    The forward is the chain ``-(log_cond * onehot).sum(axis=1)``. A
    non-finite product leaves its row sum non-finite and negation keeps a
    finite value finite, so the sum's check stands for all three. The
    reverse pass gives ``log_cond`` the chain's gradient, ``(-g)[:, None]
    * onehot``.
    """
    onehot = np.eye(n_classes)[labels]
    with np.errstate(all="ignore"):
        prod = log_cond.data * onehot
    summed = prod.sum(axis=1)
    _check_finite(summed, "sum", ("mul", lambda: prod))
    return _result(-summed, log_cond.tape, (log_cond, lambda g: (-g)[:, None] * onehot))


def train_step(state: TrainState, labeled: tuple[np.ndarray, np.ndarray],
               unlabeled: UnlabeledBatch | None, config: RunConfig) -> StepStats:
    n_classes = state.head.n_classes
    state.optimizer.zero_grad()
    tape = Tape()
    stats = StepStats()

    xl, yl = labeled
    zl = state.backbone.embed(Tensor(xl), tape)
    loss_sup = _nll(log_conditional(state.head, zl), yl, n_classes).mean()
    stats.loss_sup = loss_sup.item()
    loss_total = loss_sup

    if unlabeled is not None:
        m = unlabeled.weak.shape[0]
        zw = state.backbone.embed(Tensor(unlabeled.weak), tape)
        probs = conditional(state.head, zw.data).data  # untaped: labels carry no gradient

        if config.gate.enabled and state.gate.fitted:
            keep_gate = gate_mask(state.gate, state.head, zw.data)
            stats.outlier_rate = float(1.0 - keep_gate.mean())
        else:
            keep_gate = np.ones(m, dtype=bool)

        if config.curriculum:
            thresholds = curriculum_thresholds(state.class_counts(), config.conf_threshold)
        else:
            thresholds = np.full(n_classes, config.conf_threshold)
        labels_u, confident = pseudo_label(probs, thresholds)
        kept = confident & keep_gate
        stats.pseudo_rate, stats.pseudo_acc = pseudo_quality(kept, labels_u, unlabeled.true_labels)

        zs = None
        if config.lambda_u > 0:
            zs = state.backbone.embed(Tensor(unlabeled.strong), tape)
            nll_u = _nll(log_conditional(state.head, zs), labels_u, n_classes)
            loss_unsup = tsum(nll_u * Tensor(kept.astype(np.float64))) / m
            stats.loss_unsup = loss_unsup.item()
            loss_total = loss_total + config.lambda_u * loss_unsup

        if config.moments.max_order >= 1:
            mom_mask = keep_gate if config.gate.exclude_from_mom else np.ones(m, dtype=bool)
            if mom_mask.any():
                if config.mom_view == "strong" and zs is None:
                    zs = state.backbone.embed(Tensor(unlabeled.strong), tape)
                src = zw if config.mom_view == "weak" else zs
                mom_total, per_order = mom_loss(
                    src, config.moments, head=state.head, sample_mask=mom_mask
                )
                stats.loss_mom_total = mom_total.item()
                for p, t in per_order.items():
                    setattr(stats, f"loss_mom_p{p}", t.item())
                loss_total = loss_total + mom_total

        # Track each visited sample's current confident prediction (or -1):
        # the per-class census of these statuses drives the curriculum.
        fixed_confident = probs.max(axis=1) >= config.conf_threshold
        state.unlabeled_status[unlabeled.indices] = np.where(
            fixed_confident, labels_u, -1
        )

    backward(loss_total)
    tape.clear()  # break the tape's reference cycles so this step's memory is freed now
    stats.grad_scale = clip_global_norm(state.parameters(), config.clip_norm)
    state.optimizer.step()
    if state.ema is not None:
        d = config.ema_decay
        for p in state.parameters():
            state.ema[p.name] *= d
            state.ema[p.name] += (1.0 - d) * p.value
    state.step += 1
    stats.loss_total = loss_total.item()
    if state.gate.fitted:
        stats.outlier_tau = state.gate.tau
    return stats


@contextmanager
def _ema_weights(state: TrainState):
    """Run the body on the EMA shadow weights, if any, then restore the live ones."""
    params = state.parameters() if state.ema is not None else []
    saved = [p.value.copy() for p in params]
    for p in params:
        p.value[...] = state.ema[p.name]
    try:
        yield
    finally:
        for p, value in zip(params, saved):
            p.value[...] = value


def evaluate(state: TrainState, x: np.ndarray, y: np.ndarray) -> EvalResult:
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty set")
    with _ema_weights(state):
        z = state.backbone.embed(Tensor(x))
        scores = state.head.class_log_scores(z).data
    pred = np.argmax(scores, axis=1)
    accuracy = float((pred == y).mean())
    n_classes = state.head.n_classes
    per_class = np.array(
        [float((pred[y == c] == c).mean()) if (y == c).any() else 1.0
         for c in range(n_classes)]
    )
    if state.head.generative:
        compact = compactness(z.data, pred, state.head.centers.value)
    else:
        compact = -1.0  # sentinel: the linear head has no cluster centers
    return EvalResult(accuracy=accuracy, per_class=per_class, compactness=compact)


def _evaluate_at(step: int, state: TrainState, dataset: Dataset) -> EvalResult:
    """``evaluate`` on the test split; a numeric fault names the step."""
    try:
        return evaluate(state, dataset.test_x, dataset.test_y)
    except FloatingPointError as e:
        raise FloatingPointError(f"step {step}: eval: {e}") from e


def _largest_step_product(config: RunConfig, spec: SyntheticSpec) -> int:
    """M·N·K of the largest matrix product one training step forms.

    A backbone layer over the larger of the two batches (each view is
    embedded on its own), or the moment loss's matmul of its V lower
    product levels with the 2·latent_dim columns of its reverse pass
    (``moments._reverse_matmul_size``).
    """
    rows = config.labeled_batch * max(1, config.unlabeled_ratio if config.ssl_active else 1)
    widths = (spec.ambient_dim, *HIDDEN_WIDTHS, config.latent_dim)
    layer = max(a * b for a, b in zip(widths, widths[1:]))
    return rows * max(layer, _reverse_matmul_size(config.moments.max_order, config.latent_dim))


def run(config: RunConfig, data_spec: SyntheticSpec, out_dir=None):
    """Execute a full training run.

    Emits one metrics row at step 0 and every ``eval_every`` steps
    (always including the final step). A numeric fault raises
    ``FloatingPointError`` as ``step N: ...``, or ``step N: eval: ...``
    when evaluation raised it. When ``out_dir`` is given, writes
    metrics.csv, manifest.json, and checkpoint.bin there, each to a
    temporary file renamed into place. Returns ``(report, state, manifest)``.
    Leaves numpy's BLAS on one thread for the rest of the process when
    every product of a training step is under OpenBLAS's one-thread limit,
    and at its count from before gmix set it otherwise (``gmix._blas``).
    """
    # Call-time imports: ``config`` imports this module, and the benchmark's
    # tracer patches ``checkpoint.save_checkpoint`` where it is defined.
    from .checkpoint import model_arrays, save_checkpoint
    from .config import config_hash, flatten_config

    _blas.limit_threads(one=_largest_step_product(config, data_spec) < _blas.ONE_THREAD_LIMIT)
    started = time.perf_counter()
    dataset = generate(data_spec)
    state = init_state(config, dataset)
    report = MetricsReport()
    report.append(0, StepStats(), _evaluate_at(0, state, dataset))

    for step in range(1, config.steps + 1):
        try:
            if config.gate.enabled and state.step % config.gate.refresh_every == 0:
                labeled_z = state.backbone.embed(Tensor(dataset.labeled_x))
                fit_threshold(state.gate, labeled_z.data, state.head)
            labeled = sample_labeled(dataset, state.rng, config)
            unlabeled = sample_unlabeled(dataset, state.rng, config) if config.ssl_active else None
            stats = train_step(state, labeled, unlabeled, config)
        except FloatingPointError as e:
            raise FloatingPointError(f"step {step}: {e}") from e
        if step % config.eval_every == 0 or step == config.steps:
            report.append(step, stats, _evaluate_at(step, state, dataset))

    flat = flatten_config(config, data_spec)
    manifest = {
        "seed": config.seed,
        "config": flat,
        "config_hash": config_hash(flat),
        "wall_clock_sec": time.perf_counter() - started,
        "final_metrics": report.final,
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report.to_csv(out_dir / "metrics.csv")
        with atomic_write(out_dir / "manifest.json") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        with _ema_weights(state):  # the weights the final metrics were measured on
            save_checkpoint(out_dir / "checkpoint.bin", model_arrays(state.backbone, state.head))
    return report, state, manifest
