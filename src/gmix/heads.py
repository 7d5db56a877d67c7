"""Backbone and final classification layers.

The mixture heads model one axis-aligned Gaussian cluster per class in
the latent space, so they expose the per-class joint densities, the
mixture prior, and the Bayes conditional. All density arithmetic runs
in log-space; probabilities are only materialized through a shifted
softmax, which stays finite for points arbitrarily far from every
cluster center.

Both mixture heads evaluate their per-class log joint density through
one primitive, :func:`_mixture_log_joint`: one tape record with a
hand-derived reverse pass, and a forward that works through the rows in
blocks, so scoring a large pool never builds the full (n, K, D) residual
array. Taped training, untaped scoring and evaluation all run it.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import (
    Parameter,
    Tape,
    Tensor,
    _check_finite,
    _join_tape,
    _result,
    _unbroadcast,
    exp,
    leaky_relu,
    logsumexp,
    matmul,
    row_blocks,
)

LOG_2PI = math.log(2.0 * math.pi)

HEAD_KINDS = ("linear", "kmeans", "aagmm")


class Backbone:
    """Small perceptron mapping ambient features to a latent embedding.

    Two leaky-rectified hidden layers followed by a linear projection
    down to the latent dimension.
    """

    def __init__(self, ambient_dim: int, latent_dim: int = 8,
                 hidden: tuple[int, ...] = (64, 64), seed=0) -> None:
        rng = np.random.default_rng(seed)
        widths = (ambient_dim, *hidden, latent_dim)
        self.ambient_dim = ambient_dim
        self.latent_dim = latent_dim
        self.weights: list[Parameter] = []
        self.biases: list[Parameter] = []
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            w = rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in)
            self.weights.append(Parameter(w, name=f"backbone.w{i}"))
            self.biases.append(Parameter(np.zeros(fan_out), name=f"backbone.b{i}"))

    def parameters(self) -> list[Parameter]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def embed(self, x, tape: Tape | None = None) -> Tensor:
        h = x if isinstance(x, Tensor) else Tensor(x)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = matmul(h, w.use(tape)) + b.use(tape)
            if i < last:
                h = leaky_relu(h)
        return h


class AagmmHead:
    """One trainable axis-aligned Gaussian per class.

    Per-cluster diagonal variances are stored as logs, so they stay
    strictly positive without constrained optimization.
    """

    kind = "aagmm"
    generative = True

    def __init__(self, centers: np.ndarray, log_var: np.ndarray) -> None:
        centers = np.asarray(centers, dtype=np.float64)
        log_var = np.asarray(log_var, dtype=np.float64)
        if centers.shape != log_var.shape:
            raise ValueError("centers and log_var must have the same shape")
        self.n_classes, self.latent_dim = centers.shape
        self.centers = Parameter(centers, name="head.centers")
        self.log_var = Parameter(log_var, name="head.log_var")

    def parameters(self) -> list[Parameter]:
        return [self.centers, self.log_var]

    def variances(self) -> np.ndarray:
        return np.exp(self.log_var.value)

    def log_joint(self, z: Tensor, tape: Tape | None = None) -> Tensor:
        return _mixture_log_joint(z, self.centers.use(tape), self.log_var.use(tape))

    class_log_scores = log_joint


class KmeansHead:
    """Mixture head restricted to identity covariance: spherical clusters."""

    kind = "kmeans"
    generative = True

    def __init__(self, centers: np.ndarray) -> None:
        centers = np.asarray(centers, dtype=np.float64)
        self.n_classes, self.latent_dim = centers.shape
        self.centers = Parameter(centers, name="head.centers")

    def parameters(self) -> list[Parameter]:
        return [self.centers]

    def variances(self) -> np.ndarray:
        return np.ones((self.n_classes, self.latent_dim))

    def log_joint(self, z: Tensor, tape: Tape | None = None) -> Tensor:
        return _mixture_log_joint(z, self.centers.use(tape), None)

    class_log_scores = log_joint


class LinearSoftmaxHead:
    """Conventional discriminative final layer: affine logits + softmax."""

    kind = "linear"
    generative = False

    def __init__(self, weight: np.ndarray, bias: np.ndarray) -> None:
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        self.latent_dim, self.n_classes = weight.shape
        self.weight = Parameter(weight, name="head.weight")
        self.bias = Parameter(bias, name="head.bias")

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def class_log_scores(self, z: Tensor, tape: Tape | None = None) -> Tensor:
        return matmul(z, self.weight.use(tape)) + self.bias.use(tape)


def log_joint(head, z, tape: Tape | None = None) -> Tensor:
    """Per-class log joint density, shape (n, K). Mixture heads only."""
    if not head.generative:
        raise TypeError(f"{head.kind} head does not model a joint density")
    z = z if isinstance(z, Tensor) else Tensor(z)
    return head.log_joint(z, tape)


def log_prior(head, z, tape: Tape | None = None) -> Tensor:
    """Log mixture density of the sample itself, shape (n,).

    Uniform mixture weights 1/K make the summed per-class densities a
    proper density.
    """
    lj = log_joint(head, z, tape)
    return logsumexp(lj, axis=1) - math.log(head.n_classes)


def log_conditional(head, z, tape: Tape | None = None) -> Tensor:
    """Row-normalized class log probabilities, shape (n, K)."""
    z = z if isinstance(z, Tensor) else Tensor(z)
    _check_width(head.latent_dim, z)
    scores = head.class_log_scores(z, tape)
    return scores - logsumexp(scores, axis=1, keepdims=True)


def conditional(head, z, tape: Tape | None = None) -> Tensor:
    """Class probabilities, each row summing to 1."""
    return exp(log_conditional(head, z, tape))


def _check_width(width: int, z) -> None:
    if z.ndim != 2 or z.shape[1] != width:
        raise ValueError(f"expected embeddings of width {width}, got shape {z.shape}")


def squared_residual_blocks(z: np.ndarray, centers: np.ndarray):
    """Yield ``(lo, hi, sq)`` with ``sq[i - lo, k] = (z[i] - centers[k]) ** 2``.

    The rows come in blocks of about ``autodiff.BLOCK_ENTRIES`` entries,
    all written into one reused (rows, K, D) buffer: consume a block before
    asking for the next. Each row's values do not depend on the blocking.
    """
    _check_width(centers.shape[1], z)
    blocks = row_blocks(z.shape[0], centers.size)
    buf = np.empty((blocks[0][1] if blocks else 0, *centers.shape))
    for lo, hi in blocks:
        sq = buf[:hi - lo]
        np.subtract(z[lo:hi, None, :], centers, out=sq)
        np.square(sq, out=sq)
        yield lo, hi, sq


def _mixture_log_joint(z: Tensor, mu: Tensor, lv: Tensor | None) -> Tensor:
    """Axis-aligned Gaussian log density of each row under each class, (n, K).

    ``lv`` holds the log variances; None means unit variances (KMeans).
    One tape record. The forward is the elementwise chain
    ``const - 0.5 * sum(lv) - 0.5 * sum((z - mu)**2 * exp(-lv))`` in that
    order, per row block. The reverse pass is hand-derived and repeats the
    arithmetic the op-by-op chain did, so both give the same bits:

    - quad gets -g * 0.5, spread over D;
    - diff gets (quad's gradient * exp(-lv)) * (2 * diff);
    - mu gets the sum over rows of -diff's gradient, z the sum over classes;
    - lv gets 0.5 * -(g summed over rows) from the log determinant, plus
      -(exp(-lv) * the row sum of quad's gradient * diff**2).
    """
    k, d = mu.shape
    with np.errstate(all="ignore"):
        base = -0.5 * d * LOG_2PI
        inv_var = None
        if lv is not None:
            inv_var = np.exp(-lv.data)
            base = base - 0.5 * lv.data.sum(axis=1)
            # With no rows these are the only values a non-finite lv reaches.
            _check_finite(inv_var, "log_joint")
            _check_finite(base, "log_joint")
        data = np.empty((z.shape[0], k))
        for lo, hi, sq in squared_residual_blocks(z.data, mu.data):
            if inv_var is not None:
                np.multiply(sq, inv_var, out=sq)
            quad = sq.sum(axis=2)
            np.multiply(0.5, quad, out=quad)
            np.subtract(base, quad, out=data[lo:hi])
    # Every intermediate feeds the result through +, *, exp or sum, so the
    # result is finite exactly when each step of the chain was.
    _check_finite(data, "log_joint")
    tape = _join_tape(z, mu) if lv is None else _join_tape(z, mu, lv)

    memo: dict = {}

    def grads(g):
        # The routes below share one computation per reverse pass.
        if memo.get("g") is not g:
            diff = z.data[:, None, :] - mu.data  # the forward's residuals, recomputed
            gq = np.broadcast_to(((-g) * 0.5)[:, :, None], diff.shape)
            gp = gq if inv_var is None else gq * inv_var
            gd = gp * (2 * diff)
            memo.update(g=g, z=_unbroadcast(gd, (z.shape[0], 1, d)).reshape(z.shape),
                        mu=(-gd).sum(axis=0))
            if lv is not None:
                ge = (gq * np.square(diff)).sum(axis=0)
                memo["lv"] = (np.broadcast_to(((-g.sum(axis=0)) * 0.5)[:, None], (k, d))
                              + (-(ge * inv_var)))
        return memo

    routes = [(z, lambda g: grads(g)["z"]), (mu, lambda g: grads(g)["mu"])]
    if lv is not None:
        routes.append((lv, lambda g: grads(g)["lv"]))
    return _result(data, tape, *routes)


def init_head(kind: str, n_classes: int, latent_dim: int, seed=0):
    """Build a head with seeded random initialization.

    Centers are standard normal; mixture variances start uniform in
    [0.9, 1.1].
    """
    if n_classes < 1 or latent_dim < 1:
        raise ValueError("n_classes and latent_dim must be at least 1")
    rng = np.random.default_rng(seed)
    if kind == "aagmm":
        centers = rng.standard_normal((n_classes, latent_dim))
        log_var = np.log(rng.uniform(0.9, 1.1, size=(n_classes, latent_dim)))
        return AagmmHead(centers, log_var)
    if kind == "kmeans":
        centers = rng.standard_normal((n_classes, latent_dim))
        return KmeansHead(centers)
    if kind == "linear":
        weight = rng.standard_normal((latent_dim, n_classes)) / math.sqrt(latent_dim)
        return LinearSoftmaxHead(weight, np.zeros(n_classes))
    raise ValueError(f"unknown head kind {kind!r}; expected one of {HEAD_KINDS}")


def sigmoid_equivalence_params(mu_a: float, mu_b: float, sigma: float) -> tuple[float, float]:
    """Slope and intercept making sigmoid(m*x + b) equal the two-cluster conditional.

    For two equal-variance 1-D Gaussians, the log density ratio is
    affine in x: (mu_a - mu_b)/sigma^2 * x + (mu_b^2 - mu_a^2)/(2 sigma^2).
    The intercept is taken from this derivation so the reproduction of
    the conditional is exact.
    """
    if sigma == 0.0:
        raise ValueError("sigma must be nonzero")
    var = sigma * sigma
    m = (mu_a - mu_b) / var
    b = (mu_b * mu_b - mu_a * mu_a) / (2.0 * var)
    return m, b
