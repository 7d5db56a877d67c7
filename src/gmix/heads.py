"""Backbone and final classification layers.

The mixture heads model one axis-aligned Gaussian cluster per class in
the latent space, so they expose the per-class joint densities, the
mixture prior, and the Bayes conditional. All density arithmetic runs
in log-space; probabilities are only materialized through a shifted
softmax, which stays finite for points arbitrarily far from every
cluster center.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import (
    Parameter,
    Tape,
    Tensor,
    exp,
    leaky_relu,
    logsumexp,
    matmul,
    powi,
    reshape,
    tsum,
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
        n, d = z.shape[0], self.latent_dim
        mu = self.centers.use(tape)
        lv = self.log_var.use(tape)
        diff = reshape(z, (n, 1, d)) - mu
        quad = tsum(powi(diff, 2) * exp(-lv), axis=2)
        log_det = tsum(lv, axis=1)
        return (-0.5 * d * LOG_2PI) - 0.5 * log_det - 0.5 * quad

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
        n, d = z.shape[0], self.latent_dim
        mu = self.centers.use(tape)
        diff = reshape(z, (n, 1, d)) - mu
        quad = tsum(powi(diff, 2), axis=2)
        return (-0.5 * d * LOG_2PI) - 0.5 * quad

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
    _check_width(head, z)
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
    _check_width(head, z)
    scores = head.class_log_scores(z, tape)
    return scores - logsumexp(scores, axis=1, keepdims=True)


def conditional(head, z, tape: Tape | None = None) -> Tensor:
    """Class probabilities, each row summing to 1."""
    return exp(log_conditional(head, z, tape))


def _check_width(head, z: Tensor) -> None:
    if z.ndim != 2 or z.shape[1] != head.latent_dim:
        raise ValueError(
            f"expected embeddings of width {head.latent_dim}, got shape {z.shape}"
        )


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
