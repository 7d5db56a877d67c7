"""Backbone and final classification layers.

The mixture heads model one axis-aligned Gaussian cluster per class in
the latent space, so they expose the per-class joint densities and the
Bayes conditional. All density arithmetic runs in log-space;
probabilities are only materialized through a shifted softmax, which
stays finite for points arbitrarily far from every cluster center. Every
head scores the classes through one method, ``class_log_scores``: the
per-class log joint for a mixture head, the logits for the linear head.
With uniform weights 1/K, the mixture's log density of a sample is
``logsumexp(class_log_scores, axis=1) - log K``.

A head takes no tape: ``class_log_scores``, :func:`log_conditional` and
:func:`conditional` record on the tape of the embeddings they score,
taking each head parameter's leaf on ``z.tape``. A taped z gives the head
its gradient from every loss that scores it; an untaped z records nothing.

KMeans is the AAGMM head with its log variances pinned at an untaped
constant 0 and ``class_log_scores`` aliased to AAGMM's: exp(-0.0) = 1.0,
x * 1.0 = x and x - 0.0 = x, so its values are the unit-variance formula's
bit for bit. A KMeans step records 37 tape entries (35 in global moment
mode) against AAGMM's 40 (36): no log-variance leaf, exp(-0.5 * lv) untaped.
Both mixture heads evaluate their per-class log joint density through
one primitive, :func:`_mixture_log_joint`: one tape record with a
hand-derived reverse pass. Taped training, untaped scoring and
evaluation all run it. Its forward, like the outlier gate's scores, takes
the weighted squared distances from :func:`squared_distance_blocks`:

- Layout: each row block of about ``DISTANCE_BLOCK_ENTRIES`` entries is
  laid out dimension-major, (D, K, rows), in one reused buffer, so every
  subtract, square and weighting is a long loop along the rows rather
  than K * rows loops of length D. A large pool never builds its full
  (n, K, D) residuals.
- Summation order: the sum over D repeats numpy's pairwise order for a
  contiguous axis (:func:`_pairwise_sum0`), so each distance equals the
  row-major ``.sum(axis=2)`` bit for bit.

Likewise each backbone layer, and the linear head, is one dense-layer
primitive, :func:`_dense_layer`: matmul, bias add and rectifier in one
tape record. An untaped :meth:`Backbone.embed` runs the whole layer stack
one row block of about ``autodiff.BLOCK_ENTRIES`` entries at a time, so
its intermediates stay in cache, and checks each block's output once.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import (
    Parameter,
    Tape,
    Tensor,
    _all_finite,
    _check_finite,
    _join_tape,
    _leaky,
    _logsumexp_kept,
    _matmul_data,
    _result,
    _unbroadcast,
    exp,
    row_blocks,
)

LOG_2PI = math.log(2.0 * math.pi)

# Negative-side slope of the backbone's hidden-layer rectifier.
LEAKY_SLOPE = 0.01

HIDDEN_WIDTHS = (64, 64)

HEAD_KINDS = ("linear", "kmeans", "aagmm")


class Backbone:
    """Small perceptron mapping ambient features to a latent embedding.

    Two leaky-rectified hidden layers followed by a linear projection
    down to the latent dimension.
    """

    def __init__(self, ambient_dim: int, latent_dim: int, seed) -> None:
        rng = np.random.default_rng(seed)
        widths = (ambient_dim, *HIDDEN_WIDTHS, latent_dim)
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
        """The latent embedding of each row of ``x``, shape (n, latent_dim).

        A taped ``x`` records on its own tape; ``tape`` starts taping raw
        data. A taped call runs the layers once over all rows, one checked
        record per layer. Every untaped call runs the whole layer stack one
        row block at a time, sized for the widest layer, into one output, so
        no full-size intermediate leaves the cache. At the default widths a
        row's value does not depend on the blocking; at a layer width 1-4 past
        a multiple of 8, OpenBLAS's small-matrix kernel can round otherwise.

        The untaped blocks skip the layers' finiteness checks and check each
        block's output once. That is exact: a non-finite entry in a row of
        one layer's output makes every entry of that row of the next
        product non-finite (inf * 0 and inf - inf are NaN, inf plus a finite
        value is inf), and the bias add and the rectifier keep it so. A
        block that fails is run again through the checked layers, which
        raise the error naming ``matmul`` or ``add``.
        """
        h = x if isinstance(x, Tensor) else Tensor(x)
        tape = h.tape if tape is None else tape
        last = len(self.weights) - 1
        layers = [(w.use(tape), b.use(tape), LEAKY_SLOPE if i < last else None)
                  for i, (w, b) in enumerate(zip(self.weights, self.biases))]

        def run(z: Tensor, check: bool = True) -> Tensor:
            for w, b, slope in layers:
                z = _dense_layer(z, w, b, slope, check)
            return z

        if tape is not None or h.ndim != 2:  # the latter raises, naming matmul
            return run(h)
        # No rows is one empty block, so a wrong input width still raises.
        blocks = row_blocks(h.shape[0], max(w.shape[1] for w in self.weights)) or [(0, 0)]
        if len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] == 1:
            # numpy multiplies a lone row by BLAS's matrix-vector routine,
            # which rounds differently from the matrix product; keep it in
            # the block before.
            blocks[-2:] = [(blocks[-2][0], blocks[-1][1])]
        out = np.empty((h.shape[0], self.weights[-1].shape[1]))
        for lo, hi in blocks:
            with np.errstate(all="ignore"):  # a failing block warns in its checked run
                z = run(Tensor(h.data[lo:hi]), check=False)
            if not _all_finite(z.data):
                z = run(Tensor(h.data[lo:hi]))  # raises, naming the op
            out[lo:hi] = z.data
        return Tensor(out)


def _dense_layer(h: Tensor, w: Tensor, b: Tensor, slope: float | None,
                 check: bool = True) -> Tensor:
    """``leaky_relu(h @ w + b, slope)`` as one tape record; ``h @ w + b`` if slope is None.

    The forward adds the bias into the matmul's result in place and
    rectifies it with ``autodiff._leaky``, as ``leaky_relu`` does. The
    bias add's check stands for the matmul's too, a non-finite product
    staying non-finite after adding a bias. ``check=False`` skips it, for a
    caller that checks a later result instead (see :meth:`Backbone.embed`).
    The rectifier cannot make a finite value non-finite. Without a tape the
    result is a bare tensor. For a slope in [0, 1] the output is positive
    exactly where the sum was, so the hand-derived reverse pass masks by
    the output where the chain masked by the sum: the sum's gradient is
    ``where(out > 0, g, g * slope)``, the chain's ``g * where(sum > 0, 1,
    slope)`` since ``g * 1.0 == g``. As in the chain, b gets its row sum,
    w gets ``h.T @`` it and h gets it ``@ w.T``.
    """
    data = _matmul_data(h, w)
    np.add(data, b.data, out=data)
    if check:
        _check_finite(data, "add", ("matmul", lambda: h.data @ w.data))
    if slope is not None:
        data = _leaky(data, slope)
    tape = _join_tape(h, w, b)
    if tape is None:
        return Tensor(data)
    return _result(data, tape,
                   (w, lambda d: h.data.T @ d),
                   (b, lambda d: d.sum(axis=0)),
                   (h, lambda d: d @ w.data.T),
                   shared=lambda g: g if slope is None else np.where(data > 0.0, g, g * slope))


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

    def log_variances(self, tape: Tape | None = None) -> Tensor:
        """The per-class log variances, (K, D): the parameter's leaf on ``tape``."""
        return self.log_var.use(tape)

    def variances(self) -> np.ndarray:
        return np.exp(self.log_variances().data)

    def class_log_scores(self, z: Tensor) -> Tensor:
        return _mixture_log_joint(z, self.centers.use(z.tape), self.log_variances(z.tape))


class KmeansHead(AagmmHead):
    """The AAGMM head at identity covariance: its log variances are an untaped 0."""

    kind = "kmeans"

    def __init__(self, centers: np.ndarray) -> None:
        self.centers = Parameter(centers, name="head.centers")
        self.n_classes, self.latent_dim = self.centers.shape
        self._log_var = Tensor(np.zeros(self.centers.shape))

    def parameters(self) -> list[Parameter]:
        return [self.centers]

    def log_variances(self, tape: Tape | None = None) -> Tensor:
        return self._log_var

    # Named here, not only inherited, so the benchmark tracer finds it in vars(KmeansHead).
    class_log_scores = AagmmHead.class_log_scores


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

    def class_log_scores(self, z: Tensor) -> Tensor:
        return _dense_layer(z, self.weight.use(z.tape), self.bias.use(z.tape), None)


def log_conditional(head, z) -> Tensor:
    """Row-normalized class log probabilities, shape (n, K).

    One tape record past the class scores: the chain ``scores -
    logsumexp(scores, axis=1, keepdims=True)``, with its arithmetic and
    its finiteness checks, named ``logsumexp`` and ``sub``; the logsumexp
    is ``autodiff.logsumexp``'s own forward, ``_logsumexp_kept``. The
    reverse pass gives the scores what the chain's two records deposited,
    in their order: ``g``, plus the row sum of ``-g`` spread by the
    softmax.
    """
    z = z if isinstance(z, Tensor) else Tensor(z)
    _check_width(head.latent_dim, z)
    scores = head.class_log_scores(z)
    lse, shifted, total = _logsumexp_kept(scores.data, 1)
    with np.errstate(all="ignore"):
        data = np.subtract(scores.data, lse)
    # The scores are finite, so lse is never -inf: a non-finite lse makes its row non-finite.
    _check_finite(data, "sub", ("logsumexp", lambda: lse))
    softmax = shifted / total if scores.tape is not None else None
    return _result(data, scores.tape,
                   (scores, lambda g: g + _unbroadcast(-g, lse.shape) * softmax))


def conditional(head, z) -> Tensor:
    """Class probabilities, each row summing to 1."""
    return exp(log_conditional(head, z))


def _check_width(width: int, z) -> None:
    if z.ndim != 2 or z.shape[1] != width:
        raise ValueError(f"expected embeddings of width {width}, got shape {z.shape}")


# Entries per row block of :func:`squared_distance_blocks`: one reused
# 2 MiB (D, K, rows) buffer, 4,096 rows at D = K = 8. Each of its
# elementwise ops costs per call, so it wants longer blocks than
# ``autodiff.BLOCK_ENTRIES``: a score-pool pass over 20,000 rows took 33.3
# / 33.9 / 32.6 / 27.7 / 28.5 / 28.5 ms at 512 / 1,024 / 2,048 / 4,096 /
# 8,192 / 16,384 rows a block, and 33.1 ms in one block (2 vCPU, numpy
# 2.4.6). This is the smallest size on that plateau; one block for the
# whole pool would also add 10 MiB to the peak.
DISTANCE_BLOCK_ENTRIES = 1 << 18


def squared_distance_blocks(z: np.ndarray, centers: np.ndarray, weights: np.ndarray,
                            weigh=np.multiply):
    """Yield ``(lo, hi, quad)``, the weighted squared distances of rows lo..hi.

    ``quad[k, i - lo]`` is the sum over d of ``weigh((z[i, d] - centers[k, d])
    ** 2, weights[k, d])``.
    The rows come in blocks of about ``DISTANCE_BLOCK_ENTRIES`` entries.
    Each block is laid out dimension-major in one reused (D, K, rows)
    buffer, so every subtract, square and weighting runs along the rows,
    and :func:`_pairwise_sum0` sums over D in numpy's order: each value
    equals the row-major ``(z[:, None] - centers) ** 2 ... .sum(axis=2)``
    bit for bit. ``quad`` lives in the buffer: consume a block, in place if
    need be, before asking for the next.
    """
    _check_width(centers.shape[1], z)
    k, d = centers.shape
    blocks = row_blocks(z.shape[0], centers.size, DISTANCE_BLOCK_ENTRIES)
    buf = np.empty((d, k, blocks[0][1] if blocks else 0))
    centers_t = centers.T[:, :, None]
    weights_t = weights.T[:, :, None]
    for lo, hi in blocks:
        sq = buf[:, :, :hi - lo]
        np.subtract(np.ascontiguousarray(z[lo:hi].T)[:, None, :], centers_t, out=sq)
        np.square(sq, out=sq)
        weigh(sq, weights_t, out=sq)
        yield lo, hi, _pairwise_sum0(sq)


def _pairwise_sum0(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 into ``a[0]``, in place, adding as numpy's reduce does.

    numpy sums a contiguous axis of n terms pairwise: a left fold below 8
    terms; up to 128, eight strided accumulators combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the remainder folded in;
    above 128, the two halves (the first a multiple of 8 long) summed alike
    and added. Its reduction starts from the identity +0.0, which only turns
    an all -0.0 sum into +0.0. Doing the same here, each add a whole (K,
    rows) slice, gives ``a.sum(axis=0)`` of the same values laid out with
    that axis last, bit for bit.
    """
    n = a.shape[0]
    if n < 8:
        for i in range(1, n):
            np.add(a[0], a[i], out=a[0])
    elif n <= 128:
        tail = n - n % 8
        for i in range(8, tail, 8):
            np.add(a[:8], a[i:i + 8], out=a[:8])
        np.add(a[0:8:2], a[1:8:2], out=a[0:8:2])
        np.add(a[0:8:4], a[2:8:4], out=a[0:8:4])
        np.add(a[0], a[4], out=a[0])
        for i in range(tail, n):
            np.add(a[0], a[i], out=a[0])
    else:
        half = n // 2 - n // 2 % 8
        np.add(_pairwise_sum0(a[:half]), _pairwise_sum0(a[half:]), out=a[0])
        return a[0]
    return np.add(a[0], 0.0, out=a[0])


def _mixture_log_joint(z: Tensor, mu: Tensor, lv: Tensor) -> Tensor:
    """Axis-aligned Gaussian log density of each row under each class, (n, K).

    ``lv`` holds the log variances; KMeans passes constant zeros. One tape
    record. The forward is the elementwise chain
    ``const - 0.5 * sum(lv) - 0.5 * sum((z - mu)**2 * exp(-lv))`` in that
    order, per row block of :func:`squared_distance_blocks`, written
    through the transposed view of the result. The reverse pass is
    hand-derived and repeats the arithmetic the op-by-op chain did, so both
    give the same bits:

    - quad gets -g * 0.5, spread over D;
    - diff gets (quad's gradient * exp(-lv)) * (2 * diff);
    - mu gets the sum over rows of -diff's gradient, z the sum over classes;
    - lv gets 0.5 * -(g summed over rows) from the log determinant, plus
      -(exp(-lv) * the row sum of quad's gradient * diff**2).
    """
    k, d = mu.shape
    with np.errstate(all="ignore"):
        inv_var = np.exp(-lv.data)
        base = -0.5 * d * LOG_2PI - 0.5 * lv.data.sum(axis=1)
        # With no rows these are the only values a non-finite lv reaches.
        _check_finite(inv_var, "log_joint")
        _check_finite(base, "log_joint")
        data = np.empty((z.shape[0], k))
        for lo, hi, quad in squared_distance_blocks(z.data, mu.data, inv_var):
            np.multiply(0.5, quad, out=quad)
            np.subtract(base[:, None], quad, out=data[lo:hi].T)
    # Every intermediate feeds the result through +, *, exp or sum, so the
    # result is finite exactly when each step of the chain was.
    _check_finite(data, "log_joint")

    def grads(g):
        # All three gradients are formed here, so the (n, K, D) residuals
        # die with this call: kept longer, they made the allocator return
        # and re-fault the step's memory, about 150 minor page faults per
        # mom4 step.
        diff = z.data[:, None, :] - mu.data  # the forward's residuals, recomputed
        gq = ((-g) * 0.5)[:, :, None]
        gd = gq * inv_var * (2 * diff)
        d_lv = None
        if lv.tape is not None:  # KMeans' pinned zeros take no gradient
            ge = (gq * np.square(diff)).sum(axis=0)
            d_lv = ((-g.sum(axis=0)) * 0.5)[:, None] + (-(ge * inv_var))
        return _unbroadcast(gd, (z.shape[0], 1, d)).reshape(z.shape), (-gd).sum(axis=0), d_lv

    return _result(data, _join_tape(z, mu, lv), (z, lambda s: s[0]), (mu, lambda s: s[1]),
                   (lv, lambda s: s[2]), shared=grads)


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
