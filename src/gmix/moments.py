"""Latent moment constraints against a multivariate standard normal.

The order-p sample moment tensor generalizes the covariance matrix: its
entry at an index tuple (d1..dp) is the sample average of the product of
the corresponding centered coordinates. Each entry is penalized by its
squared distance to the standard-normal target, weighted so that every
hyper-diagonal class (entries sharing the same number of repeated axes)
contributes a total weight of exactly 1. This keeps the loss diagonally
dominant: the D diagonal variance terms are not drowned out by the
D(D-1) off-diagonal ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .autodiff import Tensor, exp, powi, reshape, tmean, tsum

MAX_ORDER = 4
MODES = ("global", "per-cluster-soft")

DEFAULT_ORDER_WEIGHTS = (1.0, 0.5, 0.25, 0.125)

# Below this total responsibility mass a cluster's moment estimate is
# meaningless; such clusters are dropped from the per-cluster average.
_MIN_CLUSTER_MASS = 1e-8


@dataclass(frozen=True)
class MomentSpec:
    """Which moment orders to constrain and how to center the samples.

    ``max_order`` of P constrains all orders 1..P; 0 disables the loss.
    """

    max_order: int = 0
    order_weights: tuple[float, float, float, float] = DEFAULT_ORDER_WEIGHTS
    mode: str = "per-cluster-soft"

    def __post_init__(self) -> None:
        if not 0 <= self.max_order <= MAX_ORDER:
            raise ValueError(f"max_order must be in 0..{MAX_ORDER}")
        if len(self.order_weights) != MAX_ORDER:
            raise ValueError(f"order_weights must have {MAX_ORDER} entries")
        if any(w < 0 for w in self.order_weights):
            raise ValueError("order weights must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def hyperdiag_count(indices: tuple[int, ...]) -> int:
    """Number of hyper-diagonals an index tuple lies on: p minus distinct count."""
    return len(indices) - len(set(indices))


@lru_cache(maxsize=None)
def stirling_partition(p: int, m: int) -> int:
    """Number of ways to partition p items into m nonempty blocks."""
    if p == 0 and m == 0:
        return 1
    if p == 0 or m == 0:
        return 0
    return m * stirling_partition(p - 1, m) + stirling_partition(p - 1, m - 1)


def class_size(p: int, dim: int, h: int) -> int:
    """Count of length-p index tuples over ``dim`` symbols with h hyper-diagonals.

    Tuples with h hyper-diagonals use exactly m = p - h distinct symbols:
    choose the symbols, partition the positions, assign symbols to blocks.
    """
    if not 0 <= h <= p - 1:
        raise ValueError("h must be in 0..p-1")
    m = p - h
    if m > dim:
        return 0
    return math.comb(dim, m) * math.factorial(m) * stirling_partition(p, m)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def target_moment(indices: tuple[int, ...]) -> float:
    """Standard-normal central product moment for one index tuple.

    Axes are independent, so the target is the product of univariate
    central moments: 0 whenever any axis appears an odd number of times,
    else the product of (count - 1)!! over the distinct axes.
    """
    out = 1.0
    for axis in set(indices):
        count = indices.count(axis)
        if count % 2 == 1:
            return 0.0
        out *= double_factorial(count - 1)
    return out


@lru_cache(maxsize=None)
def moment_targets(order: int, dim: int) -> np.ndarray:
    """Dense target tensor with ``order`` axes of extent ``dim``."""
    arr = np.zeros((dim,) * order)
    for idx in itertools.product(range(dim), repeat=order):
        arr[idx] = target_moment(idx)
    arr.setflags(write=False)
    return arr


def class_weight(p: int, dim: int, h: int) -> Fraction:
    """Exact per-entry weight for class h: the reciprocal of its size.

    Kept rational so the defining property (a class's weights sum to
    exactly 1) holds exactly; the dense float tensor realizes it to
    within one rounding of each entry.
    """
    return Fraction(1, class_size(p, dim, h))


@lru_cache(maxsize=None)
def weight_tensor(order: int, dim: int) -> np.ndarray:
    """Dense per-entry weights: the reciprocal of each entry's class size."""
    sizes = {h: class_size(order, dim, h) for h in range(order)}
    arr = np.zeros((dim,) * order)
    for idx in itertools.product(range(dim), repeat=order):
        arr[idx] = 1.0 / sizes[hyperdiag_count(idx)]
    arr.setflags(write=False)
    return arr


@dataclass
class CentralizedBatch:
    """Sub-populations prepared for moment estimation.

    ``populations`` has shape (n, G, dim): G is 1 in global mode, K in
    per-cluster mode. ``weights`` (n, G) are per-sample responsibilities
    (None means unit weights). ``mean_offset`` is the batch mean removed
    in global mode; the first-order loss measures this offset against
    the target mean of zero, since the centered data's own first moment
    vanishes identically.
    """

    populations: Tensor
    weights: Tensor | None
    mean_offset: Tensor | None


def centralize(z, mode: str, head=None, sample_mask=None) -> CentralizedBatch:
    """Center samples for moment estimation.

    global: subtract the (masked) batch mean, unit weights. In
    per-cluster-soft mode each cluster k yields the standardized
    residuals (z - mu_k) / sigma_k weighted by the sample's conditional
    responsibility for k; gradients flow through the responsibilities.
    ``sample_mask`` zeroes out the weight of excluded samples.
    """
    from .heads import conditional  # head types live one module up

    z = z if isinstance(z, Tensor) else Tensor(z)
    if z.ndim != 2:
        raise ValueError("expected samples of shape (n, dim)")
    n, dim = z.shape
    if n == 0:
        raise ValueError("cannot centralize an empty sample")
    mask = None
    if sample_mask is not None:
        mask = np.asarray(sample_mask, dtype=np.float64).reshape(n)
        if not mask.any():
            raise ValueError("sample_mask excludes every sample")
    if mode == "global":
        if mask is None:
            mean = tmean(z, axis=0)
        else:
            mean = tsum(z * Tensor(mask[:, None]), axis=0) / float(mask.sum())
        zc = z - mean
        pops = reshape(zc, (n, 1, dim))
        weights = None if mask is None else Tensor(mask[:, None])
        return CentralizedBatch(pops, weights, mean)
    if mode == "per-cluster-soft":
        if head is None or not getattr(head, "generative", False):
            raise ValueError("per-cluster-soft centralization requires a mixture head")
        tape = z.tape
        resp = conditional(head, z, tape)
        if mask is not None:
            resp = resp * Tensor(mask[:, None])
        mu = head.centers.use(tape)
        if head.kind == "aagmm":
            inv_sigma = exp(-0.5 * head.log_var.use(tape))
            pops = (reshape(z, (n, 1, dim)) - mu) * inv_sigma
        else:
            pops = reshape(z, (n, 1, dim)) - mu
        return CentralizedBatch(pops, resp, None)
    raise ValueError(f"unknown centralization mode {mode!r}")


def population_moments(pops: Tensor, weights: Tensor | None, order: int):
    """Order-p sample moment tensor of each population, shape (G,) + (dim,)*order.

    Built as iterated outer products of the (n, G, dim) samples, averaged
    over n, weighted by ``weights`` (n, G) when given. Returns
    ``(moments, active)``, where ``active`` marks the populations with
    enough weight mass to estimate; starved populations get their
    denominators patched to 1, so their moments are finite but meaningless.
    """
    n, groups, dim = pops.shape
    prod = pops
    for p in range(1, order):
        left = reshape(prod, (n, groups) + (dim,) * p + (1,))
        right = reshape(pops, (n, groups) + (1,) * p + (dim,))
        prod = left * right
    if weights is None:
        return tmean(prod, axis=0), np.ones(groups, dtype=bool)
    mass = tsum(weights, axis=0)
    active = mass.data >= _MIN_CLUSTER_MASS
    if not active.any():
        raise ValueError("all cluster responsibilities are degenerate (~0)")
    w_col = reshape(weights, (n, groups) + (1,) * order)
    sums = tsum(prod * w_col, axis=0)
    safe_mass = mass + Tensor(np.where(active, 0.0, 1.0))
    return sums / reshape(safe_mass, (groups,) + (1,) * order), active


def _population_loss(pops: Tensor, weights: Tensor | None, order: int):
    """Weighted moment discrepancy per population.

    Returns ``(per_group, active)``: a (G,) tensor of discrepancies, with
    starved populations masked to zero, and the mask of the survivors the
    caller averages over.
    """
    dim = pops.shape[2]
    moments, active = population_moments(pops, weights, order)
    targets = Tensor(moment_targets(order, dim))
    entry_w = Tensor(weight_tensor(order, dim))
    sq = powi(moments - targets, 2) * entry_w
    per_group = tsum(sq, axis=tuple(range(1, order + 1)))
    if not active.all():
        per_group = per_group * Tensor(active.astype(np.float64))
    return per_group, active


def mom_loss(z, spec: MomentSpec, head=None, sample_mask=None):
    """Weighted moment-matching loss, differentiable through z and the head.

    Returns ``(total, per_order)`` where ``per_order`` maps each order
    p <= spec.max_order to its weighted scalar term.
    """
    if spec.max_order < 1:
        raise ValueError("mom_loss requires max_order >= 1")
    batch = centralize(z, spec.mode, head=head, sample_mask=sample_mask)
    per_order: dict[int, Tensor] = {}
    total = None
    for order in range(1, spec.max_order + 1):
        lam = spec.order_weights[order - 1]
        if spec.mode == "global" and order == 1:
            # The centered data's first moment is identically zero; the
            # meaningful first-order statistic is the removed mean itself.
            m1 = batch.mean_offset
            dim = m1.shape[0]
            w1 = Tensor(weight_tensor(1, dim))
            term = tsum(powi(m1, 2) * w1)
        else:
            per_group, active = _population_loss(batch.populations, batch.weights, order)
            term = tsum(per_group) / float(active.sum())
        term = lam * term
        per_order[order] = term
        total = term if total is None else total + term
    return total, per_order
