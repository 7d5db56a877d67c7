"""Latent moment constraints against a multivariate standard normal.

The order-p sample moment tensor generalizes the covariance matrix: its
entry at an index tuple (d1..dp) is the sample average of the product of
the corresponding centered coordinates. Each entry is penalized by its
squared distance to the standard-normal target, weighted so that every
hyper-diagonal class (entries sharing the same number of repeated axes)
contributes a total weight of exactly 1. This keeps the loss diagonally
dominant: the D diagonal variance terms are not drowned out by the
D(D-1) off-diagonal ones.

The tensors are symmetric under any permutation of their indices, so the
loss is evaluated over the C(D+p-1, p) sorted index multisets instead of
the D^p entries (330 instead of 4096 at D=8, p=4), with each multiset's
multiplicity folded into its weight: the same sum in a different order.
The per-multiset products are built once per loss, one level per order
below the highest (:func:`_product_chain`); order p reads its moments off
level p-1 with one batched matmul against the weighted samples, so the
products of the highest order are never formed. That rounds otherwise
than summing those products: the loss and its gradients differ from the
sum in their last bits. Every ``metrics.csv`` that ``perfbench/golden.json``
pins is the same under both; the weights in ``checkpoint.bin`` differ in
their last bits. Each order's discrepancy has a hand-derived reverse pass
(:func:`_discrepancy`). :func:`mom_loss` records the whole loss over all
orders as one tape record past the centering: it repeats the op-by-op
chain of per-order records, sums, divisions, weights and adds, forward and
reverse, so it gives the same bits. The dense target and weight tensors,
and the one-record-per-order discrepancy, live in the tests as the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .autodiff import (
    Tensor,
    _check_finite,
    _join_tape,
    _result,
    exp,
    reshape,
    tsum,
)

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
            raise ValueError("order_weights must be nonnegative")
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


@dataclass
class CentralizedBatch:
    """Sub-populations prepared for moment estimation.

    ``populations`` has shape (n, G, dim): G is 1 in global mode, K in
    per-cluster mode. ``weights`` (n, G) are per-sample weights: the
    sample mask in global mode, the masked responsibilities in
    per-cluster mode. ``mean_offset`` is the batch mean removed
    in global mode; the first-order loss measures this offset against
    the target mean of zero, since the centered data's own first moment
    vanishes identically.
    """

    populations: Tensor
    weights: Tensor
    mean_offset: Tensor | None


def centralize(z, mode: str, head=None, sample_mask=None) -> CentralizedBatch:
    """Center samples for moment estimation.

    global: subtract the masked batch mean; the mask is the weights. In
    per-cluster-soft mode each cluster k yields the standardized
    residuals (z - mu_k) / sigma_k weighted by the sample's conditional
    responsibility for k; gradients flow through the responsibilities.
    ``sample_mask`` zeroes out the weight of excluded samples; None keeps
    every sample. ``head`` is read only in per-cluster-soft mode.
    """
    from .heads import conditional  # head types live one module up

    z = z if isinstance(z, Tensor) else Tensor(z)
    if z.ndim != 2:
        raise ValueError("expected samples of shape (n, dim)")
    n, dim = z.shape
    if n == 0:
        raise ValueError("cannot centralize an empty sample")
    mask = np.ones(n) if sample_mask is None else np.asarray(sample_mask, np.float64).reshape(n)
    if not mask.any():
        raise ValueError("sample_mask excludes every sample")
    weights = Tensor(mask[:, None])
    if mode == "global":
        mean = tsum(z * weights, axis=0) / float(mask.sum())
        pops = reshape(z - mean, (n, 1, dim))
        return CentralizedBatch(pops, weights, mean)
    if mode == "per-cluster-soft":
        if head is None or not getattr(head, "generative", False):
            raise ValueError("per-cluster-soft centralization requires a mixture head")
        tape = z.tape
        resp = conditional(head, z, tape) * weights
        mu = head.centers.use(tape)
        inv_sigma = exp(-0.5 * head.log_variances(tape))
        pops = (reshape(z, (n, 1, dim)) - mu) * inv_sigma
        return CentralizedBatch(pops, resp, None)
    raise ValueError(f"unknown centralization mode {mode!r}")


def multiset_tuples(order: int, dim: int) -> list[tuple[int, ...]]:
    """The C(dim+order-1, order) sorted index tuples, in colexicographic order.

    Ordered by their reversed tuples, the multisets whose largest index is
    d follow one another, and they extend the (order-1)-multisets over the
    axes 0..d, which come first in their own order.
    """
    return sorted(
        itertools.combinations_with_replacement(range(dim), order), key=lambda t: t[::-1]
    )


@dataclass(frozen=True)
class Multisets:
    """Per-multiset tables of one (order, dim), in :func:`multiset_tuples` order.

    A moment tensor is symmetric under any permutation of its indices, so
    its multisets carry every distinct entry. ``coef`` is each multiset's
    multiplicity order!/prod(count!) times its class weight, so a sum over
    the multisets equals the weighted sum over all dim**order entries.
    Each multiset u is the (order-1)-multiset ``pair_lower[u]`` extended by
    its largest axis ``pair_axis[u]``: the pair the product chain extends.
    For each (order-1)-multiset v and axis d, ``grad_index[v, d]`` is the
    multiset v + {d} and ``grad_count[v, d]`` the number of times d occurs
    in it: the derivative of that multiset's product with respect to axis
    d is ``grad_count[v, d]`` times the product of v.
    """

    coef: np.ndarray
    target: np.ndarray
    pair_lower: np.ndarray
    pair_axis: np.ndarray
    grad_index: np.ndarray
    grad_count: np.ndarray


@lru_cache(maxsize=None)
def multisets(order: int, dim: int) -> Multisets:
    """The read-only tables of one (order, dim), built once."""
    tuples = multiset_tuples(order, dim)
    position = {t: u for u, t in enumerate(tuples)}
    below = multiset_tuples(order - 1, dim)
    below_position = {v: i for i, v in enumerate(below)}
    sizes = {h: class_size(order, dim, h) for h in range(order)}
    coef = []
    for t in tuples:
        counts = (t.count(axis) for axis in set(t))
        multiplicity = math.factorial(order) // math.prod(math.factorial(c) for c in counts)
        coef.append(multiplicity / sizes[hyperdiag_count(t)])
    table = Multisets(
        coef=np.array(coef),
        target=np.array([target_moment(t) for t in tuples]),
        pair_lower=np.array([below_position[t[:-1]] for t in tuples], dtype=np.intp),
        pair_axis=np.array([t[-1] for t in tuples], dtype=np.intp),
        grad_index=np.array(
            [[position[tuple(sorted(v + (d,)))] for d in range(dim)] for v in below],
            dtype=np.intp,
        ),
        grad_count=np.array([[v.count(d) + 1.0 for d in range(dim)] for v in below]),
    )
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


class _Estimate(NamedTuple):
    """Forward intermediates of :func:`_discrepancy`."""

    lower: np.ndarray      # (n, G, V) products of the order-(p-1) multisets
    moments: np.ndarray    # (G, U) weighted means of the order-p products
    safe_mass: np.ndarray  # (G,) weight mass, 1 added for starved groups
    active: np.ndarray     # (G,) groups with enough mass to estimate


def _product_chain(x: np.ndarray, max_order: int) -> list[np.ndarray]:
    """Per-multiset products of (n, G, dim) samples, one level per order 0..max_order.

    Level k has shape (n, G, C(dim+k-1, k)), in :func:`multiset_tuples`
    order. It is built from level k-1: the multisets of order k whose
    largest index is d are the first C(d+k-1, k-1) multisets of order k-1,
    each extended by axis d. Each product is thus formed left to right in
    index order. The order-p moments read level p-1 (:func:`_estimate`),
    so a loss up to order P builds levels 0..P-1 and never the largest.
    """
    n, groups, dim = x.shape
    levels = [np.ones((n, groups, 1))]  # the empty multiset
    with np.errstate(all="ignore"):  # overflow surfaces in the discrepancy's check
        for k in range(1, max_order + 1):
            lower = levels[-1]
            prod = np.empty((n, groups, math.comb(dim + k - 1, k)))
            start = 0
            for d in range(dim):
                count = math.comb(d + k - 1, k - 1)
                np.multiply(lower[:, :, :count], x[:, :, d:d + 1],
                            out=prod[:, :, start:start + count])
                start += count
            levels.append(prod)
    return levels


def _estimate(x: np.ndarray, w: np.ndarray, order: int, chain: list[np.ndarray]) -> _Estimate:
    """Per-multiset moments of (n, G, dim) samples x under (n, G) weights.

    ``chain`` is ``_product_chain(x, q)`` for some q >= order - 1. One
    batched matmul of level order-1, laid out (G, V, n), with the weighted
    samples, laid out (G, n, dim), gives the weighted sum of every
    (order-1)-multiset times every axis; each multiset reads its own
    canonical pair (``Multisets.pair_lower``, ``pair_axis``) from it.
    """
    table = multisets(order, x.shape[2])
    lower = chain[order - 1]
    mass = w.sum(axis=0)
    active = mass >= _MIN_CLUSTER_MASS
    if not active.any():
        raise ValueError("all cluster responsibilities are degenerate (~0)")
    safe_mass = np.where(active, mass, mass + 1.0)
    sums = np.matmul(lower.transpose(1, 2, 0), (x * w[:, :, None]).transpose(1, 0, 2))
    moments = sums[:, table.pair_lower, table.pair_axis] / safe_mass[:, None]
    return _Estimate(lower, moments, safe_mass, active)


def _discrepancy(x: np.ndarray, w: np.ndarray, order: int, chain: list[np.ndarray]):
    """Forward and reverse pass of one order: ``(per_group, active, vjp_x, vjp_w)``.

    ``x`` (n, G, dim) are the centered samples, ``w`` (n, G) their
    weights and ``chain`` their ``_product_chain(x, q)`` for some
    q >= order - 1. The moment of each index multiset is the weighted mean
    of its product; the discrepancy sums coef * (moment - target)**2 over
    the multisets. ``per_group`` is the (G,) discrepancy with starved
    populations masked to zero, ``active`` the mask of the survivors the
    caller averages over, and ``vjp_x`` and ``vjp_w`` map the gradient of
    ``per_group`` to those of ``x`` and ``w``.

    The reverse pass is hand-derived. With s the gradient of the weighted
    sums, axis d of sample i receives w_i * sum over the order-(p-1)
    multisets v of prod_v(i) * count * s[v + {d}]: a batch of
    (n, V) @ (V, dim) matmuls, one per population. The weights receive the
    gradient of both the weighted sums and the mass; that of the sums is
    s scattered to each multiset's canonical pair, one more batch of
    matmuls with the order-(p-1) products, times x and summed over the axes.

    Neither pass forms the order-p products. A masked-out row (weight 0)
    whose order-p products overflow thus adds nothing to the loss. If its
    weight gradient overflows too, the reverse pass faults (``mom_p{p}``):
    the mask would turn that gradient into NaN. The matmuls round
    otherwise than a sum of the products would, in the last bits.
    """
    _, groups, dim = x.shape
    table = multisets(order, dim)
    with np.errstate(all="ignore"):
        est = _estimate(x, w, order, chain)
        diff = est.moments - table.target
        per_group = (diff * diff * table.coef).sum(axis=1)
    _check_finite(per_group, f"mom_p{order}")
    mask = est.active.astype(np.float64)

    def d_moments(g):
        return (g * mask)[:, None] * table.coef * (2.0 * diff)

    def vjp_x(g):
        d_sums = d_moments(g) / est.safe_mass[:, None]
        per_axis = d_sums[:, table.grad_index] * table.grad_count  # (G, V, dim)
        dx = np.matmul(est.lower.transpose(1, 0, 2), per_axis).transpose(1, 0, 2)
        return dx * w[:, :, None]

    def vjp_w(g):
        dm = d_moments(g)
        d_mass = (-dm * est.moments / est.safe_mass[:, None]).sum(axis=1)
        per_pair = np.zeros((groups, est.lower.shape[2], dim))
        per_pair[:, table.pair_lower, table.pair_axis] = dm / est.safe_mass[:, None]
        per_axis = np.matmul(est.lower.transpose(1, 0, 2), per_pair)  # (G, n, dim)
        with np.errstate(all="ignore"):
            d_weights = (per_axis * x.transpose(1, 0, 2)).sum(axis=2).T
        _check_finite(d_weights, f"mom_p{order}")
        return d_weights + d_mass

    return per_group * mask, est.active, vjp_x, vjp_w


def mom_loss(z, spec: MomentSpec, head=None, sample_mask=None):
    """Weighted moment-matching loss, differentiable through z and the head.

    Returns ``(total, per_order)`` where ``per_order`` maps each order
    p <= spec.max_order to its weighted scalar term, an untaped value.

    The sum over orders is one tape record past the centralization. Its
    forward is the op-by-op chain it replaces, order by order, with that
    chain's finiteness checks: the discrepancy (``mom_p{p}``), its sum
    over populations, the division by the active count, the product with
    the order's weight and the running add. Its reverse pass gives each
    order ``(g * weight) / count``, spread over the populations, through
    that order's :func:`_discrepancy` reverse pass, and accumulates
    the results in the order the chain's replay did, from the highest
    order down. In global mode order 1 measures the removed mean, so its
    gradient goes to ``mean_offset``.
    """
    if spec.max_order < 1:
        raise ValueError("mom_loss requires max_order >= 1")
    batch = centralize(z, spec.mode, head=head, sample_mask=sample_mask)
    pops, weights, offset = batch.populations, batch.weights, batch.mean_offset
    per_order: dict[int, Tensor] = {}
    steps = []  # (weight, count, vjp_x, vjp_w) of each order on the populations
    offset_step = None
    total = None
    chain = None  # the populations' products, built once for every order
    with np.errstate(all="ignore"):
        for order in range(1, spec.max_order + 1):
            lam = spec.order_weights[order - 1]
            on_offset = spec.mode == "global" and order == 1
            if on_offset:
                # The centered data's first moment is identically zero; the
                # meaningful first-order statistic is the removed mean itself.
                x = offset.data.reshape(1, 1, -1)
                per_group, active, vjp_x, vjp_w = _discrepancy(
                    x, np.ones((1, 1)), order, _product_chain(x, 0))
            else:
                if chain is None:
                    chain = _product_chain(pops.data, spec.max_order - 1)
                per_group, active, vjp_x, vjp_w = _discrepancy(
                    pops.data, weights.data, order, chain)
            count = float(active.sum())
            summed = per_group.sum()
            _check_finite(summed, "sum")
            mean = np.divide(summed, count)
            _check_finite(mean, "div")
            term = np.multiply(lam, mean)
            _check_finite(term, "mul")
            per_order[order] = Tensor(term)
            if total is not None:
                term = np.add(total, term)
                _check_finite(term, "add")
            total = term
            step = (lam, count, vjp_x, vjp_w)
            if on_offset:
                offset_step = step
            else:
                steps.append(step)

    def summed_vjp(of_weights: bool):
        def vjp(g):
            acc = None
            for lam, count, vjp_x, vjp_w in reversed(steps):
                d = (vjp_w if of_weights else vjp_x)((g * lam) / count)
                acc = d if acc is None else acc + d
            return acc
        return vjp

    routes = []
    if steps:
        routes += [(pops, summed_vjp(False)), (weights, summed_vjp(True))]
    if offset_step is not None:
        lam, count, vjp_x, _ = offset_step
        routes.append((offset, lambda g: vjp_x((g * lam) / count).reshape(offset.shape)))
    return _result(np.asarray(total), _join_tape(*(t for t, _ in routes)), *routes), per_order
