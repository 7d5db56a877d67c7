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
The per-multiset products are built once per loss, in one multiset-major
buffer of shape (C(D+P-1, P-1), G, n) that holds one level per order
below the highest P (:func:`_product_chain`; 165 rows at D=8, P=4). Every
order reads its moments off the level below it: one batched matmul of the
buffer with the weighted samples gives the weighted sums of all orders at
once, and one more matmul, against a right-hand side that holds the
samples' and the weights' routes side by side, gives both gradients of
all orders (:func:`_discrepancy`). The products of the highest order are
never formed. The matmuls round otherwise than summing those products,
and one matmul over all orders otherwise than one per order: the loss and
its gradients moved in their last bits (about 1e-15 relative at the mom4
training shape). Every ``metrics.csv`` that ``perfbench/golden.json`` pins
stayed the same; the weights in ``checkpoint.bin`` differ in their last
bits when P > 1, and a loss of order 1 alone is unchanged bit for bit.
:func:`mom_loss` records the whole loss over all orders as one tape
record past the centering. The dense target and weight tensors, and the
op-by-op chain of the same discrepancy record followed by per-order sums,
divisions, weights and adds, live in the tests as the oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

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

    max_order: int = 1
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


def centralize(z, mode: str, head=None, sample_mask=None):
    """Center samples for moment estimation: ``(populations, weights, mean_offset)``.

    ``populations`` has shape (n, G, dim), G being 1 in global mode and K
    in per-cluster-soft mode; ``weights`` (n, G) are the per-sample
    weights. global: subtract the masked batch mean; the weights are the
    sample mask, and ``mean_offset`` is the removed mean, (dim,), which
    the first-order loss measures against the target mean of zero, the
    centered data's own first moment vanishing identically. In
    per-cluster-soft mode each cluster k yields the standardized residuals
    (z - mu_k) / sigma_k, weighted by the sample's masked conditional
    responsibility for k, and ``mean_offset`` is None; gradients flow
    through the responsibilities. ``sample_mask`` zeroes out the weight of
    excluded samples; None keeps every sample. ``head`` is read only in
    per-cluster-soft mode, on the tape z carries.
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
        return reshape(z - mean, (n, 1, dim)), weights, mean
    if mode == "per-cluster-soft":
        if head is None or not getattr(head, "generative", False):
            raise ValueError("per-cluster-soft centralization requires a mixture head")
        resp = conditional(head, z) * weights
        mu = head.centers.use(z.tape)
        inv_sigma = exp(-0.5 * head.log_variances(z.tape))
        return (reshape(z, (n, 1, dim)) - mu) * inv_sigma, resp, None
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


def _level_start(order: int, dim: int) -> int:
    """Row of the product buffer where the order-``order`` multisets begin.

    The levels below it hold every multiset of fewer than ``order`` axes,
    C(dim+order-1, order-1) of them (165 below order 4 at dim 8).
    """
    return math.comb(dim + order - 1, order - 1) if order > 0 else 0


def _reverse_matmul_size(order: int, dim: int) -> int:
    """K·N of :func:`_discrepancy`'s reverse matmul, whose M is the sample rows.

    The V product rows below order ``order`` (K) times the 2·dim columns of
    the right-hand side that holds both gradients (N); 0 when ``order`` is 0.
    """
    return _level_start(order, dim) * 2 * dim


@dataclass(frozen=True)
class StackedMultisets:
    """Per-multiset tables of orders first..last at one dim, laid end to end.

    A moment tensor is symmetric under any permutation of its indices, so
    its multisets carry every distinct entry. Column j is one multiset of
    order ``first + order[j]``, each order's in :func:`multiset_tuples`
    order, in columns ``bounds[i]``. ``coef`` is each multiset's
    multiplicity p!/prod(count!) times its class weight, so a sum over an
    order's multisets equals the weighted sum over all dim**p entries.
    The orders read the product buffer rows ``rows``, levels first-1..last-1.
    Each multiset is its canonical pair: the lower multiset in row
    ``pair_row`` (numbered within ``rows``) extended by its largest axis
    ``pair_axis``. ``grad_index`` and ``grad_count`` have one row per
    buffer row in ``rows``: ``grad_index[r, d]`` is the column of row r's
    multiset extended by axis d, and ``grad_count[r, d]`` the number of
    times d occurs in it, so the derivative of that column's product with
    respect to axis d is ``grad_count[r, d]`` times row r's product.
    """

    rows: slice
    bounds: tuple[tuple[int, int], ...]
    order: np.ndarray
    coef: np.ndarray
    target: np.ndarray
    pair_row: np.ndarray
    pair_axis: np.ndarray
    grad_index: np.ndarray
    grad_count: np.ndarray


@lru_cache(maxsize=None)
def stacked_multisets(first: int, last: int, dim: int) -> StackedMultisets:
    """The read-only tables of orders first..last at one dim, built once.

    Levels first-1..last of the product buffer hold the multisets of those
    orders in turn: the lower ones are its ``rows``, and a column is a
    buffer row counted from level ``first``.
    """
    base, top, shift = (_level_start(p, dim) for p in (first - 1, last, first))
    tuples = [t for p in range(first - 1, last + 1) for t in multiset_tuples(p, dim)]
    row = {t: base + i for i, t in enumerate(tuples)}  # each multiset's buffer row
    lower, upper = tuples[:top - base], tuples[shift - base:]
    coef = []
    for t in upper:
        counts = (t.count(axis) for axis in set(t))
        multiplicity = math.factorial(len(t)) // math.prod(math.factorial(c) for c in counts)
        coef.append(multiplicity / class_size(len(t), dim, hyperdiag_count(t)))
    stacked = StackedMultisets(
        rows=slice(base, top),
        bounds=tuple((_level_start(p, dim) - shift, _level_start(p + 1, dim) - shift)
                     for p in range(first, last + 1)),
        order=np.array([len(t) - first for t in upper], dtype=np.intp),
        coef=np.array(coef),
        target=np.array([target_moment(t) for t in upper]),
        pair_row=np.array([row[t[:-1]] - base for t in upper], dtype=np.intp),
        pair_axis=np.array([t[-1] for t in upper], dtype=np.intp),
        grad_index=np.array(
            [[row[tuple(sorted(v + (d,)))] - shift for d in range(dim)] for v in lower],
            dtype=np.intp,
        ),
        grad_count=np.array([[v.count(d) + 1.0 for d in range(dim)] for v in lower]),
    )
    for arr in vars(stacked).values():
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return stacked


def _product_chain(x: np.ndarray, top: int) -> np.ndarray:
    """Per-multiset products of (n, G, dim) samples, levels 0..top in one buffer.

    The buffer is multiset-major, (C(dim+top, top), G, n): level k starts at
    row :func:`_level_start`, its multisets in :func:`multiset_tuples`
    order. It is built from level k-1: the multisets of order k whose
    largest index is d are the first C(d+k-1, k-1) multisets of order k-1,
    each extended by axis d. Each product is thus formed left to right in
    index order, and each multiply runs along all G * n entries of its rows.
    """
    n, groups, dim = x.shape
    buf = np.empty((_level_start(top + 1, dim), groups, n))
    buf[0] = 1.0  # the empty multiset
    axes = np.ascontiguousarray(x.transpose(2, 1, 0))  # (dim, G, n)
    with np.errstate(all="ignore"):  # overflow surfaces in the discrepancy's check
        for k in range(1, top + 1):
            below, start = _level_start(k - 1, dim), _level_start(k, dim)
            for d in range(dim):
                count = math.comb(d + k - 1, k - 1)
                np.multiply(buf[below:below + count], axes[d], out=buf[start:start + count])
                start += count
    return buf


class _Discrepancy(NamedTuple):
    """Forward results of :func:`_discrepancy` and its reverse pass."""

    per_group: np.ndarray  # (orders, G) discrepancies, starved groups 0
    active: np.ndarray     # (G,) groups with enough mass to estimate
    moments: np.ndarray    # (G, U) weighted means, in stacked column order
    vjp: Callable[[np.ndarray, bool], tuple[np.ndarray, np.ndarray | None]]


def _discrepancy(x: np.ndarray, w: np.ndarray, first: int, last: int) -> _Discrepancy:
    """Moment discrepancies of orders first..last, forward and reverse.

    ``x`` (n, G, dim) are the centered samples and ``w`` (n, G) their
    weights. The moment of each index multiset is the weighted mean of its
    product; an order's discrepancy sums coef * (moment - target)**2 over
    its multisets. ``per_group`` row i is order first+i, with starved
    populations masked to zero; ``active`` is the mask of the survivors
    the caller averages over. Each order's row is checked (``mom_p{p}``).

    One batched matmul of the product buffer's levels first-1..last-1,
    laid out (G, V, n), with the weighted samples, laid out (G, n, dim),
    gives the weighted sum of every lower multiset times every axis; each
    multiset reads its canonical pair from it (:class:`StackedMultisets`).
    The products of order ``last`` are never formed.

    ``vjp(g, weight_grad)`` maps an (orders, G) gradient of ``per_group``
    to ``(dx, dw)``, ``dw`` None unless ``weight_grad``. With s the
    gradient of the weighted sums, axis d of sample i receives w_i times
    the sum over the lower multisets v of prod_v(i) * count * s[v + {d}];
    the weights receive s at each multiset's canonical pair, times the
    lower products and x, summed over the axes, plus the gradient of the
    mass. Both gradients come from one matmul of the buffer with a
    (G, V, 2 dim) right-hand side: the gathers for x in its first dim
    columns, s scattered to the canonical pairs in the last. A masked-out
    row (weight 0) whose order-``last`` products overflow thus adds nothing
    to the loss; if its weight gradient overflows too, the reverse pass
    faults (``mom_p{last}``): the mask would turn that gradient into NaN.
    """
    _, groups, dim = x.shape
    table = stacked_multisets(first, last, dim)
    mass = w.sum(axis=0)
    active = mass >= _MIN_CLUSTER_MASS
    if not active.any():
        raise ValueError("all cluster responsibilities are degenerate (~0)")
    safe_mass = np.where(active, mass, mass + 1.0)
    lower = _product_chain(x, last - 1)[table.rows].transpose(1, 0, 2)  # (G, V, n)
    per_group = np.empty((last - first + 1, groups))
    with np.errstate(all="ignore"):
        sums = np.matmul(lower, (x * w[:, :, None]).transpose(1, 0, 2))
        moments = sums[:, table.pair_row, table.pair_axis] / safe_mass[:, None]
        diff = moments - table.target
        terms = diff * diff * table.coef
        for i, (lo, hi) in enumerate(table.bounds):
            np.sum(terms[:, lo:hi], axis=1, out=per_group[i])
    for i, row in enumerate(per_group):
        _check_finite(row, f"mom_p{first + i}")
    mask = active.astype(np.float64)

    def vjp(g, weight_grad):
        # np.take keeps dm C-ordered; an index array on its last axis would
        # give an F-ordered dm, whose row sums below round otherwise.
        dm = np.take((g * mask).T, table.order, axis=1) * table.coef * (2.0 * diff)
        d_sums = dm / safe_mass[:, None]
        rhs = np.empty((groups, lower.shape[1], 2 * dim if weight_grad else dim))
        np.multiply(d_sums[:, table.grad_index], table.grad_count, out=rhs[:, :, :dim])
        if weight_grad:
            rhs[:, :, dim:] = 0.0
            rhs[:, table.pair_row, dim + table.pair_axis] = d_sums
        with np.errstate(all="ignore"):
            per_axis = np.matmul(lower.transpose(0, 2, 1), rhs)  # (G, n, width)
            dx = per_axis[:, :, :dim].transpose(1, 0, 2) * w[:, :, None]
            if not weight_grad:
                return dx, None
            d_weights = (per_axis[:, :, dim:] * x.transpose(1, 0, 2)).sum(axis=2).T
        _check_finite(d_weights, f"mom_p{last}")
        d_mass = (-dm * moments / safe_mass[:, None]).sum(axis=1)
        return dx, d_weights + d_mass

    return _Discrepancy(per_group * mask, active, moments, vjp)


def mom_loss(z, spec: MomentSpec, head=None, sample_mask=None):
    """Weighted moment-matching loss, differentiable through z and the head.

    Returns ``(total, per_order)`` where ``per_order`` maps each order
    p <= spec.max_order to its weighted scalar term, an untaped value.

    The sum over orders is one tape record past the centralization. One
    :func:`_discrepancy` gives every order's discrepancy on the
    populations. In global mode order 1 measures the removed mean, one
    row with weight 1, through its own :func:`_discrepancy`, and its
    gradient goes to ``mean_offset``. The forward then takes, order by
    order, the sum over populations, the division by the active count,
    the product with the order's weight and the running add, and checks
    the product and the add. The product's check names the sum when that
    is non-finite, as the op-by-op chain did, and a finite sum divided by
    at least one active population stays finite, so the division needs
    no check. The reverse pass gives each order
    ``(g * weight) / count``, spread over the populations, and passes all
    orders through one reverse pass for the populations and weights.
    """
    if spec.max_order < 1:
        raise ValueError("mom_loss requires max_order >= 1")
    pops, weights, offset = centralize(z, spec.mode, head=head, sample_mask=sample_mask)
    first = 1 if offset is None else 2
    order_rows = []  # (discrepancy, row) of each order, lowest first
    if offset is not None:
        # The centered data's first moment is identically zero; the
        # meaningful first-order statistic is the removed mean itself.
        on_offset = _discrepancy(offset.data.reshape(1, 1, -1), np.ones((1, 1)), 1, 1)
        order_rows.append((on_offset, 0))
    if spec.max_order >= first:
        on_pops = _discrepancy(pops.data, weights.data, first, spec.max_order)
        order_rows += [(on_pops, i) for i in range(len(on_pops.per_group))]
    per_order: dict[int, Tensor] = {}
    scales = []  # (weight, count) of each order
    total = None
    with np.errstate(all="ignore"):
        for order, (est, i) in enumerate(order_rows, start=1):
            lam = spec.order_weights[order - 1]
            count = float(est.active.sum())
            scales.append((lam, count))
            summed = est.per_group[i].sum()
            term = np.multiply(lam, np.divide(summed, count))
            # A non-finite sum makes the term non-finite: 0 * inf is NaN.
            _check_finite(term, "mul", ("sum", lambda: summed))
            per_order[order] = Tensor(term)
            if total is not None:
                term = np.add(total, term)
                _check_finite(term, "add")
            total = term

    def order_grads(g, orders, groups):
        return np.array([np.full(groups, (g * lam) / count) for lam, count in orders])

    def grads(g):
        d_pops = d_weights = d_offset = None
        if spec.max_order >= first:
            d_pops, d_weights = on_pops.vjp(order_grads(g, scales[first - 1:], pops.shape[1]),
                                            weights.tape is not None)
        if offset is not None:
            d_offset = on_offset.vjp(order_grads(g, scales[:1], 1), False)[0].reshape(offset.shape)
        return d_pops, d_weights, d_offset

    routes = [(pops, lambda s: s[0]), (weights, lambda s: s[1])] if spec.max_order >= first else []
    if offset is not None:
        routes.append((offset, lambda s: s[2]))
    return _result(np.asarray(total), _join_tape(*(t for t, _ in routes)), *routes,
                   shared=grads), per_order
