"""Moment-constraint checks: combinatorics against brute-force tuple
enumeration, targets against Monte-Carlo estimates, the vectorized loss
against naive nested-loop oracles in both centralization modes, and the
multiset primitive against the dense outer-product chain it replaced."""

import functools
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmix.autodiff import (
    NonFiniteError,
    Parameter,
    Tape,
    Tensor,
    _join_tape,
    _result,
    backward,
    finite_diff_check,
    powi,
    reshape,
    tsum,
)
from gmix.heads import init_head
from gmix.moments import (
    _MIN_CLUSTER_MASS,
    MomentSpec,
    _discrepancy,
    _level_start,
    _product_chain,
    centralize,
    class_size,
    double_factorial,
    hyperdiag_count,
    mom_loss,
    multiset_tuples,
    stacked_multisets,
    target_moment,
)


# The dense oracle: the target and weight tensors over all dim**order
# entries, and each order's discrepancy as its own tape record.

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


def moment_discrepancy(pops: Tensor, weights: Tensor | None, first: int, last: int):
    """Weighted moment discrepancies of orders first..last, one tape record.

    ``(per_group, active)`` of ``moments._discrepancy``, with ``per_group``
    an (orders, G) tensor whose reverse pass is that function's, shared by
    the two routes as ``mom_loss`` shares it.
    """
    w = np.ones(pops.shape[:2]) if weights is None else weights.data
    est = _discrepancy(pops.data, w, first, last)
    memo = {}

    def grads(g):
        if memo.get("g") is not g:
            memo.update(g=g, d=est.vjp(g, weights is not None and weights.tape is not None))
        return memo["d"]

    routes = [(pops, lambda g: grads(g)[0])]
    if weights is not None:
        routes.append((weights, lambda g: grads(g)[1]))
    tape = _join_tape(pops) if weights is None else _join_tape(pops, weights)
    return _result(est.per_group, tape, *routes), est.active


def enumerate_class_sizes(p, dim):
    """Brute-force census of hyper-diagonal classes."""
    sizes = {h: 0 for h in range(p)}
    for t in itertools.product(range(dim), repeat=p):
        sizes[hyperdiag_count(t)] += 1
    return sizes


def brute_moment(zc, indices, weights=None):
    """Naive per-tuple sample moment with explicit python loops."""
    n = zc.shape[0]
    if weights is None:
        weights = np.ones(n)
    total = 0.0
    for i in range(n):
        prod = weights[i]
        for d in indices:
            prod *= zc[i, d]
        total += prod
    return total / weights.sum()


def brute_global_loss(z, spec):
    """Nested-loop reference for global-mode mom_loss."""
    n, dim = z.shape
    mean = z.mean(axis=0)
    zc = z - mean
    sizes = {p: enumerate_class_sizes(p, dim) for p in range(1, spec.max_order + 1)}
    total = 0.0
    per_order = {}
    for p in range(1, spec.max_order + 1):
        term = 0.0
        for t in itertools.product(range(dim), repeat=p):
            w = 1.0 / sizes[p][hyperdiag_count(t)]
            moment = mean[t[0]] if p == 1 else brute_moment(zc, t)
            term += w * (moment - target_moment(t)) ** 2
        term *= spec.order_weights[p - 1]
        per_order[p] = term
        total += term
    return total, per_order


def brute_cluster_loss(z, spec, head):
    """Nested-loop reference for per-cluster-soft mom_loss."""
    n, dim = z.shape
    mu = head.centers.value
    k = mu.shape[0]
    if head.kind == "aagmm":
        sigma = np.exp(0.5 * head.log_var.value)
        lj = (
            -0.5 * dim * math.log(2 * math.pi)
            - 0.5 * head.log_var.value.sum(axis=1)
            - 0.5 * (((z[:, None, :] - mu) / sigma) ** 2).sum(axis=2)
        )
    else:
        sigma = np.ones_like(mu)
        lj = -0.5 * dim * math.log(2 * math.pi) - 0.5 * (
            (z[:, None, :] - mu) ** 2
        ).sum(axis=2)
    resp = np.exp(lj - lj.max(axis=1, keepdims=True))
    resp /= resp.sum(axis=1, keepdims=True)
    sizes = {p: enumerate_class_sizes(p, dim) for p in range(1, spec.max_order + 1)}
    total = 0.0
    per_order = {}
    for p in range(1, spec.max_order + 1):
        term = 0.0
        for c in range(k):
            zc = (z - mu[c]) / sigma[c]
            cluster = 0.0
            for t in itertools.product(range(dim), repeat=p):
                w = 1.0 / sizes[p][hyperdiag_count(t)]
                moment = brute_moment(zc, t, weights=resp[:, c])
                cluster += w * (moment - target_moment(t)) ** 2
            term += cluster
        term = spec.order_weights[p - 1] * term / k
        per_order[p] = term
        total += term
    return total, per_order


class TestHyperdiagCount:
    def test_order_two(self):
        assert hyperdiag_count((3, 3)) == 1
        assert hyperdiag_count((3, 5)) == 0

    def test_full_diagonal(self):
        assert hyperdiag_count((2, 2, 2, 2)) == 3

    def test_partial(self):
        assert hyperdiag_count((1, 1, 2, 3)) == 1


class TestClassSize:
    def test_order_two_dim_eight(self):
        assert class_size(2, 8, 1) == 8
        assert class_size(2, 8, 0) == 56

    def test_order_three_dim_eight(self):
        assert class_size(3, 8, 2) == 8
        assert class_size(3, 8, 1) == 168
        assert class_size(3, 8, 0) == 336
        assert 8 + 168 + 336 == 8 ** 3

    def test_order_four_dim_two_totals(self):
        assert sum(class_size(4, 2, h) for h in range(4)) == 2 ** 4

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_enumeration(self, p, dim):
        sizes = enumerate_class_sizes(p, dim)
        for h in range(p):
            assert class_size(p, dim, h) == sizes[h]

    def test_empty_class(self):
        # All-distinct tuples of length 3 over a 2-symbol alphabet.
        assert class_size(3, 2, 0) == 0


class TestTargets:
    def test_order_two_identity(self):
        t = moment_targets(2, 4)
        np.testing.assert_array_equal(t, np.eye(4))

    def test_kurtosis(self):
        assert target_moment((0, 0, 0, 0)) == 3.0

    def test_order_four_against_monte_carlo(self):
        rng = np.random.default_rng(99)
        n = 1_000_000
        z = rng.standard_normal((n, 2))
        pair = z[:, 0] ** 2 * z[:, 1] ** 2
        triple = z[:, 0] ** 3 * z[:, 1]
        se_pair = pair.std(ddof=1) / math.sqrt(n)
        se_triple = triple.std(ddof=1) / math.sqrt(n)
        assert abs(target_moment((0, 0, 1, 1)) - pair.mean()) < 3 * se_pair
        assert abs(target_moment((0, 0, 0, 1)) - triple.mean()) < 3 * se_triple

    def test_symmetry_under_permutation(self):
        t = moment_targets(3, 3)
        for perm in itertools.permutations(range(3)):
            np.testing.assert_array_equal(t, np.transpose(t, perm))

    def test_odd_multiplicity_is_zero(self):
        assert target_moment((0, 0, 1)) == 0.0
        assert target_moment((2,)) == 0.0

    def test_element_count_is_dim_to_the_p(self):
        assert moment_targets(4, 8).size == 8 ** 4 == 4096
        for p in range(1, 5):
            assert moment_targets(p, 3).size == 3 ** p


class TestWeights:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_class_weights_sum_to_one_exactly(self, p, dim):
        # Exact in rational arithmetic; the float tensor realizes each
        # class sum to within one rounding step of 1.
        for h in range(p):
            size = class_size(p, dim, h)
            if size == 0:
                continue
            assert size * class_weight(p, dim, h) == 1
        w = weight_tensor(p, dim)
        by_class = {}
        for t in itertools.product(range(dim), repeat=p):
            by_class.setdefault(hyperdiag_count(t), []).append(w[t])
        for h, values in by_class.items():
            assert abs(math.fsum(values) - 1.0) <= 2 ** -52

    def test_diagonal_dominance(self):
        w = weight_tensor(2, 8)
        assert w[0, 0] > w[0, 1]


def chain(zc, order, weights=None):
    """The primitive's per-multiset moments of one population, scattered
    into the dense (dim,)*order tensor."""
    zc = np.asarray(zc)
    n, dim = zc.shape
    w = np.ones((n, 1)) if weights is None else np.asarray(weights)[:, None]
    x = zc[:, None, :]
    moments = _discrepancy(x, w, order, order).moments[0]
    position = multiset_positions(order, dim)
    dense = np.empty((dim,) * order)
    for t in itertools.product(range(dim), repeat=order):
        dense[t] = moments[position[tuple(sorted(t))]]
    return dense


def multiset_positions(order, dim):
    """Each sorted index tuple's position in the multiset tables."""
    return {t: u for u, t in enumerate(multiset_tuples(order, dim))}


def dense_population_moments(pops, weights, order):
    """Reference: the dense (n, G) + (dim,)*order outer-product chain on the tape."""
    n, groups, dim = pops.shape
    prod = pops
    for p in range(1, order):
        left = reshape(prod, (n, groups) + (dim,) * p + (1,))
        right = reshape(pops, (n, groups) + (1,) * p + (dim,))
        prod = left * right
    mass = tsum(weights, axis=0)
    active = mass.data >= _MIN_CLUSTER_MASS
    w_col = reshape(weights, (n, groups) + (1,) * order)
    sums = tsum(prod * w_col, axis=0)
    safe_mass = mass + Tensor(np.where(active, 0.0, 1.0))
    return sums / reshape(safe_mass, (groups,) + (1,) * order), active


def dense_mom_loss(z, spec, head=None, sample_mask=None):
    """Reference: mom_loss over the dense tensors, weighted by weight_tensor."""
    batch = centralize(z, spec.mode, head=head, sample_mask=sample_mask)
    per_order = {}
    total = None
    for order in range(1, spec.max_order + 1):
        if spec.mode == "global" and order == 1:
            m1 = batch.mean_offset
            term = tsum(powi(m1, 2) * Tensor(weight_tensor(1, m1.shape[0])))
        else:
            moments, active = dense_population_moments(
                batch.populations, batch.weights, order
            )
            dim = batch.populations.shape[2]
            sq = powi(moments - Tensor(moment_targets(order, dim)), 2)
            per_group = tsum(sq * Tensor(weight_tensor(order, dim)),
                             axis=tuple(range(1, order + 1)))
            per_group = per_group * Tensor(active.astype(np.float64))
            term = tsum(per_group) / float(active.sum())
        term = spec.order_weights[order - 1] * term
        per_order[order] = term
        total = term if total is None else total + term
    return total, per_order


def loss_and_grads(loss_fn, z, spec, head, sample_mask=None):
    """Loss, per-order terms and gradients with respect to z and the head."""
    zp = Parameter(z)
    params = [zp] + (head.parameters() if head is not None else [])
    for p in params:
        p.zero_grad()
    tape = Tape()
    total, per_order = loss_fn(zp.use(tape), spec, head=head, sample_mask=sample_mask)
    backward(total)
    terms = {p: t.item() for p, t in per_order.items()}
    return total.item(), terms, [p.grad.copy() for p in params]


def chain_mom_loss(z, spec, head=None, sample_mask=None):
    """The op-by-op loss the fused record replaced: the reference.

    One ``moment_discrepancy`` record for all orders on the populations
    (in global mode, order 1 is its own record on the removed mean), then
    for each order: its row, picked exactly by a one-hot product and a sum
    over orders (every other summand is 0), a sum, a division by the
    active count, a product with the order's weight and the running add,
    one record each.
    """
    batch = centralize(z, spec.mode, head=head, sample_mask=sample_mask)
    pops, weights = batch.populations, batch.weights
    rows = []  # (per_group, active, row) of each order, lowest first
    if spec.mode == "global":
        offset = reshape(batch.mean_offset, (1, 1, pops.shape[2]))
        rows.append((*moment_discrepancy(offset, None, 1, 1), 0))
    first = len(rows) + 1
    if spec.max_order >= first:
        per_group, active = moment_discrepancy(pops, weights, first, spec.max_order)
        rows += [(per_group, active, i) for i in range(per_group.shape[0])]
    per_order, total = {}, None
    for order, (per_group, active, i) in enumerate(rows, start=1):
        one_hot = np.zeros((per_group.shape[0], 1))
        one_hot[i] = 1.0
        picked = tsum(per_group * Tensor(one_hot), axis=0)
        term = spec.order_weights[order - 1] * (tsum(picked) / float(active.sum()))
        per_order[order] = term
        total = term if total is None else total + term
    return total, per_order


def assert_rel_close(actual, expected, rel):
    """Worst absolute error within ``rel`` of the reference's largest magnitude."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rel * scale


class TestSampleMoments:
    def test_first_moment_of_centered_data(self, rng):
        z = rng.normal(size=(40, 3))
        zc = z - z.mean(axis=0)
        np.testing.assert_allclose(chain(zc, 1), 0.0, atol=1e-12)

    def test_order_two_hand_sum(self):
        zc = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(chain(zc, 2), [[1.0, 0.0], [0.0, 0.0]])

    def test_matches_brute_force(self, rng):
        zc = rng.normal(size=(50, 3))
        out = chain(zc, 3)
        for t in itertools.product(range(3), repeat=3):
            assert out[t] == pytest.approx(brute_moment(zc, t), abs=1e-12)

    def test_weighted_matches_brute_force(self, rng):
        zc = rng.normal(size=(30, 2))
        w = rng.uniform(0.1, 2.0, size=30)
        out = chain(zc, 4, w)
        for t in itertools.product(range(2), repeat=4):
            assert out[t] == pytest.approx(brute_moment(zc, t, weights=w), abs=1e-12)

    def test_symmetry(self, rng):
        m = chain(rng.normal(size=(30, 3)), 3)
        for perm in itertools.permutations(range(3)):
            np.testing.assert_allclose(m, np.transpose(m, perm), atol=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            centralize(np.zeros((0, 3)), "global")


class TestPerOrderTerms:
    def test_terms_nonnegative_and_sum_to_total(self, rng):
        z = rng.normal(size=(100, 3)) * 1.4
        total, per_order = mom_loss(Tensor(z), MomentSpec(max_order=4, mode="global"))
        terms = [t.item() for t in per_order.values()]
        assert sorted(per_order) == [1, 2, 3, 4]
        assert all(v >= 0 for v in terms)
        assert sum(terms) == pytest.approx(total.item(), abs=1e-12)

    def test_standard_normal_is_quiet_constant_is_not(self):
        rng = np.random.default_rng(0)
        _, quiet = mom_loss(Tensor(rng.standard_normal((50_000, 8))),
                            MomentSpec(max_order=2, mode="global"))
        spec = MomentSpec(max_order=2, order_weights=(1.0, 1.0, 1.0, 1.0), mode="global")
        _, loud = mom_loss(Tensor(np.full((100, 8), 1.7)), spec)
        assert quiet[2].item() < 1e-3
        assert loud[2].item() == pytest.approx(1.0, abs=1e-12)


class TestCentralize:
    def test_global_mean_is_zero(self, rng):
        z = rng.normal(loc=3.0, size=(25, 4))
        batch = centralize(z, "global")
        np.testing.assert_allclose(batch.populations.data.mean(axis=0), 0.0, atol=1e-12)

    def test_single_cluster_reduction(self, rng):
        head = init_head("aagmm", 1, 3, seed=0)
        z = rng.normal(size=(10, 3))
        batch = centralize(z, "per-cluster-soft", head=head)
        sigma = np.sqrt(head.variances()[0])
        expected = (z - head.centers.value[0]) / sigma
        np.testing.assert_allclose(batch.populations.data[:, 0, :], expected, atol=1e-12)
        np.testing.assert_allclose(batch.weights.data, 1.0, atol=1e-12)

    def test_samples_at_separated_centers_have_zero_first_moment(self):
        # With well-separated clusters, responsibilities are effectively
        # one-hot, so each cluster's weighted mean residual vanishes.
        head = init_head("kmeans", 3, 2, seed=2)
        head.centers.value *= 50.0
        z = head.centers.value.copy()
        batch = centralize(z, "per-cluster-soft", head=head)
        r = batch.weights.data
        pops = batch.populations.data
        for c in range(3):
            m1 = (r[:, c, None] * pops[:, c, :]).sum(axis=0) / r[:, c].sum()
            np.testing.assert_allclose(m1, 0.0, atol=1e-9)

    def test_requires_mixture_head(self):
        with pytest.raises(ValueError, match="mixture head"):
            centralize(np.zeros((3, 2)), "per-cluster-soft", head=None)


class TestMomLoss:
    def test_symmetrized_design_has_zero_low_order_loss(self):
        z = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
        spec = MomentSpec(max_order=2, mode="global")
        total, per = mom_loss(z, spec)
        assert per[1].item() == pytest.approx(0.0, abs=1e-12)
        assert per[2].item() == pytest.approx(0.0, abs=1e-12)

    def test_constant_sample_order_two_is_one(self):
        z = np.full((7, 8), 2.5)
        spec = MomentSpec(max_order=2, order_weights=(1.0, 1.0, 1.0, 1.0), mode="global")
        _, per = mom_loss(z, spec)
        assert per[2].item() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_global_matches_nested_loop_oracle(self, dim, rng):
        z = rng.normal(size=(60, dim)) * 1.3 + 0.2
        spec = MomentSpec(max_order=4, mode="global")
        total, per = mom_loss(z, spec)
        ref_total, ref_per = brute_global_loss(z, spec)
        assert total.item() == pytest.approx(ref_total, abs=1e-10)
        for p in per:
            assert per[p].item() == pytest.approx(ref_per[p], abs=1e-10)

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans"])
    def test_per_cluster_matches_nested_loop_oracle(self, kind, rng):
        head = init_head(kind, 3, 3, seed=4)
        z = rng.normal(size=(40, 3))
        spec = MomentSpec(max_order=3, mode="per-cluster-soft")
        total, per = mom_loss(z, spec, head=head)
        ref_total, ref_per = brute_cluster_loss(z, spec, head)
        assert total.item() == pytest.approx(ref_total, abs=1e-10)
        for p in per:
            assert per[p].item() == pytest.approx(ref_per[p], abs=1e-10)

    def test_consistency_loss_shrinks_with_n(self):
        spec = MomentSpec(max_order=4, mode="global")
        per_small, per_large = {p: [] for p in range(1, 5)}, {p: [] for p in range(1, 5)}
        for seed in range(10):
            rng = np.random.default_rng(seed)
            _, small = mom_loss(rng.standard_normal((100, 4)), spec)
            _, large = mom_loss(rng.standard_normal((10_000, 4)), spec)
            for p in range(1, 5):
                per_small[p].append(small[p].item())
                per_large[p].append(large[p].item())
        for p in range(1, 5):
            assert np.median(per_large[p]) < np.median(per_small[p])

    def test_per_cluster_loss_falls_as_one_over_n_on_the_heads_own_mixture(self):
        # Samples drawn from the head's own mixture, classes uniform: the
        # responsibility-weighted moment estimates are consistent, since
        # E[r_k f] = pi_k E_{N_k}[f], so each order's loss is sampling
        # noise alone and falls as 1/n. Each loss is the mean of 8 batches;
        # a 16-fold larger batch must cut it 8- to 32-fold. A wrong target
        # leaves a floor: with the kurtosis target 2.9 instead of 3, order
        # 4 falls only about 4-fold.
        dim, k, repeats = 3, 2, 8
        head = init_head("aagmm", k, dim, seed=0)
        sigma = np.sqrt(head.variances())
        spec = MomentSpec(max_order=4, mode="per-cluster-soft")
        rng = np.random.default_rng(0)
        losses = {}
        for n in (5_000, 80_000):
            acc = np.zeros(4)
            for _ in range(repeats):
                c = rng.integers(0, k, n)
                z = head.centers.value[c] + sigma[c] * rng.standard_normal((n, dim))
                _, per = mom_loss(z, spec, head=head)
                acc += [per[p].item() for p in range(1, 5)]
            losses[n] = acc / repeats
        ratio = losses[5_000] / losses[80_000]
        assert np.all((8.0 < ratio) & (ratio < 32.0)), ratio

    def test_shift_sensitivity(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((10_000, 8))
        spec = MomentSpec(max_order=1, mode="global")
        base, _ = mom_loss(z, spec)
        shifted = z.copy()
        shifted[:, 0] += 1.0
        bumped, _ = mom_loss(shifted, spec)
        assert bumped.item() > 10 * base.item()
        # The bump is about w * 1^2 = 1/8 for the shifted coordinate.
        assert bumped.item() == pytest.approx(1.0 / 8.0, rel=0.05)

    def test_gradient_global_mode(self, rng):
        z = Parameter(rng.normal(size=(8, 4)))
        spec = MomentSpec(max_order=4, mode="global")

        def fn():
            tape = Tape()
            return mom_loss(z.use(tape), spec)[0]

        assert finite_diff_check(fn, [z]) < 1e-4

    def test_gradient_per_cluster_mode(self, rng):
        head = init_head("aagmm", 3, 4, seed=9)
        z = Parameter(rng.normal(size=(8, 4)))
        spec = MomentSpec(max_order=4, mode="per-cluster-soft")

        def fn():
            tape = Tape()
            return mom_loss(z.use(tape), spec, head=head)[0]

        assert finite_diff_check(fn, [z, head.centers, head.log_var]) < 1e-4

    def test_starved_cluster_is_excluded_not_fatal(self, rng):
        centers = np.array([[0.0, 0.0], [0.0, 1.0], [500.0, 500.0]])
        z = rng.normal(size=(20, 2))
        spec = MomentSpec(max_order=4, mode="per-cluster-soft")
        for kind in ("kmeans", "aagmm"):
            head = init_head(kind, 3, 2, seed=0)
            head.centers.value[...] = centers
            for p in head.parameters():
                p.zero_grad()
            total, _ = mom_loss(Tensor(z, Tape()), spec, head=head)
            assert np.isfinite(total.item())
            backward(total)
            # The far cluster is masked out, so none of the loss reaches it.
            for p in head.parameters():
                assert np.all(p.grad[2] == 0.0), (kind, p.name)
                assert np.any(p.grad[:2] != 0.0), (kind, p.name)

    def test_empty_sample_faults(self):
        spec = MomentSpec(max_order=1, mode="global")
        with pytest.raises(ValueError, match="empty"):
            mom_loss(np.zeros((0, 3)), spec)

    def test_disabled_spec_rejected(self):
        with pytest.raises(ValueError, match="max_order"):
            mom_loss(np.zeros((3, 2)), MomentSpec(max_order=0))

    def test_mask_excludes_samples(self, rng):
        head = init_head("aagmm", 2, 3, seed=3)
        z = rng.normal(size=(10, 3))
        spec = MomentSpec(max_order=2, mode="per-cluster-soft")
        mask = np.ones(10, dtype=bool)
        mask[7:] = False
        masked, _ = mom_loss(z, spec, head=head, sample_mask=mask)
        subset, _ = mom_loss(z[:7], spec, head=head)
        assert masked.item() == pytest.approx(subset.item(), abs=1e-12)

    @pytest.mark.parametrize("mode, kind", [("global", None), ("per-cluster-soft", "aagmm")])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_no_mask_is_an_all_ones_mask_bit_for_bit(self, order, mode, kind, rng):
        # One input path: a missing mask is the all-ones mask, so the
        # total, the terms and the gradients of z, the centers and the
        # log-variances agree in every bit.
        z = rng.normal(size=(37, 4)) * 1.3 + 0.2
        head = init_head(kind, 3, 4, seed=6) if kind else None
        spec = MomentSpec(max_order=order, mode=mode)
        bare = loss_and_grads(mom_loss, z, spec, head)
        ones = loss_and_grads(mom_loss, z, spec, head, np.ones(37, dtype=bool))
        assert list(bare[1]) == list(ones[1]) == list(range(1, order + 1))
        assert (np.array([bare[0], *bare[1].values()]).tobytes()
                == np.array([ones[0], *ones[1].values()]).tobytes())
        assert len(bare[2]) == len(ones[2]) == (1 if head is None else 3)
        for g, ref in zip(bare[2], ones[2]):
            assert g.tobytes() == ref.tobytes()

    def test_all_masked_faults(self):
        spec = MomentSpec(max_order=1, mode="global")
        with pytest.raises(ValueError, match="mask"):
            mom_loss(np.ones((4, 2)), spec, sample_mask=np.zeros(4, dtype=bool))


class TestMultisetPrimitive:
    @pytest.mark.parametrize("order, count", [(1, 8), (2, 36), (3, 120), (4, 330)])
    def test_table_matches_the_dense_oracle(self, order, count):
        # Every dense entry equals its multiset's target, and its weight
        # times the multiset's multiplicity equals the folded coefficient.
        dim = 8
        table = stacked_multisets(order, order, dim)
        assert table.coef.shape == (count,) == (math.comb(dim + order - 1, order),)
        position = multiset_positions(order, dim)
        targets, weights = moment_targets(order, dim), weight_tensor(order, dim)
        folded = np.zeros(count)
        for t in itertools.product(range(dim), repeat=order):
            u = position[tuple(sorted(t))]
            assert targets[t] == table.target[u]
            folded[u] += weights[t]
        np.testing.assert_allclose(folded, table.coef, rtol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 8])
    @pytest.mark.parametrize("first, last",
                             [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)])
    def test_stacked_table_pairs_gathers_and_order_tiling(self, first, last, dim):
        # The columns are the multisets of orders first..last and the rows
        # those of orders first-1..last-1, each order's in multiset_tuples
        # order: the product buffer's levels.
        table = stacked_multisets(first, last, dim)
        columns = [t for p in range(first, last + 1) for t in multiset_tuples(p, dim)]
        rows = [v for p in range(first - 1, last) for v in multiset_tuples(p, dim)]
        column = {t: j for j, t in enumerate(columns)}
        assert table.rows == slice(_level_start(first - 1, dim), _level_start(last, dim))
        assert table.rows.stop - table.rows.start == len(rows)
        assert table.coef.shape == table.target.shape == table.order.shape == (len(columns),)
        for j, t in enumerate(columns):
            assert table.pair_axis[j] == max(t)
            assert rows[table.pair_row[j]] + (table.pair_axis[j],) == t
        assert table.grad_index.shape == table.grad_count.shape == (len(rows), dim)
        for r, v in enumerate(rows):
            for d in range(dim):
                t = tuple(sorted(v + (d,)))
                assert table.grad_index[r, d] == column[t]
                assert table.grad_count[r, d] == t.count(d)
        stop = 0
        for i, (lo, hi) in enumerate(table.bounds):
            assert lo == stop
            stop = hi
            assert {len(t) for t in columns[lo:hi]} == {first + i}
            assert np.all(table.order[lo:hi] == i)
            own = stacked_multisets(first + i, first + i, dim)
            assert table.coef[lo:hi].tobytes() == own.coef.tobytes()
            assert table.target[lo:hi].tobytes() == own.target.tobytes()
        assert len(table.bounds) == last - first + 1 and stop == len(columns)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("mode, kind", [
        ("global", None),
        ("per-cluster-soft", "aagmm"),
        ("per-cluster-soft", "kmeans"),
    ])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_dense_reference(self, order, mode, kind, masked, rng):
        dim = 8
        z = rng.normal(size=(40, dim)) * 1.2 + 0.1
        head = init_head(kind, 3, dim, seed=5) if kind else None
        mask = None
        if masked:
            mask = np.ones(40, dtype=bool)
            mask[[2, 11, 17, 23, 39]] = False
        self.assert_matches_dense_reference(z, MomentSpec(max_order=order, mode=mode), head, mask)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_dense_reference_at_the_mom4_training_shape(self, order, rng):
        # BLAS picks its kernel by shape: 112 unlabeled rows, 8 clusters, D = 8.
        dim = 8
        z = rng.normal(size=(112, dim)) * 1.2 + 0.1
        head = init_head("aagmm", 8, dim, seed=5)
        mask = np.ones(112, dtype=bool)
        mask[::9] = False
        spec = MomentSpec(max_order=order, mode="per-cluster-soft")
        self.assert_matches_dense_reference(z, spec, head, mask)

    @staticmethod
    def assert_matches_dense_reference(z, spec, head, mask):
        loss, terms, grads = loss_and_grads(mom_loss, z, spec, head, mask)
        ref_loss, ref_terms, ref_grads = loss_and_grads(dense_mom_loss, z, spec, head, mask)
        assert_rel_close(loss, ref_loss, 1e-12)
        for p in ref_terms:
            assert_rel_close(terms[p], ref_terms[p], 1e-12)
        assert len(grads) == len(ref_grads) == (1 if head is None else 1 + len(head.parameters()))
        for g, ref in zip(grads, ref_grads):
            assert_rel_close(g, ref, 1e-12)

    def test_dim_16_order_4_matches_nested_loop_oracle(self, rng):
        # 3,876 multisets stand for the 65,536 dense entries.
        assert stacked_multisets(4, 4, 16).coef.size == 3876
        head = init_head("aagmm", 2, 16, seed=1)
        z = rng.normal(size=(6, 16))
        spec = MomentSpec(max_order=4, mode="per-cluster-soft")
        total, per = mom_loss(z, spec, head=head)
        ref_total, ref_per = brute_cluster_loss(z, spec, head)
        assert total.item() == pytest.approx(ref_total, rel=1e-12)
        for p in per:
            assert per[p].item() == pytest.approx(ref_per[p], rel=1e-12)

    @pytest.mark.parametrize("shape, top", [((112, 8, 8), 3), ((1, 1, 8), 0), ((1, 1, 8), 3)])
    def test_chain_products_are_the_left_to_right_products(self, shape, top, rng):
        # The buffer is multiset-major, (rows, G, n), and each product is
        # reduce(np.multiply, ...) over its multiset's axes in index order,
        # bit for bit: at the mom4 training shape (112 rows, 8 clusters,
        # D = 8) and at the one-row global offset.
        x = rng.normal(size=shape) * 1.7
        n, groups, dim = shape
        buf = _product_chain(x, top)
        assert buf.shape == (math.comb(dim + top, top), groups, n)
        assert buf[0].tobytes() == np.ones((groups, n)).tobytes()
        for k in range(1, top + 1):
            start = _level_start(k, dim)
            for u, t in enumerate(multiset_tuples(k, dim)):
                ref = functools.reduce(np.multiply, [x[:, :, a] for a in t])
                assert buf[start + u].tobytes() == ref.T.tobytes(), t

    def test_non_finite_moment_faults_with_the_order_named(self):
        pops = Tensor(np.full((4, 1, 2), 1e90))
        with pytest.raises(NonFiniteError, match="mom_p4 produced a non-finite value"):
            moment_discrepancy(pops, None, 4, 4)

    @pytest.mark.parametrize("mode, kind", [
        ("global", None),
        ("per-cluster-soft", "aagmm"),
        ("per-cluster-soft", "kmeans"),
    ])
    def test_masked_row_with_overflowing_top_products_does_not_fault(self, mode, kind, rng):
        # Row 0's order-4 products overflow; its order-3 products do not.
        # The order-4 moments come from the order-3 products times the
        # weighted samples, so the masked row adds 0, not inf * 0 = NaN.
        z = rng.normal(size=(12, 3))
        z[0] = [3e77, 1.0, -2e77]
        mask = np.ones(12, dtype=bool)
        mask[0] = False
        head = init_head(kind, 2, 3, seed=0) if kind else None
        spec = MomentSpec(max_order=4, mode=mode)
        loss, _, grads = loss_and_grads(mom_loss, z, spec, head, mask)
        assert np.isfinite(loss)
        assert all(np.isfinite(g).all() for g in grads)
        assert np.all(grads[0][0] == 0.0)

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans"])
    def test_masked_row_whose_weight_gradient_overflows_faults(self, kind, rng):
        # Larger still, the masked row's weight gradient (its order-4
        # products times the sums' gradient) overflows, and the mask would
        # turn it into NaN: the reverse pass faults instead.
        z = rng.normal(size=(12, 3))
        z[0] = [1e78, 1.0, -1e78]
        mask = np.ones(12, dtype=bool)
        mask[0] = False
        spec = MomentSpec(max_order=4, mode="per-cluster-soft")
        with pytest.raises(NonFiniteError, match="mom_p4 produced a non-finite value"):
            loss_and_grads(mom_loss, z, spec, init_head(kind, 2, 3, seed=0), mask)

    def test_unmasked_row_with_overflowing_top_products_faults(self, rng):
        x = rng.normal(size=(12, 1, 3))
        x[0, 0] = [3e77, 1.0, -2e77]
        with pytest.raises(NonFiniteError, match="mom_p4 produced a non-finite value"):
            moment_discrepancy(Tensor(x), Tensor(np.ones((12, 1))), 4, 4)

    def test_starved_group_gets_no_gradient(self, rng):
        # Group 1's mass is positive but below the estimable minimum: it is
        # masked out of the loss, so neither its samples nor its weights
        # receive any gradient.
        tape = Tape()
        pops = Tensor(rng.normal(size=(10, 2, 3)), tape)
        weights = Tensor(np.stack([rng.uniform(0.1, 1.0, 10), np.full(10, 1e-12)], axis=1), tape)
        per_group, active = moment_discrepancy(pops, weights, 3, 3)
        assert active.tolist() == [True, False]
        assert per_group.data[0, 1] == 0.0
        backward(tsum(per_group))
        assert np.all(pops.grad[:, 1] == 0.0) and np.any(pops.grad[:, 0] != 0.0)
        assert np.all(weights.grad[:, 1] == 0.0) and np.any(weights.grad[:, 0] != 0.0)

    def test_all_degenerate_responsibilities_fault(self):
        weights = Tensor(np.zeros((5, 2)))
        pops = Tensor(np.ones((5, 2, 3)))
        with pytest.raises(ValueError, match="degenerate"):
            moment_discrepancy(pops, weights, 2, 2)


class TestFusedMomLoss:
    """``mom_loss``, one tape record past the centralization, against the op-by-op chain."""

    @staticmethod
    def scaled(loss_fn):
        """The loss times 0.3, so the output gradient is not 1."""
        def fn(*args, **kwargs):
            total, per_order = loss_fn(*args, **kwargs)
            return total * 0.3, per_order
        return fn

    def assert_bitwise_equal(self, z, spec, head=None, mask=None):
        fused = loss_and_grads(self.scaled(mom_loss), z, spec, head, mask)
        chain = loss_and_grads(self.scaled(chain_mom_loss), z, spec, head, mask)
        assert list(fused[1]) == list(chain[1]) == list(range(1, spec.max_order + 1))
        assert (np.array([fused[0], *fused[1].values()]).tobytes()
                == np.array([chain[0], *chain[1].values()]).tobytes())
        assert len(fused[2]) == len(chain[2])
        for g, ref in zip(fused[2], chain[2]):
            assert g.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("mode, kind", [
        ("global", None),
        ("per-cluster-soft", "aagmm"),
        ("per-cluster-soft", "kmeans"),
    ])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_bitwise_equal_to_the_chain(self, order, mode, kind, masked, rng):
        dim = 5
        z = rng.normal(size=(30, dim)) * 1.3 + 0.2
        head = init_head(kind, 3, dim, seed=2) if kind else None
        mask = None
        if masked:
            mask = np.ones(30, dtype=bool)
            mask[[4, 9, 29]] = False
        spec = MomentSpec(max_order=order, order_weights=(1.0, 0.5, 0.3, 0.125), mode=mode)
        self.assert_bitwise_equal(z, spec, head, mask)

    @pytest.mark.parametrize("kind", ["aagmm", "kmeans"])
    def test_bitwise_equal_to_the_chain_with_a_starved_cluster(self, kind, rng):
        head = init_head(kind, 3, 2, seed=0)
        head.centers.value[...] = [[0.0, 0.0], [0.0, 1.0], [500.0, 500.0]]
        spec = MomentSpec(max_order=4, mode="per-cluster-soft")
        self.assert_bitwise_equal(rng.normal(size=(20, 2)), spec, head)

    @pytest.mark.parametrize("mode, kind", [("global", None), ("per-cluster-soft", "aagmm")])
    def test_one_record_past_the_centralization(self, mode, kind, rng):
        head = init_head(kind, 3, 4, seed=1) if kind else None
        z = Parameter(rng.normal(size=(12, 4)))
        lengths = []
        for loss in (centralize, mom_loss):
            tape = Tape()
            if loss is centralize:
                centralize(z.use(tape), mode, head=head)
            else:
                _, per_order = mom_loss(z.use(tape), MomentSpec(max_order=4, mode=mode), head=head)
                assert all(t.tape is None for t in per_order.values())
            lengths.append(len(tape))
        assert lengths[1] == lengths[0] + 1

    def test_non_finite_term_faults_with_the_op_named(self):
        spec = MomentSpec(max_order=2, order_weights=(1.0, 1e308, 0.0, 0.0), mode="global")
        z = np.array([[0.0], [4.0]])  # the order-2 discrepancy is 9, times 1e308
        with pytest.raises(NonFiniteError, match="mul produced a non-finite value"):
            chain_mom_loss(Tensor(z), spec)
        with pytest.raises(NonFiniteError, match="mul produced a non-finite value"):
            mom_loss(Tensor(z), spec)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_over_populations_faults_with_the_op_named(self):
        head = init_head("aagmm", 2, 1, seed=0)
        head.centers.value[...] = 0.0
        head.log_var.value[...] = 0.0
        spec = MomentSpec(max_order=1, mode="per-cluster-soft")
        z = np.array([[1e154], [1e154]])  # each population's discrepancy is 1e308
        for loss in (chain_mom_loss, mom_loss):
            with pytest.raises(NonFiniteError, match="sum produced a non-finite value"):
                loss(Tensor(z), spec, head=head)


class TestSpecValidation:
    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            MomentSpec(max_order=5)

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            MomentSpec(max_order=1, order_weights=(-1.0, 0.5, 0.25, 0.125))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            MomentSpec(max_order=1, mode="sideways")

    @given(st.integers(0, 4))
    def test_valid_orders_accepted(self, p):
        assert MomentSpec(max_order=p).max_order == p


class TestDoubleFactorial:
    def test_values(self):
        assert double_factorial(1) == 1
        assert double_factorial(3) == 3
        assert double_factorial(5) == 15
        assert double_factorial(7) == 105
        assert double_factorial(0) == 1
