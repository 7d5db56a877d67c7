"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The SSL criteria train twenty full 4000-step runs and dominate the
suite's runtime; runs execute two at a time in worker processes. The
when-frozen constants (the Monte-Carlo loss bound) come from
scripts/mom_bound_oracle.py.
"""

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from gmix.autodiff import Tensor
from gmix.datasets import SyntheticSpec, generate
from gmix.gradcheck import format_table, run_suite
from gmix.heads import AagmmHead, KmeansHead, conditional
from gmix.moments import (
    MomentSpec,
    class_size,
    hyperdiag_count,
    mom_loss,
    target_moment,
)
from gmix.outlier import fit_threshold, mask, nearest_rank_percentile
from gmix.pipeline import GateConfig, RunConfig, run
from test_heads import sigmoid_equivalence_params
from test_metrics import outlier_pr
from test_moments import class_weight, moment_targets, weight_tensor

# Frozen from scripts/mom_bound_oracle.py (20 repeats, n=50000, dim=8,
# orders 1-2, global mode): mean 4.978e-05, sd 1.332e-05.
MOM_LOSS_BOUND = 1.0307e-04

# Shared settings for the desk-scale SSL comparison (criteria 5 and 6).
SSL_SEEDS = (0, 1, 2, 3, 4)
SSL_STEPS = 4000
SSL_LR = 0.02


def _announce(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def _ssl_config(seed: int, head: str, orders: int, lambda_u: float, **kw) -> RunConfig:
    return RunConfig(
        seed=seed,
        steps=SSL_STEPS,
        eval_every=SSL_STEPS,
        head_kind=head,
        lambda_u=lambda_u,
        moments=MomentSpec(max_order=orders),
        lr=SSL_LR,
        **kw,
    )


def _train_arm(task):
    name, config, data_spec = task
    started = time.perf_counter()
    report, state, _ = run(config, data_spec)
    final = report.final
    return name, config.seed, final, time.perf_counter() - started


def test_criterion_1_gradient_suite():
    """Every autodiff op, both heads, and mom losses pass the
    finite-difference oracle under a minute."""
    started = time.perf_counter()
    rows = run_suite()
    elapsed = time.perf_counter() - started
    failed = [r for r in rows if not r.passed]
    worst = max(rows, key=lambda r: r.max_rel_err)
    ok = not failed and elapsed < 60.0
    _announce(
        "1 gradient suite",
        ok,
        f"{len(rows)} checks, worst {worst.max_rel_err:.2e} ({worst.name}), {elapsed:.1f}s",
    )
    if failed:
        print(format_table(failed))
    assert not failed
    assert elapsed < 60.0


def test_criterion_2_head_identities(rng):
    centers = rng.normal(size=(5, 6))
    variances = rng.uniform(0.5, 2.0, size=(5, 6))
    aagmm = AagmmHead(centers, np.log(variances))
    z = rng.normal(scale=2.0, size=(200, 6))

    rows = conditional(aagmm, z).data
    row_err = np.abs(rows.sum(axis=1) - 1.0).max()

    kmeans = KmeansHead(centers)
    sqd = ((z[:, None, :] - centers[None]) ** 2).sum(axis=2)
    logits = -0.5 * sqd
    softmax = np.exp(logits - logits.max(axis=1, keepdims=True))
    softmax /= softmax.sum(axis=1, keepdims=True)
    kmeans_err = np.abs(conditional(kmeans, z).data - softmax).max()

    unitvar = AagmmHead(centers, np.zeros((5, 6)))
    reduction_err = max(
        np.abs(unitvar.class_log_scores(Tensor(z)).data
               - kmeans.class_log_scores(Tensor(z)).data).max(),
        np.abs(conditional(unitvar, z).data - conditional(kmeans, z).data).max(),
    )

    mu_a, mu_b, sigma = 1.3, -0.4, 0.9
    m, b = sigmoid_equivalence_params(mu_a, mu_b, sigma)
    two = AagmmHead(np.array([[mu_a], [mu_b]]), np.log(np.full((2, 1), sigma ** 2)))
    grid = np.linspace(-5.0, 5.0, 100)
    sigmoid_err = np.abs(
        conditional(two, grid[:, None]).data[:, 0]
        - 1.0 / (1.0 + np.exp(-(m * grid + b)))
    ).max()

    ok = row_err < 1e-9 and kmeans_err < 1e-9 and reduction_err < 1e-12 and sigmoid_err < 1e-10
    _announce(
        "2 head identities",
        ok,
        f"rowsum {row_err:.1e}, kmeans-softmax {kmeans_err:.1e}, "
        f"reduction {reduction_err:.1e}, sigmoid {sigmoid_err:.1e}",
    )
    assert row_err < 1e-9
    assert kmeans_err < 1e-9
    assert reduction_err < 1e-12
    assert sigmoid_err < 1e-10


def test_criterion_3_moment_correctness(rng):
    for dim in range(1, 6):
        for p in range(1, 5):
            census = {h: 0 for h in range(p)}
            for t in itertools.product(range(dim), repeat=p):
                census[hyperdiag_count(t)] += 1
            for h in range(p):
                assert class_size(p, dim, h) == census[h]
    for t in itertools.product(range(3), repeat=4):
        counts = [t.count(v) for v in set(t)]
        expect = 1.0
        for c in counts:
            expect = 0.0 if c % 2 else expect * math.prod(range(c - 1, 0, -2))
        assert target_moment(t) == expect
    assert class_size(2, 8, 1) == 8
    assert class_size(2, 8, 0) == 56
    assert target_moment((0, 0, 0, 0)) == 3.0

    weights_ok = True
    for p in range(1, 5):
        for dim in (2, 3, 5, 8):
            for h in range(p):
                if class_size(p, dim, h):
                    weights_ok &= class_size(p, dim, h) * class_weight(p, dim, h) == 1

    z = rng.normal(size=(100, 3)) * 1.2 + 0.1
    spec = MomentSpec(max_order=4, mode="global")
    total, _ = mom_loss(z, spec)
    mean = z.mean(axis=0)
    zc = z - mean
    ref = 0.0
    for p in range(1, 5):
        w = weight_tensor(p, 3)
        targets = moment_targets(p, 3)
        term = 0.0
        for t in itertools.product(range(3), repeat=p):
            if p == 1:
                moment = mean[t[0]]
            else:
                moment = float(np.prod([zc[:, d] for d in t], axis=0).mean())
            term += w[t] * (moment - targets[t]) ** 2
        ref += spec.order_weights[p - 1] * term
    loss_err = abs(total.item() - ref)

    ok = weights_ok and loss_err < 1e-10
    _announce(
        "3 moment correctness",
        ok,
        f"combinatorics exact, weights exact, loss-vs-oracle {loss_err:.1e}",
    )
    assert weights_ok
    assert loss_err < 1e-10


def test_criterion_4_moment_statistics():
    spec = MomentSpec(max_order=2, mode="global")
    rng = np.random.default_rng(777)
    losses = []
    for _ in range(5):
        total, _ = mom_loss(rng.standard_normal((50_000, 8)), spec)
        losses.append(total.item())
    clean_median = float(np.median(losses))

    shifted = rng.standard_normal((50_000, 8))
    shifted[:, 0] += 1.0
    shifted_loss = mom_loss(shifted, spec)[0].item()

    below = max(losses) < MOM_LOSS_BOUND
    ratio = shifted_loss / clean_median
    ok = below and ratio >= 10.0
    _announce(
        "4 moment statistics",
        ok,
        f"max clean {max(losses):.3e} < bound {MOM_LOSS_BOUND:.3e}, shift ratio {ratio:.0f}x",
    )
    assert below
    assert ratio >= 10.0


@pytest.fixture(scope="module")
def ssl_runs():
    """Criterion 5's three arms over five seeds, trained in parallel."""
    tasks = []
    for seed in SSL_SEEDS:
        data = SyntheticSpec(seed=seed)
        tasks.append(("baseline", _ssl_config(seed, "aagmm", 0, 0.0), data))
        tasks.append(("ssl-mom1", _ssl_config(seed, "aagmm", 1, 1.0), data))
        tasks.append(("ssl-mom0", _ssl_config(seed, "aagmm", 0, 1.0), data))
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_train_arm, tasks))
    return {
        name: {seed: final for n, seed, final, _ in results if n == name}
        for name in ("baseline", "ssl-mom1", "ssl-mom0")
    }, max(r[3] for r in results)


def test_criterion_5_desk_scale_ssl(ssl_runs):
    arms, slowest = ssl_runs
    acc_base = np.median([arms["baseline"][s]["test_acc"] for s in SSL_SEEDS])
    acc_mom1 = np.median([arms["ssl-mom1"][s]["test_acc"] for s in SSL_SEEDS])
    # "exceeds by >= 10pp, median over seeds": the per-seed excess, paired
    # on the seed (which also seeds the dataset draw).
    excess = np.median([
        arms["ssl-mom1"][s]["test_acc"] - arms["baseline"][s]["test_acc"]
        for s in SSL_SEEDS
    ])
    compact_mom1 = np.median([arms["ssl-mom1"][s]["compactness"] for s in SSL_SEEDS])
    compact_mom0 = np.median([arms["ssl-mom0"][s]["compactness"] for s in SSL_SEEDS])

    ok_a = excess >= 0.10
    ok_b = compact_mom1 < compact_mom0
    ok_time = slowest < 600.0
    _announce(
        "5a ssl accuracy",
        ok_a,
        f"ssl+mom1 {acc_mom1:.4f} vs supervised-32 {acc_base:.4f}, "
        f"median per-seed excess {excess * 100:+.1f}pp (need +10)",
    )
    _announce(
        "5b compactness",
        ok_b,
        f"mom1 {compact_mom1:.3f} < no-mom {compact_mom0:.3f}",
    )
    _announce("5 runtime", ok_time, f"slowest run {slowest:.0f}s < 600s")
    assert ok_time
    assert ok_b
    assert ok_a


def _gate_arm(seed: int):
    config = _ssl_config(
        seed, "aagmm", 1, 1.0, gate=GateConfig(enabled=True, mode="min")
    )
    data = replace(SyntheticSpec(seed=seed), outlier_frac=0.05)
    _, state, _ = run(config, data)
    dataset = generate(data)
    z_lab = state.backbone.embed(Tensor(dataset.labeled_x)).data
    fit_threshold(state.gate, z_lab, state.head)
    z_unl = state.backbone.embed(Tensor(dataset.unlabeled_x)).data
    keep = mask(state.gate, state.head, z_unl)
    _, recall = outlier_pr(dataset.unlabeled_outlier, ~keep)
    flag_rate = float((~mask(state.gate, state.head, z_lab)).mean())
    return recall, flag_rate


def test_criterion_6_outlier_gate():
    q_ok = True
    rng = np.random.default_rng(5)
    for n in (10, 40, 200):
        s = rng.exponential(size=n)
        tau = nearest_rank_percentile(s, 90.0)
        q_ok &= (s > tau).mean() <= 0.10

    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_gate_arm, SSL_SEEDS))
    recalls = [r for r, _ in results]
    flag_rates = [f for _, f in results]

    recall_med = float(np.median(recalls))
    flag_med = float(np.median(flag_rates))
    ok = q_ok and recall_med >= 0.8 and flag_med <= 0.10
    _announce(
        "6 outlier gate",
        ok,
        f"labeled flags <=10% always={q_ok}, min-mode recall {recall_med:.3f}, "
        f"labeled false-flag {flag_med:.3f}",
    )
    assert q_ok
    assert recall_med >= 0.8
    assert flag_med <= 0.10


def test_criterion_7_scaling_arithmetic():
    ok = True
    for dim in (2, 4, 8):
        for p in range(1, 5):
            ok &= moment_targets(p, dim).size == dim ** p
            ok &= weight_tensor(p, dim).size == dim ** p
    ok &= moment_targets(4, 8).size == 4096
    _announce("7 scaling arithmetic", ok, "order-p tensor has D^p entries; 8^4=4096")
    assert ok


def test_criterion_8_determinism(tmp_path):
    config = RunConfig(
        seed=11, steps=100, eval_every=50, lr=SSL_LR,
        moments=MomentSpec(max_order=1),
        gate=GateConfig(enabled=True, mode="min"),
    )
    data = SyntheticSpec(seed=11, n_unlabeled=1000, n_test=300)
    run(config, data, out_dir=tmp_path / "a")
    run(config, data, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    ok = a == b
    _announce("8 determinism", ok, f"metrics CSV byte-identical ({len(a)} bytes)")
    assert ok
