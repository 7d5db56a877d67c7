"""Training-loop contracts: the supervised reduction identity, masking
semantics, clipping, determinism, and the metrics/manifest plumbing."""

import dataclasses

import numpy as np
import pytest

from gmix import gradcheck, pipeline
from gmix.autodiff import (
    NonFiniteError,
    Parameter,
    Tape,
    Tensor,
    _result,
    backward,
    clip_global_norm,
    tsum,
)
from gmix.checkpoint import load_checkpoint
from gmix.config import parse_config_text
from gmix.datasets import SyntheticSpec, generate
from gmix.heads import init_head, log_conditional
from gmix.metrics import CSV_COLUMNS
from gmix.moments import MomentSpec, mom_loss
from gmix.outlier import fit_threshold
from gmix.pipeline import (
    GateConfig,
    RunConfig,
    SgdMomentum,
    _nll,
    curriculum_thresholds,
    evaluate,
    init_state,
    pseudo_label,
    run,
    sample_labeled,
    sample_unlabeled,
    train_step,
)

SMALL_DATA = SyntheticSpec(
    n_classes=4, ambient_dim=8, n_unlabeled=400, n_test=200,
    labels_per_class=4, cluster_noise=0.12, seed=5,
)


def small_config(**overrides):
    base = dict(
        seed=3, steps=30, eval_every=10, labeled_batch=8, unlabeled_ratio=3,
        latent_dim=4, moments=MomentSpec(max_order=1),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestPseudoLabel:
    def test_confident_row_kept(self):
        labels, kept = pseudo_label(np.array([[0.97, 0.03]]), np.array([0.95, 0.95]))
        assert labels[0] == 0 and kept[0]

    def test_unconfident_row_masked(self):
        labels, kept = pseudo_label(np.array([[0.6, 0.4]]), np.array([0.95, 0.95]))
        assert labels[0] == 0 and not kept[0]

    def test_tie_breaks_to_lowest_index(self):
        labels, kept = pseudo_label(np.array([[0.5, 0.5]]), np.array([0.95, 0.95]))
        assert labels[0] == 0 and not kept[0]
        labels, kept = pseudo_label(np.array([[0.5, 0.5]]), np.array([0.5, 0.5]))
        assert labels[0] == 0 and kept[0]

    def test_per_class_thresholds(self):
        probs = np.array([[0.7, 0.3], [0.3, 0.7]])
        labels, kept = pseudo_label(probs, np.array([0.6, 0.9]))
        assert labels.tolist() == [0, 1]
        assert kept.tolist() == [True, False]


class TestCurriculumThresholds:
    def test_equal_counts(self):
        out = curriculum_thresholds(np.array([5, 5, 5]), 0.95)
        np.testing.assert_allclose(out, 0.95)

    def test_scaling_with_floor(self):
        out = curriculum_thresholds(np.array([10, 5]), 0.95)
        np.testing.assert_allclose(out, [0.95, 0.5])

    def test_all_zero_counts(self):
        out = curriculum_thresholds(np.zeros(4), 0.9)
        np.testing.assert_allclose(out, 0.9)

    def test_base_below_the_floor_is_never_raised(self):
        out = curriculum_thresholds(np.array([10, 5]), 0.3)
        np.testing.assert_allclose(out, [0.3, 0.3])


class TestSupervisedReduction:
    def test_matches_standalone_supervised_loop(self):
        """With unlabeled terms off, the pipeline is plain supervised
        training: per-step losses match an independently written loop."""
        config = small_config(
            head_kind="linear", lambda_u=0.0, moments=MomentSpec(max_order=0),
            steps=10,
        )
        dataset = generate(SMALL_DATA)

        state = init_state(config, dataset)
        pipeline_losses = []
        for _ in range(config.steps):
            labeled = sample_labeled(dataset, state.rng, config)
            stats = train_step(state, labeled, None, config)
            pipeline_losses.append(stats.loss_sup)

        mirror = init_state(config, dataset)
        mirror_losses = []
        for _ in range(config.steps):
            x, y = sample_labeled(dataset, mirror.rng, config)
            mirror.optimizer.zero_grad()
            tape = Tape()
            z = mirror.backbone.embed(Tensor(x), tape)
            lc = log_conditional(mirror.head, z)
            onehot = np.eye(mirror.head.n_classes)[y]
            loss = -(tsum(lc * Tensor(onehot), axis=1)).mean()
            backward(loss)
            clip_global_norm(mirror.parameters(), config.clip_norm)
            mirror.optimizer.step()
            mirror_losses.append(loss.item())

        np.testing.assert_allclose(pipeline_losses, mirror_losses, atol=1e-12)

    def test_total_equals_sup_when_reduced(self):
        config = small_config(lambda_u=0.0, moments=MomentSpec(max_order=0),
                              head_kind="linear", steps=3)
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        stats = train_step(state, sample_labeled(dataset, state.rng, config), None, config)
        assert stats.loss_total == stats.loss_sup


class TestMaskingSemantics:
    def _gate_all_excluded(self, config, dataset):
        state = init_state(config, dataset)
        state.gate.tau = -1.0  # scores are nonnegative, so nothing passes
        return state

    def test_all_gate_excluded_zeroes_unlabeled_terms(self):
        config = small_config(gate=GateConfig(enabled=True, mode="max"))
        dataset = generate(SMALL_DATA)
        state = self._gate_all_excluded(config, dataset)
        labeled = sample_labeled(dataset, state.rng, config)
        unlabeled = sample_unlabeled(dataset, state.rng, config)
        stats = train_step(state, labeled, unlabeled, config)
        assert stats.loss_unsup == 0.0
        assert stats.loss_mom_total == 0.0
        assert stats.outlier_rate == 1.0

    @pytest.mark.parametrize("exclude", [True, False])
    def test_gate_exclude_mom_decides_the_moment_loss(self, exclude):
        """gate.exclude_mom = false keeps gate-rejected samples in the moment loss."""
        config = small_config(gate=GateConfig(enabled=True, mode="max", exclude_from_mom=exclude))
        dataset = generate(SMALL_DATA)
        state = self._gate_all_excluded(config, dataset)
        labeled = sample_labeled(dataset, state.rng, config)
        unlabeled = sample_unlabeled(dataset, state.rng, config)
        zw = state.backbone.embed(Tensor(unlabeled.weak))
        everyone = np.ones(unlabeled.weak.shape[0], dtype=bool)
        expected = mom_loss(zw, config.moments, head=state.head, sample_mask=everyone)[0].item()
        stats = train_step(state, labeled, unlabeled, config)
        assert stats.outlier_rate == 1.0
        assert stats.loss_mom_total == (0.0 if exclude else expected)
        assert expected != 0.0

    def test_gate_excluded_sample_has_zero_input_gradient(self):
        """Replicates the unlabeled loss path with the batch features as
        leaves: an excluded sample's rows get exactly zero gradient."""
        config = small_config()
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        unlabeled = sample_unlabeled(dataset, state.rng, config)
        m = unlabeled.weak.shape[0]
        kept = np.ones(m, dtype=bool)
        victim = 3
        kept[victim] = False

        xw = Parameter(unlabeled.weak)
        xs = Parameter(unlabeled.strong)
        tape = Tape()
        zw = state.backbone.embed(xw.use(tape), tape)
        zs = state.backbone.embed(xs.use(tape), tape)
        scores = state.head.class_log_scores(zw)
        probs = np.exp(scores.data - scores.data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = np.argmax(probs, axis=1)
        onehot = np.eye(state.head.n_classes)[labels]
        lcs = log_conditional(state.head, zs)
        nll = -(tsum(lcs * Tensor(onehot), axis=1))
        loss_unsup = tsum(nll * Tensor(kept.astype(float))) / m
        mom_total, _ = mom_loss(zw, config.moments, head=state.head, sample_mask=kept)
        backward(loss_unsup + mom_total)

        np.testing.assert_array_equal(xw.grad[victim], np.zeros(8))
        np.testing.assert_array_equal(xs.grad[victim], np.zeros(8))
        assert np.any(xw.grad[~np.isin(np.arange(m), [victim])] != 0)

    def test_confidence_masked_sample_contributes_no_consistency(self):
        config = small_config(conf_threshold=1.0, curriculum=False,
                              moments=MomentSpec(max_order=0))
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        labeled = sample_labeled(dataset, state.rng, config)
        unlabeled = sample_unlabeled(dataset, state.rng, config)
        stats = train_step(state, labeled, unlabeled, config)
        # threshold 1.0 is unreachable for smooth conditionals
        assert stats.pseudo_rate == 0.0
        assert stats.loss_unsup == 0.0


class TestStepMechanics:
    def test_post_clip_norm_bounded(self):
        config = small_config(clip_norm=0.05)
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        for _ in range(5):
            labeled = sample_labeled(dataset, state.rng, config)
            unlabeled = sample_unlabeled(dataset, state.rng, config)
            stats = train_step(state, labeled, unlabeled, config)
            assert stats.grad_scale <= 1.0

    def test_loss_breakdown_sums_to_total(self):
        config = small_config()
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        for _ in range(5):
            labeled = sample_labeled(dataset, state.rng, config)
            unlabeled = sample_unlabeled(dataset, state.rng, config)
            stats = train_step(state, labeled, unlabeled, config)
            recomposed = (
                stats.loss_sup
                + config.lambda_u * stats.loss_unsup
                + stats.loss_mom_total
            )
            assert stats.loss_total == pytest.approx(recomposed, abs=1e-12)
            assert np.isfinite(stats.loss_total)

    def test_strong_mom_view_constrains_the_strong_embedding(self):
        """mom.view = strong feeds the strong view to the moment loss, also
        when lambda_u = 0 leaves the strong view otherwise unused."""
        config = small_config(mom_view="strong", lambda_u=0.0, moments=MomentSpec(max_order=2))
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        labeled = sample_labeled(dataset, state.rng, config)
        unlabeled = sample_unlabeled(dataset, state.rng, config)
        everyone = np.ones(unlabeled.weak.shape[0], dtype=bool)

        def expected(x):
            z = state.backbone.embed(Tensor(x))
            return mom_loss(z, config.moments, head=state.head, sample_mask=everyone)[0].item()

        strong, weak = expected(unlabeled.strong), expected(unlabeled.weak)
        stats = train_step(state, labeled, unlabeled, config)
        assert stats.loss_unsup == 0.0
        assert stats.loss_mom_total == strong
        assert stats.loss_mom_total != weak

    def test_velocity_shapes_match_parameters(self):
        config = small_config()
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        for p, v in zip(state.optimizer.params, state.optimizer.velocity):
            assert p.value.shape == v.shape

    def test_sgd_momentum_update_rule(self):
        p = Parameter(np.array([1.0]))
        opt = SgdMomentum([p], lr=0.1, momentum=0.5, weight_decay=0.0)
        p.grad[:] = 2.0
        opt.step()
        np.testing.assert_allclose(p.value, [0.8])
        p.grad[:] = 0.0
        opt.step()  # velocity carries half the previous update
        np.testing.assert_allclose(p.value, [0.7])


def chain_nll(log_cond, labels):
    """The three-record negative log-likelihood the fused one replaced."""
    return -tsum(log_cond * Tensor(np.eye(log_cond.shape[1])[labels]), axis=1)


class TestFusedNll:
    """``pipeline._nll`` against the mul, sum and neg chain, bit for bit."""

    @pytest.mark.parametrize("classes", [4, 1])
    @pytest.mark.parametrize("reduce", ["mean", "masked"])
    def test_forward_and_gradient_are_bitwise_equal(self, classes, reduce, rng):
        values = -rng.exponential(size=(40, classes))
        labels = rng.integers(0, classes, size=40)
        kept = (rng.random(40) < 0.6).astype(np.float64)
        results = []
        for fn in (_nll, chain_nll):
            tape = Tape()
            log_cond = Tensor(values, tape)
            nll = fn(log_cond, labels)
            backward(nll.mean() if reduce == "mean" else tsum(nll * Tensor(kept)) / 40)
            results.append([nll.data, log_cond.grad])  # signed zeros included
        for a, b in zip(*results):
            assert a.tobytes() == b.tobytes()

    def test_one_record(self):
        tape = Tape()
        _nll(Tensor(np.zeros((3, 2)), tape), np.array([0, 1, 1]))
        assert len(tape) == 1

    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_input_names_mul(self, column):
        log_cond = np.zeros((2, 2))
        log_cond[1, column] = -np.inf
        for fn in (_nll, chain_nll):
            with pytest.raises(NonFiniteError, match="mul produced"):
                fn(Tensor(log_cond), np.array([0, 0]))

    def test_gradcheck_fails_the_ce_rows_on_a_scaled_reverse_pass(self, monkeypatch):
        # The gradcheck's cross-entropy rows run the record training takes:
        # with its reverse pass scaled by 1.01, they fail and only they do.
        def scaled_nll(log_cond, labels):
            onehot = np.eye(log_cond.shape[1])[labels]
            forward = _nll(Tensor(log_cond.data), labels).data
            return _result(forward, log_cond.tape,
                           (log_cond, lambda g: 1.01 * (-g)[:, None] * onehot))

        monkeypatch.setattr(gradcheck, "_nll", scaled_nll)
        rows = gradcheck.run_suite()
        failed = [r.name for r in rows if not r.passed]
        assert failed == [r.name for r in rows if "-ce " in r.name] and len(failed) == 8


class TestTape:
    @pytest.mark.parametrize("overrides, records", [
        ("", 40),
        ("mom.orders = 4\n", 40),
        ("head.kind = kmeans\n", 37),
        ("head.kind = kmeans\nmom.mode = global\n", 35),
    ])
    def test_records_per_step_are_pinned(self, monkeypatch, overrides, records):
        # One record per op or fused primitive and one leaf per parameter: a
        # refactor that adds or drops a record changes these counts, which are
        # also the benchmark's tape_records counter. KMeans has no log-variance
        # leaf, and in per-cluster-soft mode its residuals take one multiply by
        # the constant unit scales exp(-0.5 * 0).
        counts = []

        def counting_backward(loss):
            counts.append(len(loss.tape))
            backward(loss)

        monkeypatch.setattr(pipeline, "backward", counting_backward)
        config, spec, _ = parse_config_text("run.steps = 3\n" + overrides)
        run(config, spec)
        assert counts == [records] * 3

    def test_tape_is_released_after_backward(self, monkeypatch):
        tapes = []

        def capturing_tape():
            tapes.append(Tape())
            return tapes[-1]

        monkeypatch.setattr(pipeline, "Tape", capturing_tape)
        config = small_config()
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        labeled = sample_labeled(dataset, state.rng, config)
        unlabeled = sample_unlabeled(dataset, state.rng, config)
        train_step(state, labeled, unlabeled, config)
        assert len(tapes) == 1
        assert len(tapes[0]) == 0


class TestEvaluate:
    def test_perfect_and_chance(self):
        config = small_config()
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        ev = evaluate(state, dataset.test_x, dataset.test_y)
        assert 0.0 <= ev.accuracy <= 1.0
        assert ev.per_class.shape == (4,)

    def test_deterministic(self):
        config = small_config()
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        a = evaluate(state, dataset.test_x, dataset.test_y)
        b = evaluate(state, dataset.test_x, dataset.test_y)
        assert a.accuracy == b.accuracy and a.compactness == b.compactness

    def test_empty_rejected(self):
        config = small_config()
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        with pytest.raises(ValueError, match="empty"):
            evaluate(state, np.zeros((0, 8)), np.zeros(0, dtype=int))

    def test_linear_head_compactness_sentinel(self):
        config = small_config(head_kind="linear", lambda_u=0.0,
                              moments=MomentSpec(max_order=0))
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        ev = evaluate(state, dataset.test_x, dataset.test_y)
        assert ev.compactness == -1.0


class TestRun:
    def test_zero_steps_yields_initial_row_only(self):
        config = small_config(steps=0)
        report, _, _ = run(config, SMALL_DATA)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["step"] == 0
        zero = [c for c in CSV_COLUMNS if c.startswith("loss_")]
        zero += ["pseudo_rate", "outlier_tau", "outlier_rate"]
        assert len(zero) == 10
        assert all(row[c] == 0.0 for c in zero)
        assert row["pseudo_acc"] == 1.0

    def test_orders_above_the_run_read_zero(self):
        report, _, _ = run(small_config(steps=5, moments=MomentSpec(max_order=2)), SMALL_DATA)
        row = report.rows[-1]
        assert row["loss_mom_p3"] == row["loss_mom_p4"] == 0.0
        assert row["loss_mom_p1"] != 0.0 and row["loss_mom_p2"] != 0.0

    def test_rows_at_eval_cadence_and_final(self):
        config = small_config(steps=25, eval_every=10)
        report, _, _ = run(config, SMALL_DATA)
        assert [r["step"] for r in report.rows] == [0, 10, 20, 25]

    @pytest.mark.parametrize("call, step", [(1, 0), (3, 20)])
    def test_evaluation_fault_names_its_step(self, monkeypatch, call, step):
        calls = 0

        def faulting_evaluate(*args):
            nonlocal calls
            calls += 1
            if calls == call:
                raise NonFiniteError("log_joint produced a non-finite value")
            return evaluate(*args)

        monkeypatch.setattr(pipeline, "evaluate", faulting_evaluate)
        with pytest.raises(FloatingPointError,
                           match=f"^step {step}: eval: log_joint produced a non-finite value$"):
            run(small_config(steps=25, eval_every=10), SMALL_DATA)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_names_its_step(self, monkeypatch, bad):
        # A reverse pass that leaves a NaN or infinite gradient faults at the
        # clip instead of reaching the optimizer.
        def poisoned_backward(loss):
            backward(loss)
            first_used = next(iter(loss.tape._leaves))  # the Parameter, not its leaf
            first_used.grad[0] = bad

        monkeypatch.setattr(pipeline, "backward", poisoned_backward)
        with pytest.raises(FloatingPointError,
                           match="^step 1: gradient of backbone.w0 is not finite$"):
            run(small_config(steps=3), SMALL_DATA)

    def test_determinism_bytes(self, tmp_path):
        config = small_config(steps=20, gate=GateConfig(enabled=True, mode="min"))
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(config, SMALL_DATA, out_dir=a_dir)
        run(config, SMALL_DATA, out_dir=b_dir)
        assert (a_dir / "metrics.csv").read_bytes() == (b_dir / "metrics.csv").read_bytes()
        assert (a_dir / "checkpoint.bin").read_bytes() == (b_dir / "checkpoint.bin").read_bytes()

    def test_manifest_contents(self, tmp_path):
        config = small_config(steps=5, eval_every=5)
        _, _, manifest = run(config, SMALL_DATA, out_dir=tmp_path / "r")
        assert manifest["seed"] == config.seed
        assert manifest["config"]["ssl.labeled_batch"] == "8"
        assert len(manifest["config_hash"]) == 12
        assert manifest["final_metrics"]["step"] == 5
        assert (tmp_path / "r" / "manifest.json").exists()

    def test_gate_refits_on_cadence(self):
        config = small_config(steps=8, gate=GateConfig(enabled=True, refresh_every=4))
        report, state, _ = run(config, SMALL_DATA)
        assert state.gate.fitted

    def test_ema_shadow_tracks_and_evaluates(self):
        config = small_config(steps=30, ema_decay=0.99)
        report, state, _ = run(config, SMALL_DATA)
        assert state.ema is not None
        dataset = generate(SMALL_DATA)
        with_ema = evaluate(state, dataset.test_x, dataset.test_y)
        direct = evaluate(dataclasses.replace(state, ema=None), dataset.test_x, dataset.test_y)
        assert np.isfinite(with_ema.accuracy) and np.isfinite(direct.accuracy)
        # evaluation must not leave shadow values in the live parameters
        shadows = np.concatenate([state.ema[p.name].ravel() for p in state.parameters()])
        live = np.concatenate([p.value.ravel() for p in state.parameters()])
        assert not np.array_equal(shadows, live)

    def test_checkpoint_holds_the_ema_weights(self, tmp_path):
        config = small_config(steps=20, ema_decay=0.9)
        _, state, _ = run(config, SMALL_DATA, out_dir=tmp_path)
        saved = load_checkpoint(tmp_path / "checkpoint.bin")
        assert list(saved) == [p.name for p in state.parameters()]
        for p in state.parameters():
            np.testing.assert_array_equal(saved[p.name], state.ema[p.name])
            assert not np.array_equal(saved[p.name], p.value)

    def test_pseudo_rate_rises_on_separable_data(self):
        rates_first, rates_last = [], []
        for seed in range(5):
            config = small_config(seed=seed, steps=160, eval_every=20)
            report, _, _ = run(config, SMALL_DATA)
            rates = [r["pseudo_rate"] for r in report.rows[1:]]
            quarter = max(1, len(rates) // 4)
            rates_first.append(np.mean(rates[:quarter]))
            rates_last.append(np.mean(rates[-quarter:]))
        assert np.mean(rates_last) >= np.mean(rates_first)


class TestOtherGenerators:
    @pytest.mark.parametrize("kind,classes", [("two-moons", 2), ("rings", 3)])
    def test_ssl_trains_above_chance(self, kind, classes):
        data = SyntheticSpec(
            kind=kind, n_classes=classes, ambient_dim=8, n_unlabeled=600,
            n_test=300, labels_per_class=4, cluster_noise=0.08, seed=1,
        )
        config = RunConfig(
            seed=1, steps=300, eval_every=300, labeled_batch=8,
            unlabeled_ratio=3, latent_dim=4, lr=0.02,
            moments=MomentSpec(max_order=1),
        )
        report, _, _ = run(config, data)
        assert report.final["test_acc"] > 1.5 / classes


class TestGateRefresh:
    def test_threshold_tracks_drifting_embeddings(self):
        config = small_config(steps=40, gate=GateConfig(enabled=True, refresh_every=5))
        dataset = generate(SMALL_DATA)
        state = init_state(config, dataset)
        taus = []
        for step in range(config.steps):
            if step % config.gate.refresh_every == 0:
                z = state.backbone.embed(Tensor(dataset.labeled_x)).data
                fit_threshold(state.gate, z, state.head)
                taus.append(state.gate.tau)
            labeled = sample_labeled(dataset, state.rng, config)
            unlabeled = sample_unlabeled(dataset, state.rng, config)
            train_step(state, labeled, unlabeled, config)
        assert len(set(taus)) > 1  # parameters moved, so the refit moved

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("site", ["refit", "mask"])
    def test_infinite_variances_fault_a_gated_step(self, monkeypatch, site):
        # The variances overflow before the step-0 refit or just after it, so
        # the refit or the first step's gate mask faults instead of keeping
        # every row; either way the error names the step.
        def overflow(head):
            head.log_var.value[...] = 800.0
            return head

        def fit_then_overflow(gate, labeled_z, head):
            fit_threshold(gate, labeled_z, head)
            overflow(head)

        if site == "refit":
            monkeypatch.setattr(pipeline, "init_head",
                                lambda *args, **kw: overflow(init_head(*args, **kw)))
        else:
            monkeypatch.setattr(pipeline, "fit_threshold", fit_then_overflow)
        config = small_config(steps=3, gate=GateConfig(enabled=True))
        with pytest.raises(FloatingPointError,
                           match="^step 1: aagmm head variances are not finite$"):
            run(config, SMALL_DATA)


class TestConfigValidation:
    def test_linear_head_with_gate_rejected(self):
        with pytest.raises(ValueError, match="mixture head"):
            RunConfig(head_kind="linear", gate=GateConfig(enabled=True))

    def test_linear_head_with_cluster_moments_rejected(self):
        with pytest.raises(ValueError, match="mixture head"):
            RunConfig(head_kind="linear", moments=MomentSpec(max_order=1))

    def test_linear_head_with_global_moments_allowed(self):
        config = RunConfig(
            head_kind="linear", moments=MomentSpec(max_order=2, mode="global")
        )
        assert config.ssl_active

    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="conf_threshold"):
            RunConfig(conf_threshold=0.0)

    def test_bad_momentum(self):
        with pytest.raises(ValueError, match="momentum"):
            RunConfig(momentum=1.0)
