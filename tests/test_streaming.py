"""Tests for the streaming online-learning loop (repro.streaming).

Covers the stream source's determinism contracts, the window-invariant
corruption property, the drift-detector math and gating, the incremental
trainer's prequential semantics and checkpoint-resume bit-identity, and a
small end-to-end loop: drift -> alarm -> publish -> shadow -> promote, plus
the forced-bad-challenger rollback path — all through the live ModelRouter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.corruption import (
    downsample_stream,
    flip_labels_stream,
    row_uniform,
)
from repro.data.processing import build_ctr_data
from repro.data.synthetic import InterestWorld, InterestWorldConfig
from repro.models import create_model
from repro.resilience import (
    CheckpointCorruptError,
    CheckpointStore,
    NumericalAnomalyError,
)
from repro.serving.artifact import export_artifact
from repro.serving.batcher import ScoringEngine
from repro.serving.registry import ModelRegistry
from repro.serving.router import ModelRouter
from repro.serving.session import InferenceSession
from repro.streaming import (
    ClickStream,
    DriftMonitor,
    DriftMonitorConfig,
    IncrementalConfig,
    IncrementalTrainer,
    OnlineLoop,
    PageHinkley,
    PromotionConfig,
    PromotionController,
    StreamConfig,
    feature_histogram,
    kl_divergence,
    psi,
    score_histogram,
)
from repro.training.trainer import TrainConfig, Trainer

from .test_resilience import flip_payload_byte, poison_loss


@pytest.fixture(scope="module")
def world_data():
    """World + processed splits shared by the streaming tests.

    Same shape as the ``bench-stream`` bootstrap, so the end-to-end tests
    ride the detection timeline already pinned in ``BENCH_stream.json``.
    """
    world = InterestWorld(InterestWorldConfig(
        num_users=120, num_items=160, num_topics=8, num_categories=4,
        min_interactions=3, seed=3))
    processed = build_ctr_data(world, max_seq_len=10, seed=4)
    return world, processed


@pytest.fixture(scope="module")
def artifact(world_data, tmp_path_factory):
    """A briefly-trained DIN exported as a warm-start artifact."""
    _, processed = world_data
    model = create_model("DIN", processed.schema, seed=1)
    trainer = Trainer(TrainConfig(epochs=10, batch_size=128, seed=1))
    trainer.fit(model, processed.train, processed.validation)
    path = tmp_path_factory.mktemp("artifact") / "din"
    export_artifact(model, path, model_name="DIN")
    return path


def collect(stream, start=0):
    return list(stream.windows(start=start))


class TestClickStream:
    SCENARIO = dict(num_windows=8, impressions_per_window=12, seed=3,
                    drift_window=4, drift_fraction=0.5,
                    cold_fraction=0.25, cold_start_window=2,
                    cold_users_per_window=2, cold_bootstrap_len=2,
                    noise_rate=0.05, noise_burst=(5, 7),
                    noise_burst_rate=0.4)

    def test_two_iterations_bit_identical(self, world_data):
        world, processed = world_data
        stream = ClickStream(world, processed, StreamConfig(**self.SCENARIO))
        first, second = collect(stream), collect(stream)
        assert len(first) == len(second) == 8
        for a, b in zip(first, second):
            assert a.index == b.index
            assert a.timestamp == b.timestamp
            assert a.start_row == b.start_row
            assert a.new_users == b.new_users
            assert a.injected == b.injected
            np.testing.assert_array_equal(a.data.categorical,
                                          b.data.categorical)
            np.testing.assert_array_equal(a.data.sequences, b.data.sequences)
            np.testing.assert_array_equal(a.data.mask, b.data.mask)
            np.testing.assert_array_equal(a.data.labels, b.data.labels)

    def test_replay_from_start_matches_full_run(self, world_data):
        world, processed = world_data
        stream = ClickStream(world, processed, StreamConfig(**self.SCENARIO))
        full = collect(stream)
        tail = collect(stream, start=5)
        assert [w.index for w in tail] == [5, 6, 7]
        for a, b in zip(full[5:], tail):
            np.testing.assert_array_equal(a.data.categorical,
                                          b.data.categorical)
            np.testing.assert_array_equal(a.data.labels, b.data.labels)

    def test_rows_timestamps_and_vocab(self, world_data):
        world, processed = world_data
        cfg = StreamConfig(num_windows=3, impressions_per_window=10,
                           window_seconds=30.0, start_time=100.0, seed=0)
        windows = collect(ClickStream(world, processed, cfg))
        start_row = 0
        for i, window in enumerate(windows):
            assert len(window) == 20        # impression = positive + negative
            assert window.timestamp == 100.0 + i * 30.0
            assert window.start_row == start_row
            start_row += len(window)
            assert set(np.unique(window.data.labels)) <= {0.0, 1.0}
            for col, spec in enumerate(window.data.schema.categorical):
                ids = window.data.categorical[:, col]
                assert ids.min() >= 0 and ids.max() < spec.vocab_size

    def test_cold_users_arrive_on_schedule(self, world_data):
        world, processed = world_data
        cfg = StreamConfig(num_windows=6, impressions_per_window=8, seed=2,
                           cold_fraction=0.3, cold_start_window=3,
                           cold_users_per_window=2)
        windows = collect(ClickStream(world, processed, cfg))
        assert all(not w.new_users for w in windows[:3])
        assert any(w.new_users for w in windows[3:])

    def test_noise_rate_schedule(self, world_data):
        world, processed = world_data
        cfg = StreamConfig(num_windows=4, impressions_per_window=4,
                           noise_rate=0.1, noise_burst=(1, 3),
                           noise_burst_rate=0.5)
        stream = ClickStream(world, processed, cfg)
        assert stream.noise_rate_at(0) == 0.1
        assert stream.noise_rate_at(1) == 0.5
        assert stream.noise_rate_at(2) == 0.5
        assert stream.noise_rate_at(3) == 0.1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(num_windows=0)
        with pytest.raises(ValueError):
            StreamConfig(drift_fraction=1.5)
        with pytest.raises(ValueError):
            StreamConfig(cold_activity=0.0)
        with pytest.raises(ValueError):
            StreamConfig(noise_burst=(5, 5))

    def test_negative_start_rejected(self, world_data):
        world, processed = world_data
        stream = ClickStream(world, processed, StreamConfig(num_windows=2))
        with pytest.raises(ValueError):
            next(stream.windows(start=-1))


class TestWindowInvariantCorruption:
    """Satellite property: corrupting window-by-window is bit-identical to
    corrupting the concatenated stream, for every cut-point layout."""

    @staticmethod
    def _windowed(dataset, cuts, apply):
        bounds = [0, *cuts, len(dataset)]
        pieces = []
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = dataset.subset(np.arange(lo, hi))
            pieces.append(apply(chunk, lo))
        return pieces

    @given(cuts=st.lists(st.integers(min_value=1, max_value=59),
                         max_size=6, unique=True).map(sorted),
           rate=st.floats(min_value=0.05, max_value=0.95),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_flip_labels_stream_window_invariant(self, world_data, cuts, rate,
                                                 seed):
        _, processed = world_data
        dataset = processed.train.subset(np.arange(60))
        full = flip_labels_stream(dataset, rate, seed=seed, offset=0)
        pieces = self._windowed(
            dataset, cuts,
            lambda chunk, lo: flip_labels_stream(chunk, rate, seed=seed,
                                                 offset=lo))
        stitched = np.concatenate([p.labels for p in pieces])
        np.testing.assert_array_equal(stitched, full.labels)

    @given(cuts=st.lists(st.integers(min_value=1, max_value=59),
                         max_size=6, unique=True).map(sorted),
           rate=st.floats(min_value=0.1, max_value=0.9),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_downsample_stream_window_invariant(self, world_data, cuts, rate, seed):
        _, processed = world_data
        dataset = processed.train.subset(np.arange(60))
        full = downsample_stream(dataset, rate, seed=seed, offset=0)
        pieces = self._windowed(
            dataset, cuts,
            lambda chunk, lo: downsample_stream(chunk, rate, seed=seed,
                                                offset=lo))
        stitched = np.concatenate([p.categorical for p in pieces])
        np.testing.assert_array_equal(stitched, full.categorical)
        stitched_labels = np.concatenate([p.labels for p in pieces])
        np.testing.assert_array_equal(stitched_labels, full.labels)

    def test_row_uniform_is_stateless_and_uniform(self):
        indices = np.arange(0, 4096, dtype=np.uint64)
        values = row_uniform(123, indices)
        np.testing.assert_array_equal(values, row_uniform(123, indices))
        assert ((0.0 <= values) & (values < 1.0)).all()
        assert abs(values.mean() - 0.5) < 0.05
        # Different seeds decorrelate.
        other = row_uniform(124, indices)
        assert not np.array_equal(values, other)

    def test_stream_noise_is_window_invariant_end_to_end(self, world_data):
        """The same stream windowed differently flips the same rows."""
        world, processed = world_data
        base = dict(impressions_per_window=6, noise_rate=0.3, seed=9)
        coarse = ClickStream(world, processed,
                             StreamConfig(num_windows=2, **base))
        labels_coarse = np.concatenate(
            [w.data.labels for w in coarse.windows()])
        # Regenerate without noise, then corrupt the concatenation directly.
        clean = ClickStream(
            world, processed,
            StreamConfig(num_windows=2, impressions_per_window=6, seed=9))
        windows = list(clean.windows())
        stitched = np.concatenate([
            flip_labels_stream(w.data, 0.3, seed=9,
                               offset=w.start_row).labels
            for w in windows])
        np.testing.assert_array_equal(labels_coarse, stitched)


class TestDriftMath:
    def test_psi_zero_on_identical(self):
        hist = np.array([0.2, 0.3, 0.5])
        assert psi(hist, hist) == pytest.approx(0.0, abs=1e-9)

    def test_psi_grows_with_shift(self):
        ref = np.array([0.25, 0.25, 0.25, 0.25])
        mild = np.array([0.30, 0.25, 0.25, 0.20])
        wild = np.array([0.70, 0.10, 0.10, 0.10])
        assert 0 < psi(ref, mild) < psi(ref, wild)

    def test_psi_survives_empty_bins(self):
        ref = np.array([1.0, 0.0])
        act = np.array([0.0, 1.0])
        assert np.isfinite(psi(ref, act))

    def test_kl_properties(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)
        assert kl_divergence(p, q) > 0

    def test_score_histogram_normalised(self):
        probs = np.array([0.05, 0.15, 0.5, 0.95])
        hist = score_histogram(probs)
        assert hist.sum() == pytest.approx(1.0)
        assert hist.size == 10
        # Empty input degrades to uniform instead of NaN.
        empty = score_histogram(np.array([]))
        np.testing.assert_allclose(empty, 0.1)

    def test_feature_histogram(self):
        ids = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        hist = feature_histogram(ids, vocab_size=8, bins=4)
        np.testing.assert_allclose(hist, 0.25)
        with pytest.raises(ValueError):
            feature_histogram(ids, vocab_size=0)

    def test_page_hinkley_detects_mean_shift(self):
        ph = PageHinkley(delta=0.005, threshold=0.1, min_observations=5)
        assert not any(ph.update(0.5) for _ in range(20))
        assert any(ph.update(0.8) for _ in range(10))

    def test_page_hinkley_min_observations_and_reset(self):
        ph = PageHinkley(delta=0.0, threshold=1e-6, min_observations=10)
        fired = [ph.update(v) for v in (0.1, 0.9, 0.1, 0.9)]
        assert not any(fired)          # still warming up
        ph = PageHinkley(delta=0.005, threshold=0.1, min_observations=2)
        for _ in range(5):
            ph.update(0.5)
        for _ in range(10):
            ph.update(0.9)
        assert ph.statistic > 0
        ph.reset()
        assert ph.statistic == 0.0

    def test_page_hinkley_validation(self):
        with pytest.raises(ValueError):
            PageHinkley(threshold=0.0)
        with pytest.raises(ValueError):
            PageHinkley(min_observations=0)


class TestDriftMonitor:
    CFG = DriftMonitorConfig(reference_windows=2, score_psi_threshold=0.05,
                             consecutive=2, ph_threshold=50.0,
                             cooldown_windows=2)
    # ph_threshold is huge so only the score_psi path is under test.

    @staticmethod
    def _update(monitor, window, probs, logloss=0.6):
        rng = np.random.default_rng(window)
        labels = (rng.random(probs.size) < 0.5).astype(np.float64)
        return monitor.update(window, probs, labels, logloss)

    def test_reference_then_gated_alarm(self):
        monitor = DriftMonitor(self.CFG)
        calm = np.full(256, 0.5)
        shifted = np.full(256, 0.9)
        assert self._update(monitor, 0, calm) == []
        assert not monitor.has_reference
        assert self._update(monitor, 1, calm) == []
        assert monitor.has_reference
        # One shifted window: streak 1 of 2 -> no alarm yet.
        assert self._update(monitor, 2, shifted) == []
        signals = self._update(monitor, 3, shifted)
        assert [s.detector for s in signals] == ["score_psi"]
        assert signals[0].value > self.CFG.score_psi_threshold

    def test_streak_resets_on_calm_window(self):
        monitor = DriftMonitor(self.CFG)
        calm = np.full(256, 0.5)
        shifted = np.full(256, 0.9)
        for w in range(2):
            self._update(monitor, w, calm)
        assert self._update(monitor, 2, shifted) == []
        assert self._update(monitor, 3, calm) == []     # streak broken
        assert self._update(monitor, 4, shifted) == []  # streak restarts at 1
        assert self._update(monitor, 5, shifted) != []

    def test_cooldown_suppresses_follow_up_alarms(self):
        monitor = DriftMonitor(self.CFG)
        calm = np.full(256, 0.5)
        shifted = np.full(256, 0.9)
        for w in range(2):
            self._update(monitor, w, calm)
        self._update(monitor, 2, shifted)
        assert self._update(monitor, 3, shifted) != []   # alarm
        assert self._update(monitor, 4, shifted) == []   # cooldown
        assert self._update(monitor, 5, shifted) == []   # cooldown
        assert self._update(monitor, 6, shifted) != []   # re-alarms

    def test_rebase_rebuilds_reference(self):
        monitor = DriftMonitor(self.CFG)
        calm = np.full(256, 0.5)
        shifted = np.full(256, 0.9)
        for w in range(2):
            self._update(monitor, w, calm)
        monitor.rebase()
        assert not monitor.has_reference
        # The shifted regime becomes the new normal: no alarms.
        for w in range(3, 8):
            assert self._update(monitor, w, shifted) == []

    def test_last_stats_exported(self):
        monitor = DriftMonitor(self.CFG)
        calm = np.full(64, 0.5)
        for w in range(2):
            self._update(monitor, w, calm)
        self._update(monitor, 2, calm)
        assert {"score_psi", "label_kl",
                "logloss_shift"} <= set(monitor.last_stats)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftMonitorConfig(reference_windows=0)
        with pytest.raises(ValueError):
            DriftMonitorConfig(consecutive=0)
        with pytest.raises(ValueError):
            DriftMonitorConfig(cooldown_windows=-1)


class TestIncrementalTrainer:
    def _stream(self, world_data, windows=4):
        world, processed = world_data
        return ClickStream(world, processed, StreamConfig(
            num_windows=windows, impressions_per_window=10, seed=5))

    def test_prequential_is_evaluate_then_train(self, world_data, artifact):
        trainer = IncrementalTrainer.from_artifact(
            artifact, IncrementalConfig(seed=0))
        window = next(self._stream(world_data).windows())
        pre = trainer.prequential_eval(window.data)
        result = trainer.process_window(window.data, window.index)
        # The reported metrics are the PRE-training scores of the window.
        assert result.auc == pre.auc
        assert result.logloss == pre.logloss
        # ... and training actually moved the model afterwards.
        post = trainer.prequential_eval(window.data)
        assert post.logloss != pre.logloss

    def test_checkpoint_resume_is_bit_identical(self, world_data, artifact,
                                                tmp_path):
        def weights(trainer):
            return {k: v.copy()
                    for k, v in trainer.model.state_dict().items()}

        config = IncrementalConfig(seed=0)
        # Uninterrupted run over 4 windows.
        straight = IncrementalTrainer.from_artifact(artifact, config)
        for window in self._stream(world_data).windows():
            straight.process_window(window.data, window.index)

        # Interrupted run: 2 windows, crash, resume, finish.
        ckpt_dir = tmp_path / "ckpt"
        first = IncrementalTrainer.from_artifact(artifact, config,
                                                 checkpoint_dir=ckpt_dir)
        stream = self._stream(world_data)
        for window in stream.windows():
            if window.index >= 2:
                break
            first.process_window(window.data, window.index)

        resumed = IncrementalTrainer.from_artifact(artifact, config,
                                                   checkpoint_dir=ckpt_dir)
        next_window = resumed.resume()
        assert next_window == 2
        assert len(resumed.history) == 2
        for window in stream.windows(start=next_window):
            resumed.process_window(window.data, window.index)

        expected = weights(straight)
        actual = weights(resumed)
        assert expected.keys() == actual.keys()
        for key in expected:
            np.testing.assert_array_equal(actual[key], expected[key])
        assert [r.auc for r in resumed.history] == \
            [r.auc for r in straight.history]

    def test_resume_without_store_rejected(self, artifact):
        trainer = IncrementalTrainer.from_artifact(
            artifact, IncrementalConfig(seed=0))
        with pytest.raises(ValueError):
            trainer.resume()

    def test_resume_with_only_corrupt_checkpoints_raises(
            self, world_data, artifact, tmp_path):
        config = IncrementalConfig(seed=0)
        first = IncrementalTrainer.from_artifact(artifact, config,
                                                 checkpoint_dir=tmp_path)
        for window in self._stream(world_data, windows=3).windows():
            first.process_window(window.data, window.index)
        store = CheckpointStore(tmp_path)
        assert store.manifests()
        for manifest in store.manifests():
            flip_payload_byte(manifest)

        resumed = IncrementalTrainer.from_artifact(artifact, config,
                                                   checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointCorruptError,
                           match="refusing to silently restart"):
            resumed.resume()

    def test_transient_nan_rolls_back_and_finishes_window(self, world_data,
                                                          artifact):
        config = IncrementalConfig(seed=0)
        trainer = IncrementalTrainer.from_artifact(artifact, config)
        # One batch per window: call 2 is window 1's only training step.
        poison_loss(trainer.model, {2})
        windows = list(self._stream(world_data, windows=3).windows())
        assert len(windows[1].data) <= config.batch_size
        results = [trainer.process_window(w.data, w.index) for w in windows]

        guard = trainer.guard
        assert guard.retries == 1
        assert trainer.optimizer.lr == \
            config.learning_rate * guard.config.backoff_factor
        assert [r.window for r in results] == [0, 1, 2]
        assert all(np.isfinite(r.train_loss) for r in results)
        # The rollback rewound the step counter past the poisoned step.
        assert trainer.state.step == 3 and trainer.state.epoch == 3
        for value in trainer.model.state_dict().values():
            assert np.isfinite(value).all()

    def test_persistent_nan_exhausts_retry_budget(self, world_data,
                                                  artifact):
        config = IncrementalConfig(seed=0)
        trainer = IncrementalTrainer.from_artifact(artifact, config)
        poison_loss(trainer.model, lambda n: n >= 2)
        first, second = self._stream(world_data, windows=2).windows()
        trainer.process_window(first.data, first.index)
        with pytest.raises(NumericalAnomalyError, match="retry budget"):
            trainer.process_window(second.data, second.index)
        guard = trainer.guard
        assert guard.retries == guard.config.max_retries + 1
        assert trainer.optimizer.lr == pytest.approx(
            config.learning_rate
            * guard.config.backoff_factor ** guard.config.max_retries)


def _engine_factory(session):
    return ScoringEngine(session, max_batch_size=32, max_wait_ms=0.2,
                         num_workers=1, cache_size=0)


def _serving_stack(registry_dir, artifact, export_dir):
    registry = ModelRegistry(registry_dir)
    version = registry.publish(artifact, promote=True)
    router = ModelRouter(_engine_factory)
    router.deploy_primary(InferenceSession.load(registry.path(version)),
                          version)
    trainer = IncrementalTrainer.from_artifact(
        artifact, IncrementalConfig(learning_rate=5e-3, seed=0))
    controller = PromotionController(
        registry, router,
        PromotionConfig(export_every=0, recovery_windows=3,
                        shadow_windows=3, rollback_windows=3),
        export_dir=export_dir, model_name="DIN")
    return registry, router, trainer, controller


@pytest.mark.slow
class TestOnlineLoopE2E:
    def test_drift_to_promotion_zero_drop(self, world_data, artifact, tmp_path):
        """Interest drift degrades production -> alarm -> recovery export ->
        shadow -> verdict, with every request served through the router."""
        world, processed = world_data
        stream = ClickStream(world, processed, StreamConfig(
            num_windows=20, impressions_per_window=100, seed=11,
            drift_window=10, drift_fraction=0.9, noise_rate=0.02))
        registry, router, trainer, controller = _serving_stack(
            tmp_path / "registry", artifact, tmp_path / "exports")
        loop = OnlineLoop(stream, trainer, router, controller,
                          DriftMonitor())
        try:
            result = loop.run()
        finally:
            router.close()

        assert result.dropped == 0
        assert result.completed == result.submitted == 20 * 200
        assert result.drift_signals, "drift burst went undetected"
        assert all(s["window"] >= 10 for s in result.drift_signals)
        actions = [p["action"] for p in result.promotions]
        assert "published" in actions, "no challenger was exported"
        # The candidate shadow record carries comparable metrics either way.
        verdicts = [p for p in result.promotions
                    if p["action"] in ("promoted", "rejected")]
        assert verdicts and verdicts[0].get("challenger_auc") is not None
        assert "promoted" in actions, "recovery challenger not promoted"
        assert result.final_production != "v1"
        assert registry.state().get("production") == \
            result.final_production

    def test_bad_challenger_rolls_back(self, world_data, artifact, tmp_path):
        """force_promote of an untrained model fails probation and the
        previous good version is redeployed."""
        world, processed = world_data
        registry, router, trainer, controller = _serving_stack(
            tmp_path / "registry", artifact, tmp_path / "exports")
        calm = ClickStream(world, processed, StreamConfig(
            num_windows=4, impressions_per_window=40, seed=13))
        monitor = DriftMonitor(DriftMonitorConfig(reference_windows=2))
        try:
            loop = OnlineLoop(calm, trainer, router, controller, monitor)
            warmup = loop.run()
            assert warmup.dropped == 0

            bad = create_model("DIN", processed.schema, seed=321)
            bad_path = tmp_path / "bad"
            export_artifact(bad, bad_path, model_name="DIN")
            forced = controller.force_promote(bad_path, window=4,
                                              reason="test")
            assert registry.state().get("production") == forced.version

            probation = ClickStream(world, processed, StreamConfig(
                num_windows=4, impressions_per_window=40, seed=17))
            loop2 = OnlineLoop(probation, trainer, router, controller,
                               monitor)
            result = loop2.run()
        finally:
            router.close()

        assert result.dropped == 0
        rollbacks = [p for p in result.promotions
                     if p["action"] == "rollback"]
        assert rollbacks, "bad challenger survived probation"
        assert rollbacks[0]["version"] == forced.version
        assert result.final_production == "v1"
        assert registry.state().get("production") == "v1"
