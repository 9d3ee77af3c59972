"""Tests for the training utilities."""

import numpy as np
import pytest

from repro.utils import EarlyStopping, MetricTracker, set_global_seed


class TestEarlyStopping:
    def test_stops_after_patience_without_improvement(self):
        stopper = EarlyStopping(patience=2, mode="min")
        assert not stopper.step(1.0)
        assert not stopper.step(1.1)   # worse x1
        assert stopper.step(1.2)       # worse x2 -> stop

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2, mode="min")
        stopper.step(1.0)
        stopper.step(1.1)
        stopper.step(0.9)   # improvement
        assert not stopper.step(1.0)
        assert stopper.best == 0.9

    def test_max_mode(self):
        stopper = EarlyStopping(patience=1, mode="max")
        stopper.step(0.5)
        assert not stopper.step(0.7)
        assert stopper.step(0.6)

    def test_min_delta_requires_real_improvement(self):
        stopper = EarlyStopping(patience=1, mode="min", min_delta=0.1)
        stopper.step(1.0)
        assert stopper.step(0.95)  # within delta: counts as stale

    def test_exact_delta_improvement_does_not_reset_patience(self):
        # Boundary: value == best - min_delta is NOT an improvement
        # (the contract is strict inequality), so patience keeps counting.
        stopper = EarlyStopping(patience=2, mode="min", min_delta=0.1)
        stopper.step(1.0)
        assert not stopper.step(0.9)   # exactly best - delta: stale #1
        assert stopper.best == 1.0     # best unchanged
        assert stopper.step(0.9)       # stale #2 -> stop

    def test_exact_delta_boundary_max_mode(self):
        stopper = EarlyStopping(patience=1, mode="max", min_delta=0.1)
        stopper.step(1.0)
        assert stopper.step(1.1)       # exactly best + delta: stale -> stop
        assert stopper.best == 1.0

    def test_just_past_delta_resets_patience(self):
        stopper = EarlyStopping(patience=1, mode="min", min_delta=0.1)
        stopper.step(1.0)
        assert not stopper.step(0.8999999)  # strictly beyond delta: improves
        assert stopper.best == 0.8999999
        assert stopper._stale == 0

    def test_best_step_tracked(self):
        stopper = EarlyStopping(patience=5)
        for value in (3.0, 2.0, 2.5, 1.0, 1.5):
            stopper.step(value)
        assert stopper.best == 1.0
        assert stopper.best_step == 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(mode="sideways")


class TestMetricTracker:
    def test_log_and_query(self):
        tracker = MetricTracker()
        tracker.log(loss=1.0, acc=0.5)
        tracker.log(loss=0.5, acc=0.7)
        assert tracker.last("loss") == 0.5
        assert tracker.best("loss") == 0.5
        assert tracker.best("acc", mode="max") == 0.7
        assert tracker.mean("loss") == 0.75

    def test_summary(self):
        tracker = MetricTracker()
        tracker.log(loss=2.0)
        tracker.log(loss=1.0)
        summary = tracker.summary()
        assert summary["loss"]["count"] == 2
        assert summary["loss"]["min"] == 1.0

    def test_save_load_round_trip(self, tmp_path):
        tracker = MetricTracker()
        tracker.log(mse=0.3)
        tracker.log(mse=0.2)
        path = tmp_path / "metrics.json"
        tracker.save(path)
        restored = MetricTracker.load(path)
        assert restored.history == {"mse": [0.3, 0.2]}

    def test_save_creates_missing_parent_directories(self, tmp_path):
        tracker = MetricTracker()
        tracker.log(loss=1.0)
        path = tmp_path / "deep" / "nested" / "metrics.json"
        tracker.save(path)
        assert MetricTracker.load(path).history == {"loss": [1.0]}

    def test_save_is_atomic_no_temp_residue(self, tmp_path):
        tracker = MetricTracker()
        tracker.log(loss=1.0)
        path = tmp_path / "metrics.json"
        tracker.save(path)
        tracker.log(loss=0.5)
        tracker.save(path)  # overwrite goes through temp + rename
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json"]
        assert MetricTracker.load(path).history == {"loss": [1.0, 0.5]}

    def test_interrupted_write_preserves_previous_artifact(self, tmp_path,
                                                           monkeypatch):
        import pathlib

        tracker = MetricTracker()
        tracker.log(loss=1.0)
        path = tmp_path / "metrics.json"
        tracker.save(path)
        original = path.read_text()

        # Simulate dying mid-write: the temp file write explodes.
        real_write = pathlib.Path.write_text

        def exploding_write(self, *args, **kwargs):
            if self.name.startswith(".metrics.json.tmp"):
                raise OSError("disk full")
            return real_write(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", exploding_write)
        tracker.log(loss=0.5)
        with pytest.raises(OSError):
            tracker.save(path)
        monkeypatch.undo()
        assert path.read_text() == original  # old artifact intact, not truncated
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json"]


class TestTimerAndSeed:
    def test_set_global_seed_reproducible(self):
        rng1 = set_global_seed(42)
        a = rng1.standard_normal(3)
        legacy_a = np.random.standard_normal(3)
        rng2 = set_global_seed(42)
        np.testing.assert_array_equal(a, rng2.standard_normal(3))
        np.testing.assert_array_equal(legacy_a, np.random.standard_normal(3))


class TestBackoffPolicy:
    def _policy(self, **kw):
        from repro.utils import BackoffPolicy
        return BackoffPolicy(**kw)

    def test_exponential_schedule_without_jitter(self):
        policy = self._policy(initial=0.1, multiplier=2.0, jitter=0.0)
        assert [policy.delay(k) for k in range(4)] == [
            pytest.approx(0.1), pytest.approx(0.2),
            pytest.approx(0.4), pytest.approx(0.8)]

    def test_max_delay_caps_the_schedule(self):
        policy = self._policy(initial=1.0, multiplier=10.0, jitter=0.0,
                              max_delay=5.0)
        assert policy.delay(3) == 5.0

    def test_jitter_only_subtracts_and_stays_in_bounds(self):
        import random
        policy = self._policy(initial=1.0, multiplier=1.0, jitter=0.3)
        rng = random.Random(0)
        delays = [policy.delay(0, rng=rng) for _ in range(200)]
        assert all(0.7 <= d <= 1.0 for d in delays)
        assert len(set(delays)) > 1          # actually randomized

    def test_wall_clock_budget_exhausts_to_none(self):
        policy = self._policy(initial=1.0, multiplier=2.0, jitter=0.0,
                              max_total=2.5)
        slept = 0.0
        schedule = []
        for attempt in range(10):
            delay = policy.delay(attempt, slept=slept)
            if delay is None:
                break
            schedule.append(delay)
            slept += delay
        # 1.0 + 1.5 (clipped to the remaining budget) then give up.
        assert schedule == [pytest.approx(1.0), pytest.approx(1.5)]
        assert sum(schedule) <= 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            self._policy(jitter=1.5)
        with pytest.raises(ValueError):
            self._policy(multiplier=0.5)
        with pytest.raises(ValueError):
            self._policy(max_total=-1.0)


class TestReadWithRetry:
    def test_transient_failures_then_success(self, monkeypatch):
        from repro.utils.fileio import read_with_retry
        sleeps = []
        monkeypatch.setattr("repro.utils.fileio.time.sleep", sleeps.append)
        calls = []

        def flaky(path):
            calls.append(path)
            if len(calls) < 3:
                raise OSError("transient")
            return "payload"

        assert read_with_retry(flaky, "p", attempts=5) == "payload"
        assert len(calls) == 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0] * 1.5   # exponential despite jitter

    def test_attempts_exhausted_reraises_original(self, monkeypatch):
        from repro.utils.fileio import read_with_retry
        monkeypatch.setattr("repro.utils.fileio.time.sleep", lambda s: None)

        def always(path):
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            read_with_retry(always, "p", attempts=3)

    def test_wall_clock_budget_stops_before_attempts(self, monkeypatch):
        from repro.utils import BackoffPolicy
        from repro.utils.fileio import read_with_retry
        sleeps = []
        monkeypatch.setattr("repro.utils.fileio.time.sleep", sleeps.append)
        calls = []

        def always(path):
            calls.append(path)
            raise OSError("down")

        policy = BackoffPolicy(initial=1.0, multiplier=2.0, jitter=0.0,
                               max_total=2.0)
        with pytest.raises(OSError):
            read_with_retry(always, "p", attempts=100, policy=policy)
        # Budget of 2.0s: sleeps 1.0 then 1.0 (clipped), then gives up —
        # nowhere near the 100 attempts the counter would allow.
        assert sum(sleeps) <= 2.0
        assert len(calls) <= 4

    def test_non_retryable_error_escapes_immediately(self):
        from repro.utils.fileio import read_with_retry

        def typed(path):
            raise KeyError("not an OSError")

        with pytest.raises(KeyError):
            read_with_retry(typed, "p", attempts=5)
