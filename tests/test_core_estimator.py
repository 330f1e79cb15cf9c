"""Unit tests for sliding-window estimators."""

import pytest

from repro.core.estimator import (
    PrefillCostEstimator,
    QueueDelayEstimator,
    SlidingWindowMean,
)


class TestSlidingWindowMean:
    def test_empty_returns_initial(self):
        assert SlidingWindowMean(4).mean() is None
        assert SlidingWindowMean(4, initial=0.5).mean() == 0.5

    def test_mean_of_observations(self):
        window = SlidingWindowMean(4)
        for value in (1.0, 2.0, 3.0):
            window.observe(value)
        assert window.mean() == pytest.approx(2.0)
        assert window.count == 3

    def test_window_slides(self):
        window = SlidingWindowMean(2)
        for value in (1.0, 2.0, 9.0):
            window.observe(value)
        assert window.mean() == pytest.approx(5.5)  # only (2, 9)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SlidingWindowMean(0)

    def test_bulk_bit_identical_to_sequential(self):
        # Contract behind the fused decode path's boundary replay:
        # observe_bulk must leave the running sum and
        # window contents *bit*-identical to per-sample observe calls,
        # chunked any which way (the sum carries the whole observation
        # history's float error, so only an exact replay matches).
        import random

        rng = random.Random(7)
        values = [rng.uniform(1.0, 4096.0) for _ in range(500)]
        sequential = SlidingWindowMean(64)
        for value in values:
            sequential.observe(value)
        bulk = SlidingWindowMean(64)
        i = 0
        while i < len(values):
            step = rng.randint(1, 97)
            bulk.observe_bulk(values[i:i + step])
            i += step
        assert bulk._sum == sequential._sum
        assert list(bulk._values) == list(sequential._values)
        assert bulk.mean() == sequential.mean()


class TestPrefillCostEstimator:
    def test_initial_estimate_positive(self):
        est = PrefillCostEstimator()
        assert est.per_token() > 0
        assert est.estimate_recompute(1000) == pytest.approx(est.per_token() * 1000)

    def test_observations_update_estimate(self):
        est = PrefillCostEstimator(window=4)
        for _ in range(4):
            est.observe_prefill(n_tokens=1000, duration=0.1)
        assert est.per_token() == pytest.approx(1e-4)
        assert est.estimate_recompute(500) == pytest.approx(0.05)

    def test_validation(self):
        est = PrefillCostEstimator()
        with pytest.raises(ValueError):
            est.observe_prefill(0, 0.1)
        with pytest.raises(ValueError):
            est.observe_prefill(10, -0.1)
        with pytest.raises(ValueError):
            est.estimate_recompute(-1)
        with pytest.raises(ValueError):
            PrefillCostEstimator(initial_per_token=0.0)


class TestQueueDelayEstimator:
    def test_initial_default(self):
        assert QueueDelayEstimator().current() == pytest.approx(0.05)

    def test_moving_average(self):
        est = QueueDelayEstimator(window=2, initial=0.0)
        est.observe_delay(0.1)
        est.observe_delay(0.3)
        assert est.current() == pytest.approx(0.2)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            QueueDelayEstimator().observe_delay(-0.1)

    def test_ndarray_bulk_bit_identical_to_sequential(self):
        # The vectorised decode plane hands footprint observations to
        # the estimator as numpy arrays; the array fold must leave the
        # same bits as per-sample observe calls (same contract as the
        # list path above).
        import random

        import numpy as np

        rng = random.Random(11)
        for window in (3, 64, 200):
            values = [rng.uniform(1.0, 4096.0) for _ in range(300)]
            sequential = SlidingWindowMean(window)
            for value in values:
                sequential.observe(value)
            bulk = SlidingWindowMean(window)
            i = 0
            while i < len(values):
                step = rng.randint(1, 97)
                bulk.observe_bulk(np.asarray(values[i:i + step]))
                i += step
            assert bulk._sum == sequential._sum
            assert list(bulk._values) == list(sequential._values)
            assert bulk.mean() == sequential.mean()
