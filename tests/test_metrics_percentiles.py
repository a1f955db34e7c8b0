"""Histogram percentile estimates on the cases where naive bucket
walks lie: empty, single-sample, and tail quantiles with too
few samples to fill the rank."""

import pytest

from repro.obs import Histogram
from repro.obs.metrics import percentile_from_counts


class TestEdgeCases:
    def test_empty_histogram_reports_zero(self):
        histogram = Histogram()
        for q in (0.0, 0.5, 0.99, 0.999, 1.0):
            assert histogram.percentile(q) == 0.0

    def test_single_sample_is_exact(self):
        # 3.7ms lands in the (1e-3, 1e-2] bucket; the naive answer
        # would be the bucket bound 1e-2.  The clamp into [min, max]
        # must collapse every percentile onto the sample itself.
        histogram = Histogram()
        histogram.observe(3.7e-3)
        for q in (0.0, 0.5, 0.99, 0.999):
            assert histogram.percentile(q) == pytest.approx(3.7e-3)

    def test_out_of_range_q_rejected(self):
        histogram = Histogram()
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)
        with pytest.raises(ValueError):
            histogram.percentile(-0.1)


class TestSmallCounts:
    def test_p999_of_few_samples_is_the_maximum(self):
        # Nearest-rank: with n < 1000 samples, rank(0.999) == n, so
        # p999 must be the true maximum — not a bucket bound above it.
        histogram = Histogram()
        for value in (1e-5, 2e-5, 3e-5, 4e-4, 8e-3, 0.042):
            histogram.observe(value)
        assert histogram.percentile(0.999) == pytest.approx(0.042)
        assert histogram.percentile(0.99) == pytest.approx(0.042)

    def test_median_picks_the_containing_bucket(self):
        histogram = Histogram()
        for _ in range(9):
            histogram.observe(5e-6)   # bucket bound 1e-5
        histogram.observe(5.0)        # bucket bound 10.0
        # Rank of p50 over 10 samples is 5 -> the 1e-5 bucket.
        assert histogram.percentile(0.5) == pytest.approx(1e-5)
        # The estimate never leaves the observed range.
        assert histogram.percentile(0.0) >= 5e-6

    def test_overflow_rank_reports_true_maximum(self):
        histogram = Histogram()
        histogram.observe(50.0)
        histogram.observe(7200.0)  # past every bound: overflow bucket
        assert histogram.counts[-1] == 1
        assert histogram.percentile(0.999) == pytest.approx(7200.0)


class TestSharedKernel:
    def test_percentile_from_counts_zero_count(self):
        assert percentile_from_counts((1.0,), [0, 0], 0, 0.0, 0.0,
                                      0.5) == 0.0

    def test_percentile_from_counts_clamps_into_range(self):
        # One sample in the 1.0 bucket, but the observed min/max say
        # everything lived at 0.25: the clamp wins over the bound.
        assert percentile_from_counts(
            (1.0,), [1, 0], 1, 0.25, 0.25, 0.99
        ) == pytest.approx(0.25)
