"""Edge-case tests for the nearest-rank percentile summary."""

import math

from repro.analysis.metrics import LatencyStat


def make(samples):
    stat = LatencyStat()
    for value in samples:
        stat.record(value)
    return stat


def test_empty_stat_is_nan_everywhere():
    stat = LatencyStat()
    assert stat.count == 0
    assert math.isnan(stat.mean)
    assert math.isnan(stat.minimum)
    assert math.isnan(stat.maximum)
    assert math.isnan(stat.percentile(50))
    assert math.isnan(stat.p99)


def test_single_sample_every_percentile_is_that_sample():
    stat = make([7.5])
    for p in (0, 1, 50, 99, 100):
        assert stat.percentile(p) == 7.5
    assert stat.mean == stat.minimum == stat.maximum == 7.5


def test_p0_is_minimum_and_p100_is_maximum():
    stat = make([30.0, 10.0, 20.0])
    assert stat.percentile(0) == 10.0
    assert stat.percentile(100) == 30.0


def test_out_of_range_p_clamps_to_extremes():
    stat = make([1.0, 2.0, 3.0])
    assert stat.percentile(-5) == 1.0
    assert stat.percentile(250) == 3.0


def test_nearest_rank_on_known_series():
    stat = make(list(range(1, 11)))  # 1..10, already distinct
    assert stat.percentile(50) == 5  # ceil(10 * 0.50) = rank 5
    assert stat.percentile(51) == 6  # ceil(10 * 0.51) = rank 6
    assert stat.percentile(99) == 10  # ceil(10 * 0.99) = rank 10
    assert stat.p50 == 5
    assert stat.p99 == 10


def test_percentile_does_not_disturb_insertion_order():
    stat = make([3.0, 1.0, 2.0])
    assert stat.percentile(50) == 2.0
    assert list(stat.samples) == [3.0, 1.0, 2.0]  # sorted on a copy
