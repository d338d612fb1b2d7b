"""Unit tests for the benchmark's statistics and host-speed calibration.

    python3 -m pytest perfbench/test_perfbench_stats.py -q
"""

import math
import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchstats import (  # noqa: E402
    NOMINAL_REF_MS,
    HostClock,
    Run,
    geomean,
    host_factor,
    spread,
    summarise_ops,
    tail_mean,
)


def test_geomean():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([7.0]) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_tail_mean_is_the_slowest_tenth():
    values = [float(v) for v in range(1, 201)]  # slowest tenth: 181..200
    assert tail_mean(values) == pytest.approx(190.5)


def test_tail_mean_uses_at_least_ten_samples():
    values = [float(v) for v in range(1, 31)]  # a tenth would be 3 samples
    assert tail_mean(values) == pytest.approx(sum(range(21, 31)) / 10)
    assert tail_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)  # fewer than ten: all
    with pytest.raises(ValueError):
        tail_mean([])


def _quantile(values, q):
    return statistics.quantiles(values, n=100)[q - 1]


def test_clustered_sample_flips_quantiles_but_not_the_tail_mean():
    # Two draws of the same two-cluster workload (10 ms and 200 ms
    # operations) that differ only by a few operations changing cluster.
    a = [10.0] * 45 + [200.0] * 55
    b = [10.0] * 55 + [200.0] * 45
    assert _quantile(a, 50) == 200.0 and _quantile(b, 50) == 10.0
    assert tail_mean(a) == tail_mean(b) == 200.0

    c = [10.0] * 88 + [200.0] * 12
    d = [10.0] * 92 + [200.0] * 8
    assert _quantile(c, 90) / _quantile(d, 90) >= 10
    assert tail_mean(c) / tail_mean(d) < 1.25


def test_host_factor_maps_onto_the_nominal_host():
    assert host_factor([NOMINAL_REF_MS]) == pytest.approx(1.0)
    assert host_factor([20.0, 20.0, 30.0], nominal_ms=10.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        host_factor([])


def test_normalisation_cancels_a_uniform_slowdown():
    latencies = [0.002, 0.004, 0.010, 0.050]
    window = sum(latencies)
    fast = summarise_ops(latencies, window, host_factor([10.0]))
    # The same work on a host running everything 1.7x slower, reference loop
    # included, normalises to the same figures.
    slow = summarise_ops([x * 1.7 for x in latencies], window * 1.7, host_factor([17.0]))
    for name in fast:
        assert slow[name] == pytest.approx(fast[name])


def test_summarise_ops_arithmetic():
    figures = summarise_ops([0.010, 0.010], 0.020, factor=0.5)
    assert figures["op_geomean_ms"] == pytest.approx(5.0)
    assert figures["op_tail_ms"] == pytest.approx(5.0)
    assert figures["ops_per_s"] == pytest.approx(200.0)
    raw = summarise_ops([0.001, 0.100], 0.101)
    assert raw["op_geomean_ms"] == pytest.approx(math.sqrt(100.0))
    assert raw["ops_per_s"] == pytest.approx(2 / 0.101)


def test_spread_is_interquartile_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert spread([5.0] * 4) == 0.0


def test_each_operation_is_scaled_by_its_neighbouring_samples():
    run = Run(0.25)
    run.clock.samples_ms.append(10.0)
    run.record(0.010)  # between the 10 ms and the 20 ms sample
    run.clock.samples_ms.append(20.0)
    run.record(0.020)  # after the 20 ms sample, none later
    assert run.local_factors() == pytest.approx([10.0 / 15.0, 0.5])
    figures = run.figures()
    scaled = [10.0 * 10.0 / 15.0, 20.0 * 0.5]
    assert figures["normalised"]["op_geomean_ms"] == pytest.approx(geomean(scaled))
    assert figures["normalised"]["ops_per_s"] == pytest.approx(2 / (sum(scaled) / 1e3))
    assert figures["raw"]["op_geomean_ms"] == pytest.approx(geomean([10.0, 20.0]))
    assert figures["global"]["op_geomean_ms"] == pytest.approx(
        geomean([10.0, 20.0]) * NOMINAL_REF_MS / 15.0)


def test_host_clock_samples_when_due():
    clock = HostClock(0.5)
    assert clock.due()  # no sample yet
    clock.sample()
    assert not clock.due()
    clock.account(0.3)
    assert not clock.due()
    clock.account(0.3)
    assert clock.due()
    clock.sample()
    assert len(clock.samples_ms) == 2 and clock.ref_ms > 0
    assert clock.factor == pytest.approx(NOMINAL_REF_MS / clock.ref_ms)
