"""The arithmetic the metrics rest on."""

import dataclasses
import random

import pytest

import vrbench  # noqa: F401  (puts src/ on the path)
from vrbench import bench, measure
from vrbench.workloads import BY_NAME


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert measure.percentile(values, 50) == 500
    assert measure.percentile(values, 99) == 990  # 10 samples lie beyond it
    assert measure.percentile([], 99) == 0.0


def test_p99_needs_ten_samples_beyond_it():
    small = dataclasses.replace(BY_NAME["mixed_n3"], ops=999)
    with pytest.raises(measure.CheckFailed):
        bench.scaled_ops(small, bench.FULL)
    assert bench.scaled_ops(small, bench.CHECK) == 99  # scaled-down runs are exempt


def test_failover_times_on_a_hand_built_timeline():
    # operations due every 10 units; crash at 25, service back at 70
    due = [0, 10, 20, 30, 40, 50, 80]
    done = [2, 12, 22, 75, 72, None, 82]  # op due at 50 never succeeded
    #  crash at 25: first op due after it is the one due at 30; the first to
    #  *resolve* among ops due after the crash does so at 72 -> 47 units
    #  crash at 45: ops due after it resolve at 82 -> 37 units
    #  crash at 90: nothing was due after it -> no sample
    assert measure.failover_times([25, 45, 90], due, done) == [47, 37]
    assert measure.failover_times([], due, done) == []


def test_failover_ignores_operations_due_before_the_crash():
    # an op due before the crash that resolves after it is not evidence of
    # service: only ops due after the crash count
    assert measure.failover_times([5], [0, 10], [9, 30]) == [25]


def test_seed_changes_inputs_but_not_metric_names():
    workload = BY_NAME["mixed_n3"]
    make = workload.make_ops
    assert make(random.Random(1), 50, 0) == make(random.Random(1), 50, 0)
    assert make(random.Random(1), 50, 0) != make(random.Random(2), 50, 0)
    first = measure.run_pass(workload, 1, 60)
    again = measure.run_pass(workload, 1, 60)
    other = measure.run_pass(workload, 2, 60)
    assert first["exact"] == again["exact"] and first["digests"] == again["digests"]
    assert sorted(first["exact"]) == sorted(other["exact"])
    assert first["digests"] != other["digests"]
