"""Host time in seconds of the reference host, on hand-built slices."""

import pytest

import vrbench  # noqa: F401  (puts src/ on the path)
from vrbench import hostspeed, measure
from vrbench.hostspeed import REFERENCE_NS
from vrbench.workloads import BY_NAME


def test_a_slow_phase_is_scaled_away():
    # eight slices of equal work; the host is twice as slow during the
    # last four, and the reference loop beside them takes twice as long
    wall = [100.0] * 4 + [200.0] * 4
    ref = [REFERENCE_NS] * 4 + [2 * REFERENCE_NS] * 4
    scaled = hostspeed.to_reference(wall, ref)
    # exact away from the edge of the phase (the reference is smoothed
    # over two neighbours a side) and within the two speeds at it
    assert scaled[:2] == [100.0, 100.0] and scaled[-2:] == [100.0, 100.0]
    assert all(50.0 <= value <= 200.0 for value in scaled[2:6])


def test_one_disturbed_reference_sample_does_not_rescale_its_slice():
    ref = [REFERENCE_NS] * 7
    ref[3] *= 5  # the loop was preempted once
    assert hostspeed.to_reference([100.0] * 7, ref) == [100.0] * 7


def test_slicewise_median_drops_what_hit_one_pass():
    clean = [10.0, 20.0, 30.0]
    hit = [10.0, 90.0, 30.0]  # a collection landed in slice 1 of one pass
    assert hostspeed.slicewise_wall_s([clean, hit, clean]) == pytest.approx(60e-9)
    with pytest.raises(ValueError):
        hostspeed.slicewise_wall_s([clean, clean[:2]])


def test_a_pass_is_cut_at_fixed_event_counts():
    workload = BY_NAME["mixed_n3"]
    first = measure.run_pass(workload, 1, 200)
    again = measure.run_pass(workload, 1, 200)
    events = first["exact"]["sim.events"]
    assert len(first["slice_ref_ns"]) == len(again["slice_ref_ns"])
    assert len(first["slice_ref_ns"]) == -(-int(events) // hostspeed.SLICE_EVENTS)
    assert 0.5 < first["wall_s"] / (sum(first["slice_ref_ns"]) / 1e9) < 2.0
