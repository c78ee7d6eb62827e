"""Self time on a synthetic nested-call program."""

import time

import vrbench  # noqa: F401  (puts src/ on the path)
from vrbench import recorder


def _spin(ns: int) -> None:
    until = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < until:
        pass


def _inner() -> None:
    _spin(10_000_000)


def _outer() -> None:
    _spin(20_000_000)
    _inner()
    _inner()


def _helper_in_outer_layer() -> None:
    _spin(5_000_000)


def _noop_layer() -> None:
    pass


def _program() -> None:
    _outer()
    _helper_in_outer_layer()


def test_self_time_is_duration_minus_child_spans():
    # unlisted code (here: _spin, _program) is charged to whoever called it
    rec = recorder.Recorder(classify=lambda filename: None)
    rec._code_layer[_outer.__code__] = "A"
    rec._code_layer[_helper_in_outer_layer.__code__] = "A"
    rec._code_layer[_inner.__code__] = "B"
    rec.start()
    _program()
    rec.stop()

    rows = {
        (caller, layer, code.co_name if code else None): row
        for (caller, layer, code), row in rec.table.items()
    }
    outer = rows[(recorder.BENCH, "A", "_outer")]
    inner = rows[("A", "B", "_inner")]
    helper = rows[(recorder.BENCH, "A", "_helper_in_outer_layer")]
    root = rows[("", recorder.BENCH, None)]
    ms = 1_000_000
    # counts: one span per layer crossing, none for calls inside a layer
    assert (outer[0], inner[0], helper[0], root[0]) == (1, 2, 1, 1)
    # _outer: 40 ms in all, 20 of them its own; each _inner 10 ms, all its own
    assert 39 * ms < outer[1] < 48 * ms and 19 * ms < outer[2] < 26 * ms
    assert 19 * ms < inner[1] < 26 * ms and inner[1] == inner[2]
    assert 4 * ms < helper[2] < 8 * ms
    # the root's self time is what no child span covers: next to nothing
    assert root[1] == rec.wall_ns and root[2] < 3 * ms
    # every nanosecond of the traced wall is some span's self time
    assert sum(row[2] for row in rec.table.values()) == rec.wall_ns
    # spans carry their parent: both _inner spans name the _outer span
    by_id = {span[0]: span for span in rec.sample}
    inners = [span for span in rec.sample if span[3].endswith("_inner")]
    assert len(inners) == 2
    assert all(by_id[span[1]][3].endswith("_outer") for span in inners)


def test_calibrated_hook_cost_is_subtracted_per_call():
    cost = recorder.calibrate(n=5000, repeats=3)
    assert cost.py_call_ns > 0 and cost.c_call_ns > 0
    assert cost.span_inside_ns + cost.span_outside_ns > cost.py_call_ns


def test_a_stop_to_sample_the_cost_is_outside_the_traced_wall():
    rec = recorder.Recorder(classify=lambda filename: None)
    rec._code_layer[_inner.__code__] = "B"
    started = time.perf_counter_ns()
    rec.start()
    _inner()
    rec.sample_cost()
    rec.sample_cost()
    _inner()
    rec.stop()
    elapsed = time.perf_counter_ns() - started
    ms = 1_000_000
    assert len(rec.cost_samples) == 2
    # two 10 ms spans; the calibrations between them (milliseconds each)
    # are in the elapsed time and not in the traced wall
    assert 20 * ms <= rec.wall_ns < elapsed - 2 * ms
    assert sum(row[2] for row in rec.table.values()) == rec.wall_ns
    root = rec.table[("", recorder.BENCH, None)]
    assert root[2] < 3 * ms
    # the mean of the samples is what the pass is charged
    cost = rec.hook_cost()
    samples = [sample.py_call_ns for sample in rec.cost_samples]
    assert min(samples) <= cost.py_call_ns <= max(samples)


def test_a_cost_that_is_too_high_shows_as_negative_self_time():
    rec = recorder.Recorder(classify=lambda filename: None)
    rec._code_layer[_noop_layer.__code__] = "sim"
    rec.start()
    for _ in range(200):
        _noop_layer()
    rec.stop()
    fair = rec.layer_table(recorder.HookCost(0.0, 0.0, 0.0, 0.0))
    assert fair["sim"]["self_ns"] == fair["sim"]["raw_self_ns"] > 0
    absurd = rec.layer_table(recorder.HookCost(0.0, 0.0, 1e9, 0.0))
    assert absurd["sim"]["self_ns"] < 0  # not clamped: the caller must refuse it


def test_every_program_module_has_a_layer():
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        assert recorder.layer_of_file(str(path)) in recorder.LAYERS
    assert recorder.layer_of_file(str(root / "core" / "buffer.py")) == "core.buffer"
    assert recorder.layer_of_file(str(root / "net" / "messages.py")) == "net.messages"
    assert recorder.layer_of_file(pathlib.__file__) is None  # stdlib
