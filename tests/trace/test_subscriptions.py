"""Kind-indexed monitor dispatch: a monitor hears exactly the kinds it
declares, a typo in ``kinds`` cannot silently disarm an invariant, and a
monitor that declares nothing still hears everything."""

import collections

import pytest

from repro.config import TraceConfig
from repro.harness.common import build_kv_system, run_kv_batch
from repro.sim.kernel import Simulator
from repro.trace import (
    EVENT_KINDS,
    MONITORS,
    InvariantMonitor,
    Tracer,
    build_monitors,
)
from repro.trace.cli import main as cli_main


class _Spy(InvariantMonitor):
    name = "spy"

    def __init__(self, kinds=None):
        self.kinds = kinds
        self.calls = []

    def on_event(self, event, tracer):
        self.calls.append((event.eid, event.kind))


def make_tracer(*monitors):
    tracer = Tracer(Simulator(seed=1), TraceConfig(monitors=()))
    tracer.install_monitors(monitors)
    return tracer


def test_on_event_only_for_subscribed_kinds_exactly_once():
    narrow = _Spy(kinds=("record_added", "view_formed"))
    wide = _Spy()  # declares no kinds: subscribes to every kind
    nothing = _Spy(kinds=())
    tracer = make_tracer(narrow, wide, nothing)
    emitted = [
        tracer.emit(kind, node="n0")
        for kind in ("msg_drop", "record_added", "fault", "view_formed",
                     "record_added", "not_in_the_catalog")
    ]
    assert narrow.calls == [
        (emitted[1], "record_added"),
        (emitted[3], "view_formed"),
        (emitted[4], "record_added"),
    ]
    assert [eid for eid, _kind in wide.calls] == emitted
    assert nothing.calls == []


def test_monitors_sharing_a_kind_are_called_in_install_order():
    order = []

    class _Ordered(_Spy):
        def on_event(self, event, tracer):
            order.append(self.name)

    first, second = _Ordered(kinds=("fault",)), _Ordered()
    first.name, second.name = "first", "second"
    tracer = make_tracer(first)
    tracer.install_monitors([second])  # a later install extends the table
    tracer.emit("fault")
    assert order == ["first", "second"]
    assert tracer.monitors == (first, second)


def test_unknown_kind_is_rejected_at_install_and_installs_nothing():
    tracer = make_tracer()
    typo = _Spy(kinds=("record_added", "recrod_added"))
    with pytest.raises(ValueError, match="recrod_added"):
        tracer.install_monitors([_Spy(kinds=("fault",)), typo])
    assert tracer.monitors == ()
    tracer.emit("fault")  # nobody half-installed


def test_builtin_monitors_declare_cataloged_kinds():
    for name, monitor in MONITORS.items():
        assert monitor.kinds is not None, name
        assert set(monitor.kinds) <= set(EVENT_KINDS), name
        # one that hears no kind checks each unmarked delivery instead
        assert monitor.kinds or monitor.on_unsent is not None, name


def _spied_all():
    """``monitors="all"`` with every ``on_event`` wrapped to count the
    kinds it is invoked for (wrapped before install: the table binds
    ``on_event`` once)."""
    heard = collections.defaultdict(collections.Counter)
    monitors = build_monitors("all")
    for monitor in monitors:
        def spy(event, tracer, _inner=monitor.on_event, _name=monitor.name):
            heard[_name][event.kind] += 1
            _inner(event, tracer)
        monitor.on_event = spy
    return monitors, heard


def test_real_run_invokes_each_monitor_once_per_subscribed_event():
    monitors, heard = _spied_all()
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=5, n_cohorts=3, trace=TraceConfig(monitors=())
    )
    installed_after = rt.tracer.events_emitted  # group construction emits
    rt.tracer.install_monitors(monitors)
    run_kv_batch(rt, driver, spec, 20, read_fraction=0.5, concurrency=2)
    rt.quiesce()
    emitted = collections.Counter(
        event.kind for event in rt.tracer.events() if event.eid > installed_after
    )
    assert rt.tracer.events_evicted == 0 and emitted["record_added"] > 0
    for monitor in monitors:
        expected = {k: emitted[k] for k in monitor.kinds if emitted[k]}
        assert dict(heard[monitor.name]) == expected, monitor.name


def test_cli_prints_each_monitors_kinds(capsys):
    assert cli_main(["monitors"]) == 0
    assert "kinds: record_added, lease_read" in capsys.readouterr().out
