"""The armed ring keeps each event's data as one row of raw values.

Every instrumented site passes its kind's values, in ``EVENT_FIELDS`` order
and unrendered, to ``Tracer.emit_row``; the ring keeps that tuple, and a
``TraceEvent``'s ``data`` dict is built only when read.  Two guards hold the
layout: what a traced run's ring retains per event, and a scan of ``src/``
for an emit argument that renders a value.
"""

import ast
import gc
import pathlib
import sys
import tracemalloc

from repro.config import TraceConfig
from repro.harness.common import build_kv_system, run_kv_batch
from repro.trace import EVENT_KINDS
from repro.trace.events import EVENT_FIELDS

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: What a 120-transaction traced run's ring retains per event beyond a
#: one-slot ring's run, the cell list itself aside: 157 bytes with rows.
#: Storing a dict per event retains 302; storing ``str(aid)`` and
#: ``str(call_id)`` in the rows of the transaction and call kinds, 176.
RETAINED_BYTES_PER_EVENT = 168


def _traced_run_bytes(ring_size, txns=120):
    """Bytes a traced seed-77 run leaves allocated, less the ring's cell
    list, and how many events it emitted."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=77, n_cohorts=3, trace=TraceConfig(monitors="all", ring_size=ring_size)
        )
        run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=2)
        rt.quiesce()
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return used - sys.getsizeof(rt.tracer._cells), rt.tracer.events_emitted


def test_the_ring_retains_a_row_per_event_not_a_rendered_dict():
    _traced_run_bytes(1)  # warm every cache the first run fills
    kept_none, emitted = _traced_run_bytes(1)
    kept_all, emitted_again = _traced_run_bytes(4096)
    assert emitted == emitted_again and emitted < 4096
    per_event = (kept_all - kept_none) / emitted
    assert per_event <= RETAINED_BYTES_PER_EVENT, per_event


def test_every_cataloged_kind_declares_its_fields():
    assert EVENT_FIELDS.keys() == EVENT_KINDS.keys()
    for kind, fields in EVENT_FIELDS.items():
        assert len(set(fields)) == len(fields), kind


def test_a_real_run_records_only_declared_fields():
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=77, n_cohorts=3, trace=TraceConfig(monitors="all")
    )
    run_kv_batch(rt, driver, spec, 60, read_fraction=0.5, concurrency=2)
    rt.quiesce()
    for event in rt.tracer.events():
        fields = EVENT_FIELDS[event.kind]
        assert isinstance(event.payload, tuple), event.render()
        assert len(event.payload) <= len(fields), event.render()
        assert list(event.data) == list(fields[: len(event.payload)])
        assert event.row == event.payload


# -- no emit site renders a value --------------------------------------------


def _emits(tree):
    """Every call of an emitter (``emit``, ``emit_row``, a ``_trace*``
    helper or hook), with the line it is on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name in ("emit", "emit_row") or name.startswith("_trace"):
                yield node


def _renders(argument):
    for node in ast.walk(argument):
        if isinstance(node, ast.JoinedStr):
            return "an f-string"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "str"
        ):
            return "a str() call"
    return None


def test_no_emit_site_in_src_renders_a_value():
    found, offences = 0, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for call in _emits(tree):
            found += 1
            arguments = list(call.args) + [keyword.value for keyword in call.keywords]
            for argument in arguments:
                rendered = _renders(argument)
                if rendered is not None:
                    where = path.relative_to(SRC)
                    offences.append(f"{where}:{call.lineno} passes {rendered}")
    assert found > 40  # the scan reaches the instrumented sites
    assert offences == []


def test_the_scan_catches_a_rendered_argument():
    tree = ast.parse(
        "tracer.emit_row('txn_begin', node, (), (group, str(aid), program))\n"
        "cohort.emit('lease_read', f'{viewid}', uid)\n"
        "self._trace('batch_flush', msgs, records, ts)\n"
    )
    assert [_renders(ast.Tuple(elts=call.args, ctx=ast.Load())) for call in _emits(tree)] == [
        "a str() call",
        "an f-string",
        None,
    ]
