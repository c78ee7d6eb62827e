"""The traced run's recorder: layer-attributed spans from outside the program.

``Recorder`` installs a ``sys.setprofile`` hook for the load window of one
pass.  Every Python function belongs to the *layer* of the file that defines
it (``LAYER_OF`` maps the repo's modules to the layer names the benchmark
reports).  Whenever control crosses from one layer's code into another's, a
span opens: layer, entry function, start, end, parent span.  Calls that stay
inside a layer, C functions, and code outside ``repro``/``vrbench`` (stdlib)
extend the current span instead of opening one.

A span's self time is its duration minus what its child spans cover.  The
hook itself costs time on every call, so a layer made of many small calls
would look heavier than it is; ``calibrate`` measures the hook's cost per
same-layer call, per C call and per span (split into the part that lands
inside the span and the part that lands in its parent), and ``layer_table``
subtracts it.  A layer made of small calls is then a difference of two
large numbers, and the host's speed drifts by tens of percent in phases of a
few seconds, so a calibration taken beside the pass can mis-weight every
layer.  The pass therefore stops every 150 ms for a short calibration
(``sample_cost``, outside the traced wall); the mean of the samples is the
cost the pass paid, under the conditions it paid it.

Spans are aggregated in memory as they close -- (caller layer, callee layer,
entry function) -> count, total_ns, self_ns -- and a sample of raw spans is
kept; both are written out when the workload ends.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.core.buffer import CommunicationBuffer
from repro.txn.locks import LockManager

#: module path under ``src/repro`` (prefix match, longest first) -> layer
LAYER_OF = (
    ("sim/", "sim"),
    ("net/messages.py", "net.messages"),
    ("core/messages.py", "net.messages"),
    ("net/", "net.network"),
    ("core/buffer.py", "core.buffer"),
    ("core/cohort.py", "core.cohort"),
    ("core/client_role.py", "core.roles"),
    ("core/server_role.py", "core.roles"),
    ("core/calls.py", "core.roles"),
    ("core/coordinator_server.py", "core.roles"),
    ("core/view_change.py", "core.view_change"),
    ("detect/", "detect"),
    ("txn/locks.py", "txn.locks"),
    ("storage/", "storage"),
    ("reads/", "reads"),
    ("driver.py", "driver"),
    ("shard/", "shard"),
    ("location/", "location"),
    ("trace/", "trace"),
    ("analysis/", "analysis"),
)
#: the rest of ``repro`` (viewstamps, events, txn objects, app, faults, ...)
OTHER = "other"
#: the benchmark's own load generator and stepping loop
BENCH = "bench"

LAYERS = tuple(dict.fromkeys(layer for _prefix, layer in LAYER_OF)) + (OTHER, BENCH)

_SAMPLE_SPANS = 2000
_MISSING = object()


def layer_of_file(filename: str) -> Optional[str]:
    """Layer of a source file; ``None`` for code outside repro and vrbench
    (it runs on behalf of, and is charged to, whichever layer called it)."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        relative = path[at + len(marker):]
        for prefix, layer in LAYER_OF:
            if relative.startswith(prefix):
                return layer
        return OTHER
    if "/vrbench/" in path:
        return BENCH
    return None


# stack entry fields
_LAYER, _CODE, _START, _DEPTH, _CHILD_NS, _PYCALLS, _CCALLS, _ID = range(8)


class Recorder:
    """Collects spans between :meth:`start` and :meth:`stop`."""

    def __init__(self, classify=layer_of_file):
        self._classify = classify
        self._code_layer: Dict[object, Optional[str]] = {}
        #: (parent layer, layer, entry code) -> [count, total, self, pycalls, ccalls]
        self.table: Dict[Tuple[str, str, object], List[int]] = {}
        #: (id, parent id, layer, entry, start_ns, end_ns) of the first spans
        self.sample: List[tuple] = []
        self.lock_waits = 0
        self.wall_ns = 0
        #: one ``HookCost`` per stop of the pass (see ``sample_cost``)
        self.cost_samples: List[HookCost] = []
        self._stack: List[list] = []
        self._close = None
        self._hook = None
        self._paused_ns = 0
        self._acquire_code = LockManager.acquire.__code__

    def start(self) -> None:
        # The hook runs on every call and return of the traced pass, so it
        # is a closure over locals rather than a method reading attributes.
        stack = self._stack = [[BENCH, None, 0, 0, 0, 0, 0, 0]]
        table = self.table
        sample = self.sample
        code_layer = self._code_layer
        classify = self._classify
        acquire_code = self._acquire_code
        clock = time.perf_counter_ns
        next_id = itertools.count(1).__next__

        def close(now: int, returned) -> None:
            span = stack.pop()
            parent = stack[-1]
            duration = now - span[_START]
            parent[_CHILD_NS] += duration
            key = (parent[_LAYER], span[_LAYER], span[_CODE])
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0, 0, 0, 0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - span[_CHILD_NS]
            row[3] += span[_PYCALLS]
            row[4] += span[_CCALLS]
            if span[_CODE] is acquire_code and returned is not None:
                if not returned.done:
                    self.lock_waits += 1
            if len(sample) < _SAMPLE_SPANS:
                sample.append(
                    (span[_ID], parent[_ID], span[_LAYER],
                     span[_CODE].co_qualname, span[_START], now)
                )

        def hook(frame, event, arg) -> None:
            top = stack[-1]
            if event == "call":
                code = frame.f_code
                layer = code_layer.get(code, _MISSING)
                if layer is _MISSING:
                    layer = code_layer[code] = classify(code.co_filename)
                if layer is None or layer == top[_LAYER]:
                    top[_DEPTH] += 1
                    top[_PYCALLS] += 1
                else:
                    stack.append([layer, code, clock(), 0, 0, 0, 0, next_id()])
            elif event == "return":
                if top[_DEPTH]:
                    top[_DEPTH] -= 1
                elif len(stack) > 1:
                    close(clock(), arg)
            elif event == "c_call":
                top[_CCALLS] += 1

        self._close = close
        self._hook = hook
        stack[0][_START] = clock()
        sys.setprofile(hook)

    def sample_cost(self) -> None:
        """Called by the pass's stepping loop between two steps: take the
        hook out, calibrate briefly, put it back.  The stop is not part of
        the traced wall or of any span (between steps only the pass's own
        root span is open, and it is credited the time back)."""
        sys.setprofile(None)
        paused = time.perf_counter_ns()
        self.cost_samples.append(calibrate(n=1000, repeats=3))
        self._paused_ns += time.perf_counter_ns() - paused
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        now = time.perf_counter_ns()
        while len(self._stack) > 1:  # spans still open (none in practice)
            self._close(now, None)
        root = self._stack.pop()
        self.wall_ns = now - root[_START] - self._paused_ns
        row = self.table.setdefault(("", BENCH, None), [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += self.wall_ns
        row[2] += self.wall_ns - root[_CHILD_NS]
        row[3] += root[_PYCALLS]
        row[4] += root[_CCALLS]

    # -- results -----------------------------------------------------------

    def entries(self, layer: str) -> int:
        """Spans opened into *layer* (calls that crossed into it)."""
        return sum(
            row[0] for (_p, callee, code), row in self.table.items()
            if callee == layer and code is not None
        )

    def calls_of(self, qualname: str) -> int:
        """Spans whose entry function is *qualname* (e.g. a public entry
        point always called from another layer)."""
        return sum(
            row[0] for (_p, _l, code), row in self.table.items()
            if code is not None and code.co_qualname == qualname
        )

    def layer_table(self, cost: "HookCost") -> Dict[str, dict]:
        """Per layer: spans, raw self time, and self time with the hook's
        calibrated cost subtracted.  The corrected time is not clamped: a
        negative one says *cost* is too high for this pass, and the caller
        must not use the table."""
        out = {
            layer: {"spans": 0, "raw_self_ns": 0, "hook_ns": 0.0}
            for layer in LAYERS
        }
        for (parent, layer, _code), row in self.table.items():
            count, _total, self_ns, pycalls, ccalls = row
            entry = out[layer]
            entry["spans"] += count
            entry["raw_self_ns"] += self_ns
            entry["hook_ns"] += pycalls * cost.py_call_ns + ccalls * cost.c_call_ns
            if parent:
                entry["hook_ns"] += count * cost.span_inside_ns
                out[parent]["hook_ns"] += count * cost.span_outside_ns
        for entry in out.values():
            entry["self_ns"] = entry["raw_self_ns"] - entry["hook_ns"]
        return out

    def hook_cost(self) -> "HookCost":
        """Mean of the cost samples (a pass too short to have been stopped
        even once is calibrated now)."""
        if not self.cost_samples:
            self.cost_samples.append(calibrate())
        return HookCost(
            *(statistics.fmean(column) for column in zip(
                *(vars(sample).values() for sample in self.cost_samples)
            ))
        )

    def calibration_spread(self) -> float:
        """How much the hook's cost moved during the pass: inter-quartile
        range over median of the totals each sample alone would subtract."""
        totals = [
            sum(entry["hook_ns"] for entry in self.layer_table(cost).values())
            for cost in self.cost_samples
        ]
        if len(totals) < 4:
            return 0.0
        low, middle, high = statistics.quantiles(totals, n=4)
        return (high - low) / middle

    def aggregated(self) -> List[dict]:
        """The (caller layer -> callee layer, entry function) table."""
        rows = [
            {
                "caller": parent,
                "layer": layer,
                "entry": code.co_qualname if code is not None else "<pass>",
                "count": row[0],
                "total_ns": row[1],
                "self_ns": row[2],
            }
            for (parent, layer, code), row in self.table.items()
        ]
        rows.sort(key=lambda r: -r["self_ns"])
        return rows


class HookCost:
    """What the profile hook adds, in nanoseconds (see :func:`calibrate`)."""

    def __init__(self, py_call_ns, c_call_ns, span_inside_ns, span_outside_ns):
        self.py_call_ns = py_call_ns
        self.c_call_ns = c_call_ns
        self.span_inside_ns = span_inside_ns
        self.span_outside_ns = span_outside_ns

    def as_dict(self) -> dict:
        return {name: round(value, 1) for name, value in vars(self).items()}


def _noop() -> None:
    pass


def _other_layer_noop() -> None:
    pass


def _loop_py(n: int) -> None:
    for _ in range(n):
        _noop()


def _loop_c(n: int, sized=()) -> None:
    for _ in range(n):
        len(sized)


def _loop_span(n: int) -> None:
    for _ in range(n):
        _other_layer_noop()


def _time(fn, n: int) -> int:
    started = time.perf_counter_ns()
    fn(n)
    return time.perf_counter_ns() - started


def calibrate(n: int = 20000, repeats: int = 5) -> HookCost:
    """Measure the hook's cost on three synthetic loops, each run bare and
    under a recorder; the median difference per iteration is the cost.  The
    span loop calls a function the recorder is told lives in another layer,
    so every iteration opens and closes one span."""
    foreign = _other_layer_noop.__code__.co_filename + "#foreign"

    def classify(filename: str) -> Optional[str]:
        return BENCH

    def cost_of(loop, want_span: bool):
        extra, inside = [], []
        for _ in range(repeats):
            bare = _time(loop, n)
            recorder = Recorder(classify)
            if want_span:
                recorder._code_layer[_other_layer_noop.__code__] = foreign
            recorder.start()
            loop(n)
            recorder.stop()
            extra.append((recorder.wall_ns - bare) / n)
            if want_span:
                (row,) = [
                    r for (_p, layer, _c), r in recorder.table.items()
                    if layer == foreign
                ]
                inside.append(row[1] / row[0])
        extra.sort()
        inside.sort()
        middle = repeats // 2
        return extra[middle], (inside[middle] if inside else 0.0)

    py_call, _ = cost_of(_loop_py, False)
    c_call, _ = cost_of(_loop_c, False)
    span, inside = cost_of(_loop_span, True)
    # `inside` still holds the bare cost of the empty call body; it is a few
    # tens of ns against a hook of several hundred, so it is left in.
    inside = min(inside, span)
    return HookCost(
        max(0.0, py_call), max(0.0, c_call), inside, max(0.0, span - inside)
    )


def buffer_registry():
    """Counting passes need every ``CommunicationBuffer`` ever opened (a
    view change closes the old one and its counters with it).  Returns
    ``(buffers, restore)``: the list fills as buffers are constructed until
    ``restore()`` puts the original ``__init__`` back."""
    buffers: list = []
    original = CommunicationBuffer.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        buffers.append(self)

    def restore() -> None:
        CommunicationBuffer.__init__ = original

    CommunicationBuffer.__init__ = recording_init
    return buffers, restore
