"""What a cohort does differently under ``BatchConfig(enabled=True)``.

Batching is a delay, not a mode (DESIGN.md D20): this extension gives the
buffer its coalescing delay (``flush_delay``) and window
(:mod:`repro.core.buffer`), and adds the cohort's half (docs/PERF.md): one
coalesced cumulative ack per ``flush_interval`` tick, and outcome queries sent
to one coordinator cohort per sweep.
"""

from __future__ import annotations

from typing import Callable

from repro.core import messages as m
from repro.core.extension import Extension, wrap


class Batching(Extension):
    def __init__(self, cohort, batch) -> None:
        super().__init__(cohort)
        self.batch = batch
        cohort.buffer_options.update(
            flush_delay=batch.flush_interval,
            pipeline_depth=batch.pipeline_depth,
            trace=cohort.emit if cohort.tracer is not None else None,
        )
        self.reset()
        if batch.flush_interval > 0:
            wrap(cohort, "acknowledge", self._coalesce_ack)
        self._query_counter = 0  # round-robin query fan-out
        wrap(cohort.server_role, "_send_query", self._query_one)

    def reset(self) -> None:
        # Applied-but-unacked BufferMsg count, and whether the coalescing
        # timer is armed.  The timer dies with a crashed node: a flag that
        # outlived it would keep this backup from ever acking again.
        self._acks_pending = 0
        self._ack_timer_armed = False

    # -- ack coalescing ------------------------------------------------------

    def _coalesce_ack(self, _at_once: Callable) -> None:
        """Acks are cumulative, so one per tick answers every BufferMsg
        applied during it."""
        self._acks_pending += 1
        if self._ack_timer_armed:
            return
        self._ack_timer_armed = True
        cohort = self.cohort
        cohort.set_timer(
            self.batch.flush_interval, self._fire_ack, cohort._epoch, cohort.cur_viewid
        )

    def _fire_ack(self, epoch: int, viewid) -> None:
        cohort = self.cohort
        self._ack_timer_armed = False
        coalesced, self._acks_pending = self._acks_pending, 0
        if cohort._epoch == epoch and cohort.is_backup_in(viewid):
            if cohort.tracer is not None:
                cohort.emit(
                    "ack_coalesce", coalesced=coalesced, acked_ts=cohort.applied_ts
                )
            cohort.ack_now()

    def _query_one(self, _fan_out: Callable, aid) -> None:
        """Ask one coordinator cohort per sweep; the round-robin still
        reaches every member across consecutive sweeps, so a lone survivor
        is eventually asked (queries are periodic, section 3.4)."""
        cohort = self.cohort
        try:
            members = tuple(cohort.locate(aid.groupid))
        except KeyError:
            return
        if len(members) > 1:
            self._query_counter += 1
            members = (members[self._query_counter % len(members)],)
        for _mid, address in members:
            cohort.send(address, m.QueryMsg(aid=aid, reply_to=cohort.address))
