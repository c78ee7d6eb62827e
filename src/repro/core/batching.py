"""What a cohort does differently under ``BatchConfig(enabled=True)``.

The batched transmission mode itself is the buffer's
(:mod:`repro.core.buffer`); this extension arms it and adds the cohort's
half (docs/PERF.md): one coalesced cumulative ack per ``flush_interval``
tick; and, for a group that coordinates a transaction on itself (a sharded
group's single-key path), prepare / commit / abort and their replies
delivered in place and outcome queries sent to one coordinator cohort per
sweep.
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
            batch_enabled=True,
            flush_delay=batch.flush_interval,
            pipeline_depth=batch.pipeline_depth,
            trace=cohort.emit if cohort.tracer is not None else None,
        )
        self.reset()
        if batch.flush_interval > 0:
            wrap(cohort, "acknowledge", self._coalesce_ack)
        self._query_counter = 0  # round-robin query fan-out
        server, client = cohort.server_role, cohort.client_role
        wrap(client, "_send_prepare", self._in_place)
        wrap(client, "_send_commit", self._in_place)
        wrap(cohort.coordinator_role, "_send_abort", self._in_place)
        wrap(server, "_answer_coordinator", self._answer_in_place)
        wrap(server, "_send_query", self._query_one)
        #: what a message we would mail our own group's primary -- us -- does
        self._deliver = {
            m.PrepareMsg: server.on_prepare,
            m.CommitMsg: server.on_commit,
            m.AbortMsg: server.on_abort,
            m.PrepareOkMsg: client.on_prepare_ok,
            m.CommitAckMsg: client.on_commit_ack,
        }

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

    # -- self-coordination shortcuts --------------------------------------------

    def _in_place(self, send: Callable, groupid: str, message) -> None:
        """A prepare / commit / abort for our own group is delivered
        synchronously instead of mailed to ourselves: idempotent under the
        retry loops like the wire path (``on_commit``'s
        already_installed check), and mirroring ``ClientRole._abort_txn``'s
        local abort."""
        if groupid == self.cohort.mygroupid:
            self._deliver[type(message)](message)
        else:
            send(groupid, message)

    def _answer_in_place(self, send: Callable, destination: str, message) -> None:
        if destination == self.cohort.address:
            self._deliver[type(message)](message)
        else:
            send(destination, message)

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
