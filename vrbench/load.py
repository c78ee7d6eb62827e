"""Load generation: simulated clients that drive one ``Driver``.

The benchmark owns its inputs.  Operations (and, for an open loop, their
due times) are generated from the workload seed *before* the clock starts;
the program under test only ever sees the resulting ``Driver.call`` /
``Driver.read`` submissions.

- **closed loop**: ``clients`` simulated clients each submit their next
  operation the instant the previous one resolves; an operation is *due*
  when it is submitted.
- **open loop**: operations are due on a precomputed schedule and are
  submitted then, whether or not earlier ones have resolved; latency runs
  from the due instant.  Generation happens in simulated time, so the
  generator is never late (lateness is reported and asserted zero).

An *operation* is one logical request.  An attempt that does not commit
(``aborted`` / ``unknown`` / failed read) is re-submitted at once, up to
``MAX_ATTEMPTS``; the operation resolves when an attempt succeeds.  On the
fault-free workloads no attempt ever fails; under injected crashes the
retries are what a client waiting for service does, and the failed
attempts are reported as ``failed_share``.  A workload may supply
``retry_op`` to rewrite a retried operation (``failover_lossy`` writes a
fresh key per attempt: an aborted attempt can leave its write lock behind
at the re-formed primary, and a retry of the same key would queue behind
it for ever).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

#: ("call", target, program, args) | ("read", groupid, uid, fallback)
Op = Tuple

MAX_ATTEMPTS = 25


def call_op(target, program: str, *args) -> Op:
    return ("call", target, program, args)


def read_op(groupid: str, uid: str, fallback: Optional[tuple] = None) -> Op:
    return ("read", groupid, uid, fallback)


class Load:
    """Runs *ops* through *driver* and records what happened to each.

    Per operation: ``due[i]`` and ``done[i]`` (simulated time; ``done`` is
    ``None`` until an attempt succeeds).  Totals: ``attempts`` and
    ``failed_attempts``.  ``remaining`` counts operations still unresolved
    (succeeded or gave up); the caller steps the simulator until it is 0.
    """

    def __init__(
        self,
        sim,
        driver,
        ops: Sequence[Op],
        *,
        clients: int = 0,
        offsets: Optional[Sequence[float]] = None,
        retry_op: Optional[Callable[[], Op]] = None,
    ):
        if (clients > 0) == (offsets is not None):
            raise ValueError("pass clients (closed loop) or offsets (open loop)")
        if offsets is not None and len(offsets) != len(ops):
            raise ValueError("one due offset per operation")
        self.sim = sim
        self.driver = driver
        self.ops = list(ops)  # a retried operation is replaced in place
        self.clients = clients
        self.retry_op = retry_op
        self.offsets = offsets
        self.due: List[float] = [0.0] * len(ops)
        self.done: List[Optional[float]] = [None] * len(ops)
        self.attempts = 0
        self.failed_attempts = 0
        self.gave_up = 0
        self.max_lateness = 0.0
        self.remaining = len(ops)
        self.started_at = 0.0
        self.finished_at = 0.0
        self._next = 0

    def start(self) -> None:
        self.started_at = self.finished_at = self.sim.now
        if self.offsets is None:
            for _ in range(min(self.clients, len(self.ops))):
                self._next_closed()
        elif self.ops:
            self.sim.schedule(self.offsets[0], self._fire_open, 0)

    # -- closed loop -------------------------------------------------------

    def _next_closed(self) -> None:
        index = self._next
        if index >= len(self.ops):
            return
        self._next = index + 1
        self.due[index] = self.sim.now
        self._submit(index, 1)

    # -- open loop ---------------------------------------------------------

    def _fire_open(self, index: int) -> None:
        now = self.sim.now
        due = self.started_at + self.offsets[index]
        self.due[index] = due
        self.max_lateness = max(self.max_lateness, now - due)
        following = index + 1
        if following < len(self.ops):
            self.sim.schedule(
                max(0.0, self.started_at + self.offsets[following] - now),
                self._fire_open,
                following,
            )
        self._submit(index, 1)

    # -- shared ------------------------------------------------------------

    def _submit(self, index: int, attempt: int) -> None:
        op = self.ops[index]
        self.attempts += 1
        if op[0] == "read":
            future = self.driver.read(op[1], op[2], fallback=op[3])
        else:
            future = self.driver.call(op[1], op[2], *op[3])
        future.add_done_callback(
            lambda done, index=index, attempt=attempt: self._resolved(
                index, attempt, done.result()
            )
        )

    def _resolved(self, index: int, attempt: int, result) -> None:
        # CallResult.status == "committed" / ReadResult.status == "ok"
        if result.status in ("committed", "ok"):
            self.done[index] = self.sim.now
        else:
            self.failed_attempts += 1
            if attempt < MAX_ATTEMPTS:
                if self.retry_op is not None:
                    self.ops[index] = self.retry_op()
                self._submit(index, attempt + 1)
                return
            self.gave_up += 1
        self.remaining -= 1
        self.finished_at = self.sim.now
        if self.offsets is None:
            self._next_closed()

    # -- results -----------------------------------------------------------

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        """Due-to-resolve times of succeeded operations (optionally only
        ``"read"`` or ``"call"`` operations)."""
        return [
            done - due
            for op, due, done in zip(self.ops, self.due, self.done)
            if done is not None and (kind is None or op[0] == kind)
        ]

    @property
    def succeeded(self) -> int:
        return len(self.ops) - self.gave_up - self.remaining
