"""Tandem-style primary/backup pair (section 5).

"Tandem's Nonstop system and the Auragen system are primary copy methods
but there is just one backup, so they can survive only a single failure.
Furthermore, the primary/backup pair must reside at a single node
(containing multiple processors).  If these constraints are acceptable,
these methods are efficient.  Ours is more general."

Operation-level implementation: the primary applies each operation and
synchronously checkpoints it to its single backup before replying.  If the
primary fails, the backup takes over immediately (the shared chassis means
failure detection is reliable and partitions between the pair are
impossible -- we model that by never injecting partitions between the two
and using a short takeover timeout).  A second failure leaves the pair
dead: experiment E13 measures exactly that cliff against a 3- or 5-cohort
viewstamped group.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

from repro.net.messages import Message
from repro.sim.future import Future
from repro.sim.node import Actor, Node


@dataclasses.dataclass(slots=True)
class PairOpReq(Message):
    op_id: int
    op: str  # "read" | "write" | "add"
    key: str
    value: Any
    reply_to: str


@dataclasses.dataclass(slots=True)
class PairOpReply(Message):
    op_id: int
    result: Any


@dataclasses.dataclass(slots=True)
class PairCheckpoint(Message):
    seq: int
    key: str
    value: Any


@dataclasses.dataclass(slots=True)
class PairCheckpointAck(Message):
    seq: int


@dataclasses.dataclass(slots=True)
class PairPing(Message):
    pass


class PairMember(Actor):
    """One half of the pair; role (primary/backup) can flip once."""

    def __init__(
        self,
        node: Node,
        runtime,
        address: str,
        peer_address: str,
        is_primary: bool,
        initial: Dict[str, Any],
        takeover_timeout: float = 25.0,
    ):
        super().__init__(node, address)
        self.runtime = runtime
        self.peer_address = peer_address
        self.is_primary = is_primary
        self.store: Dict[str, Any] = dict(initial)
        self.takeover_timeout = takeover_timeout
        self._seq = 0
        self._pending: Dict[int, Tuple[PairOpReq, Any]] = {}  # seq -> (req, result)
        self._last_peer_heard = 0.0
        runtime.network.register(self)
        self._arm_watchdog()
        self._arm_ping()

    # -- liveness ------------------------------------------------------------

    def _arm_ping(self) -> None:
        self._send(self.peer_address, PairPing())
        self.set_timer(5.0, self._arm_ping)

    def _arm_watchdog(self) -> None:
        if not self.is_primary:
            silence = self.sim.now - self._last_peer_heard
            if self._last_peer_heard > 0 and silence > self.takeover_timeout:
                self.is_primary = True  # takeover
                self.runtime.metrics.incr("pair_takeovers")
        self.set_timer(5.0, self._arm_watchdog)

    # -- messages -------------------------------------------------------------

    def handle_message(self, message, source: str) -> None:
        if isinstance(message, PairPing):
            self._last_peer_heard = self.sim.now
            return
        if isinstance(message, PairOpReq):
            self._handle_op(message)
        elif isinstance(message, PairCheckpoint):
            self._last_peer_heard = self.sim.now
            self.store[message.key] = message.value
            self._send(source, PairCheckpointAck(seq=message.seq))
        elif isinstance(message, PairCheckpointAck):
            entry = self._pending.pop(message.seq, None)
            if entry is not None:
                request, result = entry
                self._send(request.reply_to, PairOpReply(op_id=request.op_id, result=result))

    def _handle_op(self, request: PairOpReq) -> None:
        if not self.is_primary:
            return  # clients discover the new primary by probing both halves
        if request.op == "read":
            self._send(
                request.reply_to,
                PairOpReply(op_id=request.op_id, result=self.store.get(request.key)),
            )
            return
        if request.op == "write":
            result = request.value
        elif request.op == "add":
            result = self.store.get(request.key, 0) + request.value
        else:
            return
        self.store[request.key] = result
        peer_node = self.runtime.network.node_of(self.peer_address)
        if peer_node is not None and peer_node.up:
            self._seq += 1
            self._pending[self._seq] = (request, result)
            self._send(
                self.peer_address,
                PairCheckpoint(seq=self._seq, key=request.key, value=result),
            )
        else:
            # Running solo after the partner died -- reply immediately.
            self._send(request.reply_to, PairOpReply(op_id=request.op_id, result=result))

    def _send(self, destination: str, message) -> None:
        self.runtime.network.send(self.address, destination, message)

    def on_crash(self) -> None:
        self._pending.clear()


class PairSystem:
    """A primary/backup pair on two nodes."""

    def __init__(self, runtime, name: str, initial: Dict[str, Any]):
        self.runtime = runtime
        self.name = name
        node_a = runtime.create_node(f"{name}-nA")
        node_b = runtime.create_node(f"{name}-nB")
        self.primary = PairMember(
            node_a, runtime, f"{name}/A", f"{name}/B", True, initial
        )
        self.backup = PairMember(
            node_b, runtime, f"{name}/B", f"{name}/A", False, initial
        )

    def members(self):
        return (self.primary, self.backup)

    def addresses(self) -> Tuple[str, str]:
        return (self.primary.address, self.backup.address)


class PairClient(Actor):
    """Submits operations, failing over between the two halves."""

    def __init__(self, node: Node, runtime, address: str, system: PairSystem,
                 op_timeout: float = 30.0):
        super().__init__(node, address)
        self.runtime = runtime
        self.system = system
        self.op_timeout = op_timeout
        self._next_op = 0
        self._pending: Dict[int, dict] = {}
        runtime.network.register(self)

    def op(self, op: str, key: str, value: Any = None) -> Future:
        self._next_op += 1
        op_id = self._next_op
        future = Future(label=f"pair-op:{op_id}")
        state = {
            "future": future,
            "request": PairOpReq(op_id=op_id, op=op, key=key, value=value,
                                 reply_to=self.address),
            "targets": list(self.system.addresses()),
            "tries": 4,
        }
        self._pending[op_id] = state
        self._transmit(op_id)
        return future

    def read(self, key: str) -> Future:
        return self.op("read", key)

    def write(self, key: str, value: Any) -> Future:
        return self.op("write", key, value)

    def add(self, key: str, delta: Any) -> Future:
        return self.op("add", key, delta)

    def _transmit(self, op_id: int) -> None:
        state = self._pending.get(op_id)
        if state is None:
            return
        if state["tries"] <= 0:
            self._pending.pop(op_id, None)
            if not state["future"].done:
                state["future"].set_exception(RuntimeError("pair unavailable"))
            return
        state["tries"] -= 1
        # Try both halves; only the current primary answers.
        for address in state["targets"]:
            self.runtime.network.send(self.address, address, state["request"])
        state["timer"] = self.set_timer(self.op_timeout, self._transmit, op_id)

    def handle_message(self, message, source: str) -> None:
        if isinstance(message, PairOpReply):
            state = self._pending.pop(message.op_id, None)
            if state is None:
                return
            if state.get("timer") is not None:
                state["timer"].cancel()
            if not state["future"].done:
                state["future"].set_result(message.result)
