"""One-copy serializability checking (the paper's correctness criterion).

Section 1: "Our method guarantees the one-copy serializability correctness
criterion: the concurrent execution of transactions on replicated data is
equivalent to a serial execution on non-replicated data."

We check the committed history directly.  During a run, participants report
per-group read/write sets with object *versions* (each object's base
version carries a counter bumped on every install).  The checker builds the
serialization graph over committed transactions:

- **wr** (reads-from): T1 installed version v of x, T2 read version v
  -> edge T1 -> T2;
- **ww**: T1 installed version v, T2 installed version v+1 -> T1 -> T2;
- **rw** (anti-dependency): T2 read version v, T1 installed v+1 -> T2 -> T1.

The committed execution is one-copy serializable iff the graph is acyclic
(Bernstein & Goodman; Papadimitriou).  Because version counters are derived
from the single logical install order per object, replication is already
collapsed to "one copy" -- a divergent replica would surface either here or
in the replica-convergence check that integration tests also run.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

#: The serialization graph: ``aid -> {successor aid: "wr" | "ww" | "rw"}``.
Graph = Dict[object, Dict[object, str]]

_GREY, _BLACK = 1, 2


class SerializabilityViolation(AssertionError):
    """The committed history admits no equivalent serial order."""


@dataclasses.dataclass
class CommittedTransaction:
    """Merged read/write sets of one committed transaction."""

    aid: object
    reads: Dict[Tuple[str, str], int] = dataclasses.field(default_factory=dict)
    writes: Dict[Tuple[str, str], int] = dataclasses.field(default_factory=dict)


class SerializabilityChecker:
    """Builds and checks the serialization graph of a committed history."""

    def __init__(self, transactions: List[CommittedTransaction]):
        self.transactions = transactions

    def graph(self) -> Graph:
        graph: Graph = {txn.aid: {} for txn in self.transactions}
        writers: Dict[Tuple[str, str], Dict[int, object]] = {}
        for txn in self.transactions:
            for key, version in txn.writes.items():
                by_version = writers.setdefault(key, {})
                if version in by_version and by_version[version] != txn.aid:
                    raise SerializabilityViolation(
                        f"two transactions installed version {version} of {key}: "
                        f"{by_version[version]} and {txn.aid}"
                    )
                by_version[version] = txn.aid
        for txn in self.transactions:
            for key, version in txn.reads.items():
                by_version = writers.get(key, {})
                # wr: we read the version installed by its writer
                writer = by_version.get(version)
                if writer is not None and writer != txn.aid:
                    graph[writer][txn.aid] = "wr"
                # rw: whoever installed the next version comes after us
                overwriter = by_version.get(version + 1)
                if overwriter is not None and overwriter != txn.aid:
                    graph[txn.aid][overwriter] = "rw"
            for key, version in txn.writes.items():
                by_version = writers.get(key, {})
                previous = by_version.get(version - 1)
                if previous is not None and previous != txn.aid:
                    graph[previous][txn.aid] = "ww"
        return graph

    def check(self) -> None:
        """Raise :class:`SerializabilityViolation` if the history is not 1SR.

        A three-colour depth-first search with an explicit stack: a long
        serial chain must not overflow Python's recursion limit.
        """
        graph = self.graph()
        colour: Dict[object, int] = {}
        for root in graph:
            if root in colour:
                continue
            colour[root] = _GREY
            stack = [(root, iter(graph[root]))]
            while stack:
                for node in stack[-1][1]:
                    seen = colour.get(node)
                    if seen is None:
                        colour[node] = _GREY
                        stack.append((node, iter(graph[node])))
                        break
                    if seen == _GREY:
                        path = [grey for grey, _ in stack]
                        cycle = path[path.index(node):] + [node]
                        hops = "".join(
                            f" -{graph[a][b]}-> {b}" for a, b in zip(cycle, cycle[1:])
                        )
                        raise SerializabilityViolation(
                            f"serialization graph has a cycle: {cycle[0]}{hops}"
                        )
                else:
                    colour[stack.pop()[0]] = _BLACK

    def is_serializable(self) -> bool:
        try:
            self.check()
        except SerializabilityViolation:
            return False
        return True
