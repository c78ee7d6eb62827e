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

The check runs at the end of every run over every committed transaction, so
it keeps a small constant per transaction (DESIGN.md D30): a transaction is
an integer, its successors a run of a flat ``array``, its colour a byte.
The edge kinds are computed again only to name a cycle, and by
:meth:`SerializabilityChecker.graph`, which tests read.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Tuple

#: The serialization graph: ``aid -> {successor aid: "wr" | "ww" | "rw"}``.
Graph = Dict[object, Dict[object, str]]

#: One participant's report for a transaction: ``(aid, reads, writes)``, the
#: last two ``(key, version)`` pairs.  A transaction may span several pieces.
Piece = Tuple[object, Iterable[Tuple[Hashable, int]], Iterable[Tuple[Hashable, int]]]

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
    """Builds and checks the serialization graph of a committed history.

    Built from :class:`CommittedTransaction` objects, or by :meth:`over`
    from a callable that streams :data:`Piece` s afresh on each call (the
    ledger's committed effects, never copied).
    """

    def __init__(self, transactions: Iterable[CommittedTransaction]):
        self.transactions = transactions
        self._pieces: Callable[[], Iterator[Piece]] = lambda: (
            (txn.aid, txn.reads.items(), txn.writes.items())
            for txn in self.transactions
        )

    @classmethod
    def over(cls, pieces: Callable[[], Iterator[Piece]]) -> "SerializabilityChecker":
        checker = cls(())
        checker._pieces = pieces
        return checker

    def _writers(self) -> Tuple[Dict[object, int], Dict[Hashable, Dict[int, int]]]:
        """Each transaction's index (in order of first report) and
        ``key -> {version: index of its installer}``; a version installed
        twice is a violation."""
        index: Dict[object, int] = {}
        writers: Dict[Hashable, Dict[int, int]] = {}
        for aid, _reads, writes in self._pieces():
            txn = index.setdefault(aid, len(index))
            for key, version in writes:
                by_version = writers.get(key)
                if by_version is None:
                    by_version = writers[key] = {}
                first = by_version.setdefault(version, txn)
                if first != txn:
                    raise SerializabilityViolation(
                        f"two transactions installed version {version} of {key}: "
                        f"{list(index)[first]} and {aid}"
                    )
        return index, writers

    def _edges(self, index, writers) -> Iterator[Tuple[int, int, str]]:
        """``(from, to, kind)`` for every edge, by the three rules, piece by
        piece; an edge found twice keeps its last kind."""
        for aid, reads, writes in self._pieces():
            txn = index[aid]
            for key, version in reads:
                by_version = writers.get(key)
                if by_version is None:
                    continue
                # wr: we read the version installed by its writer
                writer = by_version.get(version, txn)
                if writer != txn:
                    yield writer, txn, "wr"
                # rw: whoever installed the next version comes after us
                overwriter = by_version.get(version + 1, txn)
                if overwriter != txn:
                    yield txn, overwriter, "rw"
            for key, version in writes:
                previous = writers[key].get(version - 1, txn)
                if previous != txn:
                    yield previous, txn, "ww"

    def graph(self) -> Graph:
        index, writers = self._writers()
        aids = list(index)
        graph: Graph = {aid: {} for aid in aids}
        for before, after, kind in self._edges(index, writers):
            graph[aids[before]][aids[after]] = kind
        return graph

    def check(self) -> None:
        """Raise :class:`SerializabilityViolation` if the history is not 1SR.

        A three-colour depth-first search with an explicit stack (a long
        serial chain must not overflow Python's recursion limit) over the
        successor lists packed in one array: node *n*'s successors are
        ``successors[start[n]:start[n + 1]]``, in the order the edges were
        found (an edge found twice is there twice, and is seen black the
        second time).
        """
        index, writers = self._writers()
        n = len(index)
        sources, targets = array("i"), array("i")
        for before, after, _kind in self._edges(index, writers):
            sources.append(before)
            targets.append(after)
        start = array("i", [0]) * (n + 1)
        for node in sources:
            start[node + 1] += 1
        for node in range(n):
            start[node + 1] += start[node]
        fill = start[:-1]
        successors = array("i", [0]) * len(targets)
        for node, successor in zip(sources, targets):
            successors[fill[node]] = successor
            fill[node] += 1
        del index, writers, sources, targets, fill

        colour = bytearray(n)
        for root in range(n):
            if colour[root]:
                continue
            colour[root] = _GREY
            path, resume = [root], [start[root]]
            while path:
                node, at, end = path[-1], resume[-1], start[path[-1] + 1]
                while at < end:
                    successor = successors[at]
                    at += 1
                    if not colour[successor]:
                        resume[-1] = at
                        colour[successor] = _GREY
                        path.append(successor)
                        resume.append(start[successor])
                        break
                    if colour[successor] == _GREY:
                        self._explain(path[path.index(successor):] + [successor])
                else:
                    colour[node] = _BLACK
                    path.pop()
                    resume.pop()

    def _explain(self, cycle: List[int]) -> None:
        """Raise the violation naming *cycle* with its edges' kinds."""
        index, writers = self._writers()
        aids = list(index)
        hops = set(zip(cycle, cycle[1:]))
        kinds = {}
        for before, after, kind in self._edges(index, writers):
            if (before, after) in hops:
                kinds[before, after] = kind
        names = "".join(
            f" -{kinds[a, b]}-> {aids[b]}" for a, b in zip(cycle, cycle[1:])
        )
        raise SerializabilityViolation(
            f"serialization graph has a cycle: {aids[cycle[0]]}{names}"
        )

    def is_serializable(self) -> bool:
        try:
            self.check()
        except SerializabilityViolation:
            return False
        return True
