"""Transaction substrate: identifiers, outcomes, psets, locks, versioned objects."""

from repro.txn.ids import Aid, CallId, OutcomeTable
from repro.txn.locks import LockManager
from repro.txn.objects import READ, WRITE, ObjectStore, StoredObject
from repro.txn.pset import PSet, PSetPair

__all__ = [
    "Aid",
    "CallId",
    "LockManager",
    "ObjectStore",
    "OutcomeTable",
    "PSet",
    "PSetPair",
    "READ",
    "StoredObject",
    "WRITE",
]
