"""Base message type and byte-size estimation.

Byte sizes matter for the Isis comparison (experiment E9): the paper argues
Isis must piggyback ever-growing effect information on every message, while
viewstamped replication's psets stay small and are discarded at commit.  We
estimate wire size structurally so the comparison is apples-to-apples.

This module is on the per-message hot path (every send runs ``byte_size``),
so a value is sized by one exact-``type()`` lookup in ``_SIZERS``.  A type
is classified once, on first sight, by one precedence rule:

1. ``None``/``bool`` are 1 byte, ``int``/``float`` 8, ``str``/``bytes``
   their length, a ``list``/``tuple``/``set``/``frozenset``/``dict`` 4 plus
   its items; a subclass of one of these sizes as its base.
2. A dataclass is the sum of its fields, through a sizer compiled for the
   class; a ``Message`` adds ``_HEADER_BYTES`` once, at the top.  A
   ``byte_size`` method on a dataclass is never consulted, and a class
   attribute without an annotation is not a field, hence not wire data.
3. Anything else is ``value.byte_size()`` if it has one, else 16.

Two declarations let a class skip the walk.  A frozen dataclass with
``_wire_size = None`` (or a ``_wire_size`` slot, never a field, so never
sized itself) has its size computed once and kept on the instance
(8 bytes each): that is for event records, immutable once buffered yet
re-sent by every unbatched flush, and for the scalar-only identifiers that
one instance carries into many messages (``ViewId``, thousands of sizings
per instance; ``Aid``, 8-40) -- not for ``CallId``, ``PSetPair`` or
``Viewstamp``, re-sized at most twice, and never for anything holding a
container somebody may still mutate (call ``args`` and ``result``, Isis
``piggyback`` dicts, ``PSet``, ``History``).  And ``_size_hints = {field:
attribute}`` names a non-wire attribute that, when not ``None``, *is* the
size of that field (``BufferMsg.records_bytes``; ``NewView.objects_bytes``,
which a :class:`SizedDict` keeps between views).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional, Tuple, Type

_HEADER_BYTES = 32  # source, destination, msg id, type tag


def _size_items(value: Any) -> int:
    total = 4
    for item in value:
        total += _SIZERS[type(item)](item)
    return total


def _size_mapping(value: Any) -> int:
    total = 4
    for key, item in value.items():
        total += _SIZERS[type(key)](key) + _SIZERS[type(item)](item)
    return total


def _size_opaque(value: Any) -> int:
    sizer = getattr(value, "byte_size", None)
    return 16 if sizer is None else sizer()


#: Rule 1, in precedence order (a ``bool`` is an ``int``; first match wins).
_BUILTIN_SIZERS: Tuple[Tuple[Tuple[type, ...], Callable[[Any], int]], ...] = (
    ((type(None), bool), lambda value: 1),
    ((int, float), lambda value: 8),
    ((str, bytes), len),
    ((list, tuple, set, frozenset), _size_items),
    ((dict,), _size_mapping),
)


def _compile_dataclass_sizer(cls: Any) -> Callable[[Any], int]:
    """``def size(v): return S[type(v.a)](v.a) + ...`` over the fields of
    *cls*, wrapped in the instance cache when the class interns its size."""
    hints = getattr(cls, "_size_hints", {})
    terms = []
    for field in dataclasses.fields(cls):
        term = f"S[type(v.{field.name})](v.{field.name})"
        if field.name in hints:
            hint = f"v.{hints[field.name]}"
            term = f"({term} if {hint} is None else {hint})"
        terms.append(term)
    total = " + ".join(terms) or "0"
    if hasattr(cls, "_wire_size"):
        if not cls.__dataclass_params__.frozen:
            raise TypeError(f"{cls.__name__} interns its size but is not frozen")
        # An unset slot raises; an unset instance attribute reads the
        # class's None.
        body = (
            " try:\n"
            "  n = v._wire_size\n"
            " except AttributeError:\n"
            "  n = None\n"
            " if n is None:\n"
            f"  n = {total}\n"
            "  store(v, '_wire_size', n)\n"
            " return n"
        )
    else:
        body = f" return {total}"
    namespace: Dict[str, Any] = {"S": _SIZERS, "store": object.__setattr__}
    exec(f"def size(v):\n{body}", namespace)
    return namespace["size"]


class _SizerTable(dict):
    """Exact type -> sizer; a type seen for the first time is classified
    by the module's precedence rule and remembered."""

    def __missing__(self, cls: type) -> Callable[[Any], int]:
        for bases, sizer in _BUILTIN_SIZERS:
            if issubclass(cls, bases):
                break
        else:
            if dataclasses.is_dataclass(cls):
                sizer = _compile_dataclass_sizer(cls)
            else:
                sizer = _size_opaque
        self[cls] = sizer
        return sizer


_SIZERS = _SizerTable()


def estimate_size(value: Any) -> int:
    """Rough wire-size estimate of a payload value, in bytes."""
    return _SIZERS[type(value)](value)


_ABSENT = object()


class SizedDict(dict):
    """A dict that re-sizes only what changed since it was last sized.

    :meth:`wire_size` is ``estimate_size(self)``.  It is kept as of the last
    call, together with the value each key assigned since had then, so the
    next call walks only those keys.  Until the first call (or a *size*
    given by a caller that knows it) nothing is tracked.  Item assignment
    is the only write the bookkeeping sees: nothing may delete an entry
    or write through ``update``, ``setdefault`` and the like.  So the keys
    assigned since the last sizing (:meth:`written`) are every key whose
    value may differ from what it was then.
    """

    __slots__ = ("_bytes", "_was")

    def __init__(self, items: Any = (), size: Optional[int] = None) -> None:
        dict.__init__(self, items)
        self._bytes = size
        self._was: Dict[Any, Any] = {}

    def __setitem__(self, key: Any, value: Any) -> None:
        if self._bytes is not None and key not in self._was:
            self._was[key] = dict.get(self, key, _ABSENT)
        dict.__setitem__(self, key, value)

    def wire_size(self) -> int:
        size = self._bytes
        if size is None:
            size = _size_mapping(self)
        else:
            for key, old in self._was.items():
                new = dict.__getitem__(self, key)
                if old is _ABSENT:
                    size += _SIZERS[type(key)](key) + _SIZERS[type(new)](new)
                else:
                    size += _SIZERS[type(new)](new) - _SIZERS[type(old)](old)
        self._bytes, self._was = size, {}
        return size

    def written(self) -> Optional[Tuple[Any, ...]]:
        """The keys assigned since the last sizing; None before the first,
        when nothing is tracked."""
        return None if self._bytes is None else tuple(self._was)

    def patch(self, items: Dict[Any, Any]) -> None:
        """Assign every entry of *items*, then size: the count starts over."""
        for key, value in items.items():
            self[key] = value
        self.wire_size()


@dataclasses.dataclass(slots=True)
class Message:
    """Base class for every wire message in the system.

    Subclasses are frozen-ish dataclasses named after the paper's messages
    (call, reply, prepare, commit, abort, invite, accept, init-view, ...).
    ``msg_type`` defaults to the class name, which is what metrics key on.
    """

    msg_type = "Message"  # class attribute, restamped per subclass below

    def __init_subclass__(cls: Type["Message"], **kwargs: Any) -> None:
        # No zero-arg super() here: dataclass(slots=True) recreates the
        # class, which leaves the implicit __class__ cell pointing at the
        # pre-slots Message and would raise TypeError for subclasses.
        object.__init_subclass__(**kwargs)
        cls.msg_type = cls.__name__

    def byte_size(self) -> int:
        return _HEADER_BYTES + _SIZERS[type(self)](self)


@dataclasses.dataclass(slots=True)
class Envelope:
    """A message in flight: routing metadata wrapped around the payload.

    ``copies`` counts outstanding scheduled deliveries (2 when the link
    duplicated the datagram); the network recycles the envelope through a
    freelist once every copy has been consumed.  ``delivered`` is the
    network's duplicate suppression: the second copy of a datagram whose
    first copy reached its destination is dropped.  ``send_eid`` is the
    trace event that caused this message, marked by the tracer at send
    (``0``: sent outside any handler; None when tracing is off or the
    envelope never went through ``Network.send``); a duplicated copy is
    the same envelope, so both deliveries carry the one cause."""

    msg_id: int
    source: str
    destination: str
    payload: Message
    sent_at: float
    copies: int = 1
    delivered: bool = False
    send_eid: Optional[int] = None
