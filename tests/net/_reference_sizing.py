"""The reflective wire-size estimator, frozen as the sizing oracle.

This is ``repro.net.messages`` as it stood before sizing was compiled per
class (PR 12), verbatim: the ``isinstance`` ladder, the per-class field-name
cache and the ``_size_cacheable`` interning branch (dead now -- no class sets
the flag any more -- but kept so the copy stays a copy).  It exists only so
tests can assert that the compiled sizers reproduce these numbers exactly;
nothing under ``src/`` may import it.  ``message_byte_size`` is the old
``Message.byte_size`` body as a function.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

_HEADER_BYTES = 32  # source, destination, msg id, type tag

#: Per-class cache of dataclass field names, so byte sizing does not pay
#: ``dataclasses.fields`` reflection on every message.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(field.name for field in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def estimate_size(value: Any) -> int:
    """Rough wire-size estimate of a payload value, in bytes."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        total = 4
        for item in value:
            total += estimate_size(item)
        return total
    if isinstance(value, dict):
        total = 4
        for key, item in value.items():
            total += estimate_size(key) + estimate_size(item)
        return total
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if getattr(value, "_size_cacheable", False):
            # The interned size lives outside the declared fields (in a
            # slot or the instance __dict__), so it never feeds back into
            # the estimate itself.
            cached = getattr(value, "_wire_size", None)
            if cached is not None:
                return cached
            total = 0
            for name in _field_names(type(value)):
                total += estimate_size(getattr(value, name))
            object.__setattr__(value, "_wire_size", total)
            return total
        total = 0
        for name in _field_names(type(value)):
            total += estimate_size(getattr(value, name))
        return total
    if hasattr(value, "byte_size"):
        return value.byte_size()
    return 16  # opaque object


def message_byte_size(message: Any) -> int:
    total = _HEADER_BYTES
    for name in _field_names(type(message)):
        total += estimate_size(getattr(message, name))
    return total
