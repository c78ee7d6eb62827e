"""Futures: single-assignment result cells that wake their waiters."""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple, Union

from repro.sim.errors import CancelledError, SimulationError

_PENDING = "pending"
_RESOLVED = "resolved"
_FAILED = "failed"
_CANCELLED = "cancelled"

#: A label as given: a ``str``, or a tuple of parts whose ``str()`` s,
#: joined, are the label.  A site that makes a future per transaction or
#: call passes the ids themselves, and nothing is formatted unless read.
Label = Union[str, Tuple[Any, ...]]


def label_text(label: Label) -> str:
    return label if label.__class__ is str else "".join(map(str, label))


class Future:
    """A placeholder for a value produced later in virtual time.

    Callbacks registered with :meth:`add_done_callback` run synchronously at
    the instant of resolution (they receive the future itself).  Processes
    that ``yield`` a future are resumed through this mechanism.
    """

    __slots__ = ("_state", "_value", "_callbacks", "_label")

    def __init__(self, label: Label = ""):
        self._state = _PENDING
        self._value: Any = None
        self._callbacks: list[Callable[["Future"], None]] = []
        self._label = label

    @property
    def label(self) -> str:
        return label_text(self._label)

    # -- inspection ---------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._state != _PENDING

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def failed(self) -> bool:
        return self._state in (_FAILED, _CANCELLED)

    def result(self) -> Any:
        """Return the value, raising if the future failed or is pending."""
        if self._state == _RESOLVED:
            return self._value
        if self._state == _FAILED:
            raise self._value
        if self._state == _CANCELLED:
            raise CancelledError(self.label or "future cancelled")
        raise SimulationError(f"future {self.label!r} is still pending")

    def exception(self) -> Optional[BaseException]:
        """Return the failure exception, or None if resolved/pending."""
        if self._state == _FAILED:
            return self._value
        if self._state == _CANCELLED:
            return CancelledError(self.label or "future cancelled")
        return None

    # -- resolution -----------------------------------------------------------

    def set_result(self, value: Any = None) -> None:
        if self._state != _PENDING:
            raise SimulationError(f"future {self.label!r} already {self._state}")
        self._state = _RESOLVED
        self._value = value
        self._run_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        if self._state != _PENDING:
            raise SimulationError(f"future {self.label!r} already {self._state}")
        self._state = _FAILED
        self._value = exc
        self._run_callbacks()

    def cancel(self) -> bool:
        """Cancel if still pending.  Returns True if this call cancelled it."""
        if self._state != _PENDING:
            return False
        self._state = _CANCELLED
        self._run_callbacks()
        return True

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Invoke *callback(self)* on resolution (immediately if already done)."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Future({self.label!r}, {self._state})"


def all_done(*futures: Future, label: Label = "") -> Future:
    """A future that resolves (to None) once every one of *futures* has,
    and fails with the first failure among them."""
    combined = Future(label=label)
    remaining = [len(futures)]

    def one_done(future: Future) -> None:
        if combined.done:
            return
        error = future.exception()
        if error is not None:
            combined.set_exception(error)
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            combined.set_result(None)

    for future in futures:
        future.add_done_callback(one_done)
    if not futures:
        combined.set_result(None)
    return combined
