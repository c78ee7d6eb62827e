"""Generator-based processes ("green threads") on the virtual clock.

A process body is a plain generator.  It may ``yield``:

- a :class:`~repro.sim.future.Future` -- resume when it resolves (the yield
  expression evaluates to the future's result; failures are thrown in);
- another :class:`Process` -- resume when it finishes (join);
- ``sleep(delay)`` -- resume after *delay* virtual time units;
- ``all_of(f1, f2, ...)`` -- resume when every future resolves, evaluating to
  the list of results (fails fast on the first failure);
- ``any_of(f1, f2, ...)`` -- resume when the first future resolves,
  evaluating to ``(index, result)``.

The process's own completion is observable because :class:`Process` *is* a
:class:`~repro.sim.future.Future`: its result is the generator's return
value, its exception is whatever escaped the generator.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.sim.errors import CancelledError, SimulationError
from repro.sim.future import Future, Label, label_text
from repro.sim.kernel import Simulator


class Sleep:
    """Sentinel yielded by a process to pause for *delay* time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        self.delay = delay


def sleep(delay: float) -> Sleep:
    """Pause the yielding process for *delay* virtual time units."""
    return Sleep(delay)


class AllOf:
    """Sentinel: wait for every future; value is the list of results."""

    __slots__ = ("futures",)

    def __init__(self, futures: Iterable[Future]):
        self.futures = list(futures)


def all_of(*futures: Future) -> AllOf:
    if len(futures) == 1 and not isinstance(futures[0], Future):
        return AllOf(futures[0])  # all_of(iterable) form
    return AllOf(futures)


class AnyOf:
    """Sentinel: wait for the first future; value is ``(index, result)``."""

    __slots__ = ("futures",)

    def __init__(self, futures: Iterable[Future]):
        self.futures = list(futures)


def any_of(*futures: Future) -> AnyOf:
    if len(futures) == 1 and not isinstance(futures[0], Future):
        return AnyOf(futures[0])  # any_of(iterable) form
    return AnyOf(futures)


def _forget_resume_frames(error: BaseException) -> None:
    """Drop ``Process._advance``'s own entry from the head of a traceback.

    An exception that escapes a process body was raised through
    ``_advance``, so its traceback starts at that frame -- whose callers
    (``_throw``, ``Simulator.step``) hold the very exception that was thrown
    in.  That cycle pins every frame up to the script driving the simulator
    until the cyclic collector runs; the frames of the body, the ones a
    reader wants, are kept."""
    traceback = error.__traceback__
    if traceback is not None:
        error.__traceback__ = traceback.tb_next


class Process(Future):
    """A running generator coroutine.  Created via ``spawn``."""

    __slots__ = ("sim", "_generator", "_waiting_on", "_name")

    def __init__(self, sim: Simulator, generator: Generator, name: Label = ""):
        super().__init__(label=name or "process")
        self.sim = sim
        self._name = name
        self._generator = generator
        self._waiting_on: Any = None
        # Start on the next tick so spawn() returns before the body runs.
        sim.post(0.0, self._advance, None)

    @property
    def name(self) -> str:
        return label_text(self._name)

    # -- control ------------------------------------------------------------

    def interrupt(self, exc: BaseException | None = None) -> None:
        """Throw *exc* (default CancelledError) into the process body."""
        if self.done:
            return
        self._detach_wait()
        self.sim.post(
            0.0, self._throw, exc if exc is not None else CancelledError(self.name)
        )

    # -- stepping -------------------------------------------------------------

    def _detach_wait(self) -> None:
        waiting, self._waiting_on = self._waiting_on, None
        if isinstance(waiting, list):
            for timer in waiting:
                timer.cancel()

    def _throw(self, exc: BaseException) -> None:
        self._advance(None, exc)

    def _advance(self, value: Any, exc: BaseException | None = None) -> None:
        if self.done:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                yielded = self._generator.throw(exc)
            else:
                yielded = self._generator.send(value)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        except CancelledError as cancelled:
            _forget_resume_frames(cancelled)
            if not self.done:
                self.cancel()
            return
        except BaseException as error:
            _forget_resume_frames(error)
            self.set_exception(error)
            return
        self._wait_for(yielded)

    def _wait_for(self, yielded: Any) -> None:
        if isinstance(yielded, Sleep):
            timer = self.sim.schedule(yielded.delay, self._advance, None)
            self._waiting_on = [timer]
        elif isinstance(yielded, Future):
            yielded.add_done_callback(self._on_future_done)
        elif isinstance(yielded, AllOf):
            self._wait_all(yielded.futures)
        elif isinstance(yielded, AnyOf):
            self._wait_any(yielded.futures)
        else:
            self._advance(
                None,
                SimulationError(
                    f"process {self.name!r} yielded unexpected {yielded!r}"
                ),
            )

    def _on_future_done(self, future: Future) -> None:
        if self.done:
            return
        error = future.exception()
        if error is not None:
            self.sim.post(0.0, self._throw, error)
        else:
            self.sim.post(0.0, self._advance, future.result())

    def _wait_all(self, futures: list[Future]) -> None:
        if not futures:
            self.sim.post(0.0, self._advance, [])
            return
        pending = {"count": len(futures), "fired": False}

        def on_done(_future: Future) -> None:
            if pending["fired"] or self.done:
                return
            error = _future.exception()
            if error is not None:
                pending["fired"] = True
                self.sim.post(0.0, self._throw, error)
                return
            pending["count"] -= 1
            if pending["count"] == 0:
                pending["fired"] = True
                results = [f.result() for f in futures]
                self.sim.post(0.0, self._advance, results)

        for future in futures:
            future.add_done_callback(on_done)

    def _wait_any(self, futures: list[Future]) -> None:
        if not futures:
            self._advance(None, SimulationError("any_of() of no futures"))
            return
        fired = {"done": False}

        def on_done(index: int, _future: Future) -> None:
            if fired["done"] or self.done:
                return
            fired["done"] = True
            error = _future.exception()
            if error is not None:
                self.sim.post(0.0, self._throw, error)
            else:
                self.sim.post(0.0, self._advance, (index, _future.result()))

        for index, future in enumerate(futures):
            future.add_done_callback(lambda f, i=index: on_done(i, f))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, done={self.done})"


def spawn(sim: Simulator, generator: Generator, name: Label = "") -> Process:
    """Start *generator* as a process on *sim*; returns its Process/Future."""
    return Process(sim, generator, name=name)
