"""Core of the discrete-event simulation kernel.

Time is an integer in arbitrary units (the Cell models use CPU cycles).
Events are scheduled on a binary heap keyed by ``(time, sequence)`` so
simultaneous events fire in a deterministic FIFO order, which keeps every
simulation in this repository reproducible run-to-run.

Hot-path invariants (the trace stream is the oracle — see
docs/MODEL.md):

* every resumption of a process goes through the heap, even when the
  yielded event is already triggered: the fast path uses a lightweight
  :class:`_Relay` instead of a full :class:`Event`, but it occupies the
  exact same heap slot (one ``_schedule`` call, one sequence number) the
  relay event used to, so event ordering is byte-identical;
* ``run()`` without watchdogs executes a tight inlined loop; the
  watchdog variant (``max_events``/``stall_after``) is a separate loop
  so untraced, unwatched runs never pay a per-event guard;
* kernel time is an integer; :class:`Timeout` coerces integral floats
  and rejects non-integral delays outright.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Protocol, runtime_checkable
from collections.abc import Callable, Generator, Iterable

from repro.sim.faults import NULL_FAULTS, FaultEngine
from repro.sim.sanitizer import NULL_SANITIZER, DmaSanitizer
from repro.sim.trace import (
    NULL_TRACE,
    ProcessResume,
    ProcessTerminate,
    TraceRecorder,
)


class SimulationError(RuntimeError):
    """Raised for illegal kernel operations (double trigger, bad yield...)."""


class SimulationStall(SimulationError):
    """The run watchdog fired: the event loop is spinning without the
    clock advancing (livelock) or past its event budget.

    ``blocked`` lists ``(proc_id, name, wait_description)`` for every
    live non-daemon process at the moment the watchdog fired.
    """

    def __init__(self, message: str, blocked: Iterable[tuple] = ()):
        super().__init__(message)
        self.blocked = list(blocked)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_PENDING = object()


@runtime_checkable
class Completion(Protocol):
    """Anything a model can notify when an awaited occurrence fires.

    The reference engine's waiters are :class:`Event` objects; the
    coalescing engine's (:mod:`repro.sim.engine_fast`) are flat actor
    state machines.  Both expose the same ``succeed`` surface, so the
    hardware models' waiter lists (EIB arbitration queue, MFC tag/order
    waiters, memory-bank completions) hold either interchangeably.
    """

    def succeed(self, value: Any = None) -> Any: ...


class Event:
    """A waitable, one-shot occurrence.

    An event starts *pending*; it becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called, at which point it is scheduled and its
    callbacks run at the current simulation time.  Processes wait on an
    event by yielding it.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "__weakref__")

    def __init__(self, env: Environment):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        self._ok: bool | None = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True when the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> Event:
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._sequence = sequence = env._sequence + 1
        heappush(env._queue, (env.now, sequence, self))
        return self

    def fail(self, exception: BaseException) -> Event:
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.  If no
        process ever waits on a failed event the kernel raises it at the
        end of the run instead of passing silently.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        self.env._failed_events.append(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Unlike a plain :class:`Event`, a Timeout schedules itself; it becomes
    *triggered* only when the clock reaches its fire time, so a process
    yielding it really does suspend for ``delay`` units.

    Kernel time is an integer (CPU cycles).  Integral floats (``5.0``)
    are coerced to ``int`` for callers that computed a delay through a
    float expression; a non-integral delay (``5.5``) raises
    :class:`ValueError` — silently truncating it would make run-to-run
    determinism depend on float rounding in model code.
    """

    __slots__ = ("delay", "_payload")

    def __init__(self, env: Environment, delay: int, value: Any = None):
        if type(delay) is not int:
            try:
                coerced = int(delay)
            except (TypeError, ValueError):
                raise TypeError(
                    f"timeout delay must be an integer cycle count, "
                    f"got {delay!r}"
                ) from None
            if coerced != delay:
                raise ValueError(
                    f"non-integral timeout delay {delay!r}: kernel time "
                    f"is an integer cycle count"
                )
            delay = coerced
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__: Timeout construction is the hottest
        # allocation in DMA-bound runs.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.delay = delay
        self._payload = value
        env._sequence = sequence = env._sequence + 1
        heappush(env._queue, (env.now + delay, sequence, self))

    def _run_callbacks(self) -> None:
        self._ok = True
        self._value = self._payload
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class _Relay:
    """A lightweight, pre-decided resume slot for exactly one process.

    Scheduled on the heap wherever the kernel used to schedule a relay
    :class:`Event` (process start, resuming off an already-triggered
    yield target, interrupt delivery), so event ordering is identical to
    the Event-based implementation — without allocating the callbacks
    list and dict a full Event carries.  ``Process._resume`` accepts it
    in place of an Event (it only reads ``_ok``/``_value`` and sets
    ``_defused``).  ``Process.interrupt`` detaches a relay by setting
    ``cancelled``: the heap slot still fires, but resumes nobody.
    """

    __slots__ = ("proc", "_ok", "_value", "_defused", "cancelled")

    def __init__(self, proc: Process, ok: bool, value: Any):
        self.proc = proc
        self._ok = ok
        self._value = value
        self._defused = False
        self.cancelled = False

    def _run_callbacks(self) -> None:
        if not self.cancelled:
            self.proc._resume(self)


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The generator yields events; the process is resumed with the event's
    value (or the event's exception is thrown into it).
    """

    __slots__ = (
        "_generator", "_waiting_on", "proc_id", "name", "daemon",
        "_trace", "_tracing",
    )

    def __init__(self, env: Environment, generator: Generator,
                 daemon: bool = False):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        # Identity is always assigned: the deadlock/stall diagnostics
        # name blocked processes even in untraced runs.
        env._proc_count += 1
        self.proc_id = env._proc_count
        self.name = getattr(generator, "__name__", type(generator).__name__)
        # Daemon processes (service loops that legitimately wait forever,
        # like a memory bank's server) are exempt from the drained-queue
        # deadlock check.
        self.daemon = daemon
        env._live_processes[self.proc_id] = self
        trace = env.trace
        self._trace = trace
        self._tracing = trace.enabled
        # Kick the process off at the current time.  The start relay is
        # tracked in _waiting_on so an interrupt() *before the start
        # fires* detaches it like any other wait target — otherwise the
        # generator would be started normally and later resumed a second
        # time by the stale start callback.
        start = _Relay(self, True, None)
        self._waiting_on: Event | None = start
        env._schedule(start)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        # Detach from whatever we were waiting on so that the original
        # event's later trigger does not resume us twice.  A relay (the
        # start slot, or a resume off an already-triggered target) is
        # cancelled in place; a real event has our callback removed.
        waited = self._waiting_on
        if waited is not None:
            if type(waited) is _Relay:
                waited.cancelled = True
            else:
                try:  # noqa: SIM105 - bare try beats suppress() on this path
                    waited.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._waiting_on = None
        relay = _Relay(self, False, Interrupt(cause))
        relay._defused = True
        self.env._schedule(relay)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        env = self.env
        env._active_process = self
        if self._tracing:
            self._trace.emit(
                ProcessResume(ts=env.now, proc_id=self.proc_id, name=self.name)
            )
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            env._live_processes.pop(self.proc_id, None)
            if self._tracing:
                self._trace.emit(
                    ProcessTerminate(
                        ts=env.now, proc_id=self.proc_id, name=self.name, ok=True
                    )
                )
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            env._live_processes.pop(self.proc_id, None)
            if self._tracing:
                self._trace.emit(
                    ProcessTerminate(
                        ts=env.now, proc_id=self.proc_id, name=self.name, ok=False
                    )
                )
            self.fail(exc)
            return
        env._active_process = None

        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes may only yield Events"
            )
        if target._value is _PENDING:
            self._waiting_on = target
            target.callbacks.append(self._resume)
        else:
            # Already done: resume at the current time via a lightweight
            # relay occupying the same heap slot a relay Event used to,
            # so ordering is unchanged.  The relay is tracked in
            # _waiting_on so interrupt() detaches (cancels) it like any
            # other wait target — otherwise the generator would be
            # resumed twice, once with the Interrupt and once with the
            # stale value.
            relay = _Relay(self, target._ok, target._value)
            if not target._ok:
                target._defused = True
            env._sequence = sequence = env._sequence + 1
            heappush(env._queue, (env.now, sequence, relay))
            self._waiting_on = relay


class _Condition(Event):
    """Base for AllOf / AnyOf."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env: Environment, events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different environments")
        self._pending = sum(1 for e in self._events if not e.triggered)
        for event in self._events:
            if event.triggered:
                self._observe(event, immediate=True)
            else:
                event.callbacks.append(self._observe)
        self._check(initial=True)

    def _observe(self, event: Event, immediate: bool = False) -> None:
        if not immediate:
            self._pending -= 1
        if not event._ok:
            event._defused = True
            if not self.triggered:
                self.fail(event._value)
            return
        if not self.triggered:
            self._check(initial=False)

    def _check(self, initial: bool) -> None:
        raise NotImplementedError

    def _values(self) -> list[Any]:
        return [e._value for e in self._events if e.triggered and e._ok]


class AllOf(_Condition):
    """Succeeds when every component event has succeeded."""

    __slots__ = ()

    def _check(self, initial: bool) -> None:
        if self._pending == 0 and not self.triggered:
            self.succeed(self._values())


class AnyOf(_Condition):
    """Succeeds as soon as any component event succeeds.

    An empty event list succeeds immediately with ``[]``, matching
    ``AllOf([])`` — there is no component left to wait for.
    """

    __slots__ = ()

    def _check(self, initial: bool) -> None:
        if self.triggered:
            return
        if not self._events or any(
            e.triggered and e._ok for e in self._events
        ):
            self.succeed(self._values())


class Environment:
    """The event loop.  ``now`` is the current integer simulation time.

    This is the **reference engine**: one heap slot per occurrence,
    generator processes, byte-identical ordering — the oracle the
    coalescing ``repro.sim.engine_fast.FastEnvironment`` is gated
    against.

    ``trace`` is the tracing sink (:mod:`repro.sim.trace`): the shared
    do-nothing :data:`~repro.sim.trace.NULL_TRACE` by default, or a
    :class:`~repro.sim.trace.TraceRecorder` to capture a structured
    record stream.  Models guard every emit with ``trace.enabled``, so a
    run without a recorder pays nothing.  Attach the recorder at
    construction time: processes and hardware models cache ``env.trace``
    when they are built, so swapping it mid-run has no effect.
    """

    #: Engine identity in reports (subclasses override).
    engine_name = "reference"
    #: True when models should submit coalescible interval descriptions
    #: (flat callback actors) instead of generator processes.
    coalescing = False

    def __init__(
        self,
        initial_time: int = 0,
        trace: TraceRecorder | None = None,
        faults: FaultEngine | None = None,
        sanitizer: DmaSanitizer | None = None,
    ):
        self.now = int(initial_time)
        self.trace = NULL_TRACE if trace is None else trace
        self.faults = NULL_FAULTS if faults is None else faults
        if self.faults.enabled:
            self.faults.bind(self)
        self.sanitizer = NULL_SANITIZER if sanitizer is None else sanitizer
        if self.sanitizer.enabled:
            self.sanitizer.bind(self)
        self._queue: list = []
        self._sequence = 0
        # Heap pops actually executed by the run loops — the engine's
        # cost denominator.  The reference engine models one occurrence
        # per pop, so here popped == modeled; coalescing engines pop
        # fewer events than they model.
        self.events_popped = 0
        self._proc_count = 0
        self._active_process: Process | None = None
        self._failed_events: list[Event] = []
        # proc_id -> live Process, for deadlock/stall diagnostics.
        self._live_processes: dict = {}

    # -- construction helpers -------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, daemon: bool = False) -> Process:
        return Process(self, generator, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------

    def _schedule(self, event: Event, delay: int = 0) -> None:
        self._sequence = sequence = self._sequence + 1
        heappush(self._queue, (self.now + delay, sequence, event))

    def peek(self) -> int | None:
        """Time of the next scheduled event, or None if the queue is empty."""
        if not self._queue:
            return None
        return self._queue[0][0]

    def step(self) -> None:
        """Process a single event."""
        time, _seq, event = heappop(self._queue)
        self.now = time
        self.events_popped += 1
        event._run_callbacks()

    def warp(self, delta: int) -> None:
        """Advance ``now`` and every scheduled event by ``delta`` cycles.

        The steady-state fast-forward hook: a uniform time shift leaves
        every pairwise comparison in the heap unchanged (times move
        together, sequence numbers do not move at all), so the heap
        invariant and the pop order are preserved exactly — the future
        of a shifted schedule is the future of the original schedule,
        shifted.  Callers are responsible for shifting any model state
        that carries absolute times (pacers, wait-start stamps)."""
        if delta < 0:
            raise ValueError(f"warp must be non-negative, got {delta}")
        if not delta:
            return
        self.now += delta
        # Shift in place: the run loop holds a reference to this exact
        # list object across the warp, so rebinding would strand it.
        queue = self._queue
        queue[:] = [
            (time + delta, sequence, item)
            for time, sequence, item in queue
        ]

    def run(
        self,
        until: Any | None = None,
        max_events: int | None = None,
        stall_after: int | None = None,
    ) -> Any:
        """Run until the queue drains, ``until`` time, or ``until`` event.

        Returns the value of the ``until`` event when one is given.

        ``max_events`` caps the total number of events processed;
        exceeding it raises :class:`SimulationStall` (a runaway run).
        ``stall_after`` is the no-progress watchdog: if that many
        consecutive events fire without the clock advancing, the run is
        livelocked and :class:`SimulationStall` is raised with a
        diagnostic naming every blocked process, what each is waiting
        on, and the tail of the trace stream (when tracing).

        When the queue drains with ``until=None`` while non-daemon
        processes are still alive, the run did *not* complete — it
        deadlocked — and :class:`SimulationError` is raised with the
        same blocked-process diagnostic instead of returning ``None``.
        """
        if max_events is not None or stall_after is not None:
            return self._run_watched(until, max_events, stall_after)

        # Unwatched fast path: the heap pop and callback dispatch are
        # inlined (no per-event step() call, no watchdog guard).  Event
        # processing order is identical to the watched loop.
        queue = self._queue
        pop = heappop
        popped = 0
        if isinstance(until, Event):
            stop_event = until
            try:
                while stop_event._value is _PENDING:
                    if not queue:
                        raise SimulationError(
                            "event queue drained before the awaited event fired"
                            + self._blocked_report()
                        )
                    time, _seq, event = pop(queue)
                    self.now = time
                    popped += 1
                    event._run_callbacks()
            finally:
                self.events_popped += popped
            self._raise_orphaned_failures()
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value

        if until is None:
            try:
                while queue:
                    time, _seq, event = pop(queue)
                    self.now = time
                    popped += 1
                    event._run_callbacks()
            finally:
                self.events_popped += popped
            self._raise_orphaned_failures()
            if self._blocked():
                raise SimulationError(
                    "event queue drained with processes still waiting "
                    "(deadlock)" + self._blocked_report(),
                )
            return None

        horizon = int(until)
        try:
            while queue:
                if queue[0][0] > horizon:
                    self.now = horizon
                    break
                time, _seq, event = pop(queue)
                self.now = time
                popped += 1
                event._run_callbacks()
            else:
                self.now = horizon
        finally:
            self.events_popped += popped
        self._raise_orphaned_failures()
        return None

    def _run_watched(
        self,
        until: Any | None,
        max_events: int | None,
        stall_after: int | None,
    ) -> Any:
        """The ``run`` loop with the event-budget / no-progress watchdogs.

        Kept out of :meth:`run` so unwatched runs never pay the per-event
        bookkeeping; processes events in exactly the same order.
        """
        events_processed = 0
        events_at_now = 0
        last_now = self.now

        def tick_watchdogs() -> None:
            nonlocal events_processed, events_at_now, last_now
            events_processed += 1
            if max_events is not None and events_processed > max_events:
                raise SimulationStall(
                    f"simulation exceeded max_events={max_events} "
                    f"(now={self.now})" + self._blocked_report(),
                    blocked=self._blocked(),
                )
            if stall_after is None:
                return
            if self.now != last_now:
                last_now = self.now
                events_at_now = 0
            events_at_now += 1
            if events_at_now > stall_after:
                raise SimulationStall(
                    f"no-progress livelock: {events_at_now} events fired "
                    f"at t={self.now} without the clock advancing"
                    + self._blocked_report() + self._trace_tail(),
                    blocked=self._blocked(),
                )

        if isinstance(until, Event):
            stop_event = until
            while not stop_event.triggered:
                if not self._queue:
                    raise SimulationError(
                        "event queue drained before the awaited event fired"
                        + self._blocked_report()
                    )
                self.step()
                tick_watchdogs()
            self._raise_orphaned_failures()
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value

        horizon = None if until is None else int(until)
        while self._queue:
            if horizon is not None and self._queue[0][0] > horizon:
                self.now = horizon
                break
            self.step()
            tick_watchdogs()
        else:
            if horizon is not None:
                self.now = horizon
        self._raise_orphaned_failures()
        if horizon is None:
            blocked = self._blocked()
            if blocked:
                raise SimulationError(
                    "event queue drained with processes still waiting "
                    "(deadlock)" + self._blocked_report(),
                )
        return None

    def _raise_orphaned_failures(self) -> None:
        for event in self._failed_events:
            if not event._defused:
                self._failed_events = []
                raise event._value
        self._failed_events = []

    # -- diagnostics ----------------------------------------------------------

    def _blocked(self) -> list:
        """(proc_id, name, wait description) per live non-daemon process."""
        return [
            (proc.proc_id, proc.name, _describe_wait(proc._waiting_on))
            for proc in self._live_processes.values()
            if not proc.daemon
        ]

    def _blocked_report(self) -> str:
        blocked = self._blocked()
        if not blocked:
            return ""
        lines = [
            f"  process {proc_id} ({name}) waiting on {wait}"
            for proc_id, name, wait in blocked
        ]
        return "\nblocked processes:\n" + "\n".join(lines)

    def _trace_tail(self, n: int = 10) -> str:
        if not self.trace.enabled:
            return ""
        tail = self.trace.records[-n:]
        if not tail:
            return ""
        return "\ntrace tail:\n" + "\n".join(f"  {record}" for record in tail)


def _describe_wait(event: Event | None) -> str:
    if event is None or type(event) is _Relay:
        return "nothing (scheduled to resume)"
    if isinstance(event, Process):
        return f"process {event.proc_id} ({event.name})"
    if isinstance(event, Timeout):
        return f"timeout(delay={event.delay})"
    return repr(event)


class ProgressGuard:
    """A no-progress counter for unbounded service loops.

    A loop calls :meth:`tick` once per iteration with a *progress key*
    (anything that changes when real work happened — typically
    ``(env.now, items_served)``).  If the key stays identical for more
    than ``limit`` consecutive ticks the loop is spinning on a model bug
    and the guard raises :class:`SimulationStall` with the environment's
    blocked-process diagnostic, instead of spinning the event queue
    forever.
    """

    def __init__(self, env: Environment, name: str, limit: int = 10_000):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.env = env
        self.name = name
        self.limit = limit
        self._last_key: Any = object()
        self._spins = 0

    def tick(self, key: Any) -> None:
        if key != self._last_key:
            self._last_key = key
            self._spins = 0
            return
        self._spins += 1
        if self._spins > self.limit:
            raise SimulationStall(
                f"service loop {self.name!r} made no progress for "
                f"{self._spins} iterations at t={self.env.now}"
                + self.env._blocked_report(),
                blocked=self.env._blocked(),
            )
