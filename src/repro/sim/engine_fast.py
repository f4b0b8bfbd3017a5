"""The coalescing fast engine: flat actor state machines on the heap.

The reference engine (:class:`~repro.sim.core.Environment` driving
generator processes) spends most of a DMA-bound run resuming 4-deep
``yield from`` chains — kernel → intrinsic → MFC → EIB/bank — one full
generator resume per heap pop.  Bandwidth-limited streaming loops are
described exactly by piecewise occupancy intervals (Treibig & Hager),
so a bulk transfer does not need a generator frame per hop: the fast
engine replaces each per-command generator pipeline with a flat
**actor** whose continuation is a plain bound method, re-assigned per
state transition and dispatched straight off the heap.

Equivalence contract (the reference engine is the byte-identical
oracle, gated by ``tests/test_engine_fast.py``):

* every actor occupies exactly the heap slots the generator pipeline
  occupied — same times, same relative order — except for
  *proven-exact* coalescings: no-op pops are elided (process
  terminations, already-granted request events whose pop runs no
  callbacks), adjacent same-pop push pairs (a pre-granted request's
  succeed plus the resume relay) merge into one slot, an actor may
  run a zero-delay hop inline when nothing else is scheduled at the
  current time, an uncontended EIB leg's chunk train collapses to one
  slot (with one known, test-pinned exception: see the whole-leg merge
  in :mod:`repro.cell.mfc`), and an all-tail continuation chain may
  *tail-warp* — advance ``now`` to a strictly-earliest target and run
  inline (see :meth:`FastActor._after`);
* on top of per-slot coalescing, :mod:`repro.sim.fastforward` detects
  a periodic steady state at a kernel anchor and warps whole periods
  in O(1) — heap times shift uniformly, counters advance linearly,
  placement accumulators are replayed bit-exactly;
* model *decisions* share state and code where they can: EIB
  arbitration runs on the bus's one bitmask state, and conflicts wait
  in the same per-flow queues, granted by the same ``Eib._drain``, as
  on the reference engine; the MFC fast paths call ``Mfc._finish``;
  the bank fast paths are line-for-line inlined twins of
  ``MemoryBank._pick`` / ``_plan_service``;
* the fast engine only drives **unobserved** runs: trace, faults,
  sanitizer and watchdog-style observation need per-event resolution,
  so :func:`resolve_engine` silently falls back to the reference engine
  whenever any observer is attached.  ``run_spec`` results are
  therefore contractually identical across engines, which is why the
  persistent result cache key does *not* include the engine.
"""

from __future__ import annotations

import sys
from heapq import heappush
from typing import Any
from collections.abc import Callable

from heapq import heappop

from repro.sim.core import Environment, SimulationError
from repro.sim.fastforward import FastForward
from repro.sim.faults import FaultEngine
from repro.sim.sanitizer import DmaSanitizer
from repro.sim.trace import TraceRecorder

#: The engines a driver may request.
ENGINES = ("reference", "fast")

#: Whether the observer-downgrade warning already fired this process
#: (one line per run, not one per chip — a sweep builds thousands).
_downgrade_warned = False


def resolve_engine(
    engine: str,
    trace: TraceRecorder | None = None,
    faults: FaultEngine | None = None,
    sanitizer: DmaSanitizer | None = None,
) -> str:
    """Validate an engine request and apply the observer-fallback rule.

    The fast engine coalesces occurrences that observers need to see
    one by one, so any attached-and-enabled observer (trace recorder,
    fault engine, DMA sanitizer) downgrades ``fast`` to ``reference``
    for the whole run.  Results are identical either way — the fallback
    only costs speed, never bytes — but it is announced once on stderr
    so nobody mistakes an observed run for a fast-engine benchmark.
    """
    global _downgrade_warned
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "fast":
        for name, observer in (
            ("trace", trace), ("faults", faults), ("sanitizer", sanitizer)
        ):
            if observer is not None and observer.enabled:
                if not _downgrade_warned:
                    _downgrade_warned = True
                    print(
                        "warning: engine 'fast' downgraded to 'reference' "
                        f"because {name} observation is enabled (observers "
                        "need per-event resolution; results are identical, "
                        "only speed differs)",
                        file=sys.stderr,
                    )
                return "reference"
    return engine


class FastActor:
    """Base of every fast-engine state machine.

    ``_run_callbacks`` is an *instance slot* holding the current
    continuation (a bound method), so a heap pop dispatches straight
    into model code — no generator resume, no callback list.  The name
    matches :class:`~repro.sim.core.Event` on purpose: the reference
    run loop drives actors unchanged.
    """

    __slots__ = ("env", "_run_callbacks", "_value")

    def __init__(self, env: FastEnvironment):
        self.env = env
        self._value: Any = None
        self._run_callbacks: Callable[[], None] = self._unscheduled

    def _unscheduled(self) -> None:
        raise SimulationError(f"{type(self).__name__} fired with no continuation")

    def succeed(self, value: Any = None) -> None:
        """:class:`~repro.sim.core.Completion` surface: deliver a value
        and schedule the parked continuation at the current time —
        exactly where the reference engine pushes the waiter's event."""
        self._value = value
        env = self.env
        env._sequence = sequence = env._sequence + 1
        heappush(env._queue, (env.now, sequence, self))

    # -- scheduling helpers (hot path: heappush inlined) ----------------------

    def _after(self, delay: int, continuation: Callable[[], None]) -> None:
        """Run ``continuation`` ``delay`` cycles from now (one heap slot).

        A non-zero delay takes a real heap slot *unless the push site
        qualifies for a tail warp*.  Advancing the clock and inlining
        the continuation is exact only when (a) the slot would be the
        strictly earliest heap entry (``queue[0][0] > target`` — ties
        excluded, because a tied entry with a lower sequence number
        must pop first) and (b) every frame between the run loop's pop
        and the push site is in tail position, so the warped chain
        never returns into a frame that reads the mutated ``now``.
        Sites that satisfy (b) structurally implement the warp inline
        (``FastDmaCommand._mv_done``, the kernel issue/sync delays);
        everything else uses this helper, which never warps.  Only
        zero-delay hops, which leave ``now`` untouched, may be inlined
        without the tail-position proof; see :meth:`_hop`.
        """
        self._run_callbacks = continuation
        env = self.env
        env._sequence = sequence = env._sequence + 1
        heappush(env._queue, (env.now + delay, sequence, self))

    def _park(self, continuation: Callable[[], None]) -> None:
        """Suspend until some waiter list calls :meth:`succeed`."""
        self._run_callbacks = continuation

    def _hop(self, continuation: Callable[[], None]) -> None:
        """A zero-delay hop: occupy one heap slot at the current time.

        When nothing else is scheduled at ``now`` the slot provably
        cannot interleave with anything, so the continuation runs
        inline — same observable order, one pop cheaper.
        """
        env = self.env
        queue = env._queue
        if queue and queue[0][0] == env.now:
            self._run_callbacks = continuation
            env._sequence = sequence = env._sequence + 1
            heappush(queue, (env.now, sequence, self))
        else:
            continuation()


class FastEnvironment(Environment):
    """The coalescing engine: the reference event loop, driving actors.

    Everything of :class:`~repro.sim.core.Environment` still works —
    generator processes, timeouts, resources, the watched and unwatched
    run loops — because actors are popped and dispatched through the
    same ``_run_callbacks()`` call.  What changes is what the *models*
    put on the heap: with ``coalescing`` set, memory banks skip their
    server generators (:meth:`repro.cell.memory.MemoryBank.submit_fast`)
    and kernels run as :class:`repro.core.kernels.FastStreamKernel`
    actors instead of SPU generator programs.
    """

    engine_name = "fast"
    coalescing = True

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        for observer in (self.trace, self.faults, self.sanitizer):
            if observer.enabled:
                raise SimulationError(
                    "the fast engine runs unobserved only; resolve_engine() "
                    "should have fallen back to the reference engine"
                )
        # Registered FastStreamKernel-style actors, for the deadlock
        # diagnostic (actors are not processes, so the base _blocked()
        # cannot see them).
        self._fast_kernels: list[Any] = []
        # Steady-state fast-forward (repro.sim.fastforward): the first
        # registered kernel anchors detection; the run loop checks the
        # pending flag between pops, never inside a callback.
        self._ff_on = True
        self._ff_pending = False
        self._ff: FastForward | None = None

    def register_kernel(self, kernel: Any) -> bool:
        """Track a top-level actor with a ``finished`` flag and ``name``.

        Returns whether this kernel is the fast-forward anchor (the
        first registered one — one anchor per run keeps the fingerprint
        capture cost bounded)."""
        self._fast_kernels.append(kernel)
        return len(self._fast_kernels) == 1

    @property
    def fastforward(self) -> FastForward | None:
        """The fast-forward engine, if any anchor ever fired."""
        return self._ff

    def run(
        self,
        until: Any | None = None,
        max_events: int | None = None,
        stall_after: int | None = None,
    ) -> Any:
        """The unwatched drain loop with the fast-forward check between
        pops; every other mode defers to the reference loop (watched
        runs need per-event resolution, ``until`` runs are bounded and
        not worth warping)."""
        if until is not None or max_events is not None or stall_after is not None:
            return super().run(until, max_events, stall_after)
        queue = self._queue
        pop = heappop
        popped = 0
        try:
            while queue:
                if self._ff_pending:
                    self._ff_pending = False
                    ff = self._ff
                    if ff is None:
                        ff = self._ff = FastForward(self)
                    # Flush the local pop count so the fingerprint
                    # entries record real per-period pop deltas
                    # (events_elided accounting).
                    self.events_popped += popped
                    popped = 0
                    ff.attempt()
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

    def _blocked(self) -> list:
        blocked = super()._blocked()
        for index, kernel in enumerate(self._fast_kernels):
            if not getattr(kernel, "finished", True):
                blocked.append(
                    (
                        -(index + 1),
                        getattr(kernel, "name", type(kernel).__name__),
                        "fast-engine actor still running",
                    )
                )
        return blocked
