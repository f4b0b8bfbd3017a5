"""The Memory Flow Controller: one DMA engine per SPE.

The MFC owns a 16-entry command queue.  Commands complete out of order;
the SPU observes completion through *tag groups* (32 tags; a command
joins one group, and the SPU can wait until a set of groups has no
outstanding commands).  Everything the paper's programming rules touch is
modelled:

* queue-full back-pressure (an ``enqueue`` blocks when 16 commands are in
  flight — which is why delaying synchronisation matters: it keeps the
  queue saturated);
* DMA-elem vs DMA-list (a list occupies a single queue slot and the MFC
  streams its elements with a small internal gap, so list bandwidth is
  flat down to 128 B elements);
* the outstanding-transaction window towards main memory that caps a
  single SPE at ~10 GB/s aggregate regardless of direction;
* the sub-128 B penalty.

The MFC does not know about experiment policy (sync-every-k, unrolling):
that lives in the SPU program (:mod:`repro.libspe`).
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush
from collections.abc import Generator, Iterable
from typing import Any

from repro.cell.dma import (
    DmaCommand,
    DmaDirection,
    DmaList,
    EFFICIENT_MIN_BYTES,
    TargetKind,
    coalesce_bursts,
    uniform_bursts,
)
from repro.cell.errors import CellError
from repro.cell.memory import READ, WRITE
from repro.sim import AllOf, Environment, Event, Resource
from repro.sim.core import Completion
from repro.sim.engine_fast import FastActor
from repro.sim.trace import MfcComplete, MfcEnqueue, MfcIssue


class _FastSlots:
    """MFC queue-slot accounting for the coalescing engine.

    The reference engine's :class:`~repro.sim.resources.Resource` makes
    a slot grant cost two heap slots (the request's succeed plus the
    resume relay); those are an adjacent same-time pair, so the fast
    path merges them into the single ``_after(0, ...)`` hop its caller
    schedules.  A queue-full wait costs one slot at release in both
    engines: :meth:`release` wakes the oldest waiter directly.
    """

    __slots__ = ("capacity", "count", "queue")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.count = 0
        self.queue: deque[Completion] = deque()

    def release(self, request=None) -> None:
        """Free a slot, handing it straight to the oldest waiter —
        signature-compatible with Resource.release for Mfc._finish."""
        if self.queue:
            self.queue.popleft().succeed()
        else:
            self.count -= 1


class Mfc:
    """The DMA engine of one SPE (identified by its physical node name)."""

    def __init__(self, env: Environment, node: str, chip: CellChip):
        self.env = env
        self.node = node
        self.chip = chip
        self.config = chip.config
        self._slots = Resource(env, capacity=self.config.mfc.queue_depth)
        # The PPE-visible proxy command queue is shallower (8 entries).
        self._proxy_slots = Resource(env, capacity=8)
        self._outstanding: dict[int, int] = {tag: 0 for tag in range(32)}
        # Reference waiters are Events; fast-engine waiters are actors.
        self._tag_waiters: list[tuple[Completion, tuple[int, ...]]] = []
        # Ordering state for fenced/barriered commands.
        self._tag_enqueued: dict[int, int] = {tag: 0 for tag in range(32)}
        self._tag_completed: dict[int, int] = {tag: 0 for tag in range(32)}
        self._total_enqueued = 0
        self._total_completed = 0
        self._order_waiters: list[tuple[Event, int | None, int]] = []
        # Next cycle at which the memory path can dispatch another byte.
        self._memory_path_free_at = 0
        self.commands_completed = 0
        self.bytes_transferred = 0
        # Monotonic command id for the trace stream (deterministic).
        self._cmd_seq = 0
        self._trace = env.trace
        self._tracing = env.trace.enabled
        # Fault injection (repro.sim.faults); cached guard keeps the
        # no-fault path to one branch per command.
        self._faults = env.faults
        self._faulting = env.faults.enabled
        # DMA hazard sanitizer (repro.sim.sanitizer); same cached-guard
        # pattern, and the sanitizer is a pure observer, so enabling it
        # cannot perturb the event stream.
        self._sanitizer = env.sanitizer
        self._sanitizing = env.sanitizer.enabled
        # Dropped (injected-fault) commands parked per tag, waiting for
        # the SPU program to re-drive them.
        self._parked: dict[int, list[Event]] = {}
        self.commands_redriven = 0
        if env.coalescing:
            # Fast-engine state: slot accounting plus the config scalars
            # the per-chunk hot path reads (attribute chains through the
            # config dataclasses are measurable at millions of chunks).
            self._fast_slots: _FastSlots | None = _FastSlots(
                self.config.mfc.queue_depth
            )
            self._fast_quantum = self.config.eib.grant_quantum_bytes
            self._fast_arbitration = self.config.eib.arbitration_cycles
            self._fast_completion = self.config.mfc.completion_cycles
            self._fast_elem_cycles = self.config.mfc.list_element_cycles
            self._fast_small_penalty = self.config.mfc.small_transfer_penalty_cycles
            self._fast_mem_rate = self.config.mfc.memory_path_bytes_per_cpu_cycle
            self._fast_inflight_limit = self.config.mfc.list_inflight_limit
            # Direct bus/memory handles (built before the SPEs) and the
            # memoised memory-path occupancy per transfer size.
            self._fast_eib = chip.eib
            self._fast_memory = chip.memory
            self._fast_mem_cycles: dict[int, int] = {}
            # Retired FastDmaCommand shells for reuse: a finished
            # command is fully dead (no heap entry, no waiter list holds
            # it), so the next issue restarts it instead of allocating.
            self._fast_pool: list[FastDmaCommand] = []
        else:
            self._fast_slots = None

    # -- SPU-facing API ----------------------------------------------------------

    def enqueue(self, command: DmaCommand | DmaList) -> Generator[Event, object, None]:
        """Put a command (DmaCommand or DmaList) in the queue.

        A sub-generator (``yield from``): it returns as soon as the
        command occupies a queue slot, blocking only when all slots are
        full.  The transfer itself proceeds asynchronously.
        """
        if not isinstance(command, (DmaCommand, DmaList)):
            raise CellError(f"cannot enqueue {command!r}")
        slot = self._slots.request()
        yield slot
        ordering = self._ordering_threshold(command)
        self._register_enqueue(command)
        cmd_id = (
            self._trace_enqueue(command, self._slots)
            if self._tracing
            else 0
        )
        # Executors are daemons: a command parked by an injected drop may
        # never resume (when its SPU died before re-driving it), and that
        # must not read as a scheduler deadlock at end of run — the
        # blocked SPU process itself is what the diagnostics should name.
        if isinstance(command, DmaCommand):
            self.env.process(
                self._execute_command(
                    command, slot, self._slots, ordering, cmd_id, self.env.now
                ),
                daemon=True,
            )
        else:
            self.env.process(
                self._execute_list(command, slot, cmd_id, self.env.now),
                daemon=True,
            )

    def proxy_enqueue(self, command: DmaCommand) -> Event:
        """PPE-initiated (proxy) DMA through the MFC's MMIO registers.

        The proxy queue is 8 deep and needs no SPU involvement; the
        returned event fires when the transfer completes.  This is how
        the PPE stages data into an SPE before starting its program.
        """
        if not isinstance(command, DmaCommand):
            raise CellError("the proxy queue takes single commands only")
        done = self.env.event()
        self.env.process(self._proxy_process(command, done))
        return done

    def _proxy_process(self, command: DmaCommand, done: Event):
        slot = self._proxy_slots.request()
        yield slot
        ordering = self._ordering_threshold(command)
        self._register_enqueue(command)
        cmd_id = (
            self._trace_enqueue(command, self._proxy_slots)
            if self._tracing
            else 0
        )
        yield self.env.process(
            self._execute_command(
                command, slot, self._proxy_slots, ordering, cmd_id, self.env.now
            )
        )
        done.succeed()

    def _trace_enqueue(self, command, slots: Resource) -> int:
        """Assign the command's trace id and record its enqueue.
        Only called when a recorder is attached."""
        self._cmd_seq += 1
        self._trace.emit(
            MfcEnqueue(
                ts=self.env.now,
                node=self.node,
                cmd_id=self._cmd_seq,
                tag=command.tag,
                nbytes=command.size,
                is_list=isinstance(command, DmaList),
                queue_depth=slots.count,
            )
        )
        return self._cmd_seq

    def outstanding(self, tag: int) -> int:
        """Commands of a tag group still in flight."""
        return self._outstanding[tag]

    def tag_group_quiet(self, tags: Iterable[int]) -> Event:
        """Event that fires when every listed tag group is empty —
        the model's ``mfc_read_tag_status_all``."""
        tags = tuple(tags)
        for tag in tags:
            if tag not in self._outstanding:
                raise CellError(f"unknown tag group {tag}")
        event = self.env.event()
        if all(self._outstanding[tag] == 0 for tag in tags):
            event.succeed()
            return event
        self._tag_waiters.append((event, tags))
        return event

    def redrive(self, tags: Iterable[int]) -> int:
        """Restart the parked (dropped) commands of the listed tag
        groups — the model's MFC command re-drive after a transfer was
        lost.  Returns how many commands were restarted."""
        restarted = 0
        for tag in tags:
            parked = self._parked.pop(tag, None)
            if not parked:
                continue
            for resume in parked:
                resume.succeed()
                restarted += 1
        self.commands_redriven += restarted
        return restarted

    def parked_commands(self, tags: Iterable[int] | None = None) -> int:
        """Dropped commands currently waiting for a re-drive."""
        if tags is None:
            return sum(len(parked) for parked in self._parked.values())
        return sum(len(self._parked.get(tag, ())) for tag in tags)

    @property
    def queue_free_slots(self) -> int:
        if self._fast_slots is not None:
            return self.config.mfc.queue_depth - self._fast_slots.count
        return self.config.mfc.queue_depth - self._slots.count

    # -- ordering (fence / barrier) ------------------------------------------------

    def _ordering_threshold(self, command) -> tuple[int | None, int] | None:
        """(tag-or-None, completion count to wait for), or None."""
        if isinstance(command, DmaCommand) and command.barrier:
            return (None, self._total_enqueued)
        if isinstance(command, DmaCommand) and command.fence:
            return (command.tag, self._tag_enqueued[command.tag])
        return None

    def _register_enqueue(self, command) -> None:
        self._tag_enqueued[command.tag] += 1
        self._total_enqueued += 1
        self._outstanding[command.tag] += 1
        if self._sanitizing:
            self._sanitizer.command_enqueued(self.node, command)

    def _ordering_satisfied(self, tag: int | None, threshold: int) -> bool:
        if tag is None:
            return self._total_completed >= threshold
        return self._tag_completed[tag] >= threshold

    def _wait_ordering(self, ordering: tuple[int | None, int] | None):
        if ordering is None:
            return
        tag, threshold = ordering
        if self._ordering_satisfied(tag, threshold):
            return
        event = self.env.event()
        self._order_waiters.append((event, tag, threshold))
        yield event

    # -- command execution -------------------------------------------------------

    def _execute_command(
        self,
        command: DmaCommand,
        slot,
        slots: Resource,
        ordering: tuple[int | None, int] | None = None,
        cmd_id: int = 0,
        enqueued_at: int = 0,
    ):
        yield from self._wait_ordering(ordering)
        if self._faulting:
            yield from self._inject_faults(command.tag)
        issued_at = self.env.now
        if self._tracing:
            self._trace.emit(
                MfcIssue(
                    ts=issued_at,
                    node=self.node,
                    cmd_id=cmd_id,
                    tag=command.tag,
                    nbytes=command.size,
                )
            )
        yield from self._move(
            direction=command.direction,
            target=command.target,
            remote_node=command.remote_node,
            nbytes=command.size,
        )
        yield self.env.timeout(self.config.mfc.completion_cycles)
        self._finish(command, slot, slots)
        if self._tracing:
            self._trace.emit(
                MfcComplete(
                    ts=self.env.now,
                    node=self.node,
                    cmd_id=cmd_id,
                    tag=command.tag,
                    nbytes=command.size,
                    enqueued_at=enqueued_at,
                    issued_at=issued_at,
                )
            )

    def _execute_list(self, dma_list: DmaList, slot, cmd_id: int = 0,
                      enqueued_at: int = 0):
        """Stream the list's elements.

        The MFC fetches list elements back-to-back and feeds the bus a
        continuous packet stream, so consecutive elements coalesce into
        bus bursts of up to one grant quantum: this is why DMA-list
        bandwidth is flat across element sizes where DMA-elem pays a
        per-command issue cost.  Element fetch time is still charged per
        element, and burst concurrency is bounded by the MFC's internal
        buffering.
        """
        if self._faulting:
            yield from self._inject_faults(dma_list.tag)
        inflight = Resource(self.env, capacity=self.config.mfc.list_inflight_limit)
        issued_at = self.env.now
        if self._tracing:
            self._trace.emit(
                MfcIssue(
                    ts=issued_at,
                    node=self.node,
                    cmd_id=cmd_id,
                    tag=dma_list.tag,
                    nbytes=dma_list.size,
                )
            )
        pending: list[Event] = []
        for n_elements, nbytes in self._list_bursts(dma_list.elements):
            yield self.env.timeout(self.config.mfc.list_element_cycles * n_elements)
            token = inflight.request()
            yield token
            done = self.env.event()
            self.env.process(
                self._list_burst(dma_list, nbytes, inflight, token, done),
                daemon=True,
            )
            pending.append(done)
        if pending:
            yield AllOf(self.env, pending)
        yield self.env.timeout(self.config.mfc.completion_cycles)
        self._finish(dma_list, slot, self._slots)
        if self._tracing:
            self._trace.emit(
                MfcComplete(
                    ts=self.env.now,
                    node=self.node,
                    cmd_id=cmd_id,
                    tag=dma_list.tag,
                    nbytes=dma_list.size,
                    enqueued_at=enqueued_at,
                    issued_at=issued_at,
                )
            )

    def _inject_faults(self, tag: int):
        """Fault probes on the issue path (only reached when an engine
        is attached): an injected stall delays the command; an injected
        drop parks it until :meth:`redrive` — the SPU side notices via a
        tag-group timeout and re-drives (see ``SpuRuntime.wait_tags``)."""
        stall = self._faults.mfc_stall_cycles(self.node)
        if stall:
            yield self.env.timeout(stall)
        if self._faults.mfc_dropped(self.node):
            resume = self.env.event()
            self._parked.setdefault(tag, []).append(resume)
            yield resume

    def _list_bursts(self, elements) -> list[tuple[int, int]]:
        """Coalesce consecutive list elements into (count, bytes) bursts
        of at most one EIB grant quantum each."""
        return coalesce_bursts(
            (element.size for element in elements),
            self.config.eib.grant_quantum_bytes,
        )

    def _list_burst(
        self,
        dma_list: DmaList,
        nbytes: int,
        inflight: Resource,
        token,
        done: Event,
    ):
        yield from self._move(
            direction=dma_list.direction,
            target=dma_list.target,
            remote_node=dma_list.remote_node,
            nbytes=nbytes,
        )
        inflight.release(token)
        done.succeed()

    def _move(
        self,
        direction: DmaDirection,
        target: TargetKind,
        remote_node,
        nbytes: int,
    ):
        """The data movement common to commands and list elements."""
        if nbytes < EFFICIENT_MIN_BYTES:
            yield self.env.timeout(self.config.mfc.small_transfer_penalty_cycles)
        if target is TargetKind.MAIN_MEMORY:
            yield from self._pace_memory_path(nbytes)
            bank = self.chip.memory.assign_bank(self.node)
            if direction is DmaDirection.GET:
                yield self.chip.memory.read(self.node, nbytes, bank)
                yield from self.chip.eib.transfer(bank.node, self.node, nbytes)
            else:
                yield from self.chip.eib.transfer(self.node, bank.node, nbytes)
                yield self.chip.memory.write(self.node, nbytes, bank)
        else:
            if remote_node == self.node:
                raise CellError("LS-to-LS DMA with itself")
            if direction is DmaDirection.GET:
                yield from self.chip.eib.transfer(remote_node, self.node, nbytes)
            else:
                yield from self.chip.eib.transfer(self.node, remote_node, nbytes)
        self.bytes_transferred += nbytes

    def _pace_memory_path(self, nbytes: int):
        """Outstanding-transaction window to main memory, expressed as a
        dispatch pacer: a single MFC cannot push more than ~10 GB/s of
        GET+PUT traffic at memory no matter how many commands it queues."""
        rate = self.config.mfc.memory_path_bytes_per_cpu_cycle
        start = max(self.env.now, self._memory_path_free_at)
        self._memory_path_free_at = start + math.ceil(nbytes / rate)
        if start > self.env.now:
            yield self.env.timeout(start - self.env.now)

    def _finish(self, command, slot, slots: Resource) -> None:
        slots.release(slot)
        self._outstanding[command.tag] -= 1
        if self._outstanding[command.tag] < 0:
            raise CellError(f"tag group {command.tag} under-run")
        self._tag_completed[command.tag] += 1
        self._total_completed += 1
        self.commands_completed += 1
        if self._sanitizing:
            self._sanitizer.command_completed(self.node, command)
        self._wake_tag_waiters()
        self._wake_order_waiters()

    def _finish_fast(self, command) -> None:
        """:meth:`_finish` for the coalescing engine, with the slot
        hand-off relay run inline when provably safe.

        The reference releases the queue slot first, but the release
        only *pushes* the woken kernel's relay — nothing in the rest of
        ``_finish`` reads or writes slot state, so moving the hand-off
        to the tail is exact.  There, when nothing else shares the tick,
        the woken kernel runs inline: it still precedes any tag-waiter
        wakes this finish pushed (the reference relay carries a smaller
        sequence number than those wakes), and every push it makes lands
        after theirs, exactly as when it is popped off the heap.  The
        sanitizer branch of ``_finish`` is dropped: the fast engine
        never runs with an observer attached (resolve_engine).
        """
        slots = self._fast_slots
        env = self.env
        queue = env._queue
        if slots.queue and not (queue and queue[0][0] == env.now):
            tag = command.tag
            outstanding = self._outstanding
            outstanding[tag] -= 1
            if outstanding[tag] < 0:
                raise CellError(f"tag group {tag} under-run")
            self._tag_completed[tag] += 1
            self._total_completed += 1
            self.commands_completed += 1
            if self._tag_waiters:
                self._wake_tag_waiters()
            if self._order_waiters:
                self._wake_order_waiters()
            waiter: Any = slots.queue.popleft()
            waiter._run_callbacks()
        else:
            self._finish(command, None, slots)

    def _wake_tag_waiters(self) -> None:
        if not self._tag_waiters:
            return
        still_waiting = []
        for event, tags in self._tag_waiters:
            if all(self._outstanding[tag] == 0 for tag in tags):
                event.succeed()
            else:
                still_waiting.append((event, tags))
        self._tag_waiters = still_waiting

    def _wake_order_waiters(self) -> None:
        if not self._order_waiters:
            return
        still_waiting = []
        for event, tag, threshold in self._order_waiters:
            if self._ordering_satisfied(tag, threshold):
                event.succeed()
            else:
                still_waiting.append((event, tag, threshold))
        self._order_waiters = still_waiting


# -- coalescing-engine command machines ------------------------------------------
#
# Flat-actor twins of _execute_command / _execute_list / _move /
# Eib.transfer.  Each state method corresponds to one resume point of the
# reference generators; every _after/_park/succeed below occupies exactly
# the heap slot its generator counterpart occupied (modulo the three
# proven-exact coalescings documented in repro.sim.engine_fast).  The
# machines never see fences, barriers, faults, tracing or the sanitizer:
# the fast kernels issue none of the former, and resolve_engine falls
# back to the reference engine when any observer is attached.


class _FastMover(FastActor):
    """The data-movement states shared by commands and list bursts:
    Mfc._move (small-transfer penalty, memory-path pacing, bank service)
    fused with Eib.transfer's chunk/arbitrate/hold loop.

    The EIB leg runs off the bus's memoised leg record (`Eib.fast_leg`:
    the flow's candidate paths and port bits plus the chunk schedule of
    `Eib.transfer`) and probes, commits and releases the bus's one
    bitmask arbitration state inline, without the reference engine's
    ring monitors and trace records.  Conflicts wait in the same per-flow
    queues and are granted by the same `Eib._drain` as the reference
    engine's, so the grant *decisions* and their order are identical."""

    __slots__ = (
        "mfc",
        "_mv_direction",
        "_mv_target",
        "_mv_remote",
        "_mv_after",
        "_mv_bank",
        # MemoryRequest-shaped attributes: the mover submits *itself* to
        # MemoryBank.submit_fast, so no per-command request allocation.
        # `direction` here is the bank direction (READ/WRITE string), set
        # just before each submit; the DMA direction is `_mv_direction`.
        "nbytes",
        "requester",
        "direction",
        "done",
        "_eib",
        "_eib_src",
        "_eib_dst",
        "_eib_after",
        "_eib_flow",
        "_eib_plan",
        "_eib_choices",
        "_eib_srcbit",
        "_eib_dstbit",
        "_eib_nsrc",
        "_eib_ndst",
        "_eib_i",
        "_eib_ri",
        "_eib_notmask",
        "_eib_wait_started",
    )

    # -- Mfc._move ---------------------------------------------------------------

    def _move_begin(self) -> None:
        # _mv_paced and MemorySystem.assign_bank fused into the entry
        # state: the common large-transfer path reaches the bank submit
        # or the EIB leg without an intermediate frame.
        mfc = self.mfc
        if self.nbytes < EFFICIENT_MIN_BYTES:
            self._after(mfc._fast_small_penalty, self._mv_paced)
            return
        if self._mv_target is TargetKind.MAIN_MEMORY:
            nbytes = self.nbytes
            cycles = mfc._fast_mem_cycles.get(nbytes)
            if cycles is None:
                cycles = math.ceil(nbytes / mfc._fast_mem_rate)
                mfc._fast_mem_cycles[nbytes] = cycles
            env = self.env
            now = env.now
            free = mfc._memory_path_free_at
            if free > now:
                mfc._memory_path_free_at = free + cycles
                # _after inlined.
                self._run_callbacks = self._mv_route
                env._sequence = sequence = env._sequence + 1
                heappush(env._queue, (free, sequence, self))
                return
            mfc._memory_path_free_at = now + cycles
            # _mv_route fused: the pacer granted dispatch immediately.
            # assign_bank (Bresenham first-touch placement), inlined —
            # including its per-requester call count, which fast-forward
            # replays (repro.sim.fastforward).
            memory = mfc._fast_memory
            node = mfc.node
            calls = memory._placement_calls
            calls[node] = calls.get(node, 0) + 1
            fraction = memory._placement_fraction
            acc = (
                memory._placement_accumulator.get(node, 1.0 - fraction)
                + fraction
            )
            if acc >= 1.0 - 1e-12:
                acc -= 1.0
                bank = memory.local_bank
            else:
                bank = memory.remote_bank
            memory._placement_accumulator[node] = acc
            self._mv_bank = bank
            if self._mv_direction is DmaDirection.GET:
                self.direction = READ
                self._run_callbacks = self._mv_read_done
                bank.submit_fast(self)
            else:
                self._eib_begin(mfc.node, bank.node, self._mv_put_bank)
        else:
            if self._mv_remote == mfc.node:
                raise CellError("LS-to-LS DMA with itself")
            if self._mv_direction is DmaDirection.GET:
                self._eib_begin(self._mv_remote, mfc.node, self._mv_done)
            else:
                self._eib_begin(mfc.node, self._mv_remote, self._mv_done)

    def _mv_paced(self) -> None:
        mfc = self.mfc
        if self._mv_target is TargetKind.MAIN_MEMORY:
            nbytes = self.nbytes
            cycles = mfc._fast_mem_cycles.get(nbytes)
            if cycles is None:
                cycles = math.ceil(nbytes / mfc._fast_mem_rate)
                mfc._fast_mem_cycles[nbytes] = cycles
            now = self.env.now
            free = mfc._memory_path_free_at
            if free > now:
                mfc._memory_path_free_at = free + cycles
                self._after(free - now, self._mv_route)
                return
            mfc._memory_path_free_at = now + cycles
            self._mv_route()
        else:
            if self._mv_remote == mfc.node:
                raise CellError("LS-to-LS DMA with itself")
            if self._mv_direction is DmaDirection.GET:
                self._eib_begin(self._mv_remote, mfc.node, self._mv_done)
            else:
                self._eib_begin(mfc.node, self._mv_remote, self._mv_done)

    def _mv_route(self) -> None:
        mfc = self.mfc
        bank = mfc._fast_memory.assign_bank(mfc.node)
        self._mv_bank = bank
        if self._mv_direction is DmaDirection.GET:
            self.direction = READ
            self._park(self._mv_read_done)
            bank.submit_fast(self)
        else:
            self._eib_begin(mfc.node, bank.node, self._mv_put_bank)

    def _mv_read_done(self) -> None:
        self._eib_begin(self._mv_bank.node, self.mfc.node, self._mv_done)

    def _mv_put_bank(self) -> None:
        self.direction = WRITE
        self._park(self._mv_done)
        self._mv_bank.submit_fast(self)

    def _mv_done(self) -> None:
        self.mfc.bytes_transferred += self.nbytes
        self._mv_after()

    # -- Eib.transfer ------------------------------------------------------------

    def _eib_begin(self, src: str, dst: str, after) -> None:
        self._eib_src = src
        self._eib_dst = dst
        self._eib_after = after
        eib = self._eib
        key = (src, dst, self.nbytes)
        leg = eib._legs.get(key)
        if leg is None:
            leg = eib.fast_leg(src, dst, self.nbytes)
        (
            self._eib_choices,
            self._eib_srcbit,
            self._eib_nsrc,
            self._eib_dstbit,
            self._eib_ndst,
            self._eib_plan,
            self._eib_flow,
        ) = leg
        self._eib_i = 0
        self._eib_chunk()

    def _eib_chunk(self) -> None:
        eib = self._eib
        eib.grants += 1
        srcbit = self._eib_srcbit
        dstbit = self._eib_dstbit
        # Eib._try_grant inlined: the port probe is one AND per side,
        # the ring probe one AND per candidate.
        if not (eib._out & srcbit | eib._in & dstbit):
            occ = eib._occ
            nact = eib._nact
            maxt = eib._max_transfers
            for ri, mask, notmask, latency, _spans in self._eib_choices:
                if nact[ri] < maxt and not occ[ri] & mask:
                    # Eib._commit, minus its check, occupancy monitor
                    # and trace record (reference-engine observability).
                    occ[ri] |= mask
                    nact[ri] += 1
                    eib._out |= srcbit
                    eib._in |= dstbit
                    self._eib_ri = ri
                    self._eib_notmask = notmask
                    # Hold the path for hop latency + chunk cycles (the
                    # chunk cycles include the fixed arbitration cost).
                    plan = self._eib_plan
                    i = self._eib_i
                    hold = latency + plan[i]
                    env = self.env
                    queue = env._queue
                    n = len(plan)
                    if i + 1 < n and not eib._heads:
                        # Whole-leg merge: when no flow is queued and no
                        # event fires strictly before this leg's last
                        # chunk would end, the reference's remaining
                        # boundary pops are pure release/regrant
                        # round-trips — no contender can arrive (every
                        # arrival needs a pop, and the next pop is at or
                        # after the merged end), the ring states other
                        # than ours are untouched, so each regrant picks
                        # this same ring and pays this same latency.
                        # Ties at the merged end still pop before our
                        # hold-end event in both engines (smaller
                        # sequence numbers).  Only the grant counter
                        # needs the skipped chunks added back.
                        # Known gap: "every arrival needs a pop" fails
                        # when this mover was started inline from a
                        # kernel frame, whose remaining same-pop work
                        # can issue the next command inside the merged
                        # span (a heap push or a tail-warp).  The
                        # divergent cases are strict xfails in
                        # tests/test_engine_fast.py (WHOLE_LEG_MERGE).
                        total = hold
                        for j in range(i + 1, n):
                            total += latency + plan[j]
                        if not queue or queue[0][0] >= env.now + total:
                            eib.grants += n - i - 1
                            self._eib_i = n - 1
                            self._run_callbacks = self._eib_chunk_done
                            env._sequence = sequence = env._sequence + 1
                            heappush(
                                queue, (env.now + total, sequence, self)
                            )
                            return
                    self._run_callbacks = self._eib_chunk_done
                    env._sequence = sequence = env._sequence + 1
                    heappush(queue, (env.now + hold, sequence, self))
                    return
        eib.conflicts += 1
        eib._enqueue(self._eib_flow, self)
        self._eib_wait_started = self.env.now
        self._park(self._eib_granted)

    def _eib_granted(self) -> None:
        # Committed for us by Eib._drain; unpack the grant.
        eib = self._eib
        env = self.env
        eib.wait_cycles += env.now - self._eib_wait_started
        ri, notmask, latency, penalty = self._value
        self._eib_ri = ri
        self._eib_notmask = notmask
        self._after(
            penalty + latency + self._eib_plan[self._eib_i],
            self._eib_chunk_done,
        )

    def _eib_chunk_done(self) -> None:
        eib = self._eib
        # Eib._release, minus its monitor and trace record.
        ri = self._eib_ri
        eib._occ[ri] &= self._eib_notmask
        eib._nact[ri] -= 1
        eib._out &= self._eib_nsrc
        eib._in &= self._eib_ndst
        if eib._heads:
            eib._drain()
        i = self._eib_i + 1
        if i < len(self._eib_plan):
            self._eib_i = i
            self._eib_chunk()
        else:
            eib.bytes_moved += self.nbytes
            self._eib_after()


class FastDmaCommand(_FastMover):
    """Flat twin of _execute_command for a plain (unordered) command.

    Carries ``tag`` because that is all _register_enqueue and _finish
    read from a command when no sanitizer is attached."""

    __slots__ = ("tag",)

    def __init__(self, env, mfc: Mfc, direction, target, remote_node, nbytes, tag):
        self.env = env
        self._value = None
        self.mfc = mfc
        self._eib = mfc._fast_eib
        self.tag = tag
        self._mv_direction = direction
        self._mv_target = target
        self._mv_remote = remote_node
        self.nbytes = nbytes
        self.requester = mfc.node
        self.done = self
        # No _mv_after: this class fuses it into its _mv_done override.
        # The executor's start relay, inlined when nothing else shares
        # the tick (nothing the move touches is read by the issuing
        # kernel's remaining same-pop work, and the chain always parks
        # or schedules ahead before completing).
        queue = env._queue
        if queue and queue[0][0] == env.now:
            self._run_callbacks = self._move_begin
            env._sequence = sequence = env._sequence + 1
            heappush(queue, (env.now, sequence, self))
        else:
            self._move_begin()

    def _mv_done(self) -> None:
        # The base _mv_done plus the completion-latency slot, fused.
        mfc = self.mfc
        mfc.bytes_transferred += self.nbytes
        env = self.env
        queue = env._queue
        target = env.now + mfc._fast_completion
        if not queue or queue[0][0] > target:
            # Tail-warp: this push would be the strictly earliest event
            # (no tie possible), and every frame between the heap pop
            # and here is in tail position (_eib_chunk_done ends with
            # _eib_after(); MemoryBank._fast_complete ends with the
            # requester's continuation), so advancing the clock and
            # completing inline is indistinguishable from popping the
            # slot — the run loop reassigns ``now`` on the next pop and
            # reads nothing else.
            env.now = target
            self._complete()
        else:
            self._run_callbacks = self._complete
            env._sequence = sequence = env._sequence + 1
            heappush(queue, (target, sequence, self))

    def _complete(self) -> None:
        # _finish_fast inlined (same body, same branch guard); the shell
        # is retired to the pool only after the slot hand-off so a woken
        # kernel that issues immediately picks up a *different* shell —
        # same behaviour as the unfused call sequence.
        mfc = self.mfc
        slots = mfc._fast_slots
        env = self.env
        queue = env._queue
        if slots.queue and not (queue and queue[0][0] == env.now):
            tag = self.tag
            outstanding = mfc._outstanding
            outstanding[tag] -= 1
            if outstanding[tag] < 0:
                raise CellError(f"tag group {tag} under-run")
            mfc._tag_completed[tag] += 1
            mfc._total_completed += 1
            mfc.commands_completed += 1
            if mfc._tag_waiters:
                mfc._wake_tag_waiters()
            if mfc._order_waiters:
                mfc._wake_order_waiters()
            waiter: Any = slots.queue.popleft()
            waiter._run_callbacks()
            mfc._fast_pool.append(self)
        else:
            mfc._finish(self, None, slots)
            mfc._fast_pool.append(self)


class FastDmaList(FastActor):
    """Flat twin of _execute_list: fetch-paced burst issue behind the
    in-flight token window, then drain, then completion."""

    __slots__ = (
        "mfc",
        "tag",
        "direction",
        "target",
        "remote_node",
        "_bursts",
        "_burst_i",
        "_cur_nbytes",
        "_outstanding_bursts",
        "_inflight",
        "_token_waiting",
        "_all_issued",
    )

    def __init__(
        self, env, mfc: Mfc, direction, target, remote_node,
        element_size, n_elements, tag,
    ):
        super().__init__(env)
        self.mfc = mfc
        self.tag = tag
        self.direction = direction
        self.target = target
        self.remote_node = remote_node
        self._bursts = uniform_bursts(element_size, n_elements, mfc._fast_quantum)
        self._burst_i = 0
        self._outstanding_bursts = 0
        self._inflight = 0
        self._token_waiting = False
        self._all_issued = False
        # The executor's start relay (see FastDmaCommand).
        self._hop(self._next_burst)

    def _next_burst(self) -> None:
        i = self._burst_i
        if i < len(self._bursts):
            n, nbytes = self._bursts[i]
            self._cur_nbytes = nbytes
            self._after(self.mfc._fast_elem_cycles * n, self._fetched)
        else:
            self._all_issued = True
            if self._outstanding_bursts == 0:
                # Unreachable in practice (the last burst was spawned in
                # this very pop, so it is still outstanding) but kept to
                # mirror the reference's AllOf-over-pending defensively.
                self._after(0, self._drained)
            else:
                self._park(self._drained)

    def _fetched(self) -> None:
        if self._inflight < self.mfc._fast_inflight_limit:
            self._inflight += 1
            self._hop(self._token)
        else:
            self._token_waiting = True
            self._park(self._token)

    def _token(self) -> None:
        self._outstanding_bursts += 1
        _FastListBurst(self.env, self, self._cur_nbytes)
        self._burst_i += 1
        self._next_burst()

    def _release_token(self) -> None:
        """Resource.release's fast twin: hand the token straight to this
        list's parked issue loop, or just decrement."""
        if self._token_waiting:
            self._token_waiting = False
            self.succeed()
        else:
            self._inflight -= 1

    def _burst_done(self) -> None:
        self._outstanding_bursts -= 1
        if self._all_issued and self._outstanding_bursts == 0:
            # The AllOf trigger slot of the reference engine.
            self._hop(self._drained)

    def _drained(self) -> None:
        self._after(self.mfc._fast_completion, self._complete)

    def _complete(self) -> None:
        self.mfc._finish_fast(self)


class _FastListBurst(_FastMover):
    """Flat twin of _list_burst: one coalesced span of list elements."""

    __slots__ = ("dma_list",)

    def __init__(self, env, dma_list: FastDmaList, nbytes: int):
        self.env = env
        self._value = None
        mfc = dma_list.mfc
        self.mfc = mfc
        self._eib = mfc._fast_eib
        self.dma_list = dma_list
        self.nbytes = nbytes
        self.requester = mfc.node
        self.done = self
        # The executor's start relay (see FastDmaCommand).
        self._hop(self._start)

    def _start(self) -> None:
        dma_list = self.dma_list
        self._mv_direction = dma_list.direction
        self._mv_target = dma_list.target
        self._mv_remote = dma_list.remote_node
        self._mv_after = self._moved
        self._move_begin()

    def _moved(self) -> None:
        # Token release first, then the done-event slot — the reference
        # burst releases its in-flight token before done.succeed().
        self.dma_list._release_token()
        self._hop(self._notify)

    def _notify(self) -> None:
        self.dma_list._burst_done()
