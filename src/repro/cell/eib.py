"""The Element Interconnect Bus: four data rings plus per-element ports.

Modelled behaviour, each piece tied to a paper observation:

* Two rings per direction, at most three concurrent transfers per ring
  with non-overlapping spans, at most six hops — transfers that cannot
  coexist wait on the data arbiter.  This is the "physical location may
  introduce EIB conflicts" mechanism behind Figures 12/13/15/16.
* Every element has one on-ramp and one off-ramp moving 16 B per bus
  cycle.  Two flows sharing a port halve; this is what pins the cycle-of-
  two-SPEs experiment at 33.6 GB/s instead of 67.2.
* The IOIF ramps carry only 7 GB/s (the second chip's memory bank).
* A transfer holds its path for a *grant quantum* of data, then
  re-arbitrates; each grant pays a fixed arbitration cost, so a single
  flow sustains a few percent under the 16.8 GB/s ring rate ("almost
  achieves the peak bandwidth").
* Each hop adds a small pipeline latency, giving the small (<2 GB/s)
  distance dependence of Figure 10's experiment.

Arbitration state
-----------------

Both engines share one arbitration state, kept as bitmasks.  Every ring
segment (span) and every element has its own bit, so a ring's
occupancy is one int of busy spans (``_occ``) plus a count of active
transfers (``_nact``), and the busy on- and off-ramps are two ints
(``_out``, ``_in``).  Mask disjointness is exactly span-set
disjointness, and a busy-port probe is one AND.

A request that cannot be granted waits in its *flow's* FIFO, one
:class:`_Flow` per (src, dst) pair.  ``_heads`` lists the flows that
have waiters, ordered by when each flow's oldest waiter (its head)
arrived.  A drain scans only those heads.  This grants exactly what a
FIFO scan over every waiter grants, in the same order:

* within one drain the state only becomes more occupied (a drain
  commits grants and releases nothing);
* all waiters of a flow share its ports and candidate paths.  When the
  head is granted, its source ramp stays busy for the rest of the
  drain, so no later waiter of the flow can be granted in it; when the
  head does not fit, no later waiter of the flow fits either.

So a drain grants at most one waiter per flow, always the head, and the
FIFO scan's grant order is the order of the heads' arrival.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from repro.cell.config import CellConfig
from repro.cell.errors import ConfigError
from repro.cell.topology import CLOCKWISE, COUNTERCLOCKWISE, RingTopology
from repro.sim import BusyMonitor, Environment, Event
from repro.sim.trace import EibGrant, EibRelease, EibTransfer, EibWait

#: Extra CPU cycles of pipeline latency per hop travelled.
HOP_LATENCY_CYCLES = 2

#: Elements whose bus interfaces stream across grant boundaries.
_MEMORY_SIDE = ("MIC", "IOIF0", "IOIF1")


@dataclass(frozen=True)
class Ring:
    """One data ring: a name and a travel direction.  Its occupancy is
    part of the bus's bitmask state."""

    name: str
    direction: int


class _Flow:
    """One (src, dst) pair: its arbitration record and its waiters.

    ``choices`` are the candidate paths in probe order, each ``(ring
    index, span mask, ~span mask, hop latency cycles, spans)``; ``rate``
    is the path rate in bytes per CPU cycle (the slower ramp's).
    ``waiters`` holds ``(arrival number, waiter)`` pairs; a waiter is
    anything with ``succeed(value)``, a reference-engine event or a
    fast-engine actor.  ``contends`` memoises, per other flow, whether a
    grant to this flow holds that flow up, per ring index."""

    __slots__ = (
        "src", "dst", "choices", "rate", "srcbit", "dstbit", "memory_side",
        "waiters", "contends",
    )

    def __init__(
        self, src: str, dst: str, choices: tuple, rate: float, srcbit: int, dstbit: int
    ):
        self.src = src
        self.dst = dst
        self.choices = choices
        self.rate = rate
        self.srcbit = srcbit
        self.dstbit = dstbit
        self.memory_side = src in _MEMORY_SIDE or dst in _MEMORY_SIDE
        self.waiters: deque[tuple[int, Any]] = deque()
        self.contends: dict[_Flow, tuple[int, ...]] = {}


def _head_arrival(flow: _Flow) -> int:
    return flow.waiters[0][0]


class Eib:
    """The bus: arbitration, routing, port accounting and statistics."""

    def __init__(
        self,
        env: Environment,
        topology: RingTopology,
        config: CellConfig,
    ):
        self.env = env
        self.topology = topology
        self.config = config
        self.rings: list[Ring] = [
            Ring(f"{label}{i}", direction)
            for direction, label in ((CLOCKWISE, "cw"), (COUNTERCLOCKWISE, "ccw"))
            for i in range(config.eib.rings_per_direction)
        ]
        # The arbitration state (see the module docstring).
        self._occ: list[int] = [0] * len(self.rings)
        self._nact: list[int] = [0] * len(self.rings)
        self._max_transfers: int = config.eib.max_transfers_per_ring
        self._out = 0
        self._in = 0
        self._node_bits: dict[str, int] = {
            node: 1 << i for i, node in enumerate(topology.order)
        }
        self._span_bits: dict[int, int] = {}
        self._flows: dict[tuple[str, str], _Flow] = {}
        self._heads: list[_Flow] = []
        self._arrivals = 0
        self._retry: int = config.eib.conflict_retry_cycles
        # The coalescing engine's whole-leg records, per (src, dst, nbytes).
        self._legs: dict[tuple[str, str, int], tuple] = {}
        # Statistics the analysis layer reads.
        self.grants = 0
        self.conflicts = 0
        self.wait_cycles = 0
        self.bytes_moved = 0
        # Ring occupancy monitors are reference-engine observability;
        # the coalescing engine does not maintain them.
        self._monitoring = not env.coalescing
        self.ring_monitors = {ring.name: BusyMonitor(env, ring.name) for ring in self.rings}
        self._trace = env.trace
        self._tracing = env.trace.enabled
        self._faults = env.faults
        self._faulting = env.faults.enabled
        self.fault_cycles = 0

    # -- public API --------------------------------------------------------------

    def transfer(
        self, src: str, dst: str, nbytes: int
    ) -> Generator[Event, object, None]:
        """Move ``nbytes`` from ``src`` to ``dst``; a process sub-generator
        (use ``yield from``).  Returns once the last byte has landed."""
        if src == dst:
            raise ConfigError(f"EIB transfer from {src!r} to itself")
        if nbytes <= 0:
            raise ConfigError(f"EIB transfer of {nbytes} bytes")
        flow = self._flow(src, dst)
        quantum = self.config.eib.grant_quantum_bytes
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, quantum)
            ri, notmask, latency, penalty = yield from self._acquire(flow)
            committed_at = self.env.now
            duration = (
                self.config.eib.arbitration_cycles
                + penalty
                + latency
                + math.ceil(chunk / flow.rate)
            )
            if self._faulting:
                # Ring-segment degradation / grant starvation: the
                # committed path carries dead cycles before data moves.
                degraded = self._faults.eib_penalty_cycles(src, dst)
                if degraded:
                    duration += degraded
                    self.fault_cycles += degraded
            yield self.env.timeout(duration)
            self._release(flow, ri, notmask, chunk, committed_at)
            remaining -= chunk
        self.bytes_moved += nbytes
        if self._tracing:
            self._trace.emit(
                EibTransfer(ts=self.env.now, src=src, dst=dst, nbytes=nbytes)
            )

    def fast_leg(self, src: str, dst: str, nbytes: int) -> tuple:
        """The coalescing engine's whole-leg record, memoised per
        (src, dst, nbytes)::

            (choices, srcbit, ~srcbit, dstbit, ~dstbit, plan, flow)

        ``choices`` and the port bits are the :class:`_Flow`'s.
        ``plan`` is :meth:`transfer`'s grant-quantum chunk schedule as
        per-chunk hold cycles (arbitration + data): the per-chunk
        arithmetic is invariant per (path, size), and movers account
        bytes from their own ``nbytes``, so only cycle totals are kept."""
        key = (src, dst, nbytes)
        leg = self._legs.get(key)
        if leg is None:
            flow = self._flow(src, dst)
            quantum = self.config.eib.grant_quantum_bytes
            arbitration = self.config.eib.arbitration_cycles
            plan = []
            remaining = nbytes
            while remaining > 0:
                chunk = min(remaining, quantum)
                plan.append(arbitration + math.ceil(chunk / flow.rate))
                remaining -= chunk
            leg = (
                flow.choices,
                flow.srcbit,
                ~flow.srcbit,
                flow.dstbit,
                ~flow.dstbit,
                tuple(plan),
                flow,
            )
            self._legs[key] = leg
        return leg

    def queued(self) -> list[tuple[str, str, Any]]:
        """Every waiting request as ``(src, dst, waiter)``, in arrival
        order."""
        entries = sorted(
            (
                (arrival, flow, waiter)
                for flow in self._heads
                for arrival, waiter in flow.waiters
            ),
            key=itemgetter(0),
        )
        return [(flow.src, flow.dst, waiter) for _arrival, flow, waiter in entries]

    def utilization(self) -> dict[str, float]:
        """Busy fraction of each ring over the run so far."""
        return {
            name: monitor.utilization()
            for name, monitor in self.ring_monitors.items()
        }

    @property
    def conflict_fraction(self) -> float:
        """Fraction of grants that had to wait for a path."""
        if self.grants == 0:
            return 0.0
        return self.conflicts / self.grants

    # -- arbitration --------------------------------------------------------------

    def _flow(self, src: str, dst: str) -> _Flow:
        """The memoised flow record of a path.  Its candidates are pure
        topology: every (direction, ring) pair within the hop limit,
        shortest direction first."""
        flow = self._flows.get((src, dst))
        if flow is None:
            span_bits = self._span_bits
            choices = []
            for direction in self.topology.directions_by_distance(src, dst):
                spans = self.topology.path(src, dst, direction)
                if len(spans) > self.config.eib.max_hops:
                    continue
                mask = 0
                for span in spans:
                    mask |= span_bits.setdefault(span, 1 << len(span_bits))
                latency = len(spans) * HOP_LATENCY_CYCLES
                for ri, ring in enumerate(self.rings):
                    if ring.direction == direction:
                        choices.append((ri, mask, ~mask, latency, spans))
            rate = min(
                self.config.node_rate_bytes_per_cpu_cycle(src),
                self.config.node_rate_bytes_per_cpu_cycle(dst),
            )
            flow = _Flow(
                src,
                dst,
                tuple(choices),
                rate,
                self._node_bits[src],
                self._node_bits[dst],
            )
            self._flows[(src, dst)] = flow
        return flow

    def _acquire(self, flow: _Flow) -> Generator[Event, Any, tuple]:
        """Wait for a path; returns ``(ring index, ~span mask, hop
        latency, penalty)``."""
        self.grants += 1
        choice = self._try_grant(flow)
        if choice is not None:
            self._commit(flow, choice)
            ri, _mask, notmask, latency, _spans = choice
            return ri, notmask, latency, 0
        self.conflicts += 1
        waiting = self.env.event()
        self._enqueue(flow, waiting)
        started = self.env.now
        grant = yield waiting
        waited = self.env.now - started
        self.wait_cycles += waited
        if self._tracing:
            self._trace.emit(
                EibWait(ts=self.env.now, src=flow.src, dst=flow.dst, cycles=waited)
            )
        return grant

    def _try_grant(self, flow: _Flow) -> tuple | None:
        """The first candidate path that fits now, or None; commits
        nothing."""
        if self._out & flow.srcbit or self._in & flow.dstbit:
            return None
        occ = self._occ
        nact = self._nact
        for choice in flow.choices:
            ri = choice[0]
            if nact[ri] < self._max_transfers and not occ[ri] & choice[1]:
                return choice
        return None

    def _commit(self, flow: _Flow, choice: tuple) -> None:
        """Book an immediately granted path and both of the flow's ports."""
        ri, mask, _notmask, _latency, spans = choice
        if self._nact[ri] >= self._max_transfers or self._occ[ri] & mask:
            raise ConfigError(
                f"ring {self.rings[ri].name} cannot accept spans {spans}"
            )
        self._occ[ri] |= mask
        self._nact[ri] += 1
        self._out |= flow.srcbit
        self._in |= flow.dstbit
        if self._monitoring:
            self._note_grant(flow, ri, spans, immediate=True)

    def _note_grant(self, flow: _Flow, ri: int, spans: tuple, immediate: bool) -> None:
        """A commit's reference-engine observability: the ring's
        occupancy monitor and the ``EibGrant`` trace record."""
        ring = self.rings[ri].name
        self.ring_monitors[ring].acquire()
        if self._tracing:
            self._trace.emit(
                EibGrant(
                    ts=self.env.now,
                    src=flow.src,
                    dst=flow.dst,
                    ring=ring,
                    spans=spans,
                    immediate=immediate,
                )
            )

    def _release(
        self, flow: _Flow, ri: int, notmask: int, nbytes: int, committed_at: int
    ) -> None:
        """Free a granted path and its ports, then grant what now fits."""
        self._occ[ri] &= notmask
        self._nact[ri] -= 1
        self._out &= ~flow.srcbit
        self._in &= ~flow.dstbit
        if self._monitoring:
            ring = self.rings[ri].name
            self.ring_monitors[ring].release()
            if self._tracing:
                self._trace.emit(
                    EibRelease(
                        ts=self.env.now,
                        src=flow.src,
                        dst=flow.dst,
                        ring=ring,
                        nbytes=nbytes,
                        start=committed_at,
                    )
                )
        if self._heads:
            self._drain()

    def _enqueue(self, flow: _Flow, waiter: Any) -> None:
        """Queue a request behind its flow's earlier ones."""
        waiters = flow.waiters
        if not waiters:
            # The newest arrival is the newest head, so appending keeps
            # _heads in head-arrival order.
            self._heads.append(flow)
        self._arrivals = arrival = self._arrivals + 1
        waiters.append((arrival, waiter))

    def _drain(self) -> None:
        """Grant every queued request that now fits, in arrival order,
        scanning flow heads only (exact: see the module docstring).

        Grants are committed here, before the waiters resume, so two
        releases in the same cycle cannot double-book a path.  A granted
        waiter receives ``(ring index, ~span mask, hop latency,
        penalty)``."""
        heads = self._heads
        occ = self._occ
        nact = self._nact
        maxt = self._max_transfers
        out_mask = self._out
        in_mask = self._in
        granted: list[tuple[_Flow, tuple, Any]] | None = None
        for flow in heads:
            srcbit = flow.srcbit
            dstbit = flow.dstbit
            if out_mask & srcbit or in_mask & dstbit:
                continue
            for choice in flow.choices:
                ri = choice[0]
                mask = choice[1]
                if nact[ri] < maxt and not occ[ri] & mask:
                    occ[ri] |= mask
                    nact[ri] += 1
                    out_mask |= srcbit
                    in_mask |= dstbit
                    if granted is None:
                        granted = []
                    granted.append((flow, choice, flow.waiters.popleft()[1]))
                    break
        self._out = out_mask
        self._in = in_mask
        if granted is None:
            return
        # Re-file each granted flow under its next waiter's arrival.
        for flow, _choice, _waiter in granted:
            heads.remove(flow)
        for flow, _choice, _waiter in granted:
            if flow.waiters:
                insort(heads, flow, key=_head_arrival)
        monitoring = self._monitoring
        for flow, choice, waiter in granted:
            ri, _mask, notmask, latency, spans = choice
            penalty = 0 if flow.memory_side else self._retry * self._contending(flow, ri)
            if monitoring:
                self._note_grant(flow, ri, spans, immediate=False)
            waiter.succeed((ri, notmask, latency, penalty))

    def _contending(self, flow: _Flow, ri: int) -> int:
        """Distinct other flows still waiting that a grant to ``flow`` on
        ring ``ri`` holds up: same source ramp, same destination ramp,
        or a span overlap in the ring's direction.  A flow's own
        pipelined commands do not count — the BIU presents one bus
        request per flow.  Transfers touching the MIC or an IOIF stream
        across grant boundaries (deep controller queues) and pay no
        penalty; :meth:`_drain` skips them."""
        contends = flow.contends
        count = 0
        for other in self._heads:
            if other is not flow:
                verdicts = contends.get(other)
                if verdicts is None:
                    verdicts = contends[other] = self._verdicts(flow, other)
                count += verdicts[ri]
        return count

    def _verdicts(self, flow: _Flow, other: _Flow) -> tuple[int, ...]:
        """Per ring index, whether a grant to ``flow`` on that ring holds
        ``other`` up; pure topology, so :meth:`_contending` memoises it."""
        if other.src == flow.src or other.dst == flow.dst:
            return (1,) * len(self.rings)
        topology = self.topology
        legal = topology.directions_by_distance(other.src, other.dst)
        verdicts = [0] * len(self.rings)
        for ri, _mask, _notmask, _latency, spans in flow.choices:
            direction = self.rings[ri].direction
            if direction in legal and not set(spans).isdisjoint(
                topology.path(other.src, other.dst, direction)
            ):
                verdicts[ri] = 1
        return tuple(verdicts)
