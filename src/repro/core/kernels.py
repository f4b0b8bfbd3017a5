"""The SPU microkernels every DMA experiment runs.

These are the model's equivalents of the paper's hand-optimised C codes:
a warm-up lap, then a timed loop issuing DMA commands with a chosen
synchronisation policy.  All the paper's programming-rule knobs appear
here as workload parameters:

* ``mode``: ``"elem"`` (one MFC command per chunk) vs ``"list"`` (DMA
  lists);
* ``sync_every``: wait for outstanding tags after every k commands
  (``None`` = only at the very end, the paper's recommended policy);
* ``direction``: ``get``, ``put`` or ``copy`` (GET+PUT);
* the loop is unrolled or not at the :class:`~repro.libspe.SpeContext`
  level.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush

from repro.cell.dma import DmaDirection, TargetKind, validate_transfer
from repro.cell.errors import CellError, ConfigError
from repro.cell.mfc import FastDmaCommand, FastDmaList
from repro.cell.spe import Spe
from repro.libspe import SpuRuntime
from repro.sim.engine_fast import FastActor, FastEnvironment

#: Directions an experiment can request.
DIRECTIONS = ("get", "put", "copy")

#: Command modes.
MODES = ("elem", "list")


@dataclass(frozen=True)
class _Window:
    """A rotating run of DMA buffers inside a disjoint LS region.

    The paper's codes double-buffer; the model's equivalent is rotating
    each direction's commands through as many element-sized buffers as
    its LS window holds, so an in-flight transfer and the next command
    touch different bytes (the DMA hazard sanitizer checks exactly
    this).  The remote side mirrors the local offset, which keeps GET
    and PUT ranges disjoint on the far side too and trivially satisfies
    the MFC's matching-alignment rule.
    """

    base: int
    nbuf: int
    element_bytes: int

    def offset(self, index: int) -> int:
        return self.base + (index % self.nbuf) * self.element_bytes


def _windows_for(ls_size: int, workload: DmaWorkload) -> dict[int, _Window]:
    """Per-tag rotating buffer windows (GET = tag 0, PUT = tag 1) for a
    local store of ``ls_size`` bytes.  Shared by both kernel forms."""
    elem = workload.element_bytes
    if workload.direction == "copy":
        half = ls_size // 2
        return {
            0: _Window(base=0, nbuf=max(1, half // elem), element_bytes=elem),
            1: _Window(base=half, nbuf=max(1, half // elem), element_bytes=elem),
        }
    tag = 0 if workload.direction == "get" else 1
    return {tag: _Window(base=0, nbuf=max(1, ls_size // elem), element_bytes=elem)}


def _buffer_windows(spu: SpuRuntime, workload: DmaWorkload) -> dict[int, _Window]:
    """Per-tag rotating buffer windows (GET = tag 0, PUT = tag 1)."""
    return _windows_for(spu.spe.local_store.size, workload)


@dataclass(frozen=True)
class DmaWorkload:
    """Everything one SPE does in a timed run."""

    direction: str
    element_bytes: int
    n_elements: int
    mode: str = "elem"
    sync_every: int | None = None
    partner_logical: int | None = None  # None = main memory

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.n_elements < 1:
            raise ConfigError(f"n_elements must be >= 1, got {self.n_elements}")
        if self.sync_every is not None and self.sync_every < 1:
            raise ConfigError(f"sync_every must be >= 1, got {self.sync_every}")

    @property
    def total_bytes(self) -> int:
        """Bytes this SPE moves (copy counts both directions)."""
        factor = 2 if self.direction == "copy" else 1
        return factor * self.element_bytes * self.n_elements


def dma_stream_kernel(
    spu: SpuRuntime,
    workload: DmaWorkload,
    out: dict,
    partner: Spe | None = None,
):
    """The timed SPU program.  Writes ``cycles`` and ``bytes`` to ``out``.

    GET uses tag 0 and PUT tag 1, like the paper's codes, so a ``copy``
    can wait on both streams at once.
    """
    if workload.partner_logical is not None and partner is None:
        raise ConfigError("workload targets an SPE but no partner was given")

    tags = {"get": (0,), "put": (1,), "copy": (0, 1)}[workload.direction]
    windows = _buffer_windows(spu, workload)

    # Warm-up lap: touch the buffers once so the timed region has no
    # first-touch effects (the paper warms TLBs and page tables the same
    # way).  One command per direction is enough in the model.
    for tag in tags:
        offset = windows[tag].offset(0)
        if tag == 0:
            yield from spu.mfc_get(
                size=workload.element_bytes, tag=tag, remote_spe=partner,
                local_offset=offset, remote_offset=offset,
            )
        else:
            yield from spu.mfc_put(
                size=workload.element_bytes, tag=tag, remote_spe=partner,
                local_offset=offset, remote_offset=offset,
            )
    yield from spu.wait_tags(tags)

    start = spu.read_decrementer()
    if workload.mode == "elem":
        yield from _elem_loop(spu, workload, partner, tags, windows)
    else:
        yield from _list_loop(spu, workload, partner, tags)
    yield from spu.wait_tags(tags)
    end = spu.read_decrementer()

    out["start"] = start
    out["end"] = end
    out["cycles"] = end - start
    out["bytes"] = workload.total_bytes


def _elem_loop(spu, workload, partner, tags, windows):
    issued = 0
    since_sync = 0
    for _ in range(workload.n_elements):
        if workload.direction in ("get", "copy"):
            offset = windows[0].offset(issued)
            yield from spu.mfc_get(
                size=workload.element_bytes, tag=0, remote_spe=partner,
                local_offset=offset, remote_offset=offset,
            )
        if workload.direction in ("put", "copy"):
            offset = windows[1].offset(issued)
            yield from spu.mfc_put(
                size=workload.element_bytes, tag=1, remote_spe=partner,
                local_offset=offset, remote_offset=offset,
            )
        issued += 1
        since_sync += 1
        if workload.sync_every is not None and since_sync >= workload.sync_every:
            yield from spu.wait_tags(tags)
            since_sync = 0


def _list_loop(spu, workload, partner, tags):
    limit = spu.spe.config.mfc.list_max_elements
    batch = workload.sync_every or limit
    batch = min(batch, limit)
    issued = 0
    while issued < workload.n_elements:
        chunk = min(batch, workload.n_elements - issued)
        if workload.direction in ("get", "copy"):
            yield from spu.mfc_getl(
                element_size=workload.element_bytes,
                n_elements=chunk,
                tag=0,
                remote_spe=partner,
            )
        if workload.direction in ("put", "copy"):
            yield from spu.mfc_putl(
                element_size=workload.element_bytes,
                n_elements=chunk,
                tag=1,
                remote_spe=partner,
            )
        issued += chunk
        if workload.sync_every is not None:
            yield from spu.wait_tags(tags)


class FastStreamKernel(FastActor):
    """:func:`dma_stream_kernel` as a flat coalescing-engine actor.

    One state method per resume point of the generator program: warmup
    commands, the timed elem/list loop, tag syncs, the final drain.  The
    issue-cost, validation and tag rules are the SpuRuntime's, applied
    in the same order, so a fast run replays the reference run's heap
    schedule exactly (see :mod:`repro.sim.engine_fast` for the three
    coalescings that make it cheaper, not different).
    """

    __slots__ = (
        "spe",
        "mfc",
        "workload",
        "out",
        "partner_node",
        "name",
        "finished",
        "_tags",
        "_windows",
        "_target",
        "_direction",
        "_elem_bytes",
        "_n",
        "_sync_every",
        "_issue_cycles",
        "_list_issue_cycles",
        "_sync_cycles",
        "_limit",
        "_batch",
        "_chunk",
        "_issued",
        "_since_sync",
        "_warm_i",
        "_t_start",
        "_pend_tag",
        "_after_issue",
        "_after_sync",
        "_fast_slots",
        "_ff_anchor",
    )

    def __init__(
        self,
        env: FastEnvironment,
        spe: Spe,
        workload: DmaWorkload,
        out: dict,
        partner: Spe | None = None,
        unrolled: bool = True,
    ):
        super().__init__(env)
        if workload.partner_logical is not None and partner is None:
            raise ConfigError("workload targets an SPE but no partner was given")
        self.spe = spe
        self.mfc = spe.mfc
        self.workload = workload
        self.out = out
        self.partner_node = None if partner is None else partner.node
        self._target = (
            TargetKind.MAIN_MEMORY if partner is None else TargetKind.LOCAL_STORE
        )
        self._tags = {"get": (0,), "put": (1,), "copy": (0, 1)}[workload.direction]
        self._windows = _windows_for(spe.local_store.size, workload)
        self._direction = workload.direction
        self._elem_bytes = workload.element_bytes
        self._n = workload.n_elements
        self._sync_every = workload.sync_every
        mfccfg = spe.config.mfc
        cost = mfccfg.elem_issue_cycles
        if not unrolled:
            cost *= mfccfg.rolled_loop_issue_factor
        self._issue_cycles = cost
        self._list_issue_cycles = mfccfg.list_issue_cycles
        self._sync_cycles = mfccfg.sync_cycles
        self._limit = mfccfg.list_max_elements
        self._fast_slots = self.mfc._fast_slots
        # DmaCommand/DmaList construction-time checks, hoisted out of the
        # issue loop: every offset this kernel ever uses is
        # base + (index % nbuf) * element_bytes, an arithmetic
        # progression, so indices 0 and 1 cover every distinct
        # size/alignment case (the same reduction _list_built documents
        # for uniform list elements, whose offsets 0 and size these two
        # checks also subsume).
        for tag in self._tags:
            window = self._windows[tag]
            validate_transfer(self._elem_bytes, window.offset(0), window.offset(0))
            validate_transfer(self._elem_bytes, window.offset(1), window.offset(1))
        self.name = f"fast-kernel {spe.node}"
        self.finished = False
        self._ff_anchor = env.register_kernel(self)
        # The program's start relay (spe_create_thread).
        self._after(0, self._start)

    # -- issue helpers (SpuRuntime._issue_elem / _issue_list) --------------------

    def _issue_elem(self, tag: int, after) -> None:
        self._pend_tag = tag
        self._after_issue = after
        # _after inlined (hottest kernel scheduling site), with a
        # tail-warp: every call chain reaching here from a heap pop is
        # in tail position (the program states below only ever end in
        # each other), so when the issue slot would be the strictly
        # earliest event — no tie possible — advancing the clock and
        # running it inline is indistinguishable from popping it.
        env = self.env
        queue = env._queue
        target = env.now + self._issue_cycles
        if not queue or queue[0][0] > target:
            env.now = target
            self._elem_built()
        else:
            self._run_callbacks = self._elem_built
            env._sequence = sequence = env._sequence + 1
            heappush(queue, (target, sequence, self))

    def _elem_built(self) -> None:
        # Claim an MFC queue slot, or join the slot queue until a
        # completion's release hands one over.  Validation was hoisted
        # to construction (see __init__); the slot-grant relay's
        # zero-delay hop guard is open-coded.
        slots = self._fast_slots
        if slots.count < slots.capacity:
            slots.count += 1
            env = self.env
            queue = env._queue
            if queue and queue[0][0] == env.now:
                self._run_callbacks = self._elem_slotted
                env._sequence = sequence = env._sequence + 1
                heappush(queue, (env.now, sequence, self))
            else:
                # _elem_slotted inlined, with the pooled shell's restart
                # relay resolved statically: the guard above established
                # nothing else fires this tick, and the enqueue counters
                # below push nothing, so the relay's own guard (the same
                # expression) must also take the inline branch — the
                # mover starts directly.
                tag = self._pend_tag
                mfc = self.mfc
                mfc._tag_enqueued[tag] += 1
                mfc._total_enqueued += 1
                mfc._outstanding[tag] += 1
                direction = DmaDirection.GET if tag == 0 else DmaDirection.PUT
                pool = mfc._fast_pool
                if pool:
                    shell = pool.pop()
                    shell.tag = tag
                    shell._mv_direction = direction
                    shell._mv_target = self._target
                    shell._mv_remote = self.partner_node
                    shell.nbytes = self._elem_bytes
                    shell._move_begin()
                else:
                    FastDmaCommand(
                        env,
                        mfc,
                        direction,
                        self._target,
                        self.partner_node,
                        self._elem_bytes,
                        tag,
                    )
                self._after_issue()
        else:
            slots.queue.append(self)
            self._park(self._elem_slotted)

    def _elem_slotted(self) -> None:
        tag = self._pend_tag
        mfc = self.mfc
        # Mfc._register_enqueue (never sanitizing under the fast engine),
        # then the executor machine — the reference enqueue's order.
        mfc._tag_enqueued[tag] += 1
        mfc._total_enqueued += 1
        mfc._outstanding[tag] += 1
        pool = mfc._fast_pool
        if pool:
            # Reissue a retired FastDmaCommand shell: the constructor's
            # per-command fields and its start-relay guard.
            shell = pool.pop()
            shell.tag = tag
            shell._mv_direction = DmaDirection.GET if tag == 0 else DmaDirection.PUT
            shell._mv_target = self._target
            shell._mv_remote = self.partner_node
            shell.nbytes = self._elem_bytes
            env = self.env
            queue = env._queue
            if queue and queue[0][0] == env.now:
                shell._run_callbacks = shell._move_begin
                env._sequence = sequence = env._sequence + 1
                heappush(queue, (env.now, sequence, shell))
            else:
                shell._move_begin()
        else:
            FastDmaCommand(
                self.env,
                mfc,
                DmaDirection.GET if tag == 0 else DmaDirection.PUT,
                self._target,
                self.partner_node,
                self._elem_bytes,
                tag,
            )
        self._after_issue()

    def _issue_list(self, tag: int, after) -> None:
        if self._chunk > self._limit:
            raise CellError(
                f"a DMA list holds at most {self._limit} elements, got {self._chunk}"
            )
        self._pend_tag = tag
        self._after_issue = after
        # Same tail-warp as _issue_elem (same all-tail call chains).
        env = self.env
        queue = env._queue
        target = env.now + self._list_issue_cycles
        if not queue or queue[0][0] > target:
            env.now = target
            self._list_built()
        else:
            self._run_callbacks = self._list_built
            env._sequence = sequence = env._sequence + 1
            heappush(queue, (target, sequence, self))

    def _list_built(self) -> None:
        slots = self._fast_slots
        if slots.count < slots.capacity:
            slots.count += 1
            env = self.env
            queue = env._queue
            if queue and queue[0][0] == env.now:
                self._run_callbacks = self._list_slotted
                env._sequence = sequence = env._sequence + 1
                heappush(queue, (env.now, sequence, self))
            else:
                self._list_slotted()
        else:
            slots.queue.append(self)
            self._park(self._list_slotted)

    def _list_slotted(self) -> None:
        tag = self._pend_tag
        mfc = self.mfc
        mfc._tag_enqueued[tag] += 1
        mfc._total_enqueued += 1
        mfc._outstanding[tag] += 1
        FastDmaList(
            self.env,
            mfc,
            DmaDirection.GET if tag == 0 else DmaDirection.PUT,
            self._target,
            self.partner_node,
            self._elem_bytes,
            self._chunk,
            tag,
        )
        self._after_issue()

    # -- tag sync (SpuRuntime.wait_tags, no timeout) -----------------------------

    def _wait_tags(self, after) -> None:
        self._after_sync = after
        # Same tail-warp as _issue_elem (same all-tail call chains).
        env = self.env
        queue = env._queue
        target = env.now + self._sync_cycles
        if not queue or queue[0][0] > target:
            env.now = target
            self._sync_ready()
        else:
            self._run_callbacks = self._sync_ready
            env._sequence = sequence = env._sequence + 1
            heappush(queue, (target, sequence, self))

    def _sync_ready(self) -> None:
        # Park on the MFC's tag-waiter list (woken by _finish) unless
        # every tag group is already empty.  This kernel's tags are
        # always registered groups, so no unknown-tag check is needed.
        mfc = self.mfc
        outstanding = mfc._outstanding
        for tag in self._tags:
            if outstanding[tag]:
                mfc._tag_waiters.append((self, self._tags))
                self._park(self._sync_quiet)
                return
        self._hop(self._sync_quiet)

    def _sync_quiet(self) -> None:
        self._after_sync()

    # -- the program -------------------------------------------------------------

    def _start(self) -> None:
        self._warm_i = 0
        self._warm_next()

    def _warm_next(self) -> None:
        if self._warm_i < len(self._tags):
            tag = self._tags[self._warm_i]
            self._warm_i += 1
            self._issue_elem(tag, self._warm_next)
        else:
            self._wait_tags(self._warmed)

    def _warmed(self) -> None:
        self._t_start = self.env.now
        self._issued = 0
        self._since_sync = 0
        if self.workload.mode == "elem":
            self._elem_next()
        else:
            batch = self._sync_every or self._limit
            self._batch = batch if batch < self._limit else self._limit
            self._list_next()

    def _elem_next(self) -> None:
        if self._issued >= self._n:
            self._wait_tags(self._done)
            return
        if self._direction != "put":
            self._issue_elem(0, self._elem_mid)
        else:
            self._elem_mid()

    def _elem_mid(self) -> None:
        if self._direction != "get":
            self._issue_elem(1, self._elem_tail)
        else:
            self._elem_tail()

    def _elem_tail(self) -> None:
        self._issued += 1
        self._since_sync += 1
        if self._ff_anchor:
            env = self.env
            if env._ff_on:
                # Ask the run loop to try a steady-state fingerprint
                # between pops (never inside this callback — the heap
                # must be consistent when it is captured).
                env._ff_pending = True
        if self._sync_every is not None and self._since_sync >= self._sync_every:
            self._since_sync = 0
            self._wait_tags(self._elem_next)
        else:
            self._elem_next()

    def _list_next(self) -> None:
        if self._issued >= self._n:
            self._wait_tags(self._done)
            return
        remaining = self._n - self._issued
        self._chunk = self._batch if self._batch < remaining else remaining
        if self._direction != "put":
            self._issue_list(0, self._list_mid)
        else:
            self._list_mid()

    def _list_mid(self) -> None:
        if self._direction != "get":
            self._issue_list(1, self._list_tail)
        else:
            self._list_tail()

    def _list_tail(self) -> None:
        self._issued += self._chunk
        if self._ff_anchor:
            env = self.env
            if env._ff_on:
                env._ff_pending = True
        if self._sync_every is not None:
            self._wait_tags(self._list_next)
        else:
            self._list_next()

    def _done(self) -> None:
        end = self.env.now
        out = self.out
        out["start"] = self._t_start
        out["end"] = end
        out["cycles"] = end - self._t_start
        out["bytes"] = self.workload.total_bytes
        self.finished = True
