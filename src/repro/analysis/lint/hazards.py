"""Static DMA discipline over the CFG + interval dataflow.

One fixpoint per function tracks which DMA commands may still be in
flight at each program point.  Two rules query it for the paper's
synchronisation discipline:

* **SL101** — a ``compute``/``write_out_mbox`` call while a GET may
  still be in flight: the local-store buffer may not have landed.
* **SL102** — an SPU program whose exit is reachable with a transfer
  still in flight: the timed region ends before the data arrives.

Both report a fact that holds on *some* path (in-flight sets join by
union), and a wait that may cover a transfer — an unknown tag, or an
unknown wait set — drops the claim.

The three hazard proofs are the static shadow of the runtime
``DmaSanitizer``:

* **SL601** — local-store buffer overlap: two transfers whose
  ``[local_offset, local_offset + size)`` intervals *provably* intersect
  are concurrently in flight on the same MFC, at least one of them a GET
  (GETs write the local store), and no fence/barrier/``wait_tags``
  happens-before edge orders them on the hazard path.
* **SL602** — tag-group lifecycle errors: a ``wait_tags`` on a tag group
  that no path ever issued a command on (dead wait), and a tag group
  carrying GETs and PUTs concurrently in flight (the paper's guideline
  puts writes on their own tag group; mixed groups make "quiet" mean two
  different things).
* **SL603** — double-buffer phase violations: rotation arithmetic
  ``base + (i % K) * stride`` inside a loop that provably runs more than
  ``K`` iterations with no wait in the body — iteration ``i + K`` reuses
  the window of iteration ``i`` while its transfer may still be in
  flight.

These three fire on *provable* facts only (singleton intervals, converged
fixpoint states); anything the dataflow cannot pin down is silence, not
noise.  The fixpoint runs to convergence first and findings are recorded
on one final stable pass — a wait at the top of a loop legitimately
waiting on the previous iteration's issue at the bottom is only judged
once the back edge has delivered that issue.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from repro.analysis.lint.cfg import CFG, Block, build_cfg
from repro.analysis.lint.dataflow import (
    WIDEN_AFTER,
    Env,
    Interval,
    bind_for_target,
    eval_expr,
    join_env,
    range_trip_count,
    transfer_stmt,
    widen_env,
)
from repro.analysis.lint.intrinsics import (
    CONSUME_CALLS,
    ELEM_CALLS,
    ISSUE_CALLS,
    WAIT_CALLS,
    IssueEffect,
    call_name,
    get_arg,
    issue_effect,
    wait_tag_list,
)
from repro.analysis.lint.summaries import (
    UNKNOWN_EFFECTS,
    ModuleModel,
    WaitEffect,
)

__all__ = [
    "Step",
    "RawFinding",
    "check_function",
]

#: Fixpoint pass cap (widening guarantees convergence well before this).
MAX_PASSES = 64

#: Cap on distinct in-flight transfer sites tracked per program point.
MAX_INFLIGHT = 64

_NEVER = frozenset({"never"})
_INFLIGHT = frozenset({"inflight"})
_WAITED = frozenset({"waited"})


@dataclass(frozen=True)
class Step:
    """One step of an offending path (``--explain`` output)."""

    line: int
    note: str


@dataclass(frozen=True)
class RawFinding:
    """A hazard before it becomes a :class:`~.findings.Finding`."""

    rule: str
    line: int
    col: int
    message: str
    steps: tuple[Step, ...] = ()


@dataclass(frozen=True)
class Transfer:
    """An abstract in-flight DMA command."""

    site: tuple[int, int]  # (line, col) of the issuing call/effect
    kind: str  # "get" | "put"
    is_list: bool
    tag: Interval
    local: Interval
    size: Interval
    conditional: bool

    def merge(self, other: Transfer) -> Transfer:
        return replace(
            self,
            tag=self.tag.join(other.tag),
            local=self.local.join(other.local),
            size=self.size.join(other.size),
            conditional=self.conditional or other.conditional,
        )


@dataclass
class DmaState:
    """Per-program-point hazard state: interval env + MFC queue shadow."""

    env: Env = field(default_factory=dict)
    #: site -> Transfer; joined pointwise by site across paths.
    inflight: dict[tuple[int, int], Transfer] = field(default_factory=dict)
    #: const tag -> status set over {"never", "inflight", "waited"}.
    tags: dict[int, frozenset[str]] = field(default_factory=dict)
    #: True once a DMA with a statically-unknown tag was issued — the
    #: per-tag accounting (and SL602 dead-wait) is no longer trustworthy.
    tags_unknown: bool = False

    def copy(self) -> DmaState:
        return DmaState(
            env=dict(self.env),
            inflight=dict(self.inflight),
            tags=dict(self.tags),
            tags_unknown=self.tags_unknown,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DmaState)
            and self.env == other.env
            and self.inflight == other.inflight
            and self.tags == other.tags
            and self.tags_unknown == other.tags_unknown
        )


def _join_state(a: DmaState, b: DmaState) -> DmaState:
    inflight: dict[tuple[int, int], Transfer] = dict(a.inflight)
    for site, transfer in b.inflight.items():
        existing = inflight.get(site)
        inflight[site] = (
            transfer if existing is None else existing.merge(transfer)
        )
    keys = set(a.tags) | set(b.tags)
    tags = {
        key: a.tags.get(key, _NEVER) | b.tags.get(key, _NEVER) for key in keys
    }
    return DmaState(
        env=join_env(a.env, b.env),
        inflight=inflight,
        tags=tags,
        tags_unknown=a.tags_unknown or b.tags_unknown,
    )


def _widen_state(old: DmaState, new: DmaState) -> DmaState:
    new.env = widen_env(old.env, new.env)
    return new


def _poison(state: DmaState) -> None:
    """An unknown callee got the SPU handle: it may have issued or waited
    anything.  Drop every claim (prefers silence downstream)."""
    state.inflight.clear()
    state.tags.clear()
    state.tags_unknown = True


# ---------------------------------------------------------------------------
# The per-function checker
# ---------------------------------------------------------------------------

class _Checker:
    def __init__(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        module: ModuleModel,
        spu_param: str | None,
        program: bool,
    ) -> None:
        self.fn = fn
        self.module = module
        self.spu_param = spu_param
        #: True for an SPU program whose exit state SL102 judges.
        self.program = program
        self.findings: list[RawFinding] = []
        self._recorded: set[tuple[str, int, int, str]] = set()
        self.recording = False
        #: True when the function issues any DMA at all (guards SL602
        #: dead-wait: a wait-only function is synchronising its caller's
        #: transfers, which this intraprocedural view cannot see).
        self.fn_issues_dma = self._scan_issues()

    # -- setup ----------------------------------------------------------------

    def _scan_issues(self) -> bool:
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in ISSUE_CALLS:
                    return True
                if name is not None and self.module.function(name) is not None:
                    effects = self.module.dma_effects(name, node, {})
                    if effects is UNKNOWN_EFFECTS:
                        return True
                    assert effects is not None
                    if any(isinstance(e, IssueEffect) for e in effects):
                        return True
        return False

    # -- driver ---------------------------------------------------------------

    def run(self) -> list[RawFinding]:
        cfg = build_cfg(self.fn)
        in_states: dict[int, DmaState] = {cfg.entry: DmaState()}
        order = cfg.rpo()
        joins: dict[int, int] = {}
        for _ in range(MAX_PASSES):
            changed = False
            for block_id in order:
                if block_id not in in_states:
                    continue
                state = in_states[block_id].copy()
                self._transfer_block(cfg, block_id, state)
                for succ in self._succs(cfg.block(block_id), in_states[block_id].env):
                    if succ not in in_states:
                        in_states[succ] = state.copy()
                        changed = True
                        continue
                    merged = _join_state(in_states[succ], state)
                    if cfg.block(succ).is_loop_head:
                        joins[succ] = joins.get(succ, 0) + 1
                        if joins[succ] > WIDEN_AFTER:
                            merged = _widen_state(in_states[succ], merged)
                    if merged != in_states[succ]:
                        in_states[succ] = merged
                        changed = True
            if not changed:
                break
        # Final stable pass: record findings against converged states.
        self.recording = True
        for block_id in order:
            if block_id not in in_states:
                continue
            state = in_states[block_id].copy()
            block = cfg.block(block_id)
            if block.loop is not None and isinstance(
                block.loop, (ast.For, ast.AsyncFor)
            ):
                self._check_rotation(block.loop, dict(state.env))
            self._transfer_block(cfg, block_id, state)
        if self.program and cfg.exit in in_states:
            self._check_exit(in_states[cfg.exit])
        return self.findings

    def _succs(self, block: Block, env: Env) -> list[int]:
        """A block's successors, less a ``for`` loop's zero-trip exit
        when its ``range`` provably runs at least once."""
        if block.zero_trip is None:
            return block.succs
        trips = range_trip_count(block.loop.iter, env, self.module)
        if trips is None or trips.lo is None or trips.lo < 1:
            return block.succs
        return [succ for succ in block.succs if succ != block.zero_trip]

    # -- block transfer -------------------------------------------------------

    def _transfer_block(self, cfg: CFG, block_id: int, state: DmaState) -> None:
        block = cfg.block(block_id)
        if block.loop is not None and isinstance(
            block.loop, (ast.For, ast.AsyncFor)
        ):
            bind_for_target(
                block.loop.target, block.loop.iter, state.env, self.module
            )
        for stmt in block.stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for call in sorted(
                (
                    node for node in _walk_no_lambdas(stmt)
                    if isinstance(node, ast.Call)
                ),
                key=lambda node: (node.lineno, node.col_offset),
            ):
                self._process_call(call, state)
            transfer_stmt(stmt, state.env, self.module)
        if len(state.inflight) > MAX_INFLIGHT:
            # Pathological input: stop claiming anything rather than churn.
            _poison(state)

    # -- call handling --------------------------------------------------------

    def _process_call(self, call: ast.Call, state: DmaState) -> None:
        name = call_name(call)
        if self.recording and name in CONSUME_CALLS:
            self._check_consume(call, state)
        if name in ISSUE_CALLS:
            effect = issue_effect(call, name, state.env, self.module)
            self._admit(effect, (call.lineno, call.col_offset), state, None)
        elif name in WAIT_CALLS:
            tags = wait_tag_list(call, state.env, self.module)
            self._do_wait(tags, call, call.lineno, state)
        elif name is not None and self.module.function(name) is not None:
            effects = self.module.dma_effects(name, call, state.env)
            if effects is UNKNOWN_EFFECTS:
                _poison(state)
                return
            assert effects is not None
            for effect in effects:
                if isinstance(effect, IssueEffect):
                    self._admit(effect, (effect.line, 0), state, call)
                elif not effect.conditional:
                    # A wait that may not execute clears nothing
                    # (must-semantics) and proves nothing about dead tags.
                    self._do_wait(effect.tags, call, effect.line, state)
        elif self.spu_param is not None and any(
            isinstance(arg, ast.Name) and arg.id == self.spu_param
            for arg in list(call.args) + [k.value for k in call.keywords]
        ):
            _poison(state)

    def _admit(
        self,
        effect: IssueEffect,
        site: tuple[int, int],
        state: DmaState,
        origin: ast.Call | None,  # the helper call that issued it, if any
    ) -> None:
        transfer = Transfer(
            site=site,
            kind=effect.kind,
            is_list=effect.is_list,
            tag=effect.tag,
            local=effect.local,
            size=effect.size,
            conditional=effect.conditional or effect.repeated,
        )
        if self.recording:
            self._check_overlap(
                transfer, effect.barrier, effect.fence, state, origin
            )
            self._check_direction_mix(
                transfer, effect.barrier, effect.fence, state, origin
            )
        state.inflight[transfer.site] = (
            transfer
            if transfer.site not in state.inflight
            else state.inflight[transfer.site].merge(transfer)
        )
        if transfer.tag.is_const:
            state.tags[transfer.tag.value] = _INFLIGHT
        else:
            state.tags_unknown = True

    def _do_wait(
        self,
        tags: tuple[int, ...] | None,
        call: ast.Call,
        line: int,
        state: DmaState,
    ) -> None:
        if tags is None:
            # Unknown tag set: may complete anything — clear everything.
            state.inflight.clear()
            state.tags = {
                key: (status - {"inflight"}) | {"waited"}
                if "inflight" in status else status
                for key, status in state.tags.items()
            }
            return
        if self.recording:
            self._check_dead_wait(tags, call, line, state)
        for site, transfer in list(state.inflight.items()):
            if not transfer.tag.is_const or transfer.tag.value in tags:
                # A transfer whose tag *could* be in the waited set may
                # have completed: drop the claim (prefer silence).
                del state.inflight[site]
        for tag in tags:
            state.tags[tag] = _WAITED

    # -- SL101 / SL102 --------------------------------------------------------

    def _check_consume(self, call: ast.Call, state: DmaState) -> None:
        gets = [t for t in state.inflight.values() if t.kind == "get"]
        if not gets:
            return
        self._record(
            "SL101",
            call.lineno,
            call.col_offset,
            f"{call_name(call)}() while mfc_get commands on tag group(s) "
            f"{{{_tag_set(gets)}}} are still outstanding; the local store "
            f"may not hold the data yet — wait_tags([...]) on those groups "
            f"first",
        )

    def _check_exit(self, state: DmaState) -> None:
        if not state.inflight:
            return
        last = max(state.inflight.values(), key=lambda t: t.site)
        self._record(
            "SL102",
            last.site[0],
            last.site[1],
            f"program {self.fn.name!r} can return with DMA on tag group(s) "
            f"{{{_tag_set(state.inflight.values())}}} still in flight; end "
            f"with wait_tags([...]) so the timed region covers the data",
        )

    # -- SL601 ----------------------------------------------------------------

    def _check_overlap(
        self,
        new: Transfer,
        barrier: bool,
        fence: bool,
        state: DmaState,
        origin: ast.Call | None,
    ) -> None:
        if new.is_list or not (new.local.is_const and new.size.is_const):
            return
        if new.size.value <= 0:
            return
        new_lo = new.local.value
        new_hi = new_lo + new.size.value
        if barrier:
            return  # ordered after every in-flight command
        for old in sorted(state.inflight.values(), key=lambda t: t.site):
            if old.is_list or old.site == new.site:
                continue
            if not (old.local.is_const and old.size.is_const):
                continue
            if old.size.value <= 0:
                continue
            if old.kind != "get" and new.kind != "get":
                continue  # PUT/PUT both read the LS: no race
            old_lo = old.local.value
            old_hi = old_lo + old.size.value
            if not (old_lo < new_hi and new_lo < old_hi):
                continue
            if (
                fence
                and old.tag.is_const and new.tag.is_const
                and old.tag.value == new.tag.value
            ):
                continue  # fence orders after the same tag group
            steps = [
                Step(
                    old.site[0],
                    f"{old.kind} of [{old_lo}, {old_hi}) issued here "
                    f"(tag {_tag_str(old.tag)}) and is still in flight",
                ),
            ]
            if origin is not None and origin.lineno != new.site[0]:
                steps.append(
                    Step(origin.lineno, "via this call into a module helper")
                )
            steps.append(
                Step(
                    new.site[0],
                    f"{new.kind} of [{new_lo}, {new_hi}) overlaps it with no "
                    f"fence/barrier/wait_tags in between",
                )
            )
            self._record(
                "SL601",
                new.site[0],
                new.site[1],
                f"local-store ranges [{old_lo}, {old_hi}) and "
                f"[{new_lo}, {new_hi}) overlap while both transfers are in "
                f"flight on the same MFC ({old.kind} tag {_tag_str(old.tag)} "
                f"vs {new.kind} tag {_tag_str(new.tag)}); order them with "
                f"wait_tags, a fence on the same tag group, or a barrier",
                tuple(steps),
            )

    # -- SL602 ----------------------------------------------------------------

    def _check_direction_mix(
        self,
        new: Transfer,
        barrier: bool,
        fence: bool,
        state: DmaState,
        origin: ast.Call | None,
    ) -> None:
        if barrier or fence or not new.tag.is_const or new.conditional:
            return
        tag = new.tag.value
        for old in sorted(state.inflight.values(), key=lambda t: t.site):
            if old.site == new.site or old.conditional:
                continue
            if not old.tag.is_const or old.tag.value != tag:
                continue
            if old.kind == new.kind:
                continue
            steps = [
                Step(old.site[0], f"{old.kind} issued on tag group {tag}"),
                Step(
                    new.site[0],
                    f"{new.kind} issued on the same tag group while the "
                    f"{old.kind} is still in flight",
                ),
            ]
            self._record(
                "SL602",
                new.site[0],
                new.site[1],
                f"tag group {tag} carries a {old.kind} and a {new.kind} "
                f"concurrently: waiting on it conflates read and write "
                f"completion (paper guideline: give writes their own tag "
                f"group)",
                tuple(steps),
            )
            return  # one finding per new command is enough

    def _check_dead_wait(
        self,
        tags: tuple[int, ...],
        call: ast.Call,
        line: int,
        state: DmaState,
    ) -> None:
        if state.tags_unknown or not self.fn_issues_dma:
            return
        for tag in tags:
            if state.tags.get(tag, _NEVER) == _NEVER:
                self._record(
                    "SL602",
                    line,
                    call.col_offset if line == call.lineno else 0,
                    f"wait on tag group {tag}, but no path through this "
                    f"function ever issues a DMA on it: the wait is dead "
                    f"(wrong tag constant, or the issue was removed)",
                    (Step(line, f"wait_tags on never-issued tag {tag}"),),
                )

    # -- SL603 ----------------------------------------------------------------

    def _check_rotation(self, loop: ast.For | ast.AsyncFor, env: Env) -> None:
        trips = range_trip_count(loop.iter, env, self.module)
        if trips is None or trips.lo is None:
            return
        bind_for_target(loop.target, loop.iter, env, self.module)
        if _body_waits(loop.body, self.module):
            return
        self._scan_rotation_stmts(loop, loop.body, env, trips.lo)

    def _scan_rotation_stmts(
        self,
        loop: ast.For | ast.AsyncFor,
        stmts: list[ast.stmt],
        env: Env,
        min_trips: int,
    ) -> None:
        for stmt in stmts:
            if isinstance(
                stmt,
                (
                    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                    ast.For, ast.AsyncFor, ast.While,
                ),
            ):
                # Nested loops are judged at their own loop head.
                continue
            if isinstance(stmt, ast.If):
                self._scan_rotation_stmts(loop, stmt.body, env, min_trips)
                self._scan_rotation_stmts(loop, stmt.orelse, env, min_trips)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._scan_rotation_stmts(loop, stmt.body, env, min_trips)
                continue
            if isinstance(stmt, ast.Try):
                for body in (
                    stmt.body, stmt.orelse, stmt.finalbody,
                    *(handler.body for handler in stmt.handlers),
                ):
                    self._scan_rotation_stmts(loop, body, env, min_trips)
                continue
            for call in (
                node for node in _walk_no_lambdas(stmt)
                if isinstance(node, ast.Call)
            ):
                if call_name(call) not in ELEM_CALLS:
                    continue
                local_expr = get_arg(call, 3, "local_offset")
                if local_expr is None:
                    continue
                period = _rotation_period(local_expr, env, self.module)
                if period is None or min_trips <= period:
                    continue
                self._record(
                    "SL603",
                    call.lineno,
                    call.col_offset,
                    f"double-buffer rotation over {period} window(s) inside "
                    f"a loop of at least {min_trips} iterations with no "
                    f"wait_tags in the body: iteration i+{period} reuses "
                    f"the window of iteration i while its transfer can "
                    f"still be in flight",
                    (
                        Step(
                            loop.lineno,
                            f"loop runs >= {min_trips} iterations",
                        ),
                        Step(
                            call.lineno,
                            f"local offset rotates modulo {period} with no "
                            f"wait in the loop body",
                        ),
                    ),
                )
            transfer_stmt(stmt, env, self.module)

    # -- bookkeeping ----------------------------------------------------------

    def _record(
        self, rule: str, line: int, col: int, message: str,
        steps: tuple[Step, ...] = (),
    ) -> None:
        key = (rule, line, col, message)
        if key in self._recorded:
            return
        self._recorded.add(key)
        self.findings.append(
            RawFinding(rule=rule, line=line, col=col, message=message,
                       steps=steps)
        )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _tag_str(tag: Interval) -> str:
    return str(tag.value) if tag.is_const else "?"


def _tag_set(transfers: Iterable[Transfer]) -> str:
    return ", ".join(sorted({_tag_str(t.tag) for t in transfers}))


def _walk_no_lambdas(node: ast.AST):
    """ast.walk that does not descend into lambdas or nested defs — their
    bodies run at another time (or never)."""
    stack = list(ast.iter_child_nodes(node))
    found = [node] if isinstance(node, (ast.Call,)) else []
    for item in found:
        yield item
    while stack:
        child = stack.pop()
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _body_waits(stmts: list[ast.stmt], module: ModuleModel) -> bool:
    """True when the loop body contains any wait — direct, or via a
    module-local helper whose effects include one."""
    for stmt in stmts:
        for node in _walk_no_lambdas(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in WAIT_CALLS:
                return True
            if name is not None and module.function(name) is not None:
                effects = module.dma_effects(name, node, {})
                if effects is UNKNOWN_EFFECTS:
                    return True  # unknown helper might wait: stay silent
                assert effects is not None
                if any(isinstance(e, WaitEffect) for e in effects):
                    return True
    return False


def _rotation_period(
    expr: ast.expr, env: Env, module: ModuleModel
) -> int | None:
    """The window count ``K`` of a rotation pattern ``... (x % K) ...``
    in a local-offset expression; None when there is no provable
    rotation.  ``x`` must actually vary (non-constant interval) — a
    constant modulo is indexing, not rotating."""
    for node in ast.walk(expr):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)):
            continue
        modulus = eval_expr(node.right, env, module)
        if not (modulus.is_const and modulus.value >= 1):
            continue
        left = eval_expr(node.left, env, module)
        if left.is_const:
            continue
        return modulus.value
    return None


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def check_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    module: ModuleModel,
    spu_param: str | None = None,
    program: bool = False,
) -> list[RawFinding]:
    """Run the DMA-state fixpoint over one function body; ``program``
    turns on SL102's exit check."""
    return _Checker(fn, module, spu_param, program).run()
