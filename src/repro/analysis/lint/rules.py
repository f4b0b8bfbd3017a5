"""The simlint rule catalog.

Every rule is a pure function over a :class:`RuleContext` (one parsed
module plus its classified functions) returning findings.  The catalog
mirrors the paper's programming guidelines: each rule is the static shadow
of a misuse mode that would silently corrupt a bandwidth number, livelock
the simulator, or break the byte-identical determinism the result cache
and parallel executor rely on.

Rule numbering groups by theme:

* ``SL1xx`` — DMA synchronisation discipline (tag groups, delayed sync),
  answered by the same DMA-state fixpoint as ``SL6xx``;
* ``SL2xx`` — simulation-process liveness (zero-time livelocks);
* ``SL3xx`` — DMA size/alignment legality and efficiency;
* ``SL4xx`` — kernel-time integrality (cycle counts are integers);
* ``SL5xx`` — determinism (no wall clocks or unseeded RNGs in sim code);
* ``SL6xx`` — dataflow hazard proofs (the static shadow of the runtime
  ``DmaSanitizer``: buffer overlap, tag lifecycle, double-buffer phase),
  computed by the CFG + interval engine in :mod:`.cfg`/:mod:`.dataflow`/
  :mod:`.summaries`/:mod:`.hazards`;
* ``SL8xx`` — lint hygiene (invalid or stale suppression comments),
  emitted by the engine itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.hazards import check_function
from repro.analysis.lint.intrinsics import (
    CONSUME_CALLS,
    ELEM_CALLS,
    LIST_CALLS,
    call_name,
    get_arg,
)
from repro.analysis.lint.summaries import ModuleModel
from repro.cell.dma import EFFICIENT_MIN_BYTES, validate_transfer
from repro.cell.errors import DmaAlignmentError, DmaSizeError

#: Maximum elements one DMA list can carry (CBE Programming Handbook).
LIST_MAX_ELEMENTS = 2048


@dataclass
class FunctionInfo:
    """One function definition, classified for the rules."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    is_generator: bool
    first_param: str | None

    @property
    def is_sim(self) -> bool:
        """Heuristic: sim processes and SPU programs are generators, or
        take the runtime handle (``spu``/``env``) as their first arg."""
        return self.is_generator or self.first_param in ("spu", "env")

    @property
    def is_spu_program(self) -> bool:
        return self.first_param == "spu"

    @property
    def is_helper(self) -> bool:
        return self.node.name.startswith("_")


@dataclass
class RuleContext:
    """Everything a rule sees: one parsed module."""

    tree: ast.Module
    path: str
    functions: list[FunctionInfo] = field(default_factory=list)
    #: Dataflow findings (SL1xx, SL6xx), computed once per module on
    #: first demand and shared by the five dataflow rule entries.
    _dataflow: list[Finding] | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Rule:
    """A registered rule: identity, default severity, and its checker."""

    id: str
    name: str
    severity: Severity
    summary: str
    check: Callable[[RuleContext], list[Finding]]


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

def keyword_arg(node: ast.Call, name: str) -> ast.expr | None:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def const_int(expr: ast.expr | None) -> int | None:
    """The literal int value of an expression, if it has one.
    ``True``/``False`` are not cycle counts or tags."""
    if (
        isinstance(expr, ast.Constant)
        and type(expr.value) is int
    ):
        return expr.value
    if (
        isinstance(expr, ast.UnaryOp)
        and isinstance(expr.op, ast.USub)
        and isinstance(expr.operand, ast.Constant)
        and type(expr.operand.value) is int
    ):
        return -expr.operand.value
    return None


def iter_calls(node: ast.AST) -> list[ast.Call]:
    return [child for child in ast.walk(node) if isinstance(child, ast.Call)]


def body_without_nested_functions(node: ast.AST) -> list[ast.AST]:
    """All descendants of ``node``, not descending into nested function
    or class definitions (their bodies are analysed on their own)."""
    found: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        found.append(child)
        stack.extend(ast.iter_child_nodes(child))
    return found


def contains_yield(node: ast.AST) -> bool:
    return any(
        isinstance(child, (ast.Yield, ast.YieldFrom))
        for child in body_without_nested_functions(node)
    )


# ---------------------------------------------------------------------------
# SL201: zero-time livelock loops
# ---------------------------------------------------------------------------

#: Iterator factories that never terminate on their own.
_INFINITE_ITERATORS = frozenset({"count", "cycle", "repeat"})


def _loop_escapes(node: ast.While | ast.For) -> bool:
    """True when the loop body can leave the loop (break/return/raise)."""
    return any(
        isinstance(child, (ast.Break, ast.Return, ast.Raise))
        for child in body_without_nested_functions(node)
    )


def _names_read(expr: ast.expr) -> set[str]:
    """Names (and attribute roots) an expression reads."""
    names: set[str] = set()
    for child in ast.walk(expr):
        if isinstance(child, ast.Name):
            names.add(child.id)
    return names


def _names_mutated(node: ast.While | ast.For) -> set[str]:
    """Names the loop body could change: assignment targets, augmented
    assigns, deletes, and receivers of method calls (conservatively
    counted as mutation)."""
    mutated: set[str] = set()
    for child in body_without_nested_functions(node):
        if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                child.targets if isinstance(child, ast.Assign) else [child.target]
            )
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        mutated.add(name.id)
        elif isinstance(child, ast.Delete):
            for target in child.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        mutated.add(name.id)
        elif isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute):
                root = func.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name):
                    mutated.add(root.id)
            # A call taking a name as an argument may mutate it too.
            for arg in list(child.args) + [k.value for k in child.keywords]:
                if isinstance(arg, ast.Name):
                    mutated.add(arg.id)
    return mutated


def _is_const_true(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and bool(expr.value)


def check_yieldless_loop(context: RuleContext) -> list[Finding]:
    """SL201: a loop in a sim process that cannot yield cannot let
    simulated time advance — if it spins, it spins at one instant
    forever, which only the runtime watchdog (PR 2) would catch."""
    findings: list[Finding] = []
    for info in context.functions:
        if not info.is_generator:
            continue
        for node in body_without_nested_functions(info.node):
            if isinstance(node, ast.While):
                if contains_yield(node) or _loop_escapes(node):
                    continue
                if _is_const_true(node.test):
                    reason = "its test is constantly true"
                elif not (_names_read(node.test) & _names_mutated(node)):
                    reason = "nothing in its body changes its test"
                else:
                    continue
                findings.append(
                    _finding(
                        RULES["SL201"],
                        context.path,
                        node,
                        f"while-loop in sim process {info.node.name!r} has no "
                        f"yield on any path and {reason}: it livelocks the "
                        f"simulation at one instant (yield a timeout/event, "
                        f"or break)",
                    )
                )
            elif isinstance(node, ast.For):
                if contains_yield(node) or _loop_escapes(node):
                    continue
                iterator = node.iter
                if (
                    isinstance(iterator, ast.Call)
                    and call_name(iterator) in _INFINITE_ITERATORS
                ):
                    findings.append(
                        _finding(
                            RULES["SL201"],
                            context.path,
                            node,
                            f"for-loop in sim process {info.node.name!r} "
                            f"iterates {call_name(iterator)}() without a "
                            f"yield or break: zero-time livelock",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# SL301 / SL302: DMA size and alignment legality
# ---------------------------------------------------------------------------

def check_illegal_dma(context: RuleContext) -> list[Finding]:
    """SL301: statically-known size/alignment constants that the MFC
    would reject at runtime (``validate_transfer``) — caught at lint time
    with the exact same legality rules, so the two can never drift."""
    findings: list[Finding] = []
    for call in iter_calls(context.tree):
        name = call_name(call)
        if name in ELEM_CALLS or name == "DmaCommand":
            size = const_int(get_arg(call, 0, "size"))
            if size is None:
                continue
            local = const_int(keyword_arg(call, "local_offset")) or 0
            remote = const_int(keyword_arg(call, "remote_offset")) or 0
            try:
                validate_transfer(size, local, remote)
            except (DmaSizeError, DmaAlignmentError) as error:
                findings.append(
                    _finding(RULES["SL301"], context.path, call, str(error))
                )
        elif name in LIST_CALLS:
            element_size = const_int(get_arg(call, 0, "element_size"))
            if element_size is not None:
                try:
                    validate_transfer(element_size, 0, 0)
                except (DmaSizeError, DmaAlignmentError) as error:
                    findings.append(
                        _finding(
                            RULES["SL301"], context.path, call,
                            f"list element: {error}",
                        )
                    )
            n_elements = const_int(get_arg(call, 1, "n_elements"))
            if n_elements is not None and n_elements > LIST_MAX_ELEMENTS:
                findings.append(
                    _finding(
                        RULES["SL301"], context.path, call,
                        f"a DMA list holds at most {LIST_MAX_ELEMENTS} "
                        f"elements, got {n_elements}",
                    )
                )
    return findings


def check_inefficient_dma(context: RuleContext) -> list[Finding]:
    """SL302: legal but sub-128 B single transfers — the paper measures
    "a very high performance degradation" below one bus packet; a DMA
    list keeps bandwidth flat instead."""
    findings: list[Finding] = []
    for call in iter_calls(context.tree):
        if call_name(call) not in ELEM_CALLS:
            continue
        size = const_int(get_arg(call, 0, "size"))
        if size is None or size >= EFFICIENT_MIN_BYTES or size <= 0:
            continue
        try:
            validate_transfer(size, 0, 0)
        except (DmaSizeError, DmaAlignmentError):
            continue  # SL301 already reports it
        findings.append(
            _finding(
                RULES["SL302"], context.path, call,
                f"{size} B transfer is below the {EFFICIENT_MIN_BYTES} B "
                f"bus-packet size (paper: high degradation); batch into a "
                f"DMA list or use >= {EFFICIENT_MIN_BYTES} B elements",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# SL401: kernel time is an integer
# ---------------------------------------------------------------------------

#: Calls whose first argument is a cycle count.
_DELAY_CALLS = {"timeout": 0, "compute": 0}


def _float_reason(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Constant) and type(expr.value) is float:
        return f"literal {expr.value!r} is a float"
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
        return "true division (/) produces a float — use // for cycles"
    for child in ast.walk(expr):
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div):
            return "expression uses true division (/) — use // for cycles"
        if isinstance(child, ast.Constant) and type(child.value) is float:
            return f"expression mixes in float literal {child.value!r}"
    return None


def check_float_delay(context: RuleContext) -> list[Finding]:
    """SL401: fractional/float cycle delays.  The kernel rejects
    non-integral delays at runtime; float-typed expressions that happen
    to be integral survive — until a parameter change makes run-to-run
    determinism depend on float rounding."""
    findings: list[Finding] = []
    for call in iter_calls(context.tree):
        name = call_name(call)
        if name not in _DELAY_CALLS:
            continue
        keyword = "delay" if name == "timeout" else "cycles"
        expr = get_arg(call, _DELAY_CALLS[name], keyword)
        if expr is None:
            continue
        reason = _float_reason(expr)
        if reason is None:
            continue
        findings.append(
            _finding(
                RULES["SL401"], context.path, call,
                f"{name}() delay: {reason}; kernel time is an integer "
                f"cycle count",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# SL501: nondeterminism in sim code
# ---------------------------------------------------------------------------

#: module -> attributes that are banned inside sim code (``*`` = all).
_BANNED_MODULES: dict[str, frozenset[str]] = {
    "random": frozenset("*"),
    "secrets": frozenset("*"),
    "time": frozenset("*"),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
    "os": frozenset({"urandom", "getrandom"}),
}

#: random-module attributes that are fine: constructing a *seeded* stream.
_SEEDED_FACTORIES = frozenset({"Random", "SystemRandom"})


def _module_aliases(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """(alias -> module) for ``import m`` and
    (name -> (module, attr)) for ``from m import attr``."""
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _BANNED_MODULES:
                    modules[alias.asname or root] = root
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in _BANNED_MODULES:
                for alias in node.names:
                    names[alias.asname or alias.name] = (root, alias.name)
    return modules, names


def _banned(module: str, attr: str) -> bool:
    banned = _BANNED_MODULES[module]
    return "*" in banned or attr in banned


def check_nondeterminism(context: RuleContext) -> list[Finding]:
    """SL501: wall clocks and unseeded RNGs inside sim code.

    Every simulation here must be byte-identical run to run: the result
    cache keys on (config, workload, seed), and the parallel executor
    merges worker outputs assuming replays agree.  ``random.Random(seed)``
    is the sanctioned source; anything reading the wall clock or global
    RNG state silently breaks both.
    """
    modules, from_names = _module_aliases(context.tree)
    if not modules and not from_names:
        return []
    findings: list[Finding] = []
    for info in context.functions:
        if not info.is_sim:
            continue
        for call in (
            c for c in body_without_nested_functions(info.node)
            if isinstance(c, ast.Call)
        ):
            func = call.func
            culprit: str | None = None
            if isinstance(func, ast.Name) and func.id in from_names:
                module, attr = from_names[func.id]
                if _banned(module, attr) and not (
                    module == "random"
                    and attr in _SEEDED_FACTORIES
                    and call.args
                ):
                    culprit = f"{module}.{attr}"
            elif isinstance(func, ast.Attribute):
                root = func.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    module = modules[root.id]
                    if _banned(module, func.attr):
                        seeded = (
                            module == "random"
                            and func.attr in _SEEDED_FACTORIES
                            and bool(call.args)
                        )
                        if not seeded:
                            culprit = f"{module}.{func.attr}"
            if culprit is None:
                continue
            findings.append(
                _finding(
                    RULES["SL501"], context.path, call,
                    f"{culprit}() inside sim code breaks byte-identical "
                    f"determinism (result cache, parallel executor); pass a "
                    f"seeded random.Random or take values from the workload "
                    f"spec instead",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# SL101 / SL102 / SL601 / SL602 / SL603: queries on the DMA-state fixpoint
# ---------------------------------------------------------------------------

def _dataflow_findings(context: RuleContext) -> list[Finding]:
    """Run the CFG + interval DMA-state fixpoint once per module and
    share its findings across the five dataflow rule entries.

    Helpers (leading underscore) are folded into their callers via
    module summaries — a helper's caller owns the synchronisation
    context, so judging its transfers in isolation would only
    manufacture noise.  The one exception is SL101: a helper that
    consumes a buffer it fetched itself before waiting on it is wrong
    in every calling context, so helper bodies are checked for SL101
    only — and SL101 is raised at a direct ``compute``/``write_out_mbox``
    call, so a helper without one is not checked at all.
    """
    if context._dataflow is None:
        model = ModuleModel(context.tree, context.path)
        findings: list[Finding] = []
        for info in context.functions:
            if not info.is_sim:
                continue
            if info.is_helper and not any(
                isinstance(node, ast.Call) and call_name(node) in CONSUME_CALLS
                for node in body_without_nested_functions(info.node)
            ):
                continue
            spu_param = (
                info.first_param
                if info.first_param in ("spu", "env")
                else None
            )
            program = info.is_spu_program and not info.is_helper
            for raw in check_function(info.node, model, spu_param, program):
                if info.is_helper and raw.rule != "SL101":
                    continue
                rule = RULES[raw.rule]
                findings.append(
                    Finding(
                        rule=rule.id,
                        name=rule.name,
                        severity=rule.severity,
                        path=context.path,
                        line=raw.line,
                        col=raw.col,
                        message=raw.message,
                        steps=tuple(
                            (step.line, step.note) for step in raw.steps
                        ),
                    )
                )
        context._dataflow = findings
    return context._dataflow


def check_ls_read_before_sync(context: RuleContext) -> list[Finding]:
    """SL101: computing on (or publishing) local-store data while a GET
    may still be in flight on some path — on hardware the buffer may
    not have landed, so the numbers are garbage."""
    return [f for f in _dataflow_findings(context) if f.rule == "SL101"]


def check_unwaited_dma(context: RuleContext) -> list[Finding]:
    """SL102: an SPU program that can return with DMA still in flight.

    The paper's rule is *delay* synchronisation, not *skip* it: a timed
    region that ends before the tag groups are quiet reports bandwidth
    for data that never arrived.  Helpers (leading underscore) are
    exempt — their caller owns the synchronisation.
    """
    return [f for f in _dataflow_findings(context) if f.rule == "SL102"]


def check_ls_buffer_overlap(context: RuleContext) -> list[Finding]:
    """SL601: two transfers with provably intersecting
    ``[local_offset, local_offset + size)`` ranges concurrently in
    flight on one MFC, at least one a GET, with no fence/barrier/
    ``wait_tags`` ordering them — the static counterpart of the runtime
    ``DmaSanitizer`` race check."""
    return [f for f in _dataflow_findings(context) if f.rule == "SL601"]


def check_tag_lifecycle(context: RuleContext) -> list[Finding]:
    """SL602: tag-group lifecycle errors — a wait on a tag group no path
    ever issues on (dead wait), or GETs and PUTs concurrently in flight
    on one tag group (the paper gives writes their own group so "quiet"
    has one meaning)."""
    return [f for f in _dataflow_findings(context) if f.rule == "SL602"]


def check_double_buffer_phase(context: RuleContext) -> list[Finding]:
    """SL603: rotation arithmetic (``base + (i % K) * stride``) in a
    loop that provably runs more than K iterations with no wait in the
    body — some iteration reuses the in-flight window."""
    return [f for f in _dataflow_findings(context) if f.rule == "SL603"]


# ---------------------------------------------------------------------------
# SL801 / SL802: suppression hygiene (emitted by the engine)
# ---------------------------------------------------------------------------

def _engine_emitted(context: RuleContext) -> list[Finding]:
    """SL801/SL802 findings are produced by the engine's suppression
    pass, which sees the raw source text; the registry entries exist so
    the ids are selectable, documented, and carry severities."""
    del context
    return []


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _finding(rule: Rule, path: str, node: ast.AST, message: str) -> Finding:
    return Finding(
        rule=rule.id,
        name=rule.name,
        severity=rule.severity,
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "SL101", "ls-read-before-sync", Severity.ERROR,
            "local-store data consumed while its GET tag group is in flight",
            check_ls_read_before_sync,
        ),
        Rule(
            "SL102", "unwaited-dma", Severity.ERROR,
            "SPU program can return with DMA still in flight",
            check_unwaited_dma,
        ),
        Rule(
            "SL201", "yieldless-loop", Severity.ERROR,
            "loop in a sim process cannot yield: zero-time livelock",
            check_yieldless_loop,
        ),
        Rule(
            "SL301", "illegal-dma-size", Severity.ERROR,
            "DMA size/alignment constant the MFC would reject",
            check_illegal_dma,
        ),
        Rule(
            "SL302", "inefficient-dma-size", Severity.WARNING,
            "legal but sub-128 B transfer (paper's efficiency cliff)",
            check_inefficient_dma,
        ),
        Rule(
            "SL401", "float-delay", Severity.ERROR,
            "fractional/float cycle delay",
            check_float_delay,
        ),
        Rule(
            "SL501", "nondeterminism", Severity.ERROR,
            "wall clock or unseeded RNG inside sim code",
            check_nondeterminism,
        ),
        Rule(
            "SL601", "ls-buffer-overlap", Severity.ERROR,
            "overlapping local-store ranges concurrently in flight",
            check_ls_buffer_overlap,
        ),
        Rule(
            "SL602", "tag-lifecycle", Severity.ERROR,
            "tag-group lifecycle error (dead wait / mixed directions)",
            check_tag_lifecycle,
        ),
        Rule(
            "SL603", "double-buffer-phase", Severity.ERROR,
            "buffer rotation can alias the in-flight window",
            check_double_buffer_phase,
        ),
        Rule(
            "SL801", "invalid-suppression", Severity.ERROR,
            "suppression comment without rules or reason",
            _engine_emitted,
        ),
        Rule(
            "SL802", "unused-suppression", Severity.WARNING,
            "suppression that matches no finding",
            _engine_emitted,
        ),
    )
}
