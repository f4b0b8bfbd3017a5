"""Interprocedural summaries: what a module-local helper does for you.

The dataflow rules analyse one function at a time, but the shipped kernels
factor their issue loops into helpers (``_elem_loop``, ``issue_reads``)
and read module-level constants (``_READ_TAGS``, ``_WRITE_TAG``).  This
module threads those boundaries *within one module*:

* :class:`ModuleModel` — module-level integer/tuple constants plus an
  index of every function (including nested ones) by name;
* return summaries — the interval a helper returns, with its parameters
  bound to the intervals of the actual call arguments;
* DMA-effect summaries — the linearised sequence of abstract
  :class:`IssueEffect`/:class:`WaitEffect` a helper performs, again
  under caller argument binding, so ``yield from _elem_loop(spu, ...)``
  contributes its transfers to the caller's dataflow state.

Effects are a *linearisation*, not a path-sensitive product: an effect
under a branch or loop is flagged ``conditional``/``repeated`` and the
caller treats it weakly (it may not happen / may happen many times).
Cross-module calls are out of scope — a call the model cannot resolve
that receives the SPU handle conservatively clears the caller's hazard
state, so unknown code silences rules instead of feeding them guesses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.lint.dataflow import (
    TOP,
    Env,
    Interval,
    bind_for_target,
    eval_expr,
    transfer_stmt,
)
from repro.analysis.lint.intrinsics import (
    ISSUE_CALLS,
    WAIT_CALLS,
    IssueEffect,
    call_name,
    issue_effect,
    wait_tag_list,
)

__all__ = [
    "IssueEffect",
    "WaitEffect",
    "ModuleModel",
    "MAX_SUMMARY_DEPTH",
]

#: Helper-expansion depth cap (a() -> b() -> c() stops here).
MAX_SUMMARY_DEPTH = 3


@dataclass(frozen=True)
class WaitEffect:
    """A tag-group wait a helper performs; ``tags=None`` = unknown set."""

    tags: tuple[int, ...] | None
    conditional: bool
    line: int


#: Sentinel: the helper (or something it calls) defeats the analysis.
UNKNOWN_EFFECTS = None


class ModuleModel:
    """Constants and function summaries of one parsed module."""

    def __init__(self, tree: ast.Module, path: str = "<string>") -> None:
        self.tree = tree
        self.path = path
        self._constants: dict[str, int] = {}
        self._tuples: dict[str, tuple[int, ...]] = {}
        self._functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self._return_memo: dict[tuple, Interval] = {}
        self._collect()

    def _collect(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                value = stmt.value
                if isinstance(value, ast.Constant) and type(value.value) is int:
                    self._constants[target.id] = value.value
                elif isinstance(value, (ast.Tuple, ast.List)):
                    elements: list[int] = []
                    for element in value.elts:
                        if (
                            isinstance(element, ast.Constant)
                            and type(element.value) is int
                        ):
                            elements.append(element.value)
                        else:
                            break
                    else:
                        self._tuples[target.id] = tuple(elements)
                elif (
                    isinstance(value, ast.UnaryOp)
                    and isinstance(value.op, ast.USub)
                    and isinstance(value.operand, ast.Constant)
                    and type(value.operand.value) is int
                ):
                    self._constants[target.id] = -value.operand.value

        def index(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # First definition wins; shadowing is rare and the
                    # conservative answer (the wrong summary) is avoided
                    # by simply not summarising ambiguous names.
                    if child.name in self._functions:
                        self._functions[child.name] = _AMBIGUOUS
                    else:
                        self._functions[child.name] = child
                    index(child)
                elif isinstance(child, ast.ClassDef):
                    index(child)
        index(self.tree)

    # -- constants ------------------------------------------------------------

    def constant_interval(self, name: str) -> Interval:
        value = self._constants.get(name)
        if value is not None:
            return Interval.const(value)
        return TOP

    def constant_tuple(self, name: str) -> tuple[int, ...] | None:
        return self._tuples.get(name)

    # -- function lookup ------------------------------------------------------

    def function(self, name: str) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        node = self._functions.get(name)
        if node is _AMBIGUOUS:
            return None
        return node

    # -- argument binding -----------------------------------------------------

    def bind_args(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        call: ast.Call,
        caller_env: Env,
        depth: int = 0,
    ) -> Env:
        """Parameter env of ``fn`` for this call: positional, keyword and
        default values evaluated in the caller's environment."""
        params = [arg.arg for arg in fn.args.posonlyargs + fn.args.args]
        env: Env = {}
        # Defaults align with the *last* parameters.
        defaults = fn.args.defaults
        for param, default in zip(params[len(params) - len(defaults):], defaults):
            env[param] = eval_expr(default, {}, self, depth)
        for kwarg, kwdefault in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if kwdefault is not None:
                env[kwarg.arg] = eval_expr(kwdefault, {}, self, depth)
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if position < len(params):
                env[params[position]] = eval_expr(arg, caller_env, self, depth)
        for keyword in call.keywords:
            if keyword.arg is not None:
                env[keyword.arg] = eval_expr(
                    keyword.value, caller_env, self, depth
                )
        return env

    # -- return summaries -----------------------------------------------------

    def return_interval(
        self, name: str, call: ast.Call, caller_env: Env, depth: int = 1
    ) -> Interval:
        """Joined interval of every ``return`` in helper ``name``."""
        fn = self.function(name)
        if fn is None or depth > MAX_SUMMARY_DEPTH:
            return TOP
        key = _memo_key(name, fn, call, caller_env, self)
        if key is not None and key in self._return_memo:
            return self._return_memo[key]
        if key is not None:
            # Recursion guard: a self-referential helper summarises TOP.
            self._return_memo[key] = TOP
        env = self.bind_args(fn, call, caller_env, depth)
        result: Interval | None = None

        def walk(stmts: list[ast.stmt]) -> None:
            nonlocal result
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, ast.Return):
                    value = (
                        eval_expr(stmt.value, env, self, depth)
                        if stmt.value is not None
                        else TOP
                    )
                    result = value if result is None else result.join(value)
                elif isinstance(stmt, ast.If):
                    walk(stmt.body)
                    walk(stmt.orelse)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    bind_for_target(stmt.target, stmt.iter, env, self)
                    walk(stmt.body)
                    walk(stmt.orelse)
                elif isinstance(stmt, ast.While):
                    walk(stmt.body)
                    walk(stmt.orelse)
                elif isinstance(stmt, ast.Try):
                    walk(stmt.body)
                    for handler in stmt.handlers:
                        walk(handler.body)
                    walk(stmt.orelse)
                    walk(stmt.finalbody)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    walk(stmt.body)
                else:
                    transfer_stmt(stmt, env, self)
        walk(fn.body)
        final = result if result is not None else TOP
        if key is not None:
            self._return_memo[key] = final
        return final

    # -- DMA-effect summaries -------------------------------------------------

    def dma_effects(
        self,
        name: str,
        call: ast.Call,
        caller_env: Env,
        depth: int = 1,
    ) -> list[IssueEffect | WaitEffect] | None:
        """Linearised DMA effects of helper ``name`` for this call, or
        ``UNKNOWN_EFFECTS`` when the helper defeats the analysis."""
        fn = self.function(name)
        if fn is None or depth > MAX_SUMMARY_DEPTH:
            return UNKNOWN_EFFECTS
        env = self.bind_args(fn, call, caller_env, depth)
        effects: list[IssueEffect | WaitEffect] = []
        spu_param = _spu_param(fn)
        defeated = False

        def emit_call(node: ast.Call, conditional: bool, repeated: bool) -> None:
            nonlocal defeated
            if defeated:
                return
            called = call_name(node)
            if called in ISSUE_CALLS:
                effects.append(issue_effect(node, called, env, self,
                                            conditional, repeated))
            elif called in WAIT_CALLS:
                effects.append(WaitEffect(
                    tags=wait_tag_list(node, env, self),
                    conditional=conditional or repeated,
                    line=node.lineno,
                ))
            elif called is not None and self.function(called) is not None:
                nested = self.dma_effects(called, node, env, depth + 1)
                if nested is UNKNOWN_EFFECTS:
                    defeated = True
                    return
                assert nested is not None
                for effect in nested:
                    if isinstance(effect, IssueEffect):
                        effects.append(effect.bound(conditional, repeated))
                    else:
                        effects.append(WaitEffect(
                            tags=effect.tags,
                            conditional=effect.conditional or conditional
                            or repeated,
                            line=effect.line,
                        ))
            elif spu_param is not None and any(
                isinstance(arg, ast.Name) and arg.id == spu_param
                for arg in list(node.args)
                + [k.value for k in node.keywords]
            ):
                # Unknown callee receives the SPU handle: it may issue or
                # wait anything.  Give up on this helper.
                defeated = True

        def walk(stmts: list[ast.stmt], conditional: bool, repeated: bool) -> None:
            for stmt in stmts:
                if defeated:
                    return
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, ast.If):
                    _calls_in_expr(stmt.test, conditional, repeated, emit_call)
                    walk(stmt.body, True, repeated)
                    walk(stmt.orelse, True, repeated)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    bind_for_target(stmt.target, stmt.iter, env, self)
                    walk(stmt.body, conditional, True)
                    walk(stmt.orelse, conditional, repeated)
                elif isinstance(stmt, ast.While):
                    walk(stmt.body, conditional, True)
                    walk(stmt.orelse, conditional, repeated)
                elif isinstance(stmt, ast.Try):
                    walk(stmt.body, conditional, repeated)
                    for handler in stmt.handlers:
                        walk(handler.body, True, repeated)
                    walk(stmt.orelse, True, repeated)
                    walk(stmt.finalbody, conditional, repeated)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    walk(stmt.body, conditional, repeated)
                else:
                    for node in sorted(
                        (n for n in ast.walk(stmt) if isinstance(n, ast.Call)),
                        key=lambda n: (n.lineno, n.col_offset),
                    ):
                        emit_call(node, conditional, repeated)
                    transfer_stmt(stmt, env, self)
        walk(fn.body, False, False)
        if defeated:
            return UNKNOWN_EFFECTS
        return effects


def _calls_in_expr(expr: ast.expr, conditional: bool, repeated: bool,
                   emit) -> None:
    for node in sorted(
        (n for n in ast.walk(expr) if isinstance(n, ast.Call)),
        key=lambda n: (n.lineno, n.col_offset),
    ):
        emit(node, conditional, repeated)


def _spu_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    params = [arg.arg for arg in fn.args.posonlyargs + fn.args.args]
    for param in params:
        if param in ("spu", "env"):
            return param
    return None


def _memo_key(name, fn, call, caller_env, module) -> tuple | None:
    """A hashable memo key for a return summary; None disables memoing
    (argument intervals that are unhashable never happen, but cheap
    calls with many distinct arguments would bloat the memo)."""
    try:
        env = module.bind_args(fn, call, caller_env)
        return (name, tuple(sorted(env.items())))
    except Exception:  # pragma: no cover - defensive
        return None


#: Sentinel stored for ambiguously-named functions.
_AMBIGUOUS = ast.FunctionDef(
    name="<ambiguous>", args=ast.arguments(
        posonlyargs=[], args=[], kwonlyargs=[], kw_defaults=[], defaults=[]
    ),
    body=[], decorator_list=[], lineno=0, col_offset=0,
)
