"""The DMA-intrinsic vocabulary every simlint rule reads calls through.

Which calls issue a GET or a PUT, which issue a DMA list, which wait on
tag groups and which consume local-store data — and how one intrinsic
call's arguments decode into an abstract :class:`IssueEffect`.  The
rule catalog (:mod:`.rules`), the helper summaries (:mod:`.summaries`)
and the DMA-state fixpoint (:mod:`.hazards`) share these definitions, so
they cannot disagree about what a call does.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.analysis.lint.dataflow import TOP, Env, Interval, eval_expr

if TYPE_CHECKING:
    from repro.analysis.lint.summaries import ModuleModel

#: SPU intrinsics that issue a GET (write into the local store).
GET_CALLS = frozenset({"mfc_get", "mfc_getf", "mfc_getb", "mfc_getl"})

#: SPU intrinsics that issue a PUT (read out of the local store).
PUT_CALLS = frozenset({"mfc_put", "mfc_putf", "mfc_putb", "mfc_putl"})

#: DMA-list intrinsics (``element_size``, ``n_elements`` lead).
LIST_CALLS = frozenset({"mfc_getl", "mfc_putl"})

#: Every DMA-issuing intrinsic.
ISSUE_CALLS = GET_CALLS | PUT_CALLS

#: Single-element DMA intrinsics (``size`` is the first argument).
ELEM_CALLS = ISSUE_CALLS - LIST_CALLS

#: Calls that synchronise tag groups (the model's tag-status reads).
WAIT_CALLS = frozenset({"wait_tags", "tag_group_quiet"})

#: Calls that consume local-store data (compute on it / publish results).
CONSUME_CALLS = frozenset({"compute", "write_out_mbox"})


def call_name(node: ast.Call) -> str | None:
    """The called name: ``spu.mfc_get(...)`` and ``mfc_get(...)`` both
    resolve to ``mfc_get``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def get_arg(node: ast.Call, position: int, name: str) -> ast.expr | None:
    """Argument by keyword name or position (None when absent)."""
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    if position < len(node.args):
        return node.args[position]
    return None


def _flag_set(node: ast.Call, name: str) -> bool:
    """True when keyword ``name`` is passed as the literal ``True``."""
    return any(
        keyword.arg == name
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in node.keywords
    )


def wait_tag_list(
    node: ast.Call, env: Env, module: ModuleModel
) -> tuple[int, ...] | None:
    """The tag groups a wait call covers; None when statically unknown
    (a computed list, or a whole tuple passed by name)."""
    expr = get_arg(node, 0, "tags")
    if not isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        return None
    tags: list[int] = []
    for element in expr.elts:
        value = eval_expr(element, env, module)
        if not value.is_const:
            return None
        tags.append(value.value)
    return tuple(tags)


@dataclass(frozen=True)
class IssueEffect:
    """A DMA command, abstracted: one intrinsic call decoded under an
    interval environment, or one a module-local helper performs."""

    kind: str  # "get" | "put"
    is_list: bool
    tag: Interval
    local: Interval
    size: Interval
    fence: bool
    barrier: bool
    conditional: bool
    repeated: bool
    line: int  # of the issuing call (same module)

    def bound(self, conditional: bool, repeated: bool) -> IssueEffect:
        """This effect as seen from a caller that runs it under a
        branch (``conditional``) or a loop (``repeated``)."""
        return replace(
            self,
            conditional=self.conditional or conditional,
            repeated=self.repeated or repeated,
        )


def issue_effect(
    node: ast.Call,
    name: str,
    env: Env,
    module: ModuleModel,
    conditional: bool = False,
    repeated: bool = False,
) -> IssueEffect:
    """Decode a GET/PUT intrinsic call (single element or list).

    An absent tag or local offset is 0, the intrinsics' default.  A
    list's local-store cursor is runtime-managed, so its range and size
    are unknown, and lists carry no fence/barrier flag.
    """
    if name in LIST_CALLS:
        tag = get_arg(node, 2, "tag")
        local = size = TOP
        fence = barrier = False
    else:
        tag = get_arg(node, 1, "tag")
        offset = get_arg(node, 3, "local_offset")
        local = (
            Interval.const(0) if offset is None
            else eval_expr(offset, env, module)
        )
        size = eval_expr(get_arg(node, 0, "size"), env, module)
        fence = name.endswith("f") or _flag_set(node, "fence")
        barrier = name.endswith("b") or _flag_set(node, "barrier")
    return IssueEffect(
        kind="get" if name in GET_CALLS else "put",
        is_list=name in LIST_CALLS,
        tag=Interval.const(0) if tag is None else eval_expr(tag, env, module),
        local=local,
        size=size,
        fence=fence,
        barrier=barrier,
        conditional=conditional,
        repeated=repeated,
        line=node.lineno,
    )
