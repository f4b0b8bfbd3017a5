"""Per-function control-flow graphs for the simlint dataflow engine.

One :class:`CFG` per function body: basic blocks of *simple* statements
connected by edges for branches, loops, exception handlers and early
exits.  The graph is deliberately coarse where Python is dynamic —
exceptions may leave a ``try`` body from any statement, so every body
block gets an edge to every handler — and exact where the SL6xx rules
need it: loop back edges are real (the fixpoint sees state flowing from
the bottom of a loop into its head), and ``break``/``continue``/
``return``/``raise`` terminate their blocks.

Loop-head blocks carry the originating ``ast.While``/``ast.For`` node so
the dataflow can bind induction variables (``for i in range(...)``) and
the SL603 checker can find loop trip counts.  A ``for`` loop's exit is
reached from the end of every iteration and, separately, from the head
when the iterator is empty on entry (:attr:`Block.zero_trip`), so a loop
that provably runs has no path that skips its body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["Block", "CFG", "build_cfg"]


@dataclass
class Block:
    """One basic block: simple statements executed in order."""

    id: int
    stmts: list[ast.stmt] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)
    #: The ``While``/``For`` node when this block is a loop head (its
    #: test / iterator is evaluated here, once per entry and iteration).
    loop: ast.While | ast.For | None = None
    #: True for a loop head's back-edge target (same block as ``loop``).
    is_loop_head: bool = False
    #: On a ``for`` loop head: the loop-exit block, reached from the
    #: head only when the iterator is empty on entry (every iteration's
    #: end has its own edge there), so the dataflow can drop that edge
    #: for a ``range`` that provably runs.
    zero_trip: int | None = None

    def first_line(self) -> int | None:
        if self.loop is not None:
            return self.loop.lineno
        for stmt in self.stmts:
            return stmt.lineno
        return None


@dataclass
class CFG:
    """A function body's control-flow graph."""

    blocks: dict[int, Block]
    entry: int
    exit: int

    def block(self, block_id: int) -> Block:
        return self.blocks[block_id]

    def rpo(self) -> list[int]:
        """Reverse post-order from the entry (loop heads before bodies),
        the iteration order the fixpoint driver wants."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(block_id: int) -> None:
            # Iterative DFS: deep CFGs must not hit the recursion limit.
            stack: list[tuple[int, int]] = [(block_id, 0)]
            seen.add(block_id)
            while stack:
                current, index = stack.pop()
                succs = self.blocks[current].succs
                if index < len(succs):
                    stack.append((current, index + 1))
                    nxt = succs[index]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(current)

        visit(self.entry)
        order.reverse()
        return order


class _Builder:
    def __init__(self) -> None:
        self.blocks: dict[int, Block] = {}
        self._next_id = 0
        # (break_targets, continue_targets) stack for enclosing loops.
        self._loops: list[tuple[int, int]] = []
        # Handler-head block ids of the innermost active try statements:
        # any block created inside the try body gets edges to them.
        self._handlers: list[list[int]] = []

    def new_block(self, **kwargs) -> Block:
        block = Block(id=self._next_id, **kwargs)
        self._next_id += 1
        self.blocks[block.id] = block
        return block

    def edge(self, src: int | None, dst: int) -> None:
        if src is None:
            return
        src_block = self.blocks[src]
        if dst not in src_block.succs:
            src_block.succs.append(dst)
            self.blocks[dst].preds.append(src)

    # -- statement walk -------------------------------------------------------

    def walk(self, stmts: list[ast.stmt], current: int | None) -> int | None:
        """Thread ``stmts`` onto block ``current``; returns the open block
        at the end, or None when every path left (return/break/...)."""
        for stmt in stmts:
            if current is None:
                # Unreachable code after a terminator: park it in a
                # fresh predecessor-less block so its statements still
                # exist in the graph (rules prefer silence there).
                current = self.new_block().id
            if isinstance(stmt, ast.If):
                current = self._walk_if(stmt, current)
            elif isinstance(stmt, (ast.While,)):
                current = self._walk_while(stmt, current)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                current = self._walk_for(stmt, current)
            elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                current = self._walk_try(stmt, current)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                current = self._walk_with(stmt, current)
            elif isinstance(stmt, ast.Match):
                current = self._walk_match(stmt, current)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                self._append(current, stmt)
                self.edge(current, self._exit)
                current = None
            elif isinstance(stmt, ast.Break):
                self._append(current, stmt)
                if self._loops:
                    self.edge(current, self._loops[-1][0])
                current = None
            elif isinstance(stmt, ast.Continue):
                self._append(current, stmt)
                if self._loops:
                    self.edge(current, self._loops[-1][1])
                current = None
            else:
                # Simple statement (incl. nested FunctionDef/ClassDef,
                # which the dataflow skips over).
                self._append(current, stmt)
        return current

    def _append(self, block_id: int, stmt: ast.stmt) -> None:
        self.blocks[block_id].stmts.append(stmt)
        # A statement inside a try body may raise into any handler.
        for handlers in self._handlers:
            for handler in handlers:
                self.edge(block_id, handler)

    def _walk_if(self, stmt: ast.If, current: int) -> int | None:
        # The test itself is evaluated in the current block.
        self._append(current, ast.Expr(value=stmt.test, lineno=stmt.lineno,
                                       col_offset=stmt.col_offset))
        then_head = self.new_block()
        self.edge(current, then_head.id)
        then_end = self.walk(stmt.body, then_head.id)
        if stmt.orelse:
            else_head = self.new_block()
            self.edge(current, else_head.id)
            else_end = self.walk(stmt.orelse, else_head.id)
        else:
            else_end = current
        if then_end is None and else_end is None:
            return None
        join = self.new_block()
        self.edge(then_end, join.id)
        self.edge(else_end, join.id)
        return join.id

    def _walk_loop_body(
        self, stmt: ast.While | ast.For, head: Block
    ) -> int:
        after = self.new_block()
        self.edge(head.id, after.id)  # zero-iteration / loop-exit edge
        body_head = self.new_block()
        self.edge(head.id, body_head.id)
        self._loops.append((after.id, head.id))
        body_end = self.walk(stmt.body, body_head.id)
        self._loops.pop()
        self.edge(body_end, head.id)  # back edge
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            # The iterator may run out after any iteration: each back
            # edge's source (the body end, every ``continue``) also
            # leaves the loop.  preds[0] is the entry edge.
            head.zero_trip = after.id
            for pred in head.preds[1:]:
                self.edge(pred, after.id)
        if stmt.orelse:
            else_end = self.walk(stmt.orelse, after.id)
            if else_end is not None and else_end != after.id:
                return else_end
        return after.id

    def _walk_while(self, stmt: ast.While, current: int) -> int:
        head = self.new_block(loop=stmt, is_loop_head=True)
        self.edge(current, head.id)
        return self._walk_loop_body(stmt, head)

    def _walk_for(self, stmt: ast.For | ast.AsyncFor, current: int) -> int:
        head = self.new_block(loop=stmt, is_loop_head=True)
        self.edge(current, head.id)
        return self._walk_loop_body(stmt, head)

    def _walk_try(self, stmt: ast.Try, current: int) -> int | None:
        handler_heads = [self.new_block() for _ in stmt.handlers]
        # The statement *before* the try can already be followed by a
        # handler (the first body statement may raise immediately).
        for handler in handler_heads:
            self.edge(current, handler.id)
        self._handlers.append([handler.id for handler in handler_heads])
        body_head = self.new_block()
        self.edge(current, body_head.id)
        body_end = self.walk(stmt.body, body_head.id)
        self._handlers.pop()
        if stmt.orelse:
            body_end = self.walk(stmt.orelse, body_end)
        ends = [body_end]
        for handler, head in zip(stmt.handlers, handler_heads):
            ends.append(self.walk(handler.body, head.id))
        live = [end for end in ends if end is not None]
        if stmt.finalbody:
            final_head = self.new_block()
            for end in live:
                self.edge(end, final_head.id)
            if not live:
                # finally still runs on the exceptional paths.
                self.edge(current, final_head.id)
            return self.walk(stmt.finalbody, final_head.id)
        if not live:
            return None
        join = self.new_block()
        for end in live:
            self.edge(end, join.id)
        return join.id

    def _walk_with(self, stmt: ast.With | ast.AsyncWith, current: int) -> int | None:
        for item in stmt.items:
            self._append(current, ast.Expr(
                value=item.context_expr,
                lineno=stmt.lineno, col_offset=stmt.col_offset,
            ))
        return self.walk(stmt.body, current)

    def _walk_match(self, stmt: ast.Match, current: int) -> int | None:
        self._append(current, ast.Expr(value=stmt.subject,
                                       lineno=stmt.lineno,
                                       col_offset=stmt.col_offset))
        ends: list[int | None] = [current]  # no case may match
        for case in stmt.cases:
            head = self.new_block()
            self.edge(current, head.id)
            ends.append(self.walk(case.body, head.id))
        live = [end for end in ends if end is not None]
        if not live:
            return None
        join = self.new_block()
        for end in live:
            self.edge(end, join.id)
        return join.id

    # -- entry point ----------------------------------------------------------

    def build(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
        entry = self.new_block()
        exit_block = self.new_block()
        self._exit = exit_block.id
        end = self.walk(node.body, entry.id)
        self.edge(end, exit_block.id)
        return CFG(blocks=self.blocks, entry=entry.id, exit=exit_block.id)


def build_cfg(node: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the CFG of one function definition's body."""
    return _Builder().build(node)
