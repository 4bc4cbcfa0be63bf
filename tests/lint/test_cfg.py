"""Structural tests for the statement-level CFG builder."""

import ast
import textwrap

from repro.lint.dataflow.cfg import (
    RAISE_EXIT,
    STATEMENT,
    WITH_CLEANUP,
    build_cfg,
)
from repro.lint.dataflow.solver import solve_cfg


def _cfg_for(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body[0])


def _stmt_node(cfg, needle):
    for node in cfg.nodes:
        if node.stmt is not None and needle in ast.unparse(node.stmt).split("\n")[0]:
            return node
    raise AssertionError(f"no statement node matching {needle!r}")


def test_straight_line_has_exception_edges():
    cfg = _cfg_for(
        """
        def f(path):
            handle = open(path)
            handle.close()
        """
    )
    opened = _stmt_node(cfg, "open(path)")
    closed = _stmt_node(cfg, "handle.close()")
    assert cfg.raise_exit in cfg.exc_succ[opened.index]
    assert cfg.raise_exit in cfg.exc_succ[closed.index]
    assert closed.index in cfg.succ[opened.index]
    assert cfg.exit in cfg.succ[closed.index]


def test_try_finally_routes_exceptions_through_finally():
    cfg = _cfg_for(
        """
        def f(handle):
            try:
                handle.write(b"x")
            finally:
                handle.close()
        """
    )
    write = _stmt_node(cfg, "handle.write")
    close = _stmt_node(cfg, "handle.close")
    # The write's exception edge must lead to the finally body...
    reached = set()
    stack = list(cfg.exc_succ[write.index])
    while stack:
        index = stack.pop()
        if index in reached:
            continue
        reached.add(index)
        stack.extend(cfg.succ[index])
    assert close.index in reached
    # ...and the finally exit resumes both continuations.
    assert cfg.exit in cfg.succ[close.index]
    assert cfg.raise_exit in cfg.succ[close.index]


def test_catch_all_handler_stops_unwinding():
    cfg = _cfg_for(
        """
        def f(segment, blob):
            try:
                segment.write(blob)
            except BaseException:
                segment.close()
                raise
        """
    )
    write = _stmt_node(cfg, "segment.write")
    # The body's exception dispatch must not leak straight to raise-exit:
    # every unwind goes through the handler.
    for dispatch in cfg.exc_succ[write.index]:
        assert cfg.raise_exit not in cfg.succ[dispatch]


def test_non_catch_all_handler_keeps_unwinding_edge():
    cfg = _cfg_for(
        """
        def f(segment, blob):
            try:
                segment.write(blob)
            except OSError:
                pass
        """
    )
    write = _stmt_node(cfg, "segment.write")
    assert any(
        cfg.raise_exit in cfg.succ[dispatch]
        for dispatch in cfg.exc_succ[write.index]
    )


def test_with_gets_cleanup_node_on_all_paths():
    cfg = _cfg_for(
        """
        def f(path):
            with open(path) as handle:
                return handle.read()
        """
    )
    cleanups = [node for node in cfg.nodes if node.kind == WITH_CLEANUP]
    assert len(cleanups) == 1
    cleanup = cleanups[0]
    read = _stmt_node(cfg, "return handle.read()")
    # Body exceptions and the body's return both route through cleanup.
    assert cleanup.index in cfg.exc_succ[read.index]
    assert cleanup.index in cfg.succ[read.index]
    assert cfg.exit in cfg.succ[cleanup.index]


def test_loop_has_back_edge_and_zero_iteration_path():
    cfg = _cfg_for(
        """
        def f(items):
            total = 0
            for item in items:
                total += item
            return total
        """
    )
    head = _stmt_node(cfg, "for item in items")
    body = _stmt_node(cfg, "total += item")
    done = _stmt_node(cfg, "return total")
    assert head.index in cfg.succ[body.index]  # back edge
    assert done.index in cfg.succ[head.index]  # zero-iteration path
    assert body.index in cfg.succ[head.index]


def test_break_reaches_code_after_loop():
    cfg = _cfg_for(
        """
        def f(items):
            for item in items:
                if item:
                    break
            return item
        """
    )
    broke = _stmt_node(cfg, "break")
    done = _stmt_node(cfg, "return item")
    reached = set()
    stack = list(cfg.succ[broke.index])
    while stack:
        index = stack.pop()
        if index in reached:
            continue
        reached.add(index)
        stack.extend(cfg.succ[index])
    assert done.index in reached


def test_return_inside_try_finally_runs_finally_first():
    cfg = _cfg_for(
        """
        def f(handle):
            try:
                return handle.read()
            finally:
                handle.close()
        """
    )
    ret = _stmt_node(cfg, "return handle.read()")
    close = _stmt_node(cfg, "handle.close()")
    # return must NOT reach exit directly; it unwinds into the finally.
    assert cfg.exit not in cfg.succ[ret.index]
    reached = set()
    stack = list(cfg.succ[ret.index])
    while stack:
        index = stack.pop()
        if index in reached:
            continue
        reached.add(index)
        stack.extend(cfg.succ[index])
    assert close.index in reached


def test_reachability_and_order_are_deterministic():
    source = """
        def f(flag, path):
            if flag:
                handle = open(path)
                handle.close()
            return flag
        """
    first = _cfg_for(source)
    second = _cfg_for(source)
    assert first.succ == second.succ
    assert first.exc_succ == second.exc_succ
    # A constant state reaches exactly the nodes reachable from entry.
    in_states, converged = solve_cfg(
        first, True, lambda node, state: (state, state), lambda a, b: a
    )
    assert converged
    reachable = set(in_states)
    assert first.entry in reachable
    assert first.exit in reachable
    statements = [n.index for n in first.nodes if n.kind == STATEMENT and n.stmt]
    assert set(statements) <= reachable


def test_raise_exit_reachable_from_raising_statement():
    cfg = _cfg_for(
        """
        def f(x):
            y = x + 1
            return y
        """
    )
    add = _stmt_node(cfg, "y = x + 1")
    assert cfg.raise_exit in cfg.exc_succ[add.index]
    assert cfg.nodes[cfg.raise_exit].kind == RAISE_EXIT
