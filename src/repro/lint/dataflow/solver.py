"""The one fixpoint solver every dataflow family (RL6xx–RL8xx) runs on.

:func:`solve_cfg` is the worklist over one function's CFG (RL7xx,
RL8xx); :func:`solve_program` is the callees-first summary loop over
the call graph (all three families).  Both are capped, and a cap that
fires is reported as an RL600 finding at the function's ``def`` line
instead of passing silently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional, Set, Tuple, TypeVar

from ..context import FunctionNode
from .callgraph import CallGraph
from .cfg import CFGNode, ControlFlowGraph
from .modules import ModuleGraph

#: Analyses per function in :func:`solve_program`, and full passes over
#: a body in the RL6xx interpreter, before the fixpoint is cut off.
MAX_ATTEMPTS = 10
#: :func:`solve_cfg` steps allowed per pair of CFG nodes (at least 64).
CFG_STEPS_PER_NODE_PAIR = 4

State = TypeVar("State")
Summary = TypeVar("Summary")


@dataclass(frozen=True)
class RawFinding:
    """One detector hit: picklable primitives, later wrapped as a Diagnostic."""

    code: str
    line: int
    col: int
    message: str


def truncation_finding(function: FunctionNode, family: str, cap: str) -> RawFinding:
    """The RL600 finding for a function whose ``family`` fixpoint hit ``cap``."""
    message = (
        f"{family} fixpoint for '{function.name}' stopped at {cap} before "
        "converging; its findings may be incomplete"
    )
    return RawFinding("RL600", function.lineno, function.col_offset, message)


def solve_cfg(
    cfg: ControlFlowGraph,
    entry: State,
    transfer: Callable[[CFGNode, State], Tuple[State, State]],
    join: Callable[[State, State], State],
) -> Tuple[Dict[int, State], bool]:
    """In-states of every reached node, and whether the worklist drained.

    ``transfer(node, state)`` returns the out-states for the node's
    ``succ`` and ``exc_succ`` edges; a successor is re-queued whenever
    ``join`` grows its in-state.
    """
    in_states: Dict[int, State] = {cfg.entry: entry}

    def propagate(dst: int, state: State) -> bool:
        old = in_states.get(dst)
        new = state if old is None else join(old, state)
        if old is not None and new == old:
            return False
        in_states[dst] = new
        return True

    worklist: Deque[int] = deque([cfg.entry])
    cap = max(64, CFG_STEPS_PER_NODE_PAIR * len(cfg.nodes) ** 2)
    steps = 0
    while worklist and steps < cap:
        steps += 1
        index = worklist.popleft()
        normal, exceptional = transfer(cfg.nodes[index], in_states[index])
        for edges, out in ((cfg.succ, normal), (cfg.exc_succ, exceptional)):
            for dst in sorted(edges[index]):
                if propagate(dst, out):
                    worklist.append(dst)
    return in_states, not worklist


def solve_program(
    call_graph: CallGraph,
    analyze: Callable[[str], Tuple[Tuple[RawFinding, ...], Summary]],
    merge: Callable[[Summary, Summary], Tuple[Summary, bool]],
    summaries: Dict[str, Summary],
) -> Tuple[Dict[str, List[RawFinding]], Set[str]]:
    """Analyse every function until no callee summary it read is stale.

    The first wave runs callees first; afterwards a caller re-runs only
    if it ran before a callee's summary changed (``merge`` says whether
    it did; a first summary always counts).  Each function's last run
    thus saw final callee summaries.  Returns that run's findings by
    path, and the functions :data:`MAX_ATTEMPTS` stopped from re-running.
    """
    order = call_graph.processing_order()
    position = {qualname: index for index, qualname in enumerate(order)}
    callers: Dict[str, Set[str]] = {}
    for caller, callees in call_graph.edges.items():
        for callee in callees:
            callers.setdefault(callee, set()).add(caller)
    attempts: Dict[str, int] = {}
    last: Dict[str, Tuple[RawFinding, ...]] = {}
    stale: Set[str] = set()
    truncated: Set[str] = set()
    wave = order
    while wave:
        for qualname in wave:
            stale.discard(qualname)
            if attempts.get(qualname, 0) >= MAX_ATTEMPTS:
                truncated.add(qualname)
                continue
            attempts[qualname] = attempts.get(qualname, 0) + 1
            last[qualname], summary = analyze(qualname)
            old = summaries.get(qualname)
            if old is None:
                summaries[qualname], changed = summary, True
            else:
                summaries[qualname], changed = merge(old, summary)
            if changed:
                stale.update(c for c in callers.get(qualname, ()) if c in last)
        wave = sorted(stale, key=position.__getitem__)

    per_path: Dict[str, List[RawFinding]] = {}
    for qualname in order:
        if last.get(qualname):
            path = call_graph.functions[qualname][0].path
            per_path.setdefault(path, []).extend(last[qualname])
    return per_path, truncated


def report_truncated(
    per_path: Dict[str, List[RawFinding]], call_graph: CallGraph, truncated: Set[str], family: str
) -> None:
    """Add an RL600 finding for each function :func:`solve_program` cut off."""
    cap = f"the {MAX_ATTEMPTS}-attempt call-graph cap"
    for qualname in sorted(truncated):
        info, node = call_graph.functions[qualname]
        per_path.setdefault(info.path, []).append(truncation_finding(node, family, cap))


def summary_lookup(
    graph: ModuleGraph,
    summaries: Mapping[str, Summary],
    builtins: Callable[[str], Optional[Summary]] = lambda name: None,
) -> Callable[[str], Optional[Summary]]:
    """Callee summaries: ``builtins`` first, then by qualname, then resolved."""

    def lookup(name: str) -> Optional[Summary]:
        builtin = builtins(name)
        if builtin is not None:
            return builtin
        if name in summaries:
            return summaries[name]
        resolved = graph.resolve_function(name)
        return None if resolved is None else summaries.get(resolved[0])

    return lookup
