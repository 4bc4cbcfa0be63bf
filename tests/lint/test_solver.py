"""The shared fixpoint solver, through fake ``analyze``/``transfer`` callbacks."""

import ast
import textwrap
from types import SimpleNamespace

from repro.lint.dataflow import solver
from repro.lint.dataflow.callgraph import CallGraph
from repro.lint.dataflow.cfg import STATEMENT, build_cfg
from repro.lint.dataflow.program import analyze_program
from repro.lint.dataflow.solver import solve_cfg, solve_program


def _call_graph(edges):
    module = SimpleNamespace(path="repro/fake.py")
    return CallGraph(
        functions={name: (module, None) for name in edges},
        edges={name: set(callees) for name, callees in edges.items()},
    )


def _reachable_names(call_graph, log):
    """A fake analysis: a function's summary is every name it can reach."""
    summaries = {}

    def analyze(qualname):
        log.append(qualname)
        reached = {qualname}
        for callee in call_graph.edges[qualname]:
            reached |= summaries.get(callee, frozenset())
        return (), frozenset(reached)

    def merge(old, new):
        return old | new, not new <= old

    return analyze, merge, summaries


def test_acyclic_chain_is_analysed_once_per_function():
    call_graph = _call_graph({"a": ["b"], "b": ["c"], "c": []})
    log = []
    analyze, merge, summaries = _reachable_names(call_graph, log)
    findings, truncated = solve_program(call_graph, analyze, merge, summaries)
    assert log == ["c", "b", "a"]
    assert summaries["a"] == {"a", "b", "c"}
    assert findings == {}
    assert truncated == set()


def test_two_cycle_converges_and_reruns_only_the_stale_caller():
    call_graph = _call_graph(
        {"main": ["ping"], "ping": ["pong"], "pong": ["ping", "leaf"], "leaf": []}
    )
    log = []
    analyze, merge, summaries = _reachable_names(call_graph, log)
    _, truncated = solve_program(call_graph, analyze, merge, summaries)
    # pong ran before ping's first summary existed, so it re-runs; ping
    # then re-runs on pong's grown summary.  main first ran after ping's
    # summary was final, and leaf calls nothing: neither re-runs.
    assert log == ["leaf", "pong", "ping", "main", "pong", "ping"]
    assert summaries["ping"] == summaries["pong"] == {"ping", "pong", "leaf"}
    assert summaries["main"] == {"main", "ping", "pong", "leaf"}
    assert truncated == set()


def test_findings_come_from_each_functions_last_analysis():
    call_graph = _call_graph({"f": ["f"]})
    runs = []

    def analyze(qualname):
        runs.append(qualname)
        finding = solver.RawFinding("RL699", len(runs), 0, f"run {len(runs)}")
        return (finding,), min(len(runs), 2)

    def merge(old, new):
        return max(old, new), new > old

    findings, truncated = solve_program(call_graph, analyze, merge, {})
    assert runs == ["f", "f", "f"]
    assert [hit.message for hit in findings["repro/fake.py"]] == ["run 3"]
    assert truncated == set()


def test_always_growing_summary_is_truncated():
    call_graph = _call_graph({"grow": ["grow"], "leaf": []})
    log = []

    def analyze(qualname):
        log.append(qualname)
        return (), log.count(qualname)

    def merge(old, new):
        return max(old, new), new > old

    _, truncated = solve_program(call_graph, analyze, merge, {})
    assert truncated == {"grow"}
    assert log.count("grow") == solver.MAX_ATTEMPTS
    assert log.count("leaf") == 1


COUNTER = """
def count(n):
    i = 0
    while i < n:
        i += 1
    return i
"""


def _counter_cfg():
    return build_cfg(ast.parse(textwrap.dedent(COUNTER)).body[0])


def test_solve_cfg_reports_non_convergence_on_an_unbounded_lattice():
    cfg = _counter_cfg()

    def transfer(node, state):
        out = state + 1 if node.kind == STATEMENT else state
        return out, out

    in_states, converged = solve_cfg(cfg, 0, transfer, max)
    assert not converged
    assert cfg.exit in in_states


def test_solve_cfg_converges_on_a_bounded_lattice():
    cfg = _counter_cfg()

    def transfer(node, state):
        out = min(state + 1, 3) if node.kind == STATEMENT else state
        return out, out

    in_states, converged = solve_cfg(cfg, 0, transfer, max)
    assert converged
    assert in_states[cfg.exit] == 3


MUTUAL = """\
def ping(handle, depth):
    if depth == 0:
        handle.close()
        return None
    return pong(handle, depth - 1)

def pong(handle, depth):
    return ping(handle, depth)
"""


def test_truncated_fixpoint_is_reported_as_rl600(monkeypatch):
    path = "repro/gamma/cycle.py"
    assert analyze_program([(path, MUTUAL)]).findings_for(path, "RL600") == ()
    # One attempt per function: pong ran before ping's first summary
    # existed and may not re-run, so every family reports it truncated.
    monkeypatch.setattr(solver, "MAX_ATTEMPTS", 1)
    hits = analyze_program([(path, MUTUAL)]).findings_for(path, "RL600")
    cut_off = [hit for hit in hits if "call-graph cap" in hit.message]
    assert [hit.line for hit in cut_off] == [7, 7, 7]
    assert sorted(hit.message.split()[0] for hit in cut_off) == [
        "RL6xx",
        "RL7xx",
        "RL8xx",
    ]
    assert all("'pong'" in hit.message for hit in cut_off)
