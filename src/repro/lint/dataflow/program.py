"""Whole-program entry point: the three dataflow families over one call graph.

:func:`analyze_program` is the single entry point the rule layer uses.
It parses every file into a :class:`~.modules.ModuleGraph`, builds the
call graph, then runs the RL6xx intra-procedural interpreter, the RL7xx
resource pass and the RL8xx shape pass, each to its summary fixpoint on
:func:`~.solver.solve_program`.  Each function's *last* analysis saw its
callees' converged summaries, so its :class:`~.solver.RawFinding`
records are final; they are merged per file path and sorted once here.

The resulting :class:`ProgramAnalysis` is deliberately a bag of
picklable primitives: the ``--jobs N`` runner computes it once in the
parent process and ships it to workers, where per-file rule evaluation
replays the findings through the ordinary diagnostics/pragma pipeline.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from ..context import ModuleContext, dotted_name
from .callgraph import build_call_graph
from .intra import ENGINE_SINKS, analyze_function
from .modules import ModuleGraph, ModuleInfo
from .resources import ResourceSummary, analyze_resources
from .shapes import ShapeSummary, analyze_shapes
from .solver import RawFinding, report_truncated, solve_program, summary_lookup
from .summaries import FunctionSummary, builtin_summary, merge_summaries

def _kernel_names(info: ModuleInfo) -> Set[str]:
    """Module-level functions dispatched *by name* into an engine sink.

    Mirrors the RL301 notion of a cached kernel: a function object that
    crosses the process boundary via ``map_tasks``/``_dispatch`` and
    whose results may be memoised by the acceptance cache.
    """
    names: Set[str] = set()
    module_functions = set(info.functions)
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        raw = dotted_name(node.func)
        if raw is None or raw.split(".")[-1] not in ENGINE_SINKS:
            continue
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id in module_functions:
                names.add(arg.id)
    return names


@dataclass
class ProgramAnalysis:
    """Whole-program results, keyed by file path.

    Only primitives live here (strings, ints, frozen dataclasses), so a
    built instance can be pickled to worker processes unchanged.
    """

    #: path → findings sorted by (line, col, code, message).
    findings: Dict[str, Tuple[RawFinding, ...]] = field(default_factory=dict)
    #: qualname → converged summary (exposed for tests/debugging).
    summaries: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: qualnames treated as cached engine kernels (RL604 scope).
    kernels: Tuple[str, ...] = ()
    #: qualname → converged resource summary (RL7xx; tests/debugging).
    resource_summaries: Dict[str, ResourceSummary] = field(default_factory=dict)
    #: qualname → converged shape summary (RL8xx; tests/debugging).
    shape_summaries: Dict[str, ShapeSummary] = field(default_factory=dict)

    def findings_for(
        self, path: str, code: Optional[str] = None
    ) -> Tuple[RawFinding, ...]:
        """Findings recorded against one file, optionally one rule code."""
        hits = self.findings.get(path, ())
        if code is None:
            return hits
        return tuple(hit for hit in hits if hit.code == code)


def analyze_program(
    files: Sequence[Tuple[str, str]],
    contexts: Optional[Dict[str, "ModuleContext"]] = None,
) -> ProgramAnalysis:
    """Analyse ``(path, source)`` pairs as one program.

    ``contexts`` optionally shares already-parsed per-file contexts so
    the runner never parses a file twice per invocation.
    """
    graph = ModuleGraph(files, contexts=contexts)
    call_graph = build_call_graph(graph)

    kernels: Set[str] = set()
    for info in graph.by_path.values():
        for name in _kernel_names(info):
            kernels.add(f"{info.module_name}.{name}")

    # Hand-written models win (see summaries.BUILTIN_SUMMARIES).
    summaries: Dict[str, FunctionSummary] = {}
    lookup = summary_lookup(graph, summaries, builtin_summary)

    def analyze(qualname: str) -> Tuple[Tuple[RawFinding, ...], FunctionSummary]:
        info, node = call_graph.functions[qualname]
        analysis = analyze_function(
            info,
            node,
            qualname=qualname,
            cls=graph.class_for_method(info, node),
            lookup=lookup,
            is_kernel=qualname in kernels,
        )
        return analysis.findings, analysis.summary

    per_path, truncated = solve_program(
        call_graph, analyze, merge_summaries, summaries
    )
    report_truncated(per_path, call_graph, truncated, "RL6xx")

    # The RL7xx resource-lifecycle and RL8xx shape/dtype/RNG-budget
    # passes run over the same module and call graphs (see .resources,
    # .shapes).
    resource_findings, resource_summaries = analyze_resources(graph, call_graph)
    shape_findings, shape_summaries = analyze_shapes(graph, call_graph)
    for family in (resource_findings, shape_findings):
        for path, hits in family.items():
            per_path.setdefault(path, []).extend(hits)

    findings = {
        path: tuple(
            sorted(set(hits), key=lambda f: (f.line, f.col, f.code, f.message))
        )
        for path, hits in per_path.items()
    }
    return ProgramAnalysis(
        findings=findings,
        summaries=summaries,
        kernels=tuple(sorted(kernels)),
        resource_summaries=resource_summaries,
        shape_summaries=shape_summaries,
    )
