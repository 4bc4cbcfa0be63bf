"""Whole-program determinism dataflow rules (RL600–RL604).

Unlike the per-file RL1xx–RL5xx families, these rules replay findings
computed by the :mod:`repro.lint.dataflow` analysis: the runner builds
one :class:`~repro.lint.dataflow.ProgramAnalysis` over every file in
the invocation and attaches it to each :class:`ModuleContext` as
``ctx.program``; each rule then emits the findings recorded against its
own code for the file at hand.  Routing findings through ordinary
``check()`` calls keeps pragma suppression, ``--select``/``--ignore``
filtering, sorting, and exit codes identical to every other family.

When a file is linted standalone (``lint_source`` without a program,
as the golden-fixture harness does), the rules analyse that single file
on demand — the hand-written builtin summaries for ``repro.rng`` and
the engine seed helpers make single-file analysis meaningful.
"""

from __future__ import annotations

from typing import Iterator

from ..context import ModuleContext
from ..diagnostics import Diagnostic
from ..registry import Rule, register_rule
from ..dataflow import ProgramAnalysis, analyze_program


def _program_for(ctx: ModuleContext) -> ProgramAnalysis:
    """The invocation-wide analysis, or an on-demand single-file one."""
    program = getattr(ctx, "program", None)
    if isinstance(program, ProgramAnalysis):
        return program
    cached = getattr(ctx, "_dataflow_single_file", None)
    if not isinstance(cached, ProgramAnalysis):
        cached = analyze_program([(ctx.path, ctx.source)])
        ctx._dataflow_single_file = cached  # type: ignore[attr-defined]
    return cached


class _DataflowRule(Rule):
    """Shared replay logic: emit this code's findings for this file."""

    requires_program = True

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for finding in _program_for(ctx).findings_for(ctx.path, self.code):
            yield Diagnostic(
                path=ctx.path,
                line=finding.line,
                col=finding.col,
                code=self.code,
                message=finding.message,
            )


@register_rule
class FixpointTruncated(_DataflowRule):
    """A dataflow fixpoint that hit its cap instead of converging."""

    code = "RL600"
    name = "fixpoint-truncated"
    summary = "dataflow fixpoint stopped at its cap before converging"
    default_severity = "warning"
    rationale = (
        "Every dataflow family (RL6xx, RL7xx, RL8xx) iterates to a "
        "fixpoint under a fixed cap.  A function whose analysis hit the "
        "cap was judged from unconverged states, so its other findings "
        "may be missing or stale; the cap is reported here rather than "
        "passing silently.  Split the function, or shorten the "
        "loop-carried or recursive flow the analysis kept chasing."
    )


@register_rule
class SharedStreamAcrossTasks(_DataflowRule):
    """One RNG stream multiplexed across parallel task payloads."""

    code = "RL601"
    name = "shared-stream-across-tasks"
    summary = "same RNG stream reaches several dispatched tasks"
    rationale = (
        "Tasks dispatched through map_tasks()/_dispatch() run in "
        "parallel; if two payloads hold the same Generator, every task "
        "replays identical draws and the Monte-Carlo estimate silently "
        "loses independence (and worker-count invariance).  Derive one "
        "child stream per task with spawn()/jumped() or SeedSequence "
        "spawn keys."
    )


@register_rule
class ForkedRngLineage(_DataflowRule):
    """A function both receives and constructs randomness."""

    code = "RL602"
    name = "forked-rng-lineage"
    summary = "function with an rng parameter constructs its own generator"
    rationale = (
        "A function that accepts an rng-like parameter participates in "
        "the seed-threading discipline; constructing a second generator "
        "from unrelated material forks the lineage, so the caller's seed "
        "no longer determines the function's output.  Thread the received "
        "stream (or material derived from it) into every draw."
    )


@register_rule
class OrderTaintedAggregation(_DataflowRule):
    """Nondeterministic iteration order feeds an order-sensitive sink."""

    code = "RL603"
    name = "order-tainted-aggregation"
    summary = "unordered iteration feeds an RNG draw or result aggregation"
    rationale = (
        "set/dict iteration, os.listdir and glob enumerate in an order "
        "that is not part of the program's deterministic contract; "
        "feeding that order into a float fold, a report join, or the "
        "argument stream of an RNG consumer makes acceptance curves and "
        "reports differ between runs.  Sort or canonicalise first."
    )


@register_rule
class EntropyInCachedKernel(_DataflowRule):
    """A cached engine kernel returns unseeded-generator data."""

    code = "RL604"
    name = "entropy-in-cached-kernel"
    summary = "cached engine kernel returns data from an unseeded generator"
    rationale = (
        "Kernel results are memoised by the acceptance cache keyed on "
        "(config, distribution, trials, seed); data drawn from OS "
        "entropy is not a function of that key, so the cache would "
        "freeze one arbitrary draw and replay it as if reproducible.  "
        "Kernels must derive every stream from the dispatched seed."
    )
