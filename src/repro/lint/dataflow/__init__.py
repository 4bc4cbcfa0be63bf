"""Whole-program determinism dataflow analysis for ``repro.lint``.

The package layers bottom-up:

``lattice``
    The abstract-value domain (RNG lineage, order taint, entropy,
    parameter lineage) with monotone join/transfer helpers.
``summaries``
    Inter-procedural function summaries plus hand-written models of the
    external RNG surface (``numpy.random``, ``repro.rng``, engine seed
    helpers).
``modules``
    Per-file symbol tables and cross-module name resolution
    (re-export-chasing) over the analysed file set.
``callgraph``
    Statically resolvable call edges and a callees-first order.
``cfg``
    Statement-level control-flow graphs with exception and
    ``try/finally``/``with`` edges (the RL7xx and RL8xx substrate).
``solver``
    The one fixpoint solver: the CFG worklist (RL7xx, RL8xx), the
    callees-first call-graph summary loop (all three families), their
    caps, and the RL600 finding a cap that fires turns into.
``intra``
    The abstract interpreter over one function body: produces a
    summary and the RL6xx raw findings.
``resources``
    The resource-lifecycle interpreter over the CFG: acquisition-state
    lattice, ownership-transfer summaries, and the RL701–RL704
    detectors.
``shapes``
    The symbolic shape/dtype/RNG-budget interpreter over the CFG:
    dimension polynomials, broadcasting and axis-aware reductions,
    per-trial draw accounting, and the RL801–RL804 detectors.
``program``
    The entry point: runs the RL6xx, RL7xx and RL8xx families over one
    module and call graph and merges their findings per file; results
    are picklable for the ``--jobs N`` runner.
"""

from .cfg import ControlFlowGraph, build_cfg
from .intra import analyze_function
from .lattice import (
    EntropyTag,
    OrderTag,
    ParamTag,
    RngTag,
    UnorderedTag,
    Value,
)
from .program import ProgramAnalysis, analyze_program
from .resources import ResourceSummary, analyze_resources
from .shapes import ShapeSummary, analyze_shapes
from .solver import RawFinding
from .summaries import BUILTIN_SUMMARIES, FunctionSummary

__all__ = [
    "BUILTIN_SUMMARIES",
    "ControlFlowGraph",
    "EntropyTag",
    "FunctionSummary",
    "OrderTag",
    "ParamTag",
    "ProgramAnalysis",
    "RawFinding",
    "ResourceSummary",
    "RngTag",
    "ShapeSummary",
    "UnorderedTag",
    "Value",
    "analyze_function",
    "analyze_program",
    "analyze_resources",
    "analyze_shapes",
    "build_cfg",
]
