"""Intra-procedural abstract interpreter over the determinism lattice.

:func:`analyze_function` walks one function body, maintaining a
name → :data:`~.lattice.Value` environment with *weak* updates (an
assignment joins into the previous value rather than replacing it).
Weak updates keep every transfer function monotone, so repeating the
body until a pass leaves the environment unchanged reaches a fixpoint of
the loop-carried flows; findings are kept from that stable pass only,
and a body still changing after ``solver.MAX_ATTEMPTS`` passes is
reported as RL600.

The interpreter produces two artefacts:

* a :class:`~.summaries.FunctionSummary` (which tags the return value
  carries, which parameters flow through) consumed by the
  inter-procedural fixpoint in :mod:`.solver`, and
* :class:`RawFinding` records for the RL6xx detectors — picklable
  primitives that the rule layer replays per file.

Known soundness gaps (documented in ``docs/static-analysis.md``): no
tracking through nested function definitions, lambdas, ``global``
state, value-equality seeding (two generators built from the same seed
integer), or exception control flow beyond straight-line execution of
``try`` blocks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..context import FunctionNode, dotted_name
from .lattice import (
    BOTTOM,
    DERIVATION_JUMPED,
    DERIVATION_PER_TASK,
    DERIVATION_ROOT,
    DERIVATION_SHARED,
    DERIVATION_SPAWNED,
    EntropyTag,
    OrderTag,
    ParamTag,
    RngTag,
    UnorderedTag,
    Value,
    broad_taints,
    entropy_tags,
    iteration_value,
    join,
    materialize_value,
    order_tags,
    param_tags,
    rng_tags,
    sanitize_order,
    unordered_tags,
    value,
)
from .modules import ClassInfo, ModuleInfo, container_kind_of_annotation
from .solver import MAX_ATTEMPTS, RawFinding, truncation_finding
from .summaries import (
    RNG_PARAM_ANNOTATIONS,
    RNG_PARAM_NAMES,
    FunctionSummary,
)

# Mirrors ``repro.lint.rules.purity.ENGINE_SINKS`` — duplicated here so
# the dataflow package has no import edge into the rule modules (the
# rule modules import *us*).
ENGINE_SINKS = frozenset({"map_tasks", "_dispatch"})

# Mirrors ``repro.lint.rules.rng.RNG_COERCION_MODULE``.
RNG_COERCION_MODULE = "repro/rng.py"

#: Canonical names that construct a ``numpy.random.Generator``.
GENERATOR_CALLS = frozenset({"numpy.random.default_rng"})
ENSURE_RNG_CALLS = frozenset({"repro.rng.ensure_rng", "repro.ensure_rng"})
SEEDSEQUENCE_CALLS = frozenset({"numpy.random.SeedSequence"})

#: Calls whose result order depends on the filesystem, not the program.
ORDER_SOURCE_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Order-independent reductions / explicit sort points (drop order taint).
ORDER_SANITIZERS = frozenset(
    {"sorted", "len", "min", "max", "any", "all", "math.fsum", "numpy.sort"}
)

#: Order-*dependent* folds: feeding them a nondeterministically ordered
#: iterable makes the result irreproducible (float addition does not
#: commute bitwise; concatenation order is observable).
FOLD_SINKS = frozenset(
    {
        "sum",
        "functools.reduce",
        "numpy.concatenate",
        "numpy.stack",
        "numpy.hstack",
        "numpy.vstack",
        "numpy.column_stack",
        "numpy.cumsum",
        "numpy.cumprod",
    }
)

#: ``.join`` sinks exclude path joiners (n-ary, order given by the call).
PATH_JOINS = frozenset({"os.path.join", "posixpath.join", "ntpath.join"})

#: Parameter names whose value is a *stream object* (not just seed
#: material): multiplexing one of these across tasks is RL601 even
#: before any local generator construction.
STREAM_PARAM_NAMES = frozenset(
    {"rng", "generator", "calibration_rng", "rng_like", "random_state"}
)

_MUTATORS = frozenset({"append", "add", "extend", "update", "insert", "setdefault"})
_UNORDERED_VIEWS = frozenset({"keys", "values", "items"})
_UNORDERED_COMBINATORS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: ``lookup(qualified_or_canonical_name) -> summary`` supplied by the
#: inter-procedural driver.
SummaryLookup = Callable[[str], Optional[FunctionSummary]]


@dataclass
class FunctionAnalysis:
    """The two outputs of analysing one function."""

    summary: FunctionSummary
    findings: Tuple[RawFinding, ...]


def _annotation_is_rng_like(
    annotation: Optional[ast.expr], resolve: Callable[[Optional[str]], Optional[str]]
) -> bool:
    """Whether an annotation names a generator/seed-sequence type."""
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, (ast.Name, ast.Attribute)):
            canonical = resolve(dotted_name(node))
            if canonical in RNG_PARAM_ANNOTATIONS:
                return True
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.split(".")[-1] in {"RngLike", "Generator", "SeedSequence"}:
                return True
    return False


class FunctionAnalyzer:
    """Abstract interpretation of one function body."""

    def __init__(
        self,
        module: ModuleInfo,
        function: FunctionNode,
        *,
        qualname: str,
        cls: Optional[ClassInfo] = None,
        lookup: Optional[SummaryLookup] = None,
        is_kernel: bool = False,
    ):
        self.module = module
        self.ctx = module.ctx
        self.function = function
        self.qualname = qualname
        self.cls = cls
        self.lookup = lookup or (lambda name: None)
        self.is_kernel = is_kernel

        self.env: Dict[str, Value] = {}
        self.self_attrs: Dict[str, Value] = {}
        self.return_value: Value = BOTTOM
        self.findings: List[RawFinding] = []
        self._seen: Set[Tuple[str, int, int, str]] = set()
        #: Innermost-first stack of (lineno, end_lineno) loop spans.
        self._loop_spans: List[Tuple[int, int]] = []

        self._positional: List[str] = []
        self._all_params: List[str] = []
        self.rng_like_params: Set[str] = set()
        self._self_name: Optional[str] = None

    # ------------------------------------------------------------------ #
    # driver                                                             #
    # ------------------------------------------------------------------ #

    def analyze(self) -> FunctionAnalysis:
        self._init_params()
        # Weak updates make each pass monotone, so repeating the body
        # until a full pass changes nothing settles loop-carried flows.
        # Only the findings of that stable pass are kept.
        for _ in range(MAX_ATTEMPTS):
            before = (dict(self.env), dict(self.self_attrs), self.return_value)
            self.findings = []
            self._seen = set()
            self._exec_block(self.function.body)
            if before == (self.env, self.self_attrs, self.return_value):
                break
        else:
            cap = f"the {MAX_ATTEMPTS}-pass body cap"
            self.findings.append(truncation_finding(self.function, "RL6xx", cap))
        return FunctionAnalysis(summary=self._build_summary(), findings=tuple(self.findings))

    def _init_params(self) -> None:
        args = self.function.args
        ordered = list(args.posonlyargs) + list(args.args)
        if self.cls is not None and ordered and ordered[0].arg in {"self", "cls"}:
            self._self_name = ordered[0].arg
            self.env[ordered[0].arg] = BOTTOM
            ordered = ordered[1:]
        every = ordered + list(args.kwonlyargs)
        self._positional = [arg.arg for arg in ordered]
        self._all_params = [arg.arg for arg in every]
        for arg in every:
            name = arg.arg
            tags: Set = {ParamTag(name)}
            annotated = _annotation_is_rng_like(arg.annotation, self.ctx.resolve)
            if name in RNG_PARAM_NAMES or annotated:
                self.rng_like_params.add(name)
            if name in STREAM_PARAM_NAMES or annotated:
                # The parameter may *be* a live stream; tag it so that
                # multiplexing it across task payloads is visible.
                tags.add(
                    RngTag(
                        origin=f"parameter '{name}'",
                        derivation=DERIVATION_ROOT,
                        seeded=True,
                        origin_line=self.function.lineno,
                    )
                )
            self.env[name] = frozenset(tags)
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                self.env[arg.arg] = value(ParamTag(arg.arg))
                self._all_params.append(arg.arg)

    def _build_summary(self) -> FunctionSummary:
        own = set(self._all_params)
        passthrough = frozenset(
            tag.name for tag in param_tags(self.return_value) if tag.name in own
        )
        return_tags = frozenset(
            tag
            for tag in self.return_value
            if not (isinstance(tag, ParamTag) and tag.name in own)
            # Parameter-origin stream tags are the *caller's* streams;
            # the passthrough set already conveys them with the caller's
            # own origins, so exporting the phantom would double-count
            # (and carry line numbers from the wrong file).
            and not (isinstance(tag, RngTag) and tag.origin.startswith("parameter '"))
        )
        return FunctionSummary(
            qualname=self.qualname,
            params=tuple(self._positional),
            return_tags=return_tags,
            passthrough=passthrough,
            rng_like_params=frozenset(self.rng_like_params),
        )

    # ------------------------------------------------------------------ #
    # findings                                                           #
    # ------------------------------------------------------------------ #

    def _record(self, code: str, node: ast.AST, message: str) -> None:
        key = (code, node.lineno, node.col_offset, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            RawFinding(code=code, line=node.lineno, col=node.col_offset, message=message)
        )

    # ------------------------------------------------------------------ #
    # multiplexing (RL601 core)                                          #
    # ------------------------------------------------------------------ #

    def _multiplex(self, val: Value, span: Optional[Tuple[int, int]]) -> Value:
        """A value replicated across task payloads.

        Root streams created *outside* the replicating span were shared;
        streams created inside it are fresh per element.
        """
        out: Set = set()
        for tag in val:
            if isinstance(tag, RngTag) and tag.derivation == DERIVATION_ROOT:
                if span is not None and span[0] <= tag.origin_line <= span[1]:
                    out.add(tag.with_derivation(DERIVATION_PER_TASK))
                else:
                    out.add(tag.with_derivation(DERIVATION_SHARED))
            else:
                out.add(tag)
        return frozenset(out)

    def _loop_multiplex(self, val: Value) -> Value:
        """Apply loop-replication semantics when inside a loop body."""
        if not self._loop_spans:
            return val
        return self._multiplex(val, self._loop_spans[-1])

    # ------------------------------------------------------------------ #
    # statements                                                         #
    # ------------------------------------------------------------------ #

    def _exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            val = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, val)
        elif isinstance(stmt, ast.AnnAssign):
            val = self._eval(stmt.value) if stmt.value is not None else BOTTOM
            kind = container_kind_of_annotation(stmt.annotation)
            if kind is not None and isinstance(stmt.target, ast.Name):
                val = join(
                    val,
                    value(
                        UnorderedTag(
                            origin=f"{stmt.target.id} (line {stmt.lineno})", kind=kind
                        )
                    ),
                )
            self._assign(stmt.target, val)
        elif isinstance(stmt, ast.AugAssign):
            val = self._eval(stmt.value)
            self._assign(stmt.target, self._loop_multiplex(val))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            val = self._eval(stmt.value) if stmt.value is not None else BOTTOM
            self.return_value = join(self.return_value, val)
            self._check_kernel_return(stmt, val)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_val = self._eval(stmt.iter)
            element = iteration_value(iter_val, f"line {stmt.lineno}")
            self._bind_target(stmt.target, element)
            self._loop_spans.append((stmt.lineno, stmt.end_lineno or stmt.lineno))
            self._exec_block(stmt.body)
            self._loop_spans.pop()
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._loop_spans.append((stmt.lineno, stmt.end_lineno or stmt.lineno))
            self._exec_block(stmt.body)
            self._loop_spans.pop()
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                val = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, val)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        # Nested defs/classes, imports, global/nonlocal, raise, etc. are
        # out of scope for this analysis (documented gaps).

    def _assign(self, target: ast.expr, val: Value) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = join(self.env.get(target.id, BOTTOM), val)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self._assign(inner, val)
        elif isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == self._self_name
            ):
                attr = target.attr
                self.self_attrs[attr] = join(self.self_attrs.get(attr, BOTTOM), val)
        elif isinstance(target, ast.Subscript):
            # Storing into a container element taints the container;
            # inside a loop the store replicates the value per element.
            self._assign(target.value, self._loop_multiplex(val))
        elif isinstance(target, ast.Starred):
            self._assign(target.value, val)

    def _bind_target(self, target: ast.expr, val: Value) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, val)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, val)
        elif isinstance(target, ast.Name):
            self.env[target.id] = join(self.env.get(target.id, BOTTOM), val)

    # ------------------------------------------------------------------ #
    # expressions                                                        #
    # ------------------------------------------------------------------ #

    def _eval(self, node: Optional[ast.expr]) -> Value:
        if node is None:
            return BOTTOM
        if isinstance(node, ast.Constant):
            return BOTTOM
        if isinstance(node, ast.Name):
            return self.env.get(node.id, BOTTOM)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.List, ast.Tuple)):
            return self._eval_sequence_literal(node)
        if isinstance(node, ast.Set):
            inner = join(*(self._eval(elt) for elt in node.elts)) if node.elts else BOTTOM
            return join(
                inner, value(UnorderedTag(origin=f"set literal (line {node.lineno})"))
            )
        if isinstance(node, ast.Dict):
            vals = join(*(self._eval(v) for v in node.values)) if node.values else BOTTOM
            keys = (
                join(*(broad_taints(self._eval(k)) for k in node.keys if k is not None))
                if node.keys
                else BOTTOM
            )
            if node.keys:
                # A non-empty dict literal iterates in its authored
                # insertion order — deterministic.  Only *empty* literals
                # (filled later, in runtime-history order) are tagged.
                return join(vals, keys)
            return value(
                UnorderedTag(origin=f"dict literal (line {node.lineno})", kind="dict")
            )
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, node.elt, unordered=None)
        if isinstance(node, ast.SetComp):
            return self._eval_comprehension(node, node.elt, unordered="set")
        if isinstance(node, ast.DictComp):
            self._eval_comprehension(node, node.key, unordered=None)
            return self._eval_comprehension(node, node.value, unordered="dict")
        if isinstance(node, ast.BinOp):
            return join(self._eval(node.left), self._eval(node.right))
        if isinstance(node, ast.BoolOp):
            return join(*(self._eval(v) for v in node.values))
        if isinstance(node, ast.UnaryOp):
            return broad_taints(self._eval(node.operand))
        if isinstance(node, ast.Compare):
            pieces = [self._eval(node.left)] + [self._eval(c) for c in node.comparators]
            return broad_taints(join(*pieces))
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return join(self._eval(node.body), self._eval(node.orelse))
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value)
            index = broad_taints(self._eval(node.slice))
            # Indexing extracts an element: container-order facts do not
            # transfer to the element, everything else does.
            kept = frozenset(t for t in base if not isinstance(t, UnorderedTag))
            return join(kept, index)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            return broad_taints(join(*(self._eval(v) for v in node.values)))
        if isinstance(node, ast.FormattedValue):
            return broad_taints(self._eval(node.value))
        if isinstance(node, ast.NamedExpr):
            val = self._eval(node.value)
            self._assign(node.target, val)
            return val
        if isinstance(node, (ast.Await,)):
            return self._eval(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            val = self._eval(node.value) if node.value is not None else BOTTOM
            # Yielded values are the function's observable output.
            self.return_value = join(self.return_value, val)
            return BOTTOM
        if isinstance(node, ast.Lambda):
            return BOTTOM
        return BOTTOM

    def _eval_attribute(self, node: ast.Attribute) -> Value:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == self._self_name
            and self.cls is not None
        ):
            attr = node.attr
            out = self.self_attrs.get(attr, BOTTOM)
            kind = self.cls.attr_kinds.get(attr)
            if kind is not None:
                out = join(
                    out, value(UnorderedTag(origin=f"self.{attr}", kind=kind))
                )
            return out
        return broad_taints(self._eval(node.value))

    def _eval_sequence_literal(self, node: ast.expr) -> Value:
        elements = [self._eval(elt) for elt in node.elts]  # type: ignore[attr-defined]
        if not elements:
            return BOTTOM
        combined = join(*elements)
        # The same root stream appearing in >= 2 elements of one literal
        # is multiplexed — ``[(rng, a), (rng, b)]`` hands both payloads
        # the same stream.
        counts: Dict[Tuple[str, int], int] = {}
        for element in elements:
            for tag in rng_tags(element):
                if tag.derivation == DERIVATION_ROOT:
                    key = (tag.origin, tag.origin_line)
                    counts[key] = counts.get(key, 0) + 1
        shared = {key for key, count in counts.items() if count >= 2}
        if not shared:
            return combined
        out: Set = set()
        for tag in combined:
            if (
                isinstance(tag, RngTag)
                and tag.derivation == DERIVATION_ROOT
                and (tag.origin, tag.origin_line) in shared
            ):
                out.add(tag.with_derivation(DERIVATION_SHARED))
            else:
                out.add(tag)
        return frozenset(out)

    def _eval_comprehension(
        self, node: ast.expr, element: ast.expr, unordered: Optional[str]
    ) -> Value:
        iter_taint: Set = set()
        for comp in node.generators:  # type: ignore[attr-defined]
            iter_val = self._eval(comp.iter)
            self._bind_target(
                comp.target, iteration_value(iter_val, f"line {comp.iter.lineno}")
            )
            for condition in comp.ifs:
                self._eval(condition)
            # Iterating an unordered/tainted iterable makes the result's
            # *order* tainted even when elements themselves are clean.
            for tag in unordered_tags(iter_val):
                iter_taint.add(OrderTag(origin=tag.origin))
            iter_taint.update(order_tags(iter_val))
        span = (node.lineno, node.end_lineno or node.lineno)
        element_val = self._multiplex(self._eval(element), span)
        out = join(element_val, frozenset(iter_taint))
        if unordered is not None:
            out = join(
                out,
                value(
                    UnorderedTag(
                        origin=f"comprehension (line {node.lineno})", kind=unordered
                    )
                ),
            )
        return out

    # ------------------------------------------------------------------ #
    # calls                                                              #
    # ------------------------------------------------------------------ #

    def _eval_call(self, node: ast.Call) -> Value:
        raw = dotted_name(node.func)
        attr: Optional[str] = None
        receiver_val = BOTTOM
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            receiver_val = self._eval(node.func.value)
        arg_vals = [self._eval(arg) for arg in node.args]
        kw_vals: Dict[Optional[str], Value] = {
            kw.arg: self._eval(kw.value) for kw in node.keywords
        }
        all_args = arg_vals + list(kw_vals.values())
        canonical = (
            self.ctx.resolve(raw)
            if raw is not None and not raw.startswith("self.")
            else None
        )

        self._check_dispatch_sink(node, raw, attr, arg_vals, kw_vals)
        self._check_order_sinks(node, raw, canonical, attr, receiver_val, arg_vals)
        self._check_rng_consumption(node, raw, attr, receiver_val, all_args)

        return self._call_result(
            node, raw, canonical, attr, receiver_val, arg_vals, kw_vals, all_args
        )

    def _call_result(
        self,
        node: ast.Call,
        raw: Optional[str],
        canonical: Optional[str],
        attr: Optional[str],
        receiver_val: Value,
        arg_vals: List[Value],
        kw_vals: Dict[Optional[str], Value],
        all_args: List[Value],
    ) -> Value:
        joined_args = join(*all_args) if all_args else BOTTOM

        if canonical in ORDER_SANITIZERS:
            return sanitize_order(joined_args)
        if canonical in {"list", "tuple"}:
            return materialize_value(joined_args)
        if canonical in {"set", "frozenset"}:
            return join(
                joined_args,
                value(
                    UnorderedTag(origin=f"{canonical}() call (line {node.lineno})")
                ),
            )
        if canonical == "dict":
            return join(
                joined_args,
                value(
                    UnorderedTag(
                        origin=f"dict() call (line {node.lineno})", kind="dict"
                    )
                ),
            )
        if canonical in ORDER_SOURCE_CALLS:
            return join(
                broad_taints(joined_args),
                value(OrderTag(origin=f"{canonical} (line {node.lineno})")),
            )
        if attr == "iterdir":
            return join(
                broad_taints(receiver_val),
                value(OrderTag(origin=f"Path.iterdir (line {node.lineno})")),
            )
        if canonical in GENERATOR_CALLS or canonical in ENSURE_RNG_CALLS:
            return self._eval_generator_construction(
                node, canonical, arg_vals, kw_vals, joined_args
            )
        if canonical in SEEDSEQUENCE_CALLS:
            return self._eval_seed_sequence(node, arg_vals, kw_vals, joined_args)

        if attr is not None:
            streams = rng_tags(receiver_val)
            if attr == "spawn" and streams:
                return join(
                    frozenset(t.with_derivation(DERIVATION_SPAWNED) for t in streams),
                    broad_taints(join(receiver_val, joined_args)),
                )
            if attr == "jumped" and streams:
                return join(
                    frozenset(t.with_derivation(DERIVATION_JUMPED) for t in streams),
                    broad_taints(join(receiver_val, joined_args)),
                )
            if attr in _UNORDERED_VIEWS and unordered_tags(receiver_val):
                return receiver_val
            if attr in _UNORDERED_COMBINATORS and unordered_tags(receiver_val):
                return join(receiver_val, broad_taints(joined_args))
            if attr in _MUTATORS:
                self._apply_mutation(node, attr, arg_vals, kw_vals)
                return BOTTOM

        if canonical in FOLD_SINKS or self._is_str_join(node, canonical, attr):
            # The fold consumed the iterable; its scalar/sequence result
            # was already flagged at the sink, so do not cascade taint.
            return sanitize_order(broad_taints(join(receiver_val, joined_args)))

        summary = self._lookup_summary(raw, canonical)
        if summary is not None:
            named_kwargs = {
                name: val for name, val in kw_vals.items() if name is not None
            }
            extra = [val for name, val in kw_vals.items() if name is None]
            return summary.bind(arg_vals + extra, named_kwargs)

        return broad_taints(join(receiver_val, joined_args))

    def _lookup_summary(
        self, raw: Optional[str], canonical: Optional[str]
    ) -> Optional[FunctionSummary]:
        if raw is not None and raw.startswith("self.") and self.cls is not None:
            parts = raw.split(".")
            if len(parts) == 2 and parts[1] in self.cls.methods:
                return self.lookup(f"{self.cls.qualname}.{parts[1]}")
            return None
        if canonical is not None:
            return self.lookup(canonical)
        return None

    def _apply_mutation(
        self,
        node: ast.Call,
        attr: str,
        arg_vals: List[Value],
        kw_vals: Dict[Optional[str], Value],
    ) -> None:
        """``x.append(v)`` and friends: taint the receiver container."""
        assert isinstance(node.func, ast.Attribute)
        payload = join(*(arg_vals + list(kw_vals.values()))) if (
            arg_vals or kw_vals
        ) else BOTTOM
        payload = self._loop_multiplex(payload)
        target = node.func.value
        if isinstance(target, ast.Name):
            self.env[target.id] = join(self.env.get(target.id, BOTTOM), payload)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == self._self_name
        ):
            name = target.attr
            self.self_attrs[name] = join(self.self_attrs.get(name, BOTTOM), payload)

    # ------------------------------------------------------------------ #
    # RNG construction semantics                                         #
    # ------------------------------------------------------------------ #

    def _eval_generator_construction(
        self,
        node: ast.Call,
        canonical: str,
        arg_vals: List[Value],
        kw_vals: Dict[Optional[str], Value],
        joined_args: Value,
    ) -> Value:
        self._check_rl602(node, canonical, arg_vals, kw_vals, joined_args)
        short = canonical.split(".")[-1]
        origin = f"{short} (line {node.lineno})"
        incoming = rng_tags(joined_args)
        if incoming:
            # Wrapping an existing stream / SeedSequence: same lineage.
            return join(frozenset(incoming), broad_taints(joined_args))
        unseeded = self._is_unseeded_call(node)
        entropy_fed = bool(entropy_tags(joined_args))
        tag = RngTag(
            origin=origin,
            derivation=DERIVATION_ROOT,
            seeded=not (unseeded or entropy_fed),
            origin_line=node.lineno,
        )
        out: Set = {tag}
        if unseeded or entropy_fed:
            out.add(EntropyTag(origin=origin))
        return join(frozenset(out), broad_taints(joined_args))

    def _eval_seed_sequence(
        self,
        node: ast.Call,
        arg_vals: List[Value],
        kw_vals: Dict[Optional[str], Value],
        joined_args: Value,
    ) -> Value:
        has_spawn_key = "spawn_key" in kw_vals
        derivation = DERIVATION_SPAWNED if has_spawn_key else DERIVATION_ROOT
        unseeded = self._is_unseeded_call(node, entropy_kw="entropy")
        entropy_fed = bool(entropy_tags(joined_args))
        origin = f"SeedSequence (line {node.lineno})"
        tag = RngTag(
            origin=origin,
            derivation=derivation,
            seeded=not (unseeded or entropy_fed),
            origin_line=node.lineno,
        )
        out: Set = {tag}
        if unseeded or entropy_fed:
            out.add(EntropyTag(origin=origin))
        return join(frozenset(out), broad_taints(joined_args))

    @staticmethod
    def _is_unseeded_call(node: ast.Call, entropy_kw: str = "seed") -> bool:
        """No seed material at all, or an explicit literal ``None``."""
        seed_args = list(node.args) + [
            kw.value for kw in node.keywords if kw.arg in {entropy_kw, "seed", "entropy"}
        ]
        if not seed_args:
            return True
        first = seed_args[0]
        return isinstance(first, ast.Constant) and first.value is None

    # ------------------------------------------------------------------ #
    # detectors                                                          #
    # ------------------------------------------------------------------ #

    def _check_dispatch_sink(
        self,
        node: ast.Call,
        raw: Optional[str],
        attr: Optional[str],
        arg_vals: List[Value],
        kw_vals: Dict[Optional[str], Value],
    ) -> None:
        """RL601: a shared root stream reaches a task-dispatch call."""
        sink = None
        if attr in ENGINE_SINKS:
            sink = attr
        elif raw is not None and raw.split(".")[-1] in ENGINE_SINKS:
            sink = raw.split(".")[-1]
        if sink is None:
            return
        origins: Set[str] = set()
        for arg_value in arg_vals + list(kw_vals.values()):
            for tag in rng_tags(arg_value):
                if tag.derivation == DERIVATION_SHARED:
                    origins.add(tag.origin)
        for origin in sorted(origins):
            self._record(
                "RL601",
                node,
                (
                    f"RNG stream from {origin} is multiplexed across tasks "
                    f"dispatched via {sink}(); parallel tasks replay identical "
                    "draws — derive per-task streams with spawn()/jumped() or "
                    "SeedSequence spawn keys before dispatch"
                ),
            )

    def _check_rl602(
        self,
        node: ast.Call,
        canonical: str,
        arg_vals: List[Value],
        kw_vals: Dict[Optional[str], Value],
        joined_args: Value,
    ) -> None:
        """RL602: constructs a generator despite already receiving one."""
        if not self.rng_like_params:
            return
        if self.ctx.module_path == RNG_COERCION_MODULE:
            return
        if not node.args and not node.keywords:
            # Bare ``default_rng()`` is RL101's (unseeded) domain.
            return
        if all(
            isinstance(arg, ast.Constant) and isinstance(arg.value, int)
            for arg in node.args
        ) and node.args and not node.keywords:
            # A literal seed constant is RL104's domain.
            return
        if rng_tags(joined_args):
            return
        lineage = {tag.name for tag in param_tags(joined_args)}
        if lineage & self.rng_like_params:
            return
        received = ", ".join(f"'{name}'" for name in sorted(self.rng_like_params))
        self._record(
            "RL602",
            node,
            (
                f"{canonical.split('.')[-1]}() constructs a new generator from "
                f"material unrelated to the rng-like parameter(s) {received} this "
                "function already receives; thread the caller's stream (or seed "
                "material derived from it) instead of forking the lineage"
            ),
        )

    def _is_str_join(
        self, node: ast.Call, canonical: Optional[str], attr: Optional[str]
    ) -> bool:
        return (
            attr == "join"
            and len(node.args) == 1
            and canonical not in PATH_JOINS
        )

    def _check_order_sinks(
        self,
        node: ast.Call,
        raw: Optional[str],
        canonical: Optional[str],
        attr: Optional[str],
        receiver_val: Value,
        arg_vals: List[Value],
    ) -> None:
        """RL603 (fold form): nondeterministic order feeds a reduction."""
        is_fold = canonical in FOLD_SINKS
        is_join = self._is_str_join(node, canonical, attr)
        if not is_fold and not is_join:
            return
        sink_name = (
            "str.join" if is_join else (canonical or "fold")
        )
        origins: Set[str] = set()
        for arg_value in arg_vals:
            for tag in order_tags(arg_value):
                origins.add(tag.origin)
            for tag in unordered_tags(arg_value):
                origins.add(tag.origin)
        for origin in sorted(origins):
            self._record(
                "RL603",
                node,
                (
                    f"{sink_name}() aggregates values in an order inherited from "
                    f"{origin}, which is not deterministic across runs; sort or "
                    "canonicalise the iterable before reducing"
                ),
            )

    def _check_rng_consumption(
        self,
        node: ast.Call,
        raw: Optional[str],
        attr: Optional[str],
        receiver_val: Value,
        all_args: List[Value],
    ) -> None:
        """RL603 (consumption form): tainted order drives RNG draws."""
        streams = set(rng_tags(receiver_val))
        for arg_value in all_args:
            streams.update(rng_tags(arg_value))
        if not streams:
            return
        origins: Set[str] = set()
        for arg_value in all_args:
            for tag in order_tags(arg_value):
                origins.add(tag.origin)
            for tag in unordered_tags(arg_value):
                origins.add(tag.origin)
        if not origins:
            return
        target = raw or attr or "call"
        for origin in sorted(origins):
            self._record(
                "RL603",
                node,
                (
                    f"order-nondeterministic value from {origin} influences RNG "
                    f"consumption at {target}(); the draw sequence (and thus the "
                    "acceptance curve) will differ between runs — canonicalise "
                    "the iteration order first"
                ),
            )

    def _check_kernel_return(self, stmt: ast.Return, val: Value) -> None:
        """RL604: a cached engine kernel returns entropy-derived data."""
        if not self.is_kernel:
            return
        seen: Set[str] = set()
        for tag in entropy_tags(val):
            seen.add(tag.origin)
        for tag in rng_tags(val):
            if not tag.seeded:
                seen.add(tag.origin)
        for origin in sorted(seen):
            self._record(
                "RL604",
                stmt,
                (
                    f"cached engine kernel '{self.function.name}' returns data "
                    f"derived from an unseeded generator ({origin}); the "
                    "acceptance cache would memoise one draw of OS entropy and "
                    "replay it as if it were reproducible"
                ),
            )


def analyze_function(
    module: ModuleInfo,
    function: FunctionNode,
    *,
    qualname: str,
    cls: Optional[ClassInfo] = None,
    lookup: Optional[SummaryLookup] = None,
    is_kernel: bool = False,
) -> FunctionAnalysis:
    """Run the abstract interpreter over one function."""
    analyzer = FunctionAnalyzer(
        module,
        function,
        qualname=qualname,
        cls=cls,
        lookup=lookup,
        is_kernel=is_kernel,
    )
    return analyzer.analyze()
