"""Symbolic shape / dtype / RNG-budget interpreter (the RL8xx substrate).

Every estimator in the library flows through one vectorized contract —
``accept_block(distribution, trials, rng) -> bool[trials]`` — plus an
``elements_per_trial`` sizing hint the tiler trusts for memory bounds
(:mod:`repro.engine.chunking`).  The streaming layer adds a second hot
surface — the ``update`` / ``finalize`` methods of
:class:`~repro.core.streaming.StreamingTester`-shaped classes, audited
under the same dtype/broadcast checks (their state arrays are
cache-adjacent via ``StreamingKernel``).  This module verifies those
contracts statically with an abstract interpreter over the statement CFG
(:mod:`.cfg`), mirroring the RL6xx/RL7xx architecture: one pass per
function, callees first, producing a :class:`ShapeSummary` so helper
functions (``collision_counts``, ``_statistics``) stay transparent at
their call sites.

Abstract domain
---------------
*Dimensions* are polynomials over symbolic sizes: integer parameters
(``trials``), dotted attribute paths (``self.q``, ``self.closeness.n``)
and products thereof (``trials * self.num_groups``).  A dimension the
transfer functions cannot express degrades to ⊤ (``None``) — never to a
guess — so every check below fires only on *provable* violations and
the rules need no pragmas on sound code.

*Values* (:class:`AbstractValue`) are arrays (symbolic shape + dtype
from a small scalar-type lattice), symbolic numbers, tuples, RNG
generators, or ⊤.  *RNG budget* is one polynomial counting the array
elements drawn from the block generator; any draw inside a loop, or any
call that forwards the generator to an un-summarised callee, poisons
the budget to ⊤ (a loop's trip count and a black box's appetite are
both unknowable here).

Checks (reported through :mod:`repro.lint.rules.shapes`)
--------------------------------------------------------
* **RL801** — a kernel entry point (``accept_block``,
  ``l1_errors_block``) whose return value is provably not ``(trials,)``
  (or provably non-boolean, for ``accept_block``): the classic missing
  ``axis=`` reduction collapsing to a scalar or keeping ``(trials, k)``.
  Other ``*_block`` helpers of a kernel class (a protocol's
  ``bits_block`` player-bit matrix) must stay trial-major: a scalar or a
  leading axis provably not ``trials`` fires.
* **RL802** — platform- or value-dependent dtype in the accept path or
  cache-keyed data: ``np.int_``-family dtypes, bare ``astype(int)`` /
  ``dtype=int``, and ``==`` tests on provably-float arrays.
* **RL803** — a declared ``elements_per_trial`` provably smaller than
  the per-trial RNG consumption the interpreter infers (symbols are
  sizes, hence assumed ≥ 1; see :func:`budget_under_declared`).
* **RL804** — broadcast-incompatible operand shapes reachable on some
  path (both dimensions concrete, unequal, neither 1).
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..context import FunctionNode, dotted_name
from .callgraph import CallGraph
from .cfg import WITH_CLEANUP, CFGNode, build_cfg
from .modules import ClassInfo, ModuleGraph, ModuleInfo
from .solver import (
    RawFinding,
    report_truncated,
    solve_cfg,
    solve_program,
    summary_lookup,
    truncation_finding,
)

# --------------------------------------------------------------------- #
# dimension polynomials                                                 #
# --------------------------------------------------------------------- #

#: A monomial is a sorted tuple of symbol names (with multiplicity);
#: a polynomial maps monomials to integer coefficients, stored as a
#: sorted tuple so values stay hashable and picklable.
Monomial = Tuple[str, ...]
Poly = Tuple[Tuple[Monomial, int], ...]
#: ⊤ for dimensions/budgets: statically unknown.
Dim = Optional[Poly]

CONST_MONO: Monomial = ()


def poly_const(value: int) -> Poly:
    return ((CONST_MONO, int(value)),) if value else ()


def poly_sym(name: str) -> Poly:
    return (((name,), 1),)


def _normalise(terms: Dict[Monomial, int]) -> Poly:
    return tuple(sorted((m, c) for m, c in terms.items() if c != 0))


def poly_add(a: Dim, b: Dim) -> Dim:
    if a is None or b is None:
        return None
    terms: Dict[Monomial, int] = dict(a)
    for mono, coeff in b:
        terms[mono] = terms.get(mono, 0) + coeff
    return _normalise(terms)


def poly_mul(a: Dim, b: Dim) -> Dim:
    if a is None or b is None:
        return None
    terms: Dict[Monomial, int] = {}
    for mono_a, coeff_a in a:
        for mono_b, coeff_b in b:
            mono = tuple(sorted(mono_a + mono_b))
            terms[mono] = terms.get(mono, 0) + coeff_a * coeff_b
    return _normalise(terms)


def poly_as_const(p: Dim) -> Optional[int]:
    """The constant value of ``p``, if it has no symbolic term."""
    if p is None:
        return None
    if not p:
        return 0
    if len(p) == 1 and p[0][0] == CONST_MONO:
        return p[0][1]
    return None


def poly_as_symbol(p: Dim) -> Optional[str]:
    """The single symbol ``p`` denotes (coefficient 1), if any."""
    if p is not None and len(p) == 1 and p[0][1] == 1 and len(p[0][0]) == 1:
        return p[0][0][0]
    return None


def format_poly(p: Dim) -> str:
    if p is None:
        return "?"
    if not p:
        return "0"
    parts = []
    for mono, coeff in p:
        factors = list(mono)
        if coeff != 1 or not factors:
            factors = [str(coeff)] + factors
        parts.append("*".join(factors))
    return " + ".join(parts)


def format_shape(shape: Optional[Tuple[Dim, ...]]) -> str:
    if shape is None:
        return "(?)"
    inner = ", ".join(format_poly(dim) for dim in shape)
    if len(shape) == 1:
        inner += ","
    return f"({inner})"


# --------------------------------------------------------------------- #
# abstract values                                                       #
# --------------------------------------------------------------------- #

ARRAY = "array"
NUM = "num"
TUPLE = "tuple"
RNG = "rng"
NONE = "none"
TOP_KIND = "top"

#: dtype lattice points.  ``?`` is the dtype ⊤; ``platform-int`` marks
#: the value-/platform-dependent integers RL802 exists to catch.
DT_UNKNOWN = "?"
DT_BOOL = "bool"
DT_INT64 = "int64"
DT_FLOAT64 = "float64"
DT_PLATFORM_INT = "platform-int"

_FLOAT_DTYPES = frozenset({"float64", "float32", "float16"})
_INT_DTYPES = frozenset({"int64", "int32", "int16", "int8", DT_PLATFORM_INT})


@dataclass(frozen=True)
class AbstractValue:
    """One point of the value lattice (see module docstring)."""

    kind: str
    #: ARRAY: symbolic dims, or ``None`` for unknown rank/shape.
    shape: Optional[Tuple[Dim, ...]] = None
    #: ARRAY element type (NUM scalars reuse it: "int64"/"float64"/...).
    dtype: str = DT_UNKNOWN
    #: NUM: symbolic value usable as a dimension (``None`` = unknown).
    num: Dim = None
    #: TUPLE: element values.
    elts: Optional[Tuple["AbstractValue", ...]] = None


TOP = AbstractValue(kind=TOP_KIND)
NONE_VALUE = AbstractValue(kind=NONE)
RNG_VALUE = AbstractValue(kind=RNG)


def num_value(poly: Dim, dtype: str = DT_INT64) -> AbstractValue:
    return AbstractValue(kind=NUM, dtype=dtype, num=poly)


def array_value(shape: Optional[Tuple[Dim, ...]], dtype: str) -> AbstractValue:
    return AbstractValue(kind=ARRAY, shape=shape, dtype=dtype)


def _join_dim(a: Dim, b: Dim) -> Dim:
    return a if a == b else None


def _join_dtype(a: str, b: str) -> str:
    return a if a == b else DT_UNKNOWN


def join_values(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if a == b:
        return a
    if a.kind != b.kind:
        return TOP
    if a.kind == ARRAY:
        if a.shape is None or b.shape is None or len(a.shape) != len(b.shape):
            shape = None
        else:
            shape = tuple(_join_dim(x, y) for x, y in zip(a.shape, b.shape))
        return array_value(shape, _join_dtype(a.dtype, b.dtype))
    if a.kind == NUM:
        return num_value(_join_dim(a.num, b.num), _join_dtype(a.dtype, b.dtype))
    if a.kind == TUPLE:
        if (
            a.elts is not None
            and b.elts is not None
            and len(a.elts) == len(b.elts)
        ):
            return AbstractValue(
                kind=TUPLE,
                elts=tuple(join_values(x, y) for x, y in zip(a.elts, b.elts)),
            )
        return AbstractValue(kind=TUPLE)
    return TOP


# --------------------------------------------------------------------- #
# RNG budget                                                            #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Budget:
    """Array elements drawn from the generator so far (``None`` = ⊤)."""

    poly: Dim = ()

    @property
    def known(self) -> bool:
        return self.poly is not None

    def spend(self, amount: Dim) -> "Budget":
        if self.poly is None or amount is None:
            return UNKNOWN_BUDGET
        return Budget(poly=poly_add(self.poly, amount))


ZERO_BUDGET = Budget(poly=())
UNKNOWN_BUDGET = Budget(poly=None)


def join_budget(a: Budget, b: Budget) -> Budget:
    return a if a == b else UNKNOWN_BUDGET


def budget_under_declared(consumed: Poly, declared: Poly) -> Optional[str]:
    """The provably-uncovered part of ``consumed``, or ``None``.

    Declared capacity covers consumption monomial-by-monomial; leftover
    consumption is a violation only when nothing on the declared side
    *could* still dominate it: a symbolic surplus term can take any
    value ≥ 1 (symbols are sizes), so it blocks every verdict, while a
    constant surplus only covers constant leftovers.  This is exactly
    the "provable violations only" discipline — unrelated symbols
    (``self.k`` vs ``group_size * num_groups``) never fire.
    """
    remaining: Dict[Monomial, int] = dict(declared)
    leftover: Dict[Monomial, int] = {}
    for mono, coeff in consumed:
        take = min(coeff, remaining.get(mono, 0))
        if take:
            remaining[mono] = remaining[mono] - take
        if coeff - take > 0:
            leftover[mono] = coeff - take
    if not leftover:
        return None
    surplus = {m: c for m, c in remaining.items() if c > 0}
    has_symbolic_surplus = any(m != CONST_MONO for m in surplus)
    uncovered: Dict[Monomial, int] = {}
    for mono, coeff in leftover.items():
        if has_symbolic_surplus:
            continue
        if mono == CONST_MONO and surplus:
            continue
        uncovered[mono] = coeff
    if not uncovered:
        return None
    return format_poly(_normalise(uncovered))


# --------------------------------------------------------------------- #
# summaries                                                             #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShapeSummary:
    """Inter-procedural model of one function, in its own param symbols."""

    params: Tuple[str, ...] = ()
    returns: AbstractValue = TOP
    #: total RNG elements drawn per call (``None`` = ⊤).
    consumption: Dim = ()


TOP_SUMMARY = ShapeSummary(returns=TOP, consumption=None)


def merge_shape_summaries(
    old: ShapeSummary, new: ShapeSummary
) -> Tuple[ShapeSummary, bool]:
    """Monotone join: components degrade to ⊤ when runs disagree."""
    if old == new:
        return old, False
    merged = ShapeSummary(
        params=old.params if old.params == new.params else (),
        returns=join_values(old.returns, new.returns),
        consumption=old.consumption
        if old.consumption == new.consumption
        else None,
    )
    return merged, merged != old


def _substitute_poly(
    poly: Dim, binding: Dict[str, AbstractValue], self_ok: bool
) -> Dim:
    """Rewrite callee-frame symbols into the caller's frame."""
    if poly is None:
        return None
    result: Dim = ()
    for mono, coeff in poly:
        factors: Dim = ((CONST_MONO, coeff),)
        for symbol in mono:
            root, _, rest = symbol.partition(".")
            if root == "self":
                factors = poly_mul(factors, poly_sym(symbol) if self_ok else None)
            elif root in binding:
                value = binding[root]
                if value.kind != NUM:
                    return None
                if rest:
                    base = poly_as_symbol(value.num)
                    factors = poly_mul(
                        factors,
                        poly_sym(f"{base}.{rest}") if base else None,
                    )
                else:
                    factors = poly_mul(factors, value.num)
            else:
                return None
            if factors is None:
                return None
        result = poly_add(result, factors)
    return result


def bind_summary(
    summary: ShapeSummary,
    args: Sequence[AbstractValue],
    keywords: Dict[str, AbstractValue],
    self_ok: bool,
) -> Tuple[AbstractValue, Dim]:
    """Instantiate a callee summary at a call site.

    Returns ``(return value, RNG consumption)`` in the caller's frame.
    """
    binding: Dict[str, AbstractValue] = {}
    for name, value in zip(summary.params, args):
        binding[name] = value
    for name, value in keywords.items():
        if name in summary.params:
            binding[name] = value

    def rewrite(value: AbstractValue) -> AbstractValue:
        if value.kind == ARRAY:
            if value.shape is None:
                return value
            return array_value(
                tuple(
                    _substitute_poly(dim, binding, self_ok)
                    for dim in value.shape
                ),
                value.dtype,
            )
        if value.kind == NUM:
            return num_value(
                _substitute_poly(value.num, binding, self_ok), value.dtype
            )
        if value.kind == TUPLE and value.elts is not None:
            return AbstractValue(
                kind=TUPLE, elts=tuple(rewrite(v) for v in value.elts)
            )
        return value

    consumption = _substitute_poly(summary.consumption, binding, self_ok)
    return rewrite(summary.returns), consumption


SummaryLookup = Callable[[str], Optional[ShapeSummary]]


# --------------------------------------------------------------------- #
# kernel scoping (mirrors the RL303 detector)                           #
# --------------------------------------------------------------------- #

#: Entry-point names (and suffixes) marking a batch kernel anywhere.
KERNEL_BLOCK_NAMES = ("accept_block", "l1_errors_block")


def is_kernel_function(name: str) -> bool:
    return any(name == base or name.endswith(base) for base in KERNEL_BLOCK_NAMES)


def is_accept_kernel_class(node: ast.ClassDef) -> bool:
    """Structural AcceptKernel check: defines accept_block + cache_token."""
    defined = {
        stmt.name
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return "accept_block" in defined and "cache_token" in defined


#: Hot methods of a streaming tester, audited like ``*_block`` kernels:
#: ``update`` folds a sample block into per-trial state every chunk of
#: every trial, ``finalize`` reads the verdicts off the state.
STREAMING_HOT_METHODS = frozenset({"update", "update_block", "finalize"})


def is_streaming_tester_class(node: ast.ClassDef) -> bool:
    """Structural StreamingTester check (the ``as_kernel`` duck shape).

    A class defining ``init_state``, ``update`` and ``finalize`` is
    adapter-registrable through
    :class:`~repro.engine.kernels.StreamingKernel`, so its hot methods
    get the same dtype/shape audit as batch kernels.
    """
    defined = {
        stmt.name
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return {"init_state", "update", "finalize"} <= defined


def _is_accept_like(name: str) -> bool:
    return name == "accept_block" or name.endswith("accept_block")


# --------------------------------------------------------------------- #
# dtype hazard tables (RL802)                                           #
# --------------------------------------------------------------------- #

#: numpy scalar-type attributes whose width depends on the platform.
PLATFORM_DTYPE_NAMES = frozenset(
    {
        "numpy.int_",
        "numpy.intp",
        "numpy.intc",
        "numpy.uint",
        "numpy.uintp",
        "numpy.uintc",
        "numpy.long",
        "numpy.ulong",
        "numpy.longlong",
        "numpy.ulonglong",
    }
)

_EXPLICIT_DTYPES = {
    "numpy.bool_": DT_BOOL,
    "bool": DT_BOOL,
    "numpy.int64": DT_INT64,
    "numpy.int32": "int32",
    "numpy.float64": DT_FLOAT64,
    "numpy.float32": "float32",
    "int": DT_PLATFORM_INT,
    "float": DT_FLOAT64,
}

#: Generator draw methods: result dtype + whether the drawn element
#: count equals the result size (``choice``/``shuffle`` are rejection-
#: based or in-place, so their budget is ⊤ by design).
_RNG_FLOAT_DRAWS = frozenset({"random", "uniform", "normal", "standard_normal"})
_RNG_INT_DRAWS = frozenset({"integers", "poisson", "permutation"})
_RNG_UNCOUNTED = frozenset({"choice", "shuffle"})

_REDUCTIONS = frozenset({"sum", "mean", "any", "all", "max", "min", "prod", "std", "var"})
_SHAPE_PRESERVING_METHODS = frozenset(
    {"copy", "astype", "round", "clip", "sort", "argsort", "cumsum", "conj"}
)


# --------------------------------------------------------------------- #
# the per-function interpreter                                          #
# --------------------------------------------------------------------- #

Env = Dict[str, AbstractValue]
State = Tuple[Env, Budget]


def _join_state(a: State, b: State) -> State:
    env = {name: join_values(a[0][name], b[0][name]) for name in a[0].keys() & b[0].keys()}
    return env, join_budget(a[1], b[1])


def _loop_statements(function: FunctionNode) -> Set[int]:
    """ids of statements nested inside any loop of ``function``."""
    inside: Set[int] = set()

    def mark(node: ast.AST) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.stmt):
                inside.add(id(child))

    for node in ast.walk(function):
        if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
            for stmt in node.body + node.orelse:
                mark(stmt)
    return inside


@dataclass
class _ShapeInterp:
    """Abstract interpretation of one function over its CFG."""

    module: ModuleInfo
    function: FunctionNode
    qualname: str
    cls: Optional[ClassInfo]
    lookup: SummaryLookup
    findings: List[RawFinding] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.ctx = self.module.ctx
        self._seen: Set[Tuple[str, int, int, str]] = set()
        self._loops = _loop_statements(self.function)
        self._record = False
        self._in_loop = False
        self._budget = ZERO_BUDGET
        self._return_value: Optional[AbstractValue] = None
        name = self.function.name
        in_kernel_class = self.cls is not None and is_accept_kernel_class(
            self.cls.node
        )
        in_streaming_class = self.cls is not None and is_streaming_tester_class(
            self.cls.node
        )
        self._is_block = (
            is_kernel_function(name)
            or (in_kernel_class and name.endswith("_block"))
            # Streaming hot methods take state instead of a trials
            # parameter, so the RL801 return-shape check self-gates on
            # the missing ``trials``; the dtype (RL802) and broadcast
            # (RL804) audits apply in full.
            or (in_streaming_class and name in STREAMING_HOT_METHODS)
        )
        #: RL802 also audits cache-keyed data on kernel classes.
        self._dtype_scope = self._is_block or (
            (in_kernel_class or in_streaming_class) and name == "cache_token"
        )
        args = self.function.args
        self._params = [arg.arg for arg in args.posonlyargs + args.args]
        self._trials_param = "trials" if "trials" in self._params else None

    # ------------------------------------------------------------------ #
    # reporting                                                          #
    # ------------------------------------------------------------------ #

    def _report(self, code: str, node: ast.AST, message: str) -> None:
        if not self._record:
            return
        line = getattr(node, "lineno", self.function.lineno)
        col = getattr(node, "col_offset", self.function.col_offset)
        key = (code, line, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            RawFinding(code=code, line=line, col=col, message=message)
        )

    # ------------------------------------------------------------------ #
    # entry state                                                        #
    # ------------------------------------------------------------------ #

    def _entry_env(self) -> Env:
        env: Env = {}
        for name in self._params:
            if name in ("rng", "generator", "gen"):
                # Helpers receiving the block generator directly.
                env[name] = RNG_VALUE
            else:
                env[name] = num_value(poly_sym(name), DT_UNKNOWN)
        args = self.function.args
        for arg in args.kwonlyargs:
            env[arg.arg] = TOP
        if args.vararg is not None:
            env[args.vararg.arg] = TOP
        if args.kwarg is not None:
            env[args.kwarg.arg] = TOP
        return env

    # ------------------------------------------------------------------ #
    # expression evaluation                                              #
    # ------------------------------------------------------------------ #

    def _spend(self, amount: Dim) -> None:
        if self._in_loop:
            self._budget = UNKNOWN_BUDGET
        else:
            self._budget = self._budget.spend(amount)

    def _size_product(self, value: AbstractValue) -> Dim:
        """Element count of a draw given its ``size`` argument value."""
        if value.kind == NUM:
            return value.num
        if value.kind == TUPLE and value.elts is not None:
            product: Dim = poly_const(1)
            for element in value.elts:
                if element.kind != NUM:
                    return None
                product = poly_mul(product, element.num)
            return product
        return None

    def _shape_from_size(
        self, value: Optional[AbstractValue]
    ) -> Optional[Tuple[Dim, ...]]:
        if value is None:
            return None
        if value.kind == NUM:
            return (value.num,)
        if value.kind == TUPLE and value.elts is not None:
            return tuple(
                element.num if element.kind == NUM else None
                for element in value.elts
            )
        return None

    def _eval(self, node: Optional[ast.expr], env: Env) -> AbstractValue:
        if node is None:
            return TOP
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node, env)
        # Unmodeled expression heads: evaluate children for their budget
        # side effects, then degrade.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, env)
        return TOP

    # -- literals and names -------------------------------------------- #

    def _eval_Constant(self, node: ast.Constant, env: Env) -> AbstractValue:
        value = node.value
        if isinstance(value, bool):
            return num_value(poly_const(int(value)), DT_BOOL)
        if isinstance(value, int):
            return num_value(poly_const(value), DT_INT64)
        if isinstance(value, float):
            return num_value(None, DT_FLOAT64)
        if value is None:
            return NONE_VALUE
        return TOP

    def _eval_Name(self, node: ast.Name, env: Env) -> AbstractValue:
        return env.get(node.id, TOP)

    def _eval_Tuple(self, node: ast.Tuple, env: Env) -> AbstractValue:
        return AbstractValue(
            kind=TUPLE,
            elts=tuple(self._eval(element, env) for element in node.elts),
        )

    _eval_List = _eval_Tuple

    def _eval_Attribute(self, node: ast.Attribute, env: Env) -> AbstractValue:
        canonical = self.ctx.resolve(dotted_name(node))
        if canonical in PLATFORM_DTYPE_NAMES:
            if self._dtype_scope:
                self._report(
                    "RL802",
                    node,
                    f"platform-dependent dtype {canonical.split('.', 1)[1]} "
                    "in a kernel accept path; spell the width explicitly "
                    "(np.int64) so cached curves stay bit-identical "
                    "across machines",
                )
            return num_value(None, DT_PLATFORM_INT)
        base = self._eval(node.value, env)
        if base.kind == ARRAY:
            if node.attr == "shape":
                if base.shape is None:
                    return AbstractValue(kind=TUPLE)
                return AbstractValue(
                    kind=TUPLE,
                    elts=tuple(num_value(dim) for dim in base.shape),
                )
            if node.attr == "size":
                if base.shape is None:
                    return num_value(None)
                product: Dim = poly_const(1)
                for dim in base.shape:
                    product = poly_mul(product, dim)
                return num_value(product)
            if node.attr == "dtype":
                return TOP
            if node.attr == "T":
                shape = (
                    tuple(reversed(base.shape))
                    if base.shape is not None
                    else None
                )
                return array_value(shape, base.dtype)
            return TOP
        if base.kind == NUM:
            root = poly_as_symbol(base.num)
            if root is not None:
                path = f"{root}.{node.attr}"
                if node.attr == "pmf":
                    # The library-wide contract: a distribution's pmf is
                    # a read-only float64 vector over its domain.
                    return array_value((poly_sym(f"{root}.n"),), DT_FLOAT64)
                return num_value(poly_sym(path), DT_UNKNOWN)
        return TOP

    # -- operators ----------------------------------------------------- #

    def _broadcast(
        self, left: AbstractValue, right: AbstractValue, node: ast.AST
    ) -> Optional[Tuple[Dim, ...]]:
        if any(
            value.kind not in (ARRAY, NUM) for value in (left, right)
        ):
            # ⊤ may be an array of any rank: the result shape is unknown.
            return None
        shapes = [
            value.shape for value in (left, right) if value.kind == ARRAY
        ]
        if len(shapes) == 1:
            return shapes[0]
        if None in shapes:
            return None
        a, b = shapes
        rank = max(len(a), len(b))
        a = (poly_const(1),) * (rank - len(a)) + a
        b = (poly_const(1),) * (rank - len(b)) + b
        dims: List[Dim] = []
        for dim_a, dim_b in zip(a, b):
            const_a, const_b = poly_as_const(dim_a), poly_as_const(dim_b)
            if const_a == 1:
                dims.append(dim_b)
            elif const_b == 1:
                dims.append(dim_a)
            elif dim_a == dim_b:
                dims.append(dim_a)
            elif (
                const_a is not None
                and const_b is not None
                and const_a != const_b
            ):
                if self._is_block:
                    self._report(
                        "RL804",
                        node,
                        "broadcast-incompatible operand shapes "
                        f"{format_shape(left.shape)} and "
                        f"{format_shape(right.shape)} on this path; "
                        "align the trial axis explicitly",
                    )
                dims.append(None)
            else:
                dims.append(None)
        return tuple(dims)

    def _arith_dtype(self, op: ast.operator, a: str, b: str) -> str:
        if DT_UNKNOWN in (a, b):
            return DT_UNKNOWN
        if isinstance(op, ast.Div):
            return DT_FLOAT64
        if a in _FLOAT_DTYPES or b in _FLOAT_DTYPES:
            return DT_FLOAT64
        if a == DT_BOOL and b == DT_BOOL:
            if isinstance(op, (ast.BitOr, ast.BitAnd, ast.BitXor)):
                return DT_BOOL
            return DT_INT64
        if a in _INT_DTYPES and b in _INT_DTYPES:
            if DT_PLATFORM_INT in (a, b):
                return DT_PLATFORM_INT
            return DT_INT64
        return DT_UNKNOWN

    def _eval_BinOp(self, node: ast.BinOp, env: Env) -> AbstractValue:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if ARRAY in (left.kind, right.kind):
            shape = self._broadcast(left, right, node)
            dtype = self._arith_dtype(node.op, left.dtype, right.dtype)
            return array_value(shape, dtype)
        if left.kind == NUM and right.kind == NUM:
            dtype = self._arith_dtype(node.op, left.dtype, right.dtype)
            if isinstance(node.op, ast.Add):
                return num_value(poly_add(left.num, right.num), dtype)
            if isinstance(node.op, ast.Sub):
                negated = poly_mul(right.num, poly_const(-1))
                return num_value(poly_add(left.num, negated), dtype)
            if isinstance(node.op, ast.Mult):
                return num_value(poly_mul(left.num, right.num), dtype)
            return num_value(None, dtype)
        return TOP

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: Env) -> AbstractValue:
        operand = self._eval(node.operand, env)
        if isinstance(node.op, ast.USub) and operand.kind == NUM:
            return num_value(poly_mul(operand.num, poly_const(-1)), operand.dtype)
        if isinstance(node.op, ast.Not):
            return num_value(None, DT_BOOL)
        if isinstance(node.op, ast.Invert) and operand.kind == ARRAY:
            return operand
        return operand if operand.kind == ARRAY else TOP

    def _eval_Compare(self, node: ast.Compare, env: Env) -> AbstractValue:
        values = [self._eval(node.left, env)]
        values.extend(self._eval(comp, env) for comp in node.comparators)
        if self._dtype_scope and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            for value in values:
                if value.kind == ARRAY and value.dtype in _FLOAT_DTYPES:
                    self._report(
                        "RL802",
                        node,
                        "equality test on a float-valued array in a "
                        "kernel accept path; float round-off is not a "
                        "stable bit — compare integer counts or use an "
                        "explicit tolerance",
                    )
                    break
        arrays = [value for value in values if value.kind == ARRAY]
        unknown = any(
            value.kind not in (ARRAY, NUM) for value in values
        )
        if not arrays:
            # A ⊤ operand may itself be an array, so no scalar claim.
            return TOP if unknown else num_value(None, DT_BOOL)
        shape: Optional[Tuple[Dim, ...]] = arrays[0].shape
        for other in arrays[1:]:
            shape = self._broadcast(
                array_value(shape, DT_UNKNOWN), other, node
            )
        if unknown:
            shape = None
        return array_value(shape, DT_BOOL)

    def _eval_BoolOp(self, node: ast.BoolOp, env: Env) -> AbstractValue:
        joined = self._eval(node.values[0], env)
        for value in node.values[1:]:
            joined = join_values(joined, self._eval(value, env))
        return joined

    def _eval_IfExp(self, node: ast.IfExp, env: Env) -> AbstractValue:
        self._eval(node.test, env)
        return join_values(
            self._eval(node.body, env), self._eval(node.orelse, env)
        )

    def _eval_Subscript(self, node: ast.Subscript, env: Env) -> AbstractValue:
        base = self._eval(node.value, env)
        index = node.slice
        if base.kind == TUPLE and base.elts is not None:
            if isinstance(index, ast.Constant) and isinstance(index.value, int):
                if -len(base.elts) <= index.value < len(base.elts):
                    return base.elts[index.value]
            self._eval(index, env)
            return TOP
        if base.kind != ARRAY:
            self._eval(index, env)
            return TOP
        dims = list(base.shape) if base.shape is not None else None
        entries = (
            list(index.elts) if isinstance(index, ast.Tuple) else [index]
        )
        out_dims: Optional[List[Dim]] = [] if dims is not None else None
        consumed = 0
        fancy: List[AbstractValue] = []
        for entry in entries:
            if isinstance(entry, ast.Slice):
                self._eval(entry.lower, env)
                self._eval(entry.upper, env)
                if out_dims is not None and dims is not None:
                    if (
                        entry.lower is None
                        and entry.upper is None
                        and entry.step is None
                        and consumed < len(dims)
                    ):
                        out_dims.append(dims[consumed])
                    else:
                        out_dims = None
                consumed += 1
                continue
            entry_value = self._eval(entry, env)
            canonical = self.ctx.resolve(dotted_name(entry))
            if canonical == "numpy.newaxis" or (
                isinstance(entry, ast.Constant) and entry.value is None
            ):
                if out_dims is not None:
                    out_dims.append(poly_const(1))
                continue
            if entry_value.kind == NUM:
                consumed += 1  # integer index drops this axis
                continue
            if entry_value.kind == ARRAY:
                fancy.append(entry_value)
                consumed += 1
                out_dims = None
                continue
            out_dims = None
            consumed += 1
        if fancy:
            if len(fancy) == 1 and fancy[0].dtype != DT_BOOL and len(entries) == 1:
                # Pure integer fancy indexing: result takes the index shape.
                return array_value(fancy[0].shape, base.dtype)
            return array_value(None, base.dtype)
        if out_dims is None or dims is None:
            if dims is not None and consumed >= len(dims) and all(
                not isinstance(entry, ast.Slice) for entry in entries
            ):
                return num_value(None, base.dtype)
            return array_value(None, base.dtype)
        out_dims.extend(dims[consumed:])
        if not out_dims:
            return num_value(None, base.dtype)
        return array_value(tuple(out_dims), base.dtype)

    # -- calls --------------------------------------------------------- #

    def _dtype_from_node(
        self, node: Optional[ast.expr], env: Env, default: str
    ) -> str:
        if node is None:
            return default
        canonical = self.ctx.resolve(dotted_name(node))
        if canonical in PLATFORM_DTYPE_NAMES or canonical in ("int",):
            if self._dtype_scope:
                spelled = (
                    canonical.replace("numpy.", "np.")
                    if canonical.startswith("numpy.")
                    else canonical
                )
                self._report(
                    "RL802",
                    node,
                    f"value written with platform-dependent dtype {spelled} "
                    "in a kernel accept path; use np.int64 so cached "
                    "curves stay bit-identical across machines",
                )
            return DT_PLATFORM_INT
        if canonical in _EXPLICIT_DTYPES:
            return _EXPLICIT_DTYPES[canonical]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
            if text in ("int", "uint", "intp"):
                return DT_PLATFORM_INT
            if text in ("bool",):
                return DT_BOOL
            if text in ("int64", "float64", "int32", "float32"):
                return text
        self._eval(node, env)
        return DT_UNKNOWN

    def _keyword(self, call: ast.Call, name: str) -> Optional[ast.expr]:
        for keyword in call.keywords:
            if keyword.arg == name:
                return keyword.value
        return None

    def _arg(self, call: ast.Call, index: int, name: str) -> Optional[ast.expr]:
        if len(call.args) > index:
            return call.args[index]
        return self._keyword(call, name)

    def _eval_Call(self, node: ast.Call, env: Env) -> AbstractValue:
        func = node.func
        if isinstance(func, ast.Attribute):
            return self._call_attribute(node, func, env)
        canonical = self.ctx.resolve(dotted_name(func))
        return self._call_named(node, canonical, env)

    def _eval_args(
        self, node: ast.Call, env: Env
    ) -> Tuple[List[AbstractValue], Dict[str, AbstractValue], bool]:
        args = [self._eval(arg, env) for arg in node.args]
        keywords = {
            keyword.arg: self._eval(keyword.value, env)
            for keyword in node.keywords
            if keyword.arg is not None
        }
        for keyword in node.keywords:
            if keyword.arg is None:
                self._eval(keyword.value, env)
        passes_rng = any(
            value.kind == RNG for value in args
        ) or any(value.kind == RNG for value in keywords.values())
        return args, keywords, passes_rng

    def _opaque_call(
        self, node: ast.Call, env: Env
    ) -> AbstractValue:
        _args, _keywords, passes_rng = self._eval_args(node, env)
        if passes_rng:
            # A black box holding the generator may draw anything.
            self._budget = UNKNOWN_BUDGET
        return TOP

    def _call_named(
        self, node: ast.Call, canonical: Optional[str], env: Env
    ) -> AbstractValue:
        if canonical is None:
            return self._opaque_call(node, env)
        head = canonical.split(".")[-1]
        if canonical in ("repro.rng.ensure_rng", "ensure_rng") or head == "ensure_rng":
            for arg in node.args:
                self._eval(arg, env)
            return RNG_VALUE
        if canonical in ("int",):
            value = self._eval(node.args[0], env) if node.args else TOP
            if value.kind == NUM:
                return num_value(value.num, DT_INT64)
            return num_value(None, DT_INT64)
        if canonical in ("float",):
            if node.args:
                self._eval(node.args[0], env)
            return num_value(None, DT_FLOAT64)
        if canonical in ("bool",):
            if node.args:
                self._eval(node.args[0], env)
            return num_value(None, DT_BOOL)
        if canonical == "len":
            value = self._eval(node.args[0], env) if node.args else TOP
            if value.kind == ARRAY and value.shape:
                return num_value(value.shape[0], DT_INT64)
            if value.kind == TUPLE and value.elts is not None:
                return num_value(poly_const(len(value.elts)), DT_INT64)
            return num_value(None, DT_INT64)
        if canonical in ("max", "min", "sum", "abs", "range", "sorted"):
            for arg in node.args:
                self._eval(arg, env)
            return TOP
        if canonical.startswith("numpy."):
            return self._call_numpy(node, canonical[len("numpy."):], env)
        # A function this program defines: bind its converged summary.
        summary = self.lookup(canonical)
        if summary is None:
            return self._opaque_call(node, env)
        args, keywords, passes_rng = self._eval_args(node, env)
        returned, consumption = bind_summary(
            summary, args, keywords, self_ok=False
        )
        if passes_rng:
            self._spend(consumption)
        return returned

    def _call_numpy(
        self, node: ast.Call, name: str, env: Env
    ) -> AbstractValue:
        args, keywords, _passes_rng = self._eval_args(node, env)

        def arg_value(index: int, kw: str) -> Optional[AbstractValue]:
            if len(args) > index:
                return args[index]
            return keywords.get(kw)

        dtype_node = self._keyword(node, "dtype")
        if name in ("zeros", "ones", "empty"):
            dtype = self._dtype_from_node(dtype_node, env, DT_FLOAT64)
            return array_value(self._shape_from_size(arg_value(0, "shape")), dtype)
        if name == "full":
            fill = arg_value(1, "fill_value")
            default = DT_FLOAT64
            if fill is not None and fill.kind == NUM and fill.dtype != DT_UNKNOWN:
                default = fill.dtype
            dtype = self._dtype_from_node(dtype_node, env, default)
            return array_value(self._shape_from_size(arg_value(0, "shape")), dtype)
        if name in ("asarray", "ascontiguousarray", "array", "copy"):
            source = arg_value(0, "a")
            dtype = self._dtype_from_node(
                dtype_node,
                env,
                source.dtype if source is not None else DT_UNKNOWN,
            )
            if source is not None and source.kind == ARRAY:
                return array_value(source.shape, dtype)
            return array_value(None, dtype)
        if name == "arange":
            dtype = self._dtype_from_node(dtype_node, env, DT_INT64)
            if len(args) == 1 and args[0].kind == NUM:
                return array_value((args[0].num,), dtype)
            return array_value((None,), dtype)
        if name == "bincount":
            dtype = DT_FLOAT64 if "weights" in keywords else DT_INT64
            # Length is max(input)+1 vs minlength — value-dependent, so
            # the dimension stays ⊤ (a following reshape pins it).
            return array_value((None,), dtype)
        if name in ("argsort", "searchsorted", "flatnonzero", "digitize"):
            if name == "argsort":
                source = arg_value(0, "a")
                axis = keywords.get("axis")
                shape = source.shape if source is not None and source.kind == ARRAY else None
                if axis is not None and axis.kind == NONE:
                    shape = None
                return array_value(shape, DT_INT64)
            if name == "searchsorted":
                probe = arg_value(1, "v")
                if probe is not None and probe.kind == ARRAY:
                    return array_value(probe.shape, DT_INT64)
                return num_value(None, DT_INT64)
            return array_value((None,), DT_INT64)
        if name == "nonzero":
            source = arg_value(0, "a")
            rank = (
                len(source.shape)
                if source is not None
                and source.kind == ARRAY
                and source.shape is not None
                else 2
            )
            return AbstractValue(
                kind=TUPLE,
                elts=tuple(
                    array_value((None,), DT_INT64) for _ in range(rank)
                ),
            )
        if name in ("sort", "abs", "clip", "square", "negative"):
            source = arg_value(0, "a")
            if source is not None and source.kind == ARRAY:
                return source
            return source if source is not None else TOP
        if name in ("sqrt", "exp", "log", "log2", "floor", "ceil"):
            source = arg_value(0, "x")
            if source is not None and source.kind == ARRAY:
                return array_value(source.shape, DT_FLOAT64)
            return num_value(None, DT_FLOAT64)
        if name in ("sum", "mean", "any", "all", "prod"):
            source = arg_value(0, "a")
            return self._reduce(
                source, name, keywords.get("axis"), node
            )
        if name == "diff":
            source = arg_value(0, "a")
            if (
                source is not None
                and source.kind == ARRAY
                and source.shape is not None
                and len(source.shape) >= 1
            ):
                dims = list(source.shape)
                dims[-1] = poly_add(dims[-1], poly_const(-1))
                return array_value(tuple(dims), source.dtype)
            return array_value(None, source.dtype if source is not None else DT_UNKNOWN)
        if name in ("append", "concatenate", "stack", "hstack", "vstack"):
            return array_value(None, DT_UNKNOWN)
        if name == "take_along_axis":
            indices = arg_value(1, "indices")
            source = arg_value(0, "arr")
            dtype = source.dtype if source is not None else DT_UNKNOWN
            if indices is not None and indices.kind == ARRAY:
                return array_value(indices.shape, dtype)
            return array_value(None, dtype)
        if name == "tile":
            source = arg_value(0, "A")
            reps = arg_value(1, "reps")
            if (
                source is not None
                and source.kind == ARRAY
                and source.shape is not None
                and len(source.shape) == 1
                and reps is not None
                and reps.kind == NUM
            ):
                return array_value(
                    (poly_mul(source.shape[0], reps.num),), source.dtype
                )
            return array_value(None, source.dtype if source is not None else DT_UNKNOWN)
        if name == "where":
            x, y = arg_value(1, "x"), arg_value(2, "y")
            if x is not None and y is not None:
                return join_values(x, y)
            return array_value(None, DT_UNKNOWN)
        if name == "reshape":
            source = arg_value(0, "a")
            return self._reshape(source, args[1:] or None, node, env)
        if name == "empty_like" or name == "zeros_like" or name == "ones_like":
            source = arg_value(0, "prototype")
            if source is not None and source.kind == ARRAY:
                dtype = self._dtype_from_node(dtype_node, env, source.dtype)
                return array_value(source.shape, dtype)
            return array_value(None, DT_UNKNOWN)
        # numpy.add.at / numpy.add.reduceat and anything else unmodeled.
        return TOP

    def _reduce(
        self,
        source: Optional[AbstractValue],
        name: str,
        axis: Optional[AbstractValue],
        node: ast.AST,
    ) -> AbstractValue:
        if name in ("any", "all"):
            dtype = DT_BOOL
        elif name in ("mean", "std", "var"):
            dtype = DT_FLOAT64
        elif source is not None and source.dtype in _FLOAT_DTYPES:
            dtype = DT_FLOAT64
        elif source is not None and source.dtype in _INT_DTYPES | {DT_BOOL}:
            dtype = DT_INT64
        else:
            dtype = DT_UNKNOWN
        if source is None or source.kind != ARRAY:
            return num_value(None, dtype)
        if axis is None:
            # Full reduction: a 0-d scalar, the RL801 canary.
            return num_value(None, dtype)
        if source.shape is None or axis.kind != NUM:
            return array_value(None, dtype)
        index = poly_as_const(axis.num)
        if index is None:
            return array_value(None, dtype)
        rank = len(source.shape)
        if -rank <= index < rank:
            dims = list(source.shape)
            del dims[index]
            if not dims:
                return num_value(None, dtype)
            return array_value(tuple(dims), dtype)
        return array_value(None, dtype)

    def _reshape(
        self,
        source: Optional[AbstractValue],
        shape_args: Optional[List[AbstractValue]],
        node: ast.AST,
        env: Env,
    ) -> AbstractValue:
        dtype = source.dtype if source is not None else DT_UNKNOWN
        if not shape_args:
            return array_value(None, dtype)
        if len(shape_args) == 1 and shape_args[0].kind == TUPLE:
            dims = self._shape_from_size(shape_args[0])
        else:
            dims = tuple(
                value.num if value.kind == NUM else None
                for value in shape_args
            )
        if dims is not None and any(
            poly_as_const(dim) == -1 for dim in dims
        ):
            dims = tuple(
                None if poly_as_const(dim) == -1 else dim for dim in dims
            )
        return array_value(dims, dtype)

    def _call_attribute(
        self, node: ast.Call, func: ast.Attribute, env: Env
    ) -> AbstractValue:
        attr = func.attr
        canonical = self.ctx.resolve(dotted_name(func))
        if canonical is not None and canonical.startswith("numpy."):
            # numpy.add.at / numpy.add.reduceat style ufunc-method calls
            # land here too; _call_numpy degrades them to ⊤.
            return self._call_numpy(node, canonical[len("numpy."):], env)
        receiver = self._eval(func.value, env)
        if receiver.kind == RNG:
            return self._call_rng(node, attr, env)
        if attr == "sample_matrix":
            # Library-wide contract: distribution.sample_matrix(rows,
            # cols, rng) draws rows*cols int64 samples from the block
            # generator (one inverse-CDF uniform per element).
            args, keywords, _ = self._eval_args(node, env)

            def sized(index: int, kw: str) -> Dim:
                value = (
                    args[index]
                    if len(args) > index
                    else keywords.get(kw)
                )
                if value is not None and value.kind == NUM:
                    return value.num
                return None

            rows, cols = sized(0, "rows"), sized(1, "cols")
            self._spend(poly_mul(rows, cols))
            return array_value((rows, cols), DT_INT64)
        if attr == "astype":
            dtype_node = self._arg(node, 0, "dtype")
            dtype = self._dtype_from_node(dtype_node, env, DT_UNKNOWN)
            if receiver.kind == ARRAY:
                return array_value(receiver.shape, dtype)
            if receiver.kind == NUM:
                return num_value(receiver.num, dtype)
            return array_value(None, dtype)
        if receiver.kind == ARRAY:
            return self._call_array_method(node, attr, receiver, env)
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.cls is not None
            and attr in self.cls.methods
        ):
            summary = self.lookup(f"{self.cls.qualname}.{attr}")
            if summary is not None:
                args, keywords, passes_rng = self._eval_args(node, env)
                returned, consumption = bind_summary(
                    summary, args, keywords, self_ok=True
                )
                if passes_rng:
                    self._spend(consumption)
                return returned
        return self._opaque_call(node, env)

    def _call_array_method(
        self, node: ast.Call, attr: str, receiver: AbstractValue, env: Env
    ) -> AbstractValue:
        args, keywords, _ = self._eval_args(node, env)
        if attr == "reshape":
            return self._reshape(receiver, args or None, node, env)
        if attr in ("ravel", "flatten"):
            if receiver.shape is None:
                return array_value(None, receiver.dtype)
            product: Dim = poly_const(1)
            for dim in receiver.shape:
                product = poly_mul(product, dim)
            return array_value((product,), receiver.dtype)
        if attr in _REDUCTIONS:
            axis = keywords.get("axis")
            if axis is None and args:
                axis = args[0]
            return self._reduce(receiver, attr, axis, node)
        if attr == "argsort":
            return array_value(receiver.shape, DT_INT64)
        if attr in _SHAPE_PRESERVING_METHODS:
            return array_value(receiver.shape, receiver.dtype)
        if attr in ("tolist", "item"):
            return TOP
        if attr == "setflags" or attr == "fill":
            return NONE_VALUE
        return TOP

    def _call_rng(self, node: ast.Call, attr: str, env: Env) -> AbstractValue:
        args, keywords, _ = self._eval_args(node, env)

        def size_value() -> Optional[AbstractValue]:
            if "size" in keywords:
                return keywords["size"]
            positions = {
                "random": 0,
                "standard_normal": 0,
                "integers": 2,
                "uniform": 2,
                "normal": 2,
                "poisson": 1,
            }
            index = positions.get(attr)
            if index is not None and len(args) > index:
                return args[index]
            return None

        size = size_value()
        if attr in _RNG_FLOAT_DRAWS or attr in _RNG_INT_DRAWS:
            dtype = DT_FLOAT64 if attr in _RNG_FLOAT_DRAWS else DT_INT64
            if attr == "permutation":
                target = args[0] if args else None
                if target is not None and target.kind == NUM:
                    self._spend(target.num)
                    return array_value((target.num,), DT_INT64)
                if target is not None and target.kind == ARRAY:
                    self._budget = UNKNOWN_BUDGET
                    return array_value(target.shape, target.dtype)
                self._budget = UNKNOWN_BUDGET
                return array_value(None, DT_INT64)
            if size is None and attr == "poisson" and args:
                lam = args[0]
                if lam.kind == ARRAY:
                    shape = lam.shape
                    product: Dim = poly_const(1)
                    for dim in shape or (None,):
                        product = poly_mul(product, dim)
                    self._spend(product if shape is not None else None)
                    return array_value(shape, DT_INT64)
                self._spend(poly_const(1))
                return num_value(None, DT_INT64)
            if size is None:
                self._spend(poly_const(1))
                return num_value(None, dtype)
            shape = self._shape_from_size(size)
            self._spend(self._size_product(size))
            return array_value(shape, dtype)
        if attr in _RNG_UNCOUNTED:
            # choice rejection-samples and shuffle draws in place: the
            # element count is value-dependent, so the budget goes ⊤.
            self._budget = UNKNOWN_BUDGET
            if attr == "choice":
                shape = self._shape_from_size(size)
                if size is None:
                    return num_value(None, DT_UNKNOWN)
                return array_value(shape, DT_UNKNOWN)
            return NONE_VALUE
        if attr == "spawn":
            return TOP
        self._budget = UNKNOWN_BUDGET
        return TOP

    # ------------------------------------------------------------------ #
    # statements                                                         #
    # ------------------------------------------------------------------ #

    def _bind(self, target: ast.expr, value: AbstractValue, env: Env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements = (
                value.elts
                if value.kind == TUPLE
                and value.elts is not None
                and len(value.elts) == len(target.elts)
                else None
            )
            for index, element in enumerate(target.elts):
                if isinstance(element, ast.Starred):
                    self._bind(element.value, TOP, env)
                    continue
                self._bind(
                    element,
                    elements[index] if elements is not None else TOP,
                    env,
                )
        elif isinstance(target, ast.Subscript):
            # Weak update: element stores keep the container's shape.
            self._eval(target.slice, env)
            self._eval(target.value, env)
        elif isinstance(target, ast.Attribute):
            self._eval(target.value, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, TOP, env)

    def _check_return(self, node: ast.Return, value: AbstractValue) -> None:
        if not self._is_block or self._trials_param is None:
            return
        trials = poly_sym(self._trials_param)
        accept_like = _is_accept_like(self.function.name)
        entry_point = is_kernel_function(self.function.name)
        if value.kind == NUM and value.dtype != DT_UNKNOWN:
            self._report(
                "RL801",
                node,
                f"{self.function.name} returns a scalar, not a "
                f"({self._trials_param},) vector; a reduction is "
                "missing its axis= (use axis=1 to keep the trial axis)",
            )
            return
        if value.kind != ARRAY or value.shape is None:
            return
        if not entry_point and len(value.shape) > 1:
            # Helper blocks return per-trial rows for the entry point to
            # reduce; only a leading axis that is provably not ``trials``
            # breaks the trial-major contract.
            if value.shape[0] is not None and value.shape[0] != trials:
                self._report(
                    "RL801",
                    node,
                    f"{self.function.name} returns shape "
                    f"{format_shape(value.shape)}, not trial-major "
                    f"({self._trials_param}, ...); keep the trial axis first",
                )
            return
        if len(value.shape) != 1 or (
            value.shape[0] is not None and value.shape[0] != trials
        ):
            if len(value.shape) == 1 and value.shape[0] is None:
                return
            self._report(
                "RL801",
                node,
                f"{self.function.name} returns shape "
                f"{format_shape(value.shape)}, not "
                f"({self._trials_param},); reduce the non-trial axes "
                "(wrong or missing axis= collapses the contract)",
            )
            return
        if (
            accept_like
            and value.dtype not in (DT_BOOL, DT_UNKNOWN)
        ):
            self._report(
                "RL801",
                node,
                f"{self.function.name} returns dtype {value.dtype}, not "
                "bool; the engine's accept contract is a boolean "
                f"({self._trials_param},) vector",
            )

    def _transfer(self, stmt: Optional[ast.stmt], state: State) -> State:
        env: Env = dict(state[0])
        self._budget = state[1]
        if stmt is None:
            return env, self._budget
        self._in_loop = id(stmt) in self._loops
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            value = self._eval(stmt.value, env) if stmt.value else TOP
            self._bind(stmt.target, value, env)
        elif isinstance(stmt, ast.AugAssign):
            current = self._eval(stmt.target, env) if isinstance(
                stmt.target, ast.Name
            ) else TOP
            operand = self._eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                if ARRAY in (current.kind, operand.kind):
                    shape = self._broadcast(current, operand, stmt)
                    dtype = self._arith_dtype(
                        stmt.op, current.dtype, operand.dtype
                    )
                    env[stmt.target.id] = array_value(shape, dtype)
                elif current.kind == NUM and operand.kind == NUM:
                    env[stmt.target.id] = num_value(
                        None,
                        self._arith_dtype(stmt.op, current.dtype, operand.dtype),
                    )
                else:
                    env[stmt.target.id] = TOP
            else:
                self._bind(stmt.target, TOP, env)
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.value, env) if stmt.value else NONE_VALUE
            self._check_return(stmt, value)
            self._return_value = (
                value
                if self._return_value is None
                else join_values(self._return_value, value)
            )
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterated = self._eval(stmt.iter, env)
            target_value = TOP
            if (
                isinstance(stmt.iter, ast.Call)
                and self.ctx.resolve(dotted_name(stmt.iter.func)) == "range"
            ):
                target_value = num_value(None, DT_INT64)
            elif iterated.kind == ARRAY and iterated.shape is not None:
                if len(iterated.shape) > 1:
                    target_value = array_value(
                        iterated.shape[1:], iterated.dtype
                    )
                else:
                    target_value = num_value(None, iterated.dtype)
            self._bind(stmt.target, target_value, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, TOP, env)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        return env, self._budget

    # ------------------------------------------------------------------ #
    # the CFG worklist                                                   #
    # ------------------------------------------------------------------ #

    def run(self) -> Tuple[Tuple[RawFinding, ...], ShapeSummary]:
        cfg = build_cfg(self.function)

        def transfer(node: CFGNode, state: State) -> Tuple[State, State]:
            out = state if node.kind == WITH_CLEANUP else self._transfer(node.stmt, state)
            return out, out

        self._record = False
        entry = (self._entry_env(), ZERO_BUDGET)
        in_states, converged = solve_cfg(cfg, entry, transfer, _join_state)

        # Recording pass over converged states, in node-index order.
        self._record = True
        self._return_value = None
        self.findings = []
        self._seen = set()
        exit_budget = UNKNOWN_BUDGET
        for node in cfg.nodes:
            state = in_states.get(node.index)
            if state is None or node.kind == WITH_CLEANUP:
                continue
            self._transfer(node.stmt, state)
        exit_state = in_states.get(cfg.exit)
        if exit_state is not None:
            exit_budget = exit_state[1]

        summary = ShapeSummary(
            params=tuple(
                name for name in self._params if name != "self"
            ),
            returns=self._return_value or NONE_VALUE,
            consumption=exit_budget.poly,
        )
        if not converged:
            cap = "the CFG worklist cap"
            self.findings.append(truncation_finding(self.function, "RL8xx", cap))
        return tuple(self.findings), summary


# --------------------------------------------------------------------- #
# RL803: declared elements_per_trial vs inferred consumption            #
# --------------------------------------------------------------------- #


def _per_trial(consumption: Poly, trials: str) -> Optional[Poly]:
    """Divide a block-level budget by the trial axis, if it divides."""
    terms: Dict[Monomial, int] = {}
    for mono, coeff in consumption:
        if trials not in mono:
            # Per-block (amortised) draws don't divide by the trial
            # axis; they appear in the "uncovered" clause instead.
            continue
        counts = Counter(mono)
        counts[trials] -= 1
        reduced = tuple(sorted(counts.elements()))
        terms[reduced] = terms.get(reduced, 0) + coeff
    return _normalise(terms)


def _check_rl803(
    graph: ModuleGraph,
    summaries: Dict[str, ShapeSummary],
    per_path: Dict[str, List[RawFinding]],
) -> None:
    for info in graph.by_path.values():
        for cls in info.classes.values():
            if not is_accept_kernel_class(cls.node):
                continue
            declared_node = cls.methods.get("elements_per_trial")
            if declared_node is None:
                continue
            declared_summary = summaries.get(
                f"{cls.qualname}.elements_per_trial"
            )
            if (
                declared_summary is None
                or declared_summary.returns.kind != NUM
                or declared_summary.returns.num is None
            ):
                continue
            declared = declared_summary.returns.num
            for name, method in cls.methods.items():
                if not name.endswith("_block"):
                    continue
                block_summary = summaries.get(f"{cls.qualname}.{name}")
                if block_summary is None or block_summary.consumption is None:
                    continue
                if "trials" not in block_summary.params:
                    continue
                capacity = poly_mul(declared, poly_sym("trials"))
                assert capacity is not None
                uncovered = budget_under_declared(
                    block_summary.consumption, capacity
                )
                if uncovered is None:
                    continue
                consumed_per_trial = _per_trial(
                    block_summary.consumption, "trials"
                )
                per_path.setdefault(info.path, []).append(
                    RawFinding(
                        code="RL803",
                        line=declared_node.lineno,
                        col=declared_node.col_offset,
                        message=(
                            f"elements_per_trial declares "
                            f"{format_poly(declared)} but {name} draws "
                            f"{format_poly(consumed_per_trial)} RNG "
                            f"elements per trial "
                            f"(uncovered: {uncovered} per block); "
                            "under-declaration breaks plan_tiles memory "
                            "bounds in engine/chunking.py"
                        ),
                    )
                )


# --------------------------------------------------------------------- #
# the interprocedural driver                                            #
# --------------------------------------------------------------------- #


def analyze_shapes(
    graph: ModuleGraph, call_graph: CallGraph
) -> Tuple[Dict[str, List[RawFinding]], Dict[str, ShapeSummary]]:
    """Shape findings per path + converged summaries per qualname.

    Runs on the same :func:`~.solver.solve_program` loop as the
    determinism and resource passes, so a function's last run saw
    converged callee summaries.
    """
    summaries: Dict[str, ShapeSummary] = {}
    lookup = summary_lookup(graph, summaries)

    def analyze(qualname: str) -> Tuple[Tuple[RawFinding, ...], ShapeSummary]:
        info, node = call_graph.functions[qualname]
        cls = graph.class_for_method(info, node)
        return _ShapeInterp(info, node, qualname, cls, lookup).run()

    per_path, truncated = solve_program(
        call_graph, analyze, merge_shape_summaries, summaries
    )
    report_truncated(per_path, call_graph, truncated, "RL8xx")
    _check_rl803(graph, summaries, per_path)
    return per_path, summaries
