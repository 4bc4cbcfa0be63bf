"""Outside-in span tracing of ``repro``'s layers, from the benchmark's files.

Every layer is named after its module and owns a list of public entry
points ("targets").  :meth:`Tracer.install` replaces each target with a
timing wrapper *everywhere it is looked up*: the defining module, every
loaded ``repro`` module that imported the name, and — for methods — the
class, plus any loaded subclass that overrides it.  Nothing under
``src/`` changes.

A span's self time is its duration minus the time its child spans
cover; a layer's ``busy_s`` sums only its outermost spans, so recursion
inside one layer is not double counted.  The measured call itself is the
root, and its self time is ``trace.unattributed_s``: by construction the
layer self times plus that value add up to the traced wall time.

A target that no longer exists (renamed or deleted by a later change) is
reported as missing.  The span self-test fails on it, and a layer whose
targets are all missing reports ``null``, never 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# ---------------------------------------------------------------------- #
# counter hooks: (fn, args, kwargs, result, layer totals) -> None         #
# ---------------------------------------------------------------------- #


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_elements(fn, args, kwargs, result, totals) -> None:
    totals["elements"] += int(_arg(args, kwargs, 1, "size"))


def _count_edges(fn, args, kwargs, result, totals) -> None:
    totals["edges"] += int(args[0].edge_u.size)


def _count_rows(fn, args, kwargs, result, totals) -> None:
    samples = _arg(args, kwargs, 1, "samples")
    totals["rows"] += int(samples.shape[0]) if getattr(samples, "ndim", 1) == 2 else 1


def _count_points(fn, args, kwargs, result, totals) -> None:
    totals["points"] += len(_arg(args, kwargs, 1, "points"))


def _count_levels(fn, args, kwargs, result, totals) -> None:
    totals["levels"] += len(result.curve)


def _state_bytes(fn, args, kwargs, result, totals) -> None:
    from repro.core.streaming import measured_state_bytes

    state = _arg(args, kwargs, 1, "state")
    totals["state_bytes"] = max(totals["state_bytes"], int(measured_state_bytes(state)))


def _count_diagnostics(fn, args, kwargs, result, totals) -> None:
    totals["diagnostics"] += len(result)


def _rng_key(rng: Any) -> Any:
    """A hashable stand-in for an ``RngLike`` that fixes its draws.

    Hooks run after the call, so a generator's state has advanced.  The
    state after is a function of the state before and the other
    arguments, so two calls on one problem still share a key.
    """
    state = getattr(getattr(rng, "bit_generator", None), "state", None)
    if state is not None:
        return json.dumps(state, sort_keys=True, default=str)
    return repr(rng)


def _calibration_key(fn, args, kwargs, result, totals) -> None:
    """Record which distinct calibration problem the call solved."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    key: List[Any] = [fn.__name__]
    for name, value in bound.arguments.items():
        if name == "graph":
            key.append((value.family, value.num_vertices, value.num_edges))
        elif name == "rng":
            key.append(_rng_key(value))
        else:
            key.append(repr(value))
    totals["keys"].add(tuple(key))


# ---------------------------------------------------------------------- #
# the layer table                                                         #
# ---------------------------------------------------------------------- #

#: layer -> [(module, qualname, counter hook or None)].  A qualname ending
#: in ``+`` also wraps every loaded subclass that overrides the method.
_G = "repro.core.graphs"
LAYERS: Dict[str, List[Tuple[str, str, Optional[Callable]]]] = {
    "distributions.sample": [
        ("repro.distributions.discrete", "DiscreteDistribution.sample", _count_elements),
    ],
    "core.graphs.build": [(_G, "ComparisonGraph.__init__", _count_edges)],
    "core.graphs.calibrate": [
        (_G, name, _calibration_key)
        for name in (
            "statistic_alarm_probabilities",
            "calibrate_statistic_threshold",
            "calibrate_dithered_statistic",
            "calibrate_distinct_threshold",
        )
    ],
    "core.graphs.statistic": [(_G, "graph_statistic_block", _count_rows)],
    "core.testers.build": [
        ("repro.core.testers", f"{cls}.__init__", None)
        for cls in (
            "AmplifiedTester", "CentralizedCollisionTester", "ThresholdRuleTester",
            "AndRuleTester", "PairwiseHashTester", "SimulationTester",
        )
    ]
    + [
        (_G, "ComparisonGraphTester.__init__", None),
        ("repro.core.baselines", "UniqueElementsTester.__init__", None),
        ("repro.core.baselines", "EmpiricalDistanceTester.__init__", None),
    ],
    "reductions.identity": [
        ("repro.reductions.identity", name, None)
        for name in (
            "IdentityTestingReduction.__init__",
            "IdentityTestingReduction.output_pmf",
            "IdentityTestingReduction.transform_samples",
            "IdentityTester.__init__",
            "IdentityTester.acceptance_probability",
            "IdentityTester.accept_batch",
            "IdentityTester.test",
        )
    ],
    "core.streaming.update": [("repro.core.streaming", "StreamingTester.update+", None)],
    "core.streaming.finalize": [
        ("repro.core.streaming", "StreamingTester.finalize+", _state_bytes),
    ],
    "core.battery": [("repro.core.battery", "run_battery", None)],
    "engine.estimate": [("repro.engine.estimate", "estimate_acceptance", None)],
    "engine.sweep": [("repro.engine.sweep", "map_sweep_points", _count_points)],
    "stats.search": [
        ("repro.stats.complexity", "empirical_sample_complexity", _count_levels),
    ],
    "experiments.harness": [("repro.experiments.harness", "run_spec", None)],
    "lint.runner": [("repro.lint.runner", "lint_paths", None)],
    "lint.program": [("repro.lint.dataflow.program", "analyze_program", None)],
    "lint.rl6": [("repro.lint.dataflow.intra", "analyze_function", None)],
    "lint.rl7": [("repro.lint.dataflow.resources", "analyze_resources", None)],
    "lint.rl8": [("repro.lint.dataflow.shapes", "analyze_shapes", None)],
    "lint.cfg": [("repro.lint.dataflow.cfg", "build_cfg", None)],
    "lint.rules": [("repro.lint.runner", "lint_source", _count_diagnostics)],
}

#: Modules imported before wrapping so every lookup site is loaded.
_PRELOAD = ("repro", "repro.experiments.registry", "repro.core.plugins", "repro.lint.cli")


class _Layer:
    __slots__ = ("self_s", "busy_s", "calls", "outer_calls", "depth", "totals")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.busy_s = 0.0
        self.calls = 0
        self.outer_calls = 0
        self.depth = 0
        self.totals: Dict[str, Any] = {
            "elements": 0, "edges": 0, "rows": 0, "points": 0, "levels": 0,
            "diagnostics": 0, "state_bytes": 0, "keys": set(),
        }


class Tracer:
    """Span recorder over the :data:`LAYERS` table.

    Spans are kept in memory as ``(layer, start, end, parent)`` tuples
    (``parent`` is an index into :attr:`spans`, ``-1`` for the root) and
    aggregated only when :meth:`metrics` is asked for.
    """

    def __init__(self) -> None:
        self.layers = {name: _Layer() for name in LAYERS}
        self.spans: List[Tuple[str, float, float, int]] = []
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        # Stack of [child time, span index] frames; the bottom is the root.
        self._stack: List[List[Any]] = []
        self.wall_s = 0.0
        self._root_children_s = 0.0

    # -- installation --------------------------------------------------- #

    def install(self) -> None:
        for module_name in _PRELOAD:
            importlib.import_module(module_name)
        for layer, targets in LAYERS.items():
            for module_name, qualname, hook in targets:
                self._install_target(layer, module_name, qualname, hook)

    def _install_target(self, layer, module_name, qualname, hook) -> None:
        label = f"{module_name}:{qualname}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(label)
            return
        with_subclasses = qualname.endswith("+")
        *owner_path, attr = qualname.rstrip("+").split(".")
        owner: Any = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.missing.append(label)
            return
        if not owner_path:
            wrapper = self._wrap(layer, original, hook)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name == "repro" or loaded_name.startswith("repro."):
                    for name, value in list(vars(loaded).items()):
                        if value is original:
                            self._replace(loaded, name, wrapper)
        else:
            classes = [owner]
            if with_subclasses:
                pending = list(owner.__subclasses__())
                while pending:
                    cls = pending.pop()
                    pending.extend(cls.__subclasses__())
                    if attr in vars(cls):
                        classes.append(cls)
            for cls in classes:
                method = vars(cls).get(attr)
                if callable(method):
                    self._replace(cls, attr, self._wrap(layer, method, hook))

    def _replace(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every wrapped name (last wrapped, first restored)."""
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _wrap(self, layer_name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        layer = self.layers[layer_name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside the measured call (set-up, teardown)
                return fn(*args, **kwargs)
            frame = [0.0, len(spans)]
            spans.append((layer_name, 0.0, 0.0, stack[-1][1]))
            stack.append(frame)
            layer.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layer.depth -= 1
                duration = end - start
                stack[-1][0] += duration
                spans[frame[1]] = (layer_name, start, end, spans[frame[1]][3])
                layer.self_s += duration - frame[0]
                layer.calls += 1
                if layer.depth == 0:
                    layer.busy_s += duration
                    layer.outer_calls += 1
            if hook is not None:
                hook(fn, args, kwargs, result, layer.totals)
            return result

        return traced

    # -- the measured call ---------------------------------------------- #

    def run(self, call: Callable[[], Any]) -> Any:
        """Time ``call`` as the root span; returns its result."""
        self._stack.append([0.0, -1])
        start = time.perf_counter()
        try:
            return call()
        finally:
            self.wall_s = time.perf_counter() - start
            self._root_children_s = self._stack.pop()[0]

    # -- results -------------------------------------------------------- #

    def metrics(self, engine: Dict[str, float], extra: Dict[str, float]) -> Dict[str, Any]:
        """Per-layer metric values, keyed by the names in ``BENCHMARK.json``.

        ``engine`` is the ``EngineMetrics`` snapshot of the call, stored
        under names that say what each counter is; ``extra`` carries the
        set-up measurements (warm-up, dispatch overhead, worker width) and
        the pool workers' CPU time over the call.
        """
        missing_layers = {
            layer for layer, targets in LAYERS.items()
            if all(f"{m}:{q}" in self.missing for m, q, _ in targets)
        }
        layer = self.layers
        out: Dict[str, Any] = {}

        def put(name: str, value: Any, source: str) -> None:
            out[name] = None if source in missing_layers else value

        for name in LAYERS:
            put(f"{name}.self_s", layer[name].self_s, name)
        sample = layer["distributions.sample"]
        elements = sample.totals["elements"]
        put("distributions.sample.elements", elements, "distributions.sample")
        put("distributions.sample.calls", sample.calls, "distributions.sample")
        put(
            "distributions.sample.ns_per_elem",
            1e9 * sample.self_s / elements if elements else 0.0,
            "distributions.sample",
        )
        edges = layer["core.graphs.build"].totals["edges"]
        put("core.graphs.build.edges", edges, "core.graphs.build")
        put("core.graphs.build.bytes_computed", 16 * edges, "core.graphs.build")
        calibrate = layer["core.graphs.calibrate"]
        put("core.graphs.calibrate.busy_s", calibrate.busy_s, "core.graphs.calibrate")
        put("core.graphs.calibrate.calls", calibrate.calls, "core.graphs.calibrate")
        put("core.graphs.calibrate.distinct", len(calibrate.totals["keys"]), "core.graphs.calibrate")
        put("core.graphs.statistic.rows", layer["core.graphs.statistic"].totals["rows"], "core.graphs.statistic")
        put("core.testers.build.count", layer["core.testers.build"].outer_calls, "core.testers.build")
        put("core.streaming.update.calls", layer["core.streaming.update"].calls, "core.streaming.update")
        put(
            "core.streaming.state_bytes_peak",
            layer["core.streaming.finalize"].totals["state_bytes"],
            "core.streaming.finalize",
        )
        put("engine.estimate.calls", layer["engine.estimate"].calls, "engine.estimate")
        sweep = layer["engine.sweep"]
        put("engine.sweep.busy_s", sweep.busy_s, "engine.sweep")
        put("engine.sweep.points", sweep.totals["points"], "engine.sweep")
        put("stats.search.levels", layer["stats.search"].totals["levels"], "stats.search")
        for name in ("lint.rl6", "lint.rl7", "lint.rl8", "lint.cfg", "lint.rules"):
            put(f"{name}.busy_s", layer[name].busy_s, name)
        put("lint.program.busy_s", layer["lint.program"].busy_s, "lint.program")
        put("lint.cfg.count", layer["lint.cfg"].calls, "lint.cfg")
        put("lint.files", layer["lint.rules"].calls, "lint.rules")
        put("lint.diagnostics", layer["lint.rules"].totals["diagnostics"], "lint.rules")

        worker_s = float(engine.get("wall_time_s", 0.0))
        width = extra["workers"]
        out.update({
            "engine.trials": engine.get("protocol_trials", 0),
            "engine.rng_blocks": engine.get("rng_blocks", 0),
            "engine.tiles": engine.get("tiles_executed", 0),
            "engine.cache.hits": engine.get("cache_hits", 0),
            "engine.cache.misses": engine.get("cache_misses", 0),
            "engine.samples_declared": engine.get("samples_drawn", 0),
            "engine.worker_s": worker_s,
            "engine.pool.cpu_s": extra["pool_cpu_s"],
            "engine.sweep.idle_frac": (
                1.0 - worker_s / (width * sweep.busy_s) if sweep.busy_s else 0.0
            ),
            "engine.backend.warmup_s": extra["warmup_s"],
            "engine.backend.dispatch_overhead_s": extra["dispatch_overhead_s"],
            "trace.wall_s": self.wall_s,
            "trace.unattributed_s": self.wall_s - self._root_children_s,
            "trace.spans": len(self.spans),
            "trace.missing_targets": len(self.missing),
        })
        return out

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = min((start for _, start, _, _ in self.spans), default=0.0)
        return {
            "traceEvents": [
                {
                    "name": name, "ph": "X", "pid": 0, "tid": 0,
                    "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                    "args": {"id": index, "parent": parent},
                }
                for index, (name, start, end, parent) in enumerate(self.spans)
            ]
        }
