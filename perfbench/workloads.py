"""The benchmark's five workloads: set-up, the measured call, and its operations.

Each workload is one call into the public ``repro`` API.  ``setup`` does
everything before that call (imports, inputs, ``configure_engine``, pool
warm-up) and ``call`` is the only code the end-to-end timers see.
``operations`` splits the call's output into the units ``fail_ratio``
counts (one sweep point, one plugin row, one linted file), each rendered
as canonical text so it can be compared byte for byte with the reference
recorded when the benchmark was added.

Nothing here imports ``repro`` at module level: the child process imports
it inside ``setup`` so that the import is part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import tarfile
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")
LINT_CORPUS = os.path.join(HERE, "lint-corpus.tar.gz")

#: Workload seeds of the seed-driven workloads; ``run.py --seed s`` runs
#: ``seeds[s % len(seeds)]``, and a reference is recorded for each.
DEFAULT_SEEDS = list(range(16))

#: The e01 sweep's cost depends on its seed through the q* search: where
#: the k=4 point fails at q=256 the exponential bracket climbs to 512,
#: which costs ~20% more time and ~40% more peak memory.  Mixing both
#: kinds of seed would make a run's figures measure the seed rather than
#: the program, so e01 runs only the seeds in 0..39 whose six points
#: bracket at (512, 128, 64, 64, 128, 128), the most common case
#: (``test_e01_seeds_share_one_bracket`` checks the references).
E01_BRACKETS = (512, 128, 64, 64, 128, 128)
E01_SEEDS = [
    1, 3, 5, 6, 8, 9, 11, 14, 16, 17, 19, 21, 23, 25, 26, 27, 28, 31, 32, 34, 36, 37, 38, 39,
]

#: Paths linted inside the extracted corpus (a snapshot of ``src/`` as of
#: the commit that added the benchmark, plus the lint golden fixtures).
LINT_PATHS = ["src", "tests/lint/golden"]


def _canonical(row: Dict[str, Any]) -> str:
    return json.dumps(row, sort_keys=True)


@dataclasses.dataclass
class Workload:
    name: str
    why: str
    #: ``setup(seed, tmp_dir, smoke) -> state``; runs before the timer.
    setup: Callable[[int, str, bool], Dict[str, Any]]
    #: ``call(state) -> output``; the measured call.
    call: Callable[[Dict[str, Any]], Any]
    #: ``operations(output) -> {operation id: canonical text}``.
    operations: Callable[[Any], Dict[str, str]]
    #: Reference file under ``references/``: seed-keyed operations, or for
    #: lint the linted file list plus the whole text output.
    reference: str
    #: Layers whose spans must fire on this workload (span self-test).
    expected_layers: List[str]
    #: Workload seeds with a recorded reference (see :func:`workload_seed`).
    seeds: List[int] = dataclasses.field(default_factory=lambda: list(DEFAULT_SEEDS))
    #: ``record(state, output) -> reference entry``; seed-keyed by default.
    record: Optional[Callable[[Dict[str, Any], Any], Any]] = None

    def reference_entry(self, state: Dict[str, Any], output: Any) -> Any:
        if self.record is not None:
            return self.record(state, output)
        return self.operations(output)


def _engine_setup(workers: Optional[int], backend: Optional[str]) -> Dict[str, Any]:
    """Install a cache-less engine, warm its pool (timed) and probe its dispatch cost."""
    from repro import configure_engine

    config = configure_engine(workers=workers, backend=backend, cache_dir=None)
    started = time.perf_counter()
    config.backend.warmup()
    warmup_s = time.perf_counter() - started
    return {
        "backend": config.backend.name,
        "workers": int(getattr(config.backend, "max_workers", 1)),
        "warmup_s": warmup_s,
        "dispatch_overhead_s": config.backend.dispatch_overhead_s(),
    }


# Each call looks its entry point up when it runs, so a traced run goes
# through the wrapper the tracer installed after set-up.


def _experiment_setup(experiment: str, scale: str, workers, backend):
    def setup(seed: int, tmp_dir: str, smoke: bool) -> Dict[str, Any]:
        import repro.experiments  # noqa: F401  (loads every experiment module)

        state = _engine_setup(workers, backend)
        state.update(experiment=experiment, scale="smoke" if smoke else scale, seed=seed)
        return state

    return setup


def _experiment_call(state: Dict[str, Any]) -> Any:
    from repro.experiments import run_experiment

    return run_experiment(state["experiment"], scale=state["scale"], seed=state["seed"])


def _experiment_operations(result: Any) -> Dict[str, str]:
    return {f"point-{index}": _canonical(row) for index, row in enumerate(result.rows)}


def _battery_setup(seed: int, tmp_dir: str, smoke: bool) -> Dict[str, Any]:
    from repro.cli import BATTERY_SCALES
    import repro.core.battery  # noqa: F401

    state = _engine_setup(None, None)
    preset = BATTERY_SCALES["smoke" if smoke else "small"]
    state["kwargs"] = {"n": preset["n"], "epsilon": 0.5, "trials": preset["trials"], "rng": seed}
    return state


def _battery_call(state: Dict[str, Any]) -> Any:
    from repro.core.battery import run_battery

    return run_battery(**state["kwargs"])


def _battery_operations(rows: Any) -> Dict[str, str]:
    return {row.name: _canonical(dataclasses.asdict(row)) for row in rows}


def _lint_setup(seed: int, tmp_dir: str, smoke: bool) -> Dict[str, Any]:
    import repro.lint.cli  # noqa: F401

    state = _engine_setup(None, None)
    corpus = os.path.join(tmp_dir, "lint-corpus")
    with tarfile.open(LINT_CORPUS, "r:gz") as archive:
        archive.extractall(corpus, filter="data")
    # The smallest input for the span self-test: the golden fixtures plus
    # one whole-program-analysed package.
    paths = ["src/repro/engine", "tests/lint/golden"] if smoke else LINT_PATHS
    state.update(corpus=corpus, argv=paths + ["--no-cache"])
    return state


def _lint_call(state: Dict[str, Any]) -> str:
    from repro.lint.cli import main

    # Relative paths inside the corpus keep the text output independent
    # of where the corpus was extracted.
    previous = os.getcwd()
    out = io.StringIO()
    os.chdir(state["corpus"])
    try:
        with contextlib.redirect_stdout(out):
            main(state["argv"])
    finally:
        os.chdir(previous)
    return out.getvalue()


def _lint_operations(text: str) -> Dict[str, str]:
    """The diagnostics of each diagnosed file (clean files produce none)."""
    operations: Dict[str, List[str]] = {}
    for line in text.splitlines():
        if not line.startswith("repro.lint:"):
            operations.setdefault(line.split(":", 1)[0], []).append(line)
    return {name: "\n".join(lines) for name, lines in operations.items()}


def _lint_record(state: Dict[str, Any], text: str) -> Dict[str, Any]:
    from repro.lint import iter_python_files

    previous = os.getcwd()
    os.chdir(state["corpus"])
    try:
        files = iter_python_files([arg for arg in state["argv"] if not arg.startswith("--")])
    finally:
        os.chdir(previous)
    return {"files": files, "text": text}


_E01_LAYERS = [
    "experiments.harness", "engine.sweep", "stats.search", "core.testers.build",
    "core.graphs.build", "core.graphs.calibrate", "core.graphs.statistic",
    "engine.estimate", "distributions.sample",
]

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in [
        Workload(
            name="e01-serial",
            why="the paper's headline q* sweep (Theorem 1.1) on one core; sampling and tester calibration dominate",
            setup=_experiment_setup("e01", "small", None, None),
            call=_experiment_call,
            operations=_experiment_operations,
            reference="e01-small.json",
            expected_layers=_E01_LAYERS,
            seeds=E01_SEEDS,
        ),
        Workload(
            name="e01-shm2",
            why="the same sweep dispatched point-per-task over a warm 2-worker shm pool; the only parallel workload",
            setup=_experiment_setup("e01", "small", 2, "shm"),
            call=_experiment_call,
            operations=_experiment_operations,
            reference="e01-small.json",
            expected_layers=["experiments.harness", "engine.sweep"],
            seeds=E01_SEEDS,
        ),
        Workload(
            name="e13-identity",
            why="identity testing through the reduction; K_q edge-list construction dominates time and peak memory",
            setup=_experiment_setup("e13", "smoke", None, None),
            call=_experiment_call,
            operations=_experiment_operations,
            reference="e13-smoke.json",
            expected_layers=[
                "experiments.harness", "engine.sweep", "reductions.identity",
                "core.testers.build", "core.graphs.build", "core.graphs.calibrate",
                "engine.estimate", "distributions.sample",
            ],
        ),
        Workload(
            name="battery-small",
            why="every streaming plugin on one stream; explicit-edge graph statistics and the update/finalize path",
            setup=_battery_setup,
            call=_battery_call,
            operations=_battery_operations,
            reference="battery-small.json",
            expected_layers=[
                "core.battery", "core.streaming.update", "core.streaming.finalize",
                "core.graphs.build", "core.graphs.calibrate", "core.graphs.statistic",
                "distributions.sample",
            ],
        ),
        Workload(
            name="lint-cold",
            why="uncached whole-program lint of a frozen source snapshot; no Monte Carlo work at all",
            setup=_lint_setup,
            call=_lint_call,
            operations=_lint_operations,
            reference="lint-cold.json",
            seeds=[0],  # the corpus is frozen; the seed has nothing to vary
            record=_lint_record,
            expected_layers=[
                "lint.runner", "lint.program", "lint.rl6", "lint.rl7", "lint.rl8",
                "lint.cfg", "lint.rules",
            ],
        ),
    ]
}


def workload_seed(workload: Workload, seed: int) -> int:
    """The workload seed (one with a recorded reference) that ``--seed`` selects."""
    return workload.seeds[seed % len(workload.seeds)]


def load_reference(workload: Workload, seed: int) -> Dict[str, str]:
    """``{operation id: canonical text}`` recorded in ``references/``.

    For lint every linted file is an operation (a clean file's text is
    empty) and the key ``None`` holds the whole text output.
    """
    with open(os.path.join(REFERENCE_DIR, workload.reference), encoding="utf-8") as handle:
        recorded = json.load(handle)
    if "text" not in recorded:
        return recorded[str(seed)]
    reference: Dict[Any, str] = dict.fromkeys(recorded["files"], "")
    reference.update(workload.operations(recorded["text"]))
    return {**reference, None: recorded["text"]}


def check(workload: Workload, output: Any, reference: Dict[Any, str]) -> List[str]:
    """Ids of the reference operations the output failed to reproduce.

    An operation missing from the output reads as empty text.  When every
    file matches but the whole text output still differs (the summary
    line), the text itself counts as one failed operation.
    """
    produced = workload.operations(output) if output is not None else {}
    failed = sorted(
        str(op) for op, text in reference.items()
        if op is not None and produced.get(op, "") != text
    )
    if not failed and None in reference and output != reference[None]:
        failed = ["<text output>"]
    return failed


def attempted(reference: Dict[Any, str]) -> int:
    """Operations per call: every reference key but the whole-text entry."""
    return sum(1 for op in reference if op is not None)
