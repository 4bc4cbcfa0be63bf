"""The repository benchmark: one command, five workloads, medians over fresh interpreters.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs ``child.py`` in a fresh interpreter (so ``import
repro`` is part of ``setup_s`` and ``ru_maxrss`` covers one call); new
repetitions start while another one still fits in ``--seconds``.  Every
output is checked against the reference recorded when the benchmark was
added (``references/``).

``--trace 0`` reports the end-to-end metrics (medians over repetitions):
``wall_s``, ``cpu_s``, ``peak_rss_mb`` and ``setup_s``.  ``fail_ratio``
is printed on its own line and carried by ``failed``/``attempted``.
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones plus ``trace.overhead_frac``; the
spans of the last traced repetition are written to
``.perfbench-out/<workload>.trace.json`` (Chrome trace-event format).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero, printing no result, when the checkout has no ``src/``
or a repetition crashes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".perfbench-tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

#: The whole command must end within this many seconds.
HARD_LIMIT_S = 170.0

#: ``setup_s`` is the median of at least this many set-ups; when fewer
#: repetitions fit in ``--seconds``, set-up-only repetitions make up the rest.
MIN_SETUPS = 5


class BenchmarkError(RuntimeError):
    """A repetition could not produce a measurement."""


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("ns_per_elem"):
        return "ns"
    if "bytes" in name:
        return "B"
    return "count"


@contextlib.contextmanager
def temp_dir() -> Iterator[str]:
    """A fresh directory under ``.perfbench-tmp/``, removed afterwards."""
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(TMP_PARENT):
            os.rmdir(TMP_PARENT)


def run_child(
    workload: str, seed: int, tmp: str, flags: List[str], timeout: float
) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its result object."""
    out = os.path.join(tmp, f"rep-{time.monotonic_ns()}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    command = [
        sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
        "--seed", str(seed), "--tmp", tmp, "--out", out, *flags,
    ]
    # A session of its own, so a timeout can stop the pool workers too.
    child = subprocess.Popen(command, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise BenchmarkError(f"{workload}: repetition exceeded {timeout:.0f}s")
    if code != 0 or not os.path.exists(out):
        raise BenchmarkError(f"{workload}: repetition exited with code {code}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    result["trace_file"] = out + ".trace.json"
    return result


def source_fingerprint() -> Dict[str, str]:
    """The git commit (when the checkout has one) and a hash of ``src/``."""
    digest = hashlib.sha256()
    for directory, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(directory, filename)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    sha = "none"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as handle:
            sha = handle.read().strip()
        if sha.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", sha[5:])
            if os.path.isfile(ref):
                with open(ref, encoding="utf-8") as handle:
                    sha = handle.read().strip()
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def repetitions(
    workload: str, seed: int, seconds: float, tmp: str, trace: bool
) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Repetitions until the next one would overrun ``seconds``, and set-up times.

    With ``trace`` they alternate traced and untraced, at least one each.
    """
    started = time.monotonic()
    results: List[Dict[str, Any]] = []
    longest = 0.0
    while True:
        flags = ["--trace"] if trace and len(results) % 2 == 0 else []
        begun = time.monotonic()
        remaining = HARD_LIMIT_S - (begun - started)
        results.append(run_child(workload, seed, tmp, flags, remaining))
        longest = max(longest, time.monotonic() - begun)
        elapsed = time.monotonic() - started
        enough = len(results) >= (2 if trace else 1)
        if enough and (elapsed + longest > seconds or elapsed + longest > HARD_LIMIT_S):
            break
    setups = [r["setup_s"] for r in results]
    while not trace and len(setups) < MIN_SETUPS:
        remaining = HARD_LIMIT_S - (time.monotonic() - started)
        setups.append(run_child(workload, seed, tmp, ["--setup-only"], remaining)["setup_s"])
    return results, setups


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def summarise(
    workload: str, seed: int, results: List[Dict[str, Any]], setups: List[float], trace: bool
) -> Dict[str, Any]:
    """Print the human-readable report and return the result object."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    untraced = [r for r in results if "layers" not in r]
    traced = [r for r in results if "layers" in r]
    provenance = {**results[0]["provenance"], **source_fingerprint()}
    print(
        f"workload {workload}: --seed {seed}, workload seed {results[0]['seed']}, "
        f"{len(untraced)} untraced + {len(traced)} traced repetition(s)"
    )
    print("provenance: " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    for r in results:
        for failure in r["failures"][:5]:
            print(f"FAILED operation: {failure}")
        if r["error"]:
            print(f"FAILED call:\n{r['error']}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")

    if trace:
        metrics: Dict[str, Any] = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            metrics[name] = None if None in values else median(values)
        metrics["trace.overhead_frac"] = (
            median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in untraced]) - 1.0
        )
        missing = sorted({t for r in traced for t in r["missing_targets"]})
        if missing:
            print("missing targets: " + ", ".join(missing))
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"{workload}.trace.json")
        shutil.copyfile(traced[-1]["trace_file"], trace_path)
        print(f"spans: {os.path.relpath(trace_path, ROOT)}")
        wall = metrics["trace.wall_s"]
        for name, value in sorted(metrics.items()):
            if name.endswith(".self_s") and value:
                print(f"  {name:<34} {value:10.4f} s  {100 * value / wall:5.1f}% of traced wall")
        units = {name: layer_unit(name) for name in metrics}
        shown = {name: value for name, value in metrics.items() if value != 0}
    else:
        metrics = {name: median([r[name] for r in results]) for name in END_TO_END}
        metrics["setup_s"] = median(setups)
        units = END_TO_END
        print("wall_s per repetition: " + " ".join(f"{r['wall_s']:.3f}" for r in results))
        print("setup_s per set-up: " + " ".join(f"{s:.3f}" for s in setups))
        shown = metrics
    for name, value in shown.items():
        print(f"{name} {value} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2

    try:
        with temp_dir() as tmp:
            results, setups = repetitions(
                args.workload,
                workloads.workload_seed(workloads.WORKLOADS[args.workload], args.seed),
                args.seconds,
                tmp,
                bool(args.trace),
            )
            report = summarise(args.workload, args.seed, results, setups, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
