"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand::

    python3 perfbench/child.py --workload NAME --seed S --tmp DIR --out FILE
                               [--trace] [--smoke] [--record] [--setup-only]

Times the set-up (from before ``import repro`` to a warm engine), then
the measured call, and writes one JSON object to ``--out``: the timings,
CPU and peak-memory figures, the operations attempted and failed against
the recorded reference, provenance, and with ``--trace`` the
per-layer metrics, with the spans as a Chrome trace beside it
(``FILE.trace.json``).  ``--smoke`` runs the
workload's smallest input (no reference exists for it); ``--record``
stores the output as a reference entry instead of checking it;
``--setup-only`` stops after timing the set-up.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _provenance(state: dict) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "backend": state["backend"],
        "workers": state["workers"],
        "dispatch_overhead_s": state["dispatch_overhead_s"],
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.tmp, args.smoke)
    setup_s = time.perf_counter() - STARTED
    from repro.engine import close_warm_backends, collect_metrics

    if args.setup_only:
        close_warm_backends()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"setup_s": setup_s}, handle)
        return 0
    reference = None
    if not (args.smoke or args.record):
        reference = workloads.load_reference(workload, args.seed)

    tracer = None
    output, error = None, None
    with contextlib.ExitStack() as scope:
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            scope.callback(tracer.uninstall)
            engine_metrics = scope.enter_context(collect_metrics())
        cpu_before, children_before = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        try:
            if tracer is not None:
                output = tracer.run(lambda: workload.call(state))
            else:
                output = workload.call(state)
        except Exception:  # a failed call is a measured outcome, not a crash
            error = traceback.format_exc()
        wall_s = time.perf_counter() - started
        cpu_self = _cpu(resource.RUSAGE_SELF) - cpu_before

    # Joining the pool reaps the workers, so their CPU time and peak RSS
    # show up in RUSAGE_CHILDREN.
    close_warm_backends()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    own = resource.getrusage(resource.RUSAGE_SELF)

    pool_cpu_s = children.ru_utime + children.ru_stime - children_before
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_self + pool_cpu_s,
        "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024.0,
        "provenance": _provenance(state),
        "error": error,
    }
    if args.record:
        result["reference"] = workload.reference_entry(state, output) if error is None else None
    elif reference is not None:
        failures = workloads.check(workload, output, reference)
        result.update(
            attempted=workloads.attempted(reference), failed=len(failures), failures=failures
        )
    else:
        result.update(attempted=1, failed=int(error is not None), failures=[])
    if tracer is not None:
        result["layers"] = tracer.metrics(
            engine_metrics.snapshot(),
            {
                "workers": state["workers"],
                "warmup_s": state["warmup_s"],
                "dispatch_overhead_s": state["dispatch_overhead_s"],
                "pool_cpu_s": pool_cpu_s,
            },
        )
        result["missing_targets"] = tracer.missing
        with open(args.out + ".trace.json", "w", encoding="utf-8") as handle:
            json.dump(tracer.chrome_trace(), handle)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
