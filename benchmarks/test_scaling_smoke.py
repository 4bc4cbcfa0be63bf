"""Scaling smoke check — fast enough for every CI run.

Runs the E1 grid at the smoke scale on 1 and 2 workers and enforces the
two properties that must hold on *any* hardware, including single-core
CI runners:

* **determinism** — the measured ``q_star`` rows are bit-identical
  across worker counts (the RNG-block invariant);
* **bounded dispatch overhead** — the parallel backend's measured
  per-task dispatch cost stays under a generous ceiling, so a pool
  regression (pickling the kernel per tile, cold workers per call)
  fails fast instead of silently eating the speedup.

Wall-clock speedup is deliberately NOT asserted here — that is
``test_bench_engine.py``'s job, and it gates on core count.
"""

from __future__ import annotations

import json
import os

from conftest import engine_provenance

from repro.engine import SerialBackend, engine_context, make_backend
from repro.experiments import run_experiment

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_scaling_smoke.json")

#: Per-task dispatch ceiling.  Measured fork-pool dispatch is a few
#: hundred microseconds; 50 ms catches order-of-magnitude regressions
#: (cold pool per call, kernel re-pickled per tile) without flaking on
#: slow shared runners.
DISPATCH_BUDGET_S = 0.05


def _rows(backend):
    with engine_context(backend=backend):
        result = run_experiment("e01", scale="smoke", seed=0)
    return [row["q_star"] for row in result.rows]


def test_scaling_smoke_two_workers_identical_and_cheap():
    serial_rows = _rows(SerialBackend())

    pool = make_backend(2, kind="process", fresh=True)
    try:
        pool.warmup()
        provenance = engine_provenance(pool)
        parallel_rows = _rows(pool)
    finally:
        pool.close()

    rows_identical = serial_rows == parallel_rows
    payload = {
        "benchmark": "e01-smoke-scaling",
        "workers": [1, 2],
        "provenance": provenance,
        "rows_identical": rows_identical,
        "q_star_rows": serial_rows,
        "dispatch_budget_s": DISPATCH_BUDGET_S,
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert rows_identical, payload
    assert provenance["dispatch_overhead_s"] <= DISPATCH_BUDGET_S, payload
