"""Span-coverage self-test of the benchmark's tracer.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each workload runs once at its smallest input with tracing on, in a
fresh interpreter, exactly as ``run.py --trace 1`` runs it.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Counts that must repeat exactly from run to run.
EXACT_COUNTS = (
    "core.graphs.calibrate.calls",
    "core.graphs.calibrate.distinct",
    "stats.search.levels",
    "distributions.sample.elements",
    "core.testers.build.count",
    "engine.trials",
)

#: Set-up figures for a tracer that never ran a workload.
EXTRA = {"workers": 1, "warmup_s": 0.0, "dispatch_overhead_s": 0.0, "pool_cpu_s": 0.0}


def traced(name: str, tmp_path) -> dict:
    result = run.run_child(name, 0, str(tmp_path), ["--smoke", "--trace"], 170)
    assert result["error"] is None, result["error"]
    return result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_expected_spans_fire_and_self_times_reconcile(name, tmp_path):
    result = traced(name, tmp_path)
    assert result["missing_targets"] == []
    with open(result["trace_file"], encoding="utf-8") as handle:
        fired = {event["name"] for event in json.load(handle)["traceEvents"]}
    assert set(workloads.WORKLOADS[name].expected_layers) <= fired

    layers = result["layers"]
    wall = layers["trace.wall_s"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total + layers["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert layers["trace.unattributed_s"] <= 0.05 * wall


def test_counts_repeat_exactly(tmp_path):
    first, second = (traced("e01-serial", tmp_path)["layers"] for _ in range(2))
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    assert first["core.graphs.calibrate.distinct"] < first["core.graphs.calibrate.calls"]


def test_parallel_rows_equal_serial_rows(tmp_path):
    serial, parallel = (
        run.run_child(name, 0, str(tmp_path), ["--smoke", "--record"], 170)["reference"]
        for name in ("e01-serial", "e01-shm2")
    )
    assert serial and serial == parallel


def test_deleted_target_reads_missing_not_zero(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    monkeypatch.setitem(
        tracer.LAYERS, "lint.cfg", [("repro.lint.dataflow.cfg", "no_such_entry_point", None)]
    )
    probe = tracer.Tracer()
    probe.install()
    try:
        probe.run(lambda: None)
    finally:
        probe.uninstall()
    assert probe.missing == ["repro.lint.dataflow.cfg:no_such_entry_point"]
    metrics = probe.metrics({}, EXTRA)
    assert metrics["lint.cfg.busy_s"] is None and metrics["lint.cfg.count"] is None
    assert metrics["lint.rl7.busy_s"] == 0.0


def test_references_cover_every_seed():
    for workload in workloads.WORKLOADS.values():
        for seed in workload.seeds:
            assert workloads.attempted(workloads.load_reference(workload, seed)) > 0


def test_e01_seeds_share_one_bracket():
    def bracket(q_star: int) -> int:
        return 1 << (q_star - 1).bit_length()

    e01 = workloads.WORKLOADS["e01-serial"]
    assert len(e01.seeds) >= 10
    for seed in e01.seeds:
        rows = workloads.load_reference(e01, seed)
        q_stars = [json.loads(rows[f"point-{i}"])["q_star"] for i in range(len(rows))]
        assert tuple(map(bracket, q_stars)) == workloads.E01_BRACKETS


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    probe = tracer.Tracer()
    probe.run(lambda: None)
    names = list(probe.metrics({}, EXTRA)) + ["trace.overhead_frac"]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, run.layer_unit(name)) for name in names
    ]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)

