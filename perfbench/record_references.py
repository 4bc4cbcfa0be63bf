"""Record the reference outputs the benchmark checks against.

Usage, from the root of a checkout of the commit the references belong to::

    python3 perfbench/record_references.py

Runs every workload's measured call once per workload seed (lint once:
its input does not depend on the seed) and writes ``references/``.  The
committed references were recorded at the commit that introduced the
benchmark; re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import os

import run
import workloads


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    with run.temp_dir() as tmp:
        recorded = {}
        for workload in workloads.WORKLOADS.values():
            if workload.reference in recorded:
                continue  # e01-shm2 is checked against e01-serial's rows
            entries = {}
            for seed in workload.seeds:
                result = run.run_child(workload.name, seed, tmp, ["--record"], 600)
                if result["reference"] is None:
                    raise run.BenchmarkError(f"{workload.name} seed {seed}: {result['error']}")
                entries[str(seed)] = result["reference"]
                print(f"{workload.name} seed {seed}: {result['wall_s']:.2f}s", flush=True)
            recorded[workload.reference] = entries["0"] if workload.record else entries
        for name, entry in recorded.items():
            with open(os.path.join(workloads.REFERENCE_DIR, name), "w", encoding="utf-8") as handle:
                json.dump(entry, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
