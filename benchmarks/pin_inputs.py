"""Regenerate benchmarks/pins.json, the digests the benchmark's set-up checks.

    python3 benchmarks/pin_inputs.py

For every workload it records the SHA-256 of each config file the benchmark
writes, and, for each seed in ``SEEDS``, one digest over the raw files that
``survfuse simulate`` writes (per-file digests too for the default seed).
A change to these digests changes the benchmark's inputs, so it belongs in a
change to the benchmark, not in one that claims a speed-up.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run

SEEDS = range(64)


def main() -> int:
    work = run.WORK / "pins"
    shutil.rmtree(work, ignore_errors=True)
    runner = run.Runner(work / "commands.log", time.monotonic() + 1e9)
    pins: dict = {"default_seed": run.DEFAULT_SEED, "configs": {}, "raw_files": {},
                  "raw": {}}
    for name, workload in run.WORKLOADS.items():
        base = work / name
        pins["configs"][name] = run.write_inputs(workload, run.DEFAULT_SEED, base)
        pins["raw"][name] = {}
        for seed in SEEDS:
            run.write_inputs(workload, seed, base)
            proc = runner.cli(["simulate", "--spec", str(base / "gen.cfg"),
                               "--out", str(base / "raw")])
            if proc.code != 0:
                print(f"{name} seed {seed}: simulate exited {proc.code}", file=sys.stderr)
                return 1
            digests = run.raw_digests(base)
            pins["raw"][name][str(seed)] = run.combined_digest(digests)
            if seed == run.DEFAULT_SEED:
                pins["raw_files"][name] = digests
            shutil.rmtree(base / "raw")
        print(f"{name}: pinned {len(SEEDS)} seeds", flush=True)
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
