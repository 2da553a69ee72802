"""Shared scaffolding for the dalorex bench runners.

bench_pr5.py (scan-mode speedups) and bench_pr9.py (thread scaling)
measure different axes of the same contract: execution knobs change
wall clock, never results. Both need the same three pieces — run one
scenario and capture its engine wall time, normalize a report down to
the byte-identity contract, and fold per-workload speedups into a
geomean — so they live here once.

Artifact schema convention (BENCH_prN.json): a top-level object with
a "bench" tag, one row per workload under "workloads", and one
"geomean_*" summary number, written by write_artifact.
"""

import json
import subprocess
import sys
import time


def run_point(dalorex, args, tag="bench"):
    """Run one scenario; return (wall_seconds, engine_wall, report).

    Appends --time-engine --json to `args` and parses the
    `engine_wall_seconds X` line the engine prints to stderr: process
    wall time includes knob-independent setup (RMAT generation, CSR
    build, rendering) that would dilute a speedup, so the engine's
    own wall time is the numerator benches compare.
    """
    argv = [dalorex] + list(args) + ["--time-engine", "--json"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{tag}: {' '.join(argv)} failed: {proc.stderr}")
    report = json.loads(proc.stdout)
    engine_wall = None
    for line in proc.stderr.splitlines():
        if line.startswith("engine_wall_seconds "):
            engine_wall = float(line.split()[1])
    if engine_wall is None:
        sys.exit(f"{tag}: {' '.join(argv)}: no engine_wall_seconds "
                 "line on stderr")
    return wall, engine_wall, report


def normalized(report):
    """A report minus the execution facets, for byte-identity diffs.

    Thread count, scan mode and the stats.engine counters describe
    how the simulator ran, not what it simulated; everything else —
    every counter the energy model and the paper figures read — must
    match exactly between runs that differ only in those knobs.
    """
    clone = json.loads(json.dumps(report))
    machine = clone["machine"]
    for knob in ("engine_threads", "engine_scan"):
        if knob in machine:
            machine[knob] = None
    clone["stats"]["engine"] = None
    return clone


def geomean(values):
    """Geometric mean of a non-empty list of positive ratios."""
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def write_artifact(path, artifact):
    """Write the bench JSON (indent 2, trailing newline) and say so."""
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print(f"-> {path}")
