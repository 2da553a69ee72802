#!/usr/bin/env python3
"""Benchmark engine thread scaling on the 64x64 workloads.

Runs each workload at every --engine-threads value (default 1,2,4),
asserts the reports are byte-identical across thread counts modulo
the execution facets (the determinism contract, re-checked here at
bench scale), and writes BENCH_pr9.json with per-workload engine
wall times and N-vs-1 speedup ratios plus their geomean.

On a single-core host the ratios hover around 1.0x or below (the
workers time-slice one core); the CI runner has 4 vCPUs and passes
--require so a scaling regression fails the job:

    bench_pr9.py ... --require pagerank:4          # 4v1 must be >1.0
    bench_pr9.py ... --require pagerank:4:1.5      # custom floor
"""

import argparse
import sys

from bench_lib import geomean, normalized, run_point, write_artifact

# 64x64 thread-scaling workloads: enough parallel work per cycle for
# the shards to matter. pagerank is the CI gate (dense, epoch-
# synchronized, the steadiest load); bfs/sssp add frontier-driven
# imbalance.
WORKLOADS = [
    ("pagerank", ["--scale", "13", "--param", "iterations=5"]),
    ("bfs", ["--scale", "14"]),
    ("sssp", ["--scale", "13"]),
]


def parse_require(spec):
    """Parse WORKLOAD:THREADS[:RATIO] into its three parts."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        sys.exit(f"bench_pr9: bad --require (want "
                 f"WORKLOAD:THREADS[:RATIO]): {spec}")
    try:
        threads = int(parts[1])
        floor = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        sys.exit(f"bench_pr9: bad --require numbers: {spec}")
    return parts[0], threads, floor


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dalorex", required=True,
                        help="path to the dalorex binary")
    parser.add_argument("--out", required=True,
                        help="output JSON path (BENCH_pr9.json)")
    parser.add_argument("--engine-threads", default="1,2,4",
                        help="comma-separated thread counts "
                             "(first is the baseline)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="WORKLOAD:THREADS[:RATIO]",
                        help="fail unless this workload's THREADS-vs-"
                             "baseline speedup exceeds RATIO "
                             "(default 1.0); repeatable")
    opts = parser.parse_args()

    counts = [int(n) for n in opts.engine_threads.split(",")]
    if len(counts) < 2:
        sys.exit("bench_pr9: need at least two --engine-threads "
                 "values to form a ratio")
    base = counts[0]
    requires = [parse_require(spec) for spec in opts.require]

    rows = []
    for name, extra in WORKLOADS:
        point = {"workload": name, "grid": "64x64"}
        engine_walls = {}
        golden = None
        for threads in counts:
            _, engine_wall, report = run_point(
                opts.dalorex,
                ["--kernel", name, "--width", "64", "--height", "64",
                 "--engine-threads", str(threads)] + extra,
                tag="bench_pr9")
            engine_walls[threads] = engine_wall
            point[f"engine_wall_seconds_t{threads}"] = round(
                engine_wall, 3)
            if golden is None:
                golden = normalized(report)
            elif normalized(report) != golden:
                sys.exit(f"bench_pr9: {name}: stats differ between "
                         f"engine-threads {base} and {threads}")
        point["stats_identical"] = True
        for threads in counts[1:]:
            # Unrounded ratio: 3-decimal storage can zero short runs.
            point[f"speedup_t{threads}_vs_t{base}"] = round(
                engine_walls[base] /
                max(engine_walls[threads], 1e-9), 3)
        rows.append(point)
        print(f"{name}: " + ", ".join(
            f"t{n} {engine_walls[n]:.3f}s" for n in counts) +
            " -> " + ", ".join(
            f"{point[f'speedup_t{n}_vs_t{base}']}x"
            for n in counts[1:]))

    top = counts[-1]
    geo = geomean(
        [row[f"speedup_t{top}_vs_t{base}"] for row in rows])
    out = {
        "bench": "pr9_thread_scaling",
        "engine_threads": counts,
        "workloads": rows,
        f"geomean_speedup_t{top}_vs_t{base}": round(geo, 3),
    }
    print(f"geomean t{top} vs t{base} speedup {round(geo, 3)}x")
    write_artifact(opts.out, out)

    failures = []
    for workload, threads, floor in requires:
        row = next((r for r in rows if r["workload"] == workload),
                   None)
        key = f"speedup_t{threads}_vs_t{base}"
        if row is None or key not in row:
            failures.append(f"{workload}:{threads} is not on the "
                            "workload/threads grid")
        elif row[key] <= floor:
            failures.append(f"{workload} t{threads} speedup "
                            f"{row[key]}x is not above {floor}x")
    if failures:
        sys.exit("bench_pr9: scaling requirement failed: " +
                 "; ".join(failures))


if __name__ == "__main__":
    main()
