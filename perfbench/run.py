#!/usr/bin/env python3
"""The repository benchmark: builds the program, runs one workload,
checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
`dalorex` and the tracer (`perfbench_trace`) in `.bench_build/`
as a Release build; later runs rebuild incrementally. With --trace 0
the workload runs through the real front ends with tracing off and
the end-to-end metrics are printed; with --trace 1 the tracer
gives the per-layer metrics. `--workload all` runs every workload.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}; each metric named in BENCHMARK.json appears with
its value and unit. A spread report (median, quartiles and sample
count of every metric) and the build stamp go to stderr.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout clean

import measure  # noqa: E402
import serve_mix  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["spmv64-t1", "sweep-grid", "serve-mix"]


class BenchError(Exception):
    """A condition under which the benchmark refuses to report."""


class Context:
    def __init__(self, scratch):
        self.dalorex = os.path.join(BUILD, "dalorex", "dalorex")
        self.tracer = os.path.join(BUILD, "perfbench_trace")
        self.scratch = scratch


def build():
    """Configure (once) and build the two targets the benchmark runs."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no dalorex sources beside perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "ab") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "dalorex",
                      "perfbench_trace", "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError(f"build step failed: {' '.join(step)} "
                                 f"(see {os.path.join(BUILD, 'build.log')})")


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as handle:
        for line in handle:
            match = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if match:
                cache[match.group(1)] = match.group(2)
    return cache


def guard_and_stamp():
    """Refuse a build unfit for timing; describe the one being timed."""
    cache = cmake_cache()
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing to time a build of type "
                         f"{cache.get('CMAKE_BUILD_TYPE')!r}; need Release")
    if cache.get("DALOREX_SANITIZE", ""):
        raise BenchError("refusing to time a sanitizer build "
                         f"({cache['DALOREX_SANITIZE']})")
    if cache.get("DALOREX_OWNERSHIP_CHECKS", "OFF").upper() in (
            "ON", "1", "TRUE", "YES"):
        raise BenchError("refusing to time a build with "
                         "DALOREX_OWNERSHIP_CHECKS on")
    compiler = {}
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as handle:
            for key, value in re.findall(
                    r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "([^"]*)"\)',
                    handle.read()):
                compiler[key] = value
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "compiler": f"{compiler.get('ID', '?')} "
                    f"{compiler.get('VERSION', '?')}",
        "build_type": cache["CMAKE_BUILD_TYPE"],
    }


def git_sha():
    """HEAD of the checkout, or None outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the program's sources and build files."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(folder, name) for name in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def measure_workload(ctx, name, seed, seconds, trace):
    """(ledger, {metric: Metric or number}) of one workload run."""
    if trace:
        return traced.run(ctx, name, seed)
    if name in workloads.CLI_WORKLOADS:
        return workloads.run_cli(ctx, name, seed, seconds)
    if name == "sweep-grid":
        return workloads.run_sweep(ctx, seed, seconds)
    return serve_mix.run(ctx, seed, seconds)


def result(ledger, measured, trace):
    """The contract's result object."""
    metrics = {}
    for name, unit in declared_metrics(trace):
        value = measured.get(name)
        if isinstance(value, measure.Metric):
            value = value.value
        if value is None:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def spread_report(name, seed, trace, stamp, ledger, measured):
    lines = [f"perfbench: {name} seed {seed} trace {trace}",
             f"  stamp {json.dumps(stamp)}",
             f"  operations attempted {ledger.attempted} failed "
             f"{ledger.failed} error_rate "
             f"{ledger.failed / max(ledger.attempted, 1):.6g}"]
    lines += [f"  failure: {reason}" for reason in ledger.reasons]
    for metric, value in sorted(measured.items()):
        if isinstance(value, measure.Metric):
            lines.append(value.spread_line(metric))
        else:
            lines.append(f"  {metric:<28} {value:>14.6g}")
    print("\n".join(lines), file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    os.chdir(ROOT)
    try:
        build()
        stamp = guard_and_stamp()
    except (BenchError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    scratch = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    names = WORKLOADS if opts.workload == "all" else [opts.workload]
    try:
        for name in names:
            ledger, measured = measure_workload(
                Context(scratch), name, opts.seed, opts.seconds,
                bool(opts.trace))
            if measured is None:
                for reason in ledger.reasons:
                    print(f"perfbench: {reason}", file=sys.stderr)
                raise BenchError(f"{name}: no operation succeeded")
            spread_report(name, opts.seed, opts.trace, stamp, ledger,
                          measured)
            line = result(ledger, measured, bool(opts.trace))
            if opts.workload == "all":
                line = {"workload": name, **line}
            print(json.dumps(line), flush=True)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
