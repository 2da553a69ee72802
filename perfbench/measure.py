"""Process timing and sample statistics shared by every workload."""

import os
import statistics
import subprocess
import threading
import time


class Finished:
    """One reaped child process: exit code, wall time, peak RSS, output."""

    def __init__(self, code, wall_s, peak_rss_mb, stdout, stderr):
        self.code = code
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.stdout = stdout
        self.stderr = stderr


def spawn(argv, scratch, tag):
    """Start `argv` with stdout/stderr captured to files in `scratch`.

    Files rather than pipes let the caller reap the child with
    os.wait4, which is the only way to read its own peak RSS.
    """
    out_path = os.path.join(scratch, tag + ".out")
    err_path = os.path.join(scratch, tag + ".err")
    started = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
    proc.out_path = out_path
    proc.err_path = err_path
    proc.started = started
    return proc


def reap(proc, timeout_s=170.0):
    """Wait for a spawned child, killing it past `timeout_s`.

    The wait blocks rather than polls, so the benchmark process does
    not wake up and compete with the child's threads for cores.
    """
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - proc.started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(proc.out_path, encoding="utf-8", errors="replace") as out:
        stdout = out.read()
    with open(proc.err_path, encoding="utf-8", errors="replace") as err:
        stderr = err.read()
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    stdout, stderr)


def run(argv, scratch, tag, timeout_s=170.0):
    """Run `argv` to completion; see spawn and reap."""
    return reap(spawn(argv, scratch, tag), timeout_s)


def quartiles(values):
    """(q1, median, q3) of a non-empty sample, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, pct):
    """The pct-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Metric:
    """One reported number plus the samples it summarizes."""

    def __init__(self, value, unit, samples=None, beyond=None):
        self.value = value
        self.unit = unit
        self.samples = samples if samples is not None else [value]
        self.beyond = beyond  # samples above a percentile metric

    def spread_line(self, name):
        q1, med, q3 = quartiles(self.samples)
        line = (f"  {name:<28} {self.value:>14.6g} {self.unit:<10}"
                f" median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}"
                f" n {len(self.samples)}")
        if self.beyond is not None:
            line += f" beyond {self.beyond}"
        return line


def median_metric(samples, unit):
    return Metric(statistics.median(samples), unit, samples)


def latency_metrics(latencies_ms):
    """latency_p50_ms and latency_p90_ms of per-operation latencies."""
    p90 = percentile(latencies_ms, 90)
    return {
        "latency_p50_ms": median_metric(latencies_ms, "ms"),
        "latency_p90_ms": Metric(p90, "ms", latencies_ms,
                                 sum(1 for v in latencies_ms if v > p90)),
    }
