"""The benchmark's workloads, measured through the real front ends.

Every workload runs a fixed first round of seeded inputs, then repeats
rounds while the run's time allows. Simulated metrics come from the
first round only, so they are exact for a given seed; host timings
are taken over every operation of the run but the first, a warm-up
whose output is still checked.

Why these workloads (each stresses different layers):

- spmv64-t1: single-thread runs on a 64x64 grid (one vertex per tile),
  dominated by the NoC. Sparse matrix-vector product moves one message
  per edge, so its work is fixed by the edge count and barely moves
  with the dataset seed. Per-core NoC and tile-loop work shows here;
  serve, sweep and set-up changes should not.
- sweep-grid: every kernel on two grids through `dalorex sweep`: the
  worker pool, dataset sharing, the sequential-reference validators,
  aggregation and rendering. Many short single-thread rows, so per-core
  engine work shows here, and a gain that adds per-run overhead shows
  as a loss.
- serve-mix: a closed loop of 3 clients against `dalorex serve
  --workers 2`, requests drawn from small scenarios. Per-request
  overhead, queueing, the dataset cache, machine build and rendering
  carry a large share; engine-core gains show proportionally less.

No workload times the engine on several threads: its barriers wait
for the slowest thread, so on a shared host a stalled CPU slowed
whole multi-threaded runs two to five times over, far past the
benchmark's bound. The traced run still measures the t4/t1 speedup.
"""

import json
import random
import statistics
import time

import measure

# Each CLI point takes under a second, so a run times dozens of them:
# medians and the 90th percentile then rest on many samples.
CLI_WORKLOADS = {
    "spmv64-t1": {
        "args": ["--kernel", "spmv", "--scale", "12", "--width", "64",
                 "--height", "64", "--engine-threads", "1"],
        # The same point as a one-row sweep (traced run).
        "sweep_args": ["--kernel", "spmv", "--scale", "12", "--grid-size",
                       "64x64", "--engine-threads", "1", "--threads", "1"],
        "round": 8,
        "speedup_threads": 4,  # the other side of the t4/t1 ratio
    },
}

SWEEP_ARGS = ["sweep", "--kernel", "all", "--scale", "12", "--grid-size",
              "8x8,16x16", "--threads", "4", "--validate", "--json"]
SWEEP_ROUND = 8

# One trivial point: what a sweep invocation costs before real work.
SWEEP_SETUP_ARGS = ["sweep", "--kernel", "bfs", "--scale", "4",
                    "--grid-size", "1x1", "--threads", "1", "--json"]
SETUP_PROBES = 7


def derive_seeds(workload, seed, count):
    """`count` dataset seeds for a run, determined by (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


def normalized(report):
    """A report minus its execution facets (how the simulator ran).

    Thread count, scan mode, barrier flavour, the rebalance knob and
    the stats.engine counters describe the simulator, not the
    simulated machine; everything else must repeat exactly.
    """
    clone = json.loads(json.dumps(report))
    for knob in ("engine_threads", "engine_scan", "engine_barrier",
                 "engine_rebalance"):
        clone["machine"].pop(knob, None)
    clone["stats"].pop("engine", None)
    return clone


def fingerprint(report):
    """Architectural fingerprint: cycles, flit-hops, invocations and
    energy of the normalized report, plus a digest of all of it."""
    norm = normalized(report)
    stats = norm["stats"]
    return (stats["cycles"], stats["noc"]["flit_hops"],
            stats["invocations"], norm["energy"]["total_j"],
            json.dumps(norm, sort_keys=True))


class Ledger:
    """Counts operations attempted and failed, keeping a few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, count, failed, reason):
        self.attempted += count
        self.failed += failed
        if failed and len(self.reasons) < 8:
            self.reasons.append(reason)


def keep_going(started, seconds, durations):
    """Whether another operation of typical length fits in the run."""
    typical = statistics.median(durations) if durations else 0.0
    return time.perf_counter() - started + typical <= seconds


def op_metrics(op_walls, rows, requests):
    """wall_s, rows_per_s and req_per_s over a run's operations.

    Totals over the whole run, not medians: the host's speed flips
    between states within a run, and a median of a few long
    operations jumps with whichever state held the majority, while
    the mean moves smoothly with the share of time in each.
    """
    busy = sum(op_walls)
    return {
        "wall_s": measure.Metric(busy / len(op_walls), "s", op_walls),
        "rows_per_s": measure.Metric(rows / busy, "rows/s"),
        "req_per_s": measure.Metric(requests / busy, "req/s"),
    }


def sim_metrics(cycles, energy_j):
    """Mean simulated cycles and energy per scenario point."""
    return {
        "sim_cycles": measure.Metric(statistics.mean(cycles), "cycles",
                                     cycles),
        "sim_energy_uj": measure.Metric(
            statistics.mean(energy_j) * 1e6, "uJ",
            [e * 1e6 for e in energy_j]),
    }


def cli_point(ctx, args, tag):
    """One `dalorex ARGS --validate --json --time-engine` invocation.

    Returns (finished, report or None, engine seconds or None, error).
    """
    done = measure.run([ctx.dalorex] + args +
                       ["--validate", "--json", "--time-engine"],
                       ctx.scratch, tag)
    if done.code != 0:
        return done, None, None, f"exit {done.code}: {done.stderr[-200:]}"
    engine = None
    for line in done.stderr.splitlines():
        if line.startswith("engine_wall_seconds "):
            engine = float(line.split()[1])
    try:
        report = json.loads(done.stdout)
    except ValueError:
        return done, None, engine, "unparsable report"
    if engine is None:
        return done, report, None, "no engine_wall_seconds line"
    if report.get("status") != "completed" or not report.get("validated"):
        return done, report, engine, "run not completed and validated"
    return done, report, engine, None


def run_cli(ctx, name, seed, seconds):
    """A CLI workload: rounds over the run's dataset seeds."""
    spec = CLI_WORKLOADS[name]
    seeds = derive_seeds(name, seed, spec["round"])
    ledger = Ledger()
    first_print = {}
    walls, engines, setups, rss = [], [], [], []
    cycles, energy = [], []
    started = time.perf_counter()
    index = 0
    while index < len(seeds) or keep_going(started, seconds, walls):
        sub = seeds[index % len(seeds)]
        done, report, engine, error = cli_point(
            ctx, spec["args"] + ["--seed", str(sub)], f"{name}-{index}")
        index += 1
        if error is None:
            mark = fingerprint(report)
            first = first_print.setdefault(sub, mark)
            if mark != first:
                error = (f"seed {sub}: fingerprint {mark[:4]} differs "
                         f"from the first run's {first[:4]}")
        ledger.add(1, 0 if error is None else 1, error)
        if error is not None:
            continue
        if index <= len(seeds):
            cycles.append(report["stats"]["cycles"])
            energy.append(report["energy"]["total_j"])
        if index == 1:
            continue  # warm-up: checked, not timed
        walls.append(done.wall_s)
        engines.append(engine)
        setups.append(done.wall_s - engine)
        rss.append(done.peak_rss_mb)
    if not walls or not cycles:
        return ledger, None
    metrics = {
        "engine_s": measure.Metric(statistics.mean(engines), "s", engines),
        "setup_s": measure.median_metric(setups, "s"),
        "peak_rss_mb": measure.median_metric(rss, "MiB"),
    }
    metrics.update(op_metrics(walls, len(walls), len(walls)))
    metrics.update(measure.latency_metrics([w * 1e3 for w in walls]))
    metrics.update(sim_metrics(cycles, energy))
    return ledger, metrics


def sweep_rows(stdout):
    """(row lines, summary dict) of a `dalorex sweep --json` output."""
    lines = stdout.splitlines()
    if not lines:
        return [], {}
    try:
        summary = json.loads(lines[-1])
    except ValueError:
        return lines, {}
    if summary.get("type") != "summary":
        return lines, {}
    return lines[:-1], summary


def run_sweep(ctx, seed, seconds):
    """sweep-grid: rounds of whole sweeps over the run's dataset seeds."""
    seeds = derive_seeds("sweep-grid", seed, SWEEP_ROUND)
    ledger = Ledger()
    setups = [measure.run([ctx.dalorex] + SWEEP_SETUP_ARGS, ctx.scratch,
                          f"sweep-setup-{i}").wall_s
              for i in range(SETUP_PROBES)]
    first_rows = {}
    walls, rss, rows_done = [], [], 0
    cycles, energy = [], []
    started = time.perf_counter()
    index = 0
    while index < len(seeds) or keep_going(started, seconds, walls):
        sub = seeds[index % len(seeds)]
        done = measure.run([ctx.dalorex] + SWEEP_ARGS + ["--seed", str(sub)],
                           ctx.scratch, f"sweep-{index}")
        index += 1
        rows, summary = sweep_rows(done.stdout)
        good = []
        for line in rows:
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if row.get("validated") is True:
                good.append(row)
        expected = summary.get("points") or len(rows) or 1
        failed = expected - len(good)
        problems = []
        if done.code != 0:
            problems.append(f"exit {done.code}: {done.stderr[-200:]}")
        if summary.get("rows_failed") != 0:
            problems.append(f"summary {summary}")
        if first_rows.setdefault(sub, rows) != rows:
            problems.append(f"seed {sub}: rows differ between rounds")
        if problems and failed == 0:
            failed = expected
        ledger.add(expected, failed, "; ".join(problems) or
                   f"{failed} rows not validated")
        if failed:
            continue
        if index <= len(seeds):
            cycles += [r["cycles"] for r in good]
            energy += [r["energy_j"] for r in good]
        if index == 1:
            continue  # warm-up: checked, not timed
        walls.append(done.wall_s)
        rss.append(done.peak_rss_mb)
        rows_done += len(rows)
    if not walls or not cycles:
        return ledger, None
    metrics = {
        "setup_s": measure.median_metric(setups, "s"),
        "peak_rss_mb": measure.median_metric(rss, "MiB"),
    }
    metrics.update(op_metrics(walls, rows_done, len(walls)))
    metrics.update(measure.latency_metrics([w * 1e3 for w in walls]))
    metrics.update(sim_metrics(cycles, energy))
    return ledger, metrics
