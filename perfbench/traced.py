"""The traced run: per-layer metrics from the benchmark's own tracer.

`perfbench_trace` calls each layer's public functions the way the
front ends do and writes a span per call (name, start, end, parent,
point). A layer's self time is its spans' duration minus the part
their child spans cover. Each traced run first proves that the tracer
measures the same program: what it renders must be byte-identical to
the real front end's output for the same inputs.

Which end-to-end metric each layer metric should move (and where):

- graph.dataset_s, graph.cache_hit_ratio: setup_s on spmv64-t1;
  serve-mix latency through its cold requests.
- apps.kernel_setup_s, sim.build_s: setup_s; serve-mix latency.
- apps.validate_s: rows_per_s on sweep-grid.
- sim.run_s, sim.stepped_cycles, sim.ns_per_stepped_cycle,
  sim.tile_scans, sim.tile_scan_occupancy: wall_s on spmv64-t1 and
  rows_per_s on sweep-grid.
- tile.invocations, tile.utilization: sim_cycles, and wall_s.
- noc.router_scans, noc.router_scan_occupancy, noc.stepped_cycles,
  noc.flit_hops: wall_s on spmv64-t1. noc.messages_delivered and
  noc.delivery_stall_ratio (the NoC's retry rate): sim_cycles.
- parallel.speedup_t4_vs_t1 (sim.run_s of the spmv64-t1 point at 1
  engine thread over 4): no end-to-end workload runs several engine
  threads, so it is the benchmark's only view of the worker crew and
  its barriers. It reads 0 on sweep-grid and serve-mix, whose many
  small points run on one engine thread each.
- energy.model_s: wall_s; expected to stay negligible.
- cli.render_s, cli.report_bytes: wall_s and serve-mix latency.
- serve.parse_s, serve.accept_ms (send to `accepted`),
  serve.service_ms (`accepted` to `result`) and serve.queue_wait_ms
  (service time minus the point's in-process time): serve-mix
  latency. serve.runs_failed and serve.rejects (the daemon's `stats`
  reply): the failed count.
- sweep.expand_s, sweep.run_s, sweep.render_s, sweep.rows_failed:
  rows_per_s and the failed count on sweep-grid.
- trace.overhead_s: traced minus untraced wall time of the same
  front-end operation (0 on serve-mix, whose client timestamps are
  the same with tracing on or off).

A layer a workload does not exercise reads 0 on that workload.
"""

import json
import os
import statistics

import measure
import serve_mix
import workloads

LAYER_SPANS = {
    "graph.dataset_s": "graph.dataset",
    "apps.kernel_setup_s": "apps.kernel_setup",
    "apps.validate_s": "apps.validate",
    "sim.build_s": "sim.build",
    "sim.run_s": "sim.run",
    "energy.model_s": "energy.model",
    "cli.render_s": "cli.render",
    "serve.parse_s": "serve.parse",
    "sweep.expand_s": "sweep.expand",
    "sweep.run_s": "sweep.run",
    "sweep.render_s": "sweep.render",
}


def self_times(spans):
    """Total self time per span name: duration minus child spans."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end"] - span["start"]
    totals = {}
    for span, child in zip(spans, covered):
        own = span["end"] - span["start"] - child
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def run_tracer(ctx, mode, tag, args=(), extra=()):
    """Run perfbench_trace; returns (finished, spans doc, out path)."""
    spans_path = os.path.join(ctx.scratch, tag + ".spans.json")
    out_path = os.path.join(ctx.scratch, tag + ".render")
    argv = [ctx.tracer, mode, "--spans", spans_path, "--out", out_path]
    argv += list(extra)
    if args:
        argv += ["--"] + list(args)
    done = measure.run(argv, ctx.scratch, tag)
    doc = None
    if os.path.exists(spans_path):
        with open(spans_path) as handle:
            doc = json.load(handle)
        os.unlink(spans_path)
    return done, doc, out_path


def layer_metrics(doc):
    """Every per-layer metric the tracer's spans and counters give."""
    selfs = self_times(doc["spans"])
    c = doc["counters"]
    cache = doc["dataset_cache"]
    m = {name: selfs.get(span, 0.0) for name, span in LAYER_SPANS.items()}
    m.update({
        "graph.cache_hit_ratio": ratio(cache["hits"],
                                       cache["hits"] + cache["builds"]),
        "sim.stepped_cycles": c["stepped_cycles"],
        "sim.ns_per_stepped_cycle": ratio(m["sim.run_s"] * 1e9,
                                          c["stepped_cycles"]),
        "sim.tile_scans": c["tile_scans"],
        "sim.tile_scan_occupancy": ratio(
            c["tile_scans"], c["tile_scans"] + c["tile_scans_saved"]),
        "tile.invocations": c["invocations"],
        "tile.utilization": ratio(c["pu_busy_cycles"], c["tile_cycles"]),
        "noc.router_scans": c["router_scans"],
        "noc.router_scan_occupancy": ratio(
            c["router_scans"], c["router_scans"] + c["router_scans_saved"]),
        "noc.stepped_cycles": c["noc_stepped_cycles"],
        "noc.flit_hops": c["flit_hops"],
        "noc.messages_delivered": c["messages_delivered"],
        "noc.delivery_stall_ratio": ratio(c["delivery_stalls"],
                                          c["messages_delivered"]),
        "cli.report_bytes": c["report_bytes"],
    })
    return m


def read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def serve_phase(ctx, name, requests, renders, point_s, ledger, m):
    """The workload's points through `dalorex serve`: client-side
    accept and service times, queue wait against the tracer's
    in-process time per point, and the daemon's failure counters. Every
    result payload must equal the tracer's render of the point."""
    records, stats, code = serve_mix.serve_requests(ctx, requests,
                                                    f"{name}-serve")
    ledger.add(0, 0 if code == 0 else 1, f"daemon exit {code}")
    accept, service, queue_wait = [], [], []
    for index, (fields, record) in enumerate(zip(requests, records)):
        payload, error = serve_mix.check_record(fields, record)
        if error is None and (index >= len(renders) or
                              renders[index] != payload):
            error = f"point {index}: daemon result differs from the tracer"
        ledger.add(1, 0 if error is None else 1, error)
        if record is None:
            continue
        accept.append(record[1] - record[0])
        service.append(record[2] - record[1])
        queue_wait.append(service[-1] - point_s.get(index, 0.0))
    if not accept:  # nothing answered; the failed count says so
        accept = service = queue_wait = [0.0]
    m["serve.accept_ms"] = statistics.median(accept) * 1e3
    m["serve.service_ms"] = statistics.median(service) * 1e3
    m["serve.queue_wait_ms"] = statistics.median(queue_wait) * 1e3
    m["serve.runs_failed"] = stats["runs_failed"]
    m["serve.rejects"] = stats["requests_rejected"]


def sweep_phase(ctx, name, sweep_args, ledger, m, compare):
    """The workload's points through the sweep layer (expand, run,
    render); with `compare`, its rows must equal `dalorex sweep`'s and
    the tracing overhead is the traced minus the untraced wall time."""
    done, doc, out = run_tracer(ctx, "sweep", f"{name}-sweep", sweep_args)
    if doc is None:
        ledger.add(1, 1, f"traced sweep failed: {done.stderr[-200:]}")
        return
    selfs = self_times(doc["spans"])
    for metric in ("sweep.expand_s", "sweep.run_s", "sweep.render_s"):
        m[metric] = selfs.get(LAYER_SPANS[metric], 0.0)
    m["sweep.rows_failed"] = doc["rows_failed"]
    if compare:
        plain = measure.run([ctx.dalorex, "sweep"] + sweep_args,
                            ctx.scratch, f"{name}-sweep-plain")
        rows, _ = workloads.sweep_rows(plain.stdout)
        same = plain.code == 0 and read(out).splitlines() == rows
        ledger.add(len(rows) or 1, 0 if same else len(rows) or 1,
                   "traced sweep rows differ from `dalorex sweep --json`")
        m["trace.overhead_s"] = done.wall_s - plain.wall_s


def run(ctx, name, seed):
    """The traced run of one workload: its first-round points through
    the per-point pipeline, the serve layer and the sweep layer."""
    ledger = workloads.Ledger()
    requests_path = os.path.join(ctx.scratch, f"{name}-requests.jsonl")
    spec = workloads.CLI_WORKLOADS.get(name)
    if spec is not None:
        sub = workloads.derive_seeds(name, seed, 1)[0]
        cli_args = spec["args"] + ["--seed", str(sub), "--validate",
                                   "--json"]
        source = ["--requests-out", requests_path, "--"] + cli_args
        sweep_args = spec["sweep_args"] + ["--validate", "--json",
                                           "--seed", str(sub)]
    elif name == "sweep-grid":
        sub = workloads.derive_seeds(name, seed, 1)[0]
        sweep_args = workloads.SWEEP_ARGS[1:] + ["--seed", str(sub)]
        source = ["--requests-out", requests_path, "--", "sweep"]
        source += sweep_args
    else:
        with open(requests_path, "w") as handle:
            handle.write("".join(serve_mix.request_line(fields) + "\n"
                                 for fields in
                                 serve_mix.round_requests(seed)))
        source = ["--requests", requests_path]
        sweep_args = serve_mix.mix_sweep_args(seed)

    done, doc, out = run_tracer(ctx, "points", f"{name}-points", extra=source)
    if doc is None:
        ledger.add(1, 1, f"traced points failed: {done.stderr[-200:]}")
        return ledger, None
    ledger.add(0, doc["counters"]["points_failed"],
               f"traced points failed: {done.stderr[-200:]}")
    m = layer_metrics(doc)
    renders = read(out).splitlines()
    point_s = {span["point"]: span["end"] - span["start"]
               for span in doc["spans"] if span["name"] == "point"}
    requests = [json.loads(line)
                for line in read(requests_path).splitlines()]
    serve_phase(ctx, name, requests, renders, point_s, ledger, m)
    sweep_phase(ctx, name, sweep_args, ledger, m, spec is None)

    if spec is None:
        # Many small points, each on one engine thread: no scaling claim.
        m["parallel.speedup_t4_vs_t1"] = 0.0
        return ledger, m

    # The tracer's report must be the CLI's, byte for byte.
    plain = measure.run([ctx.dalorex] + cli_args, ctx.scratch,
                        f"{name}-plain")
    same = plain.code == 0 and read(out) == plain.stdout
    ledger.add(1, 0 if same else 1,
               "traced report differs from `dalorex --json`")
    m["trace.overhead_s"] = done.wall_s - plain.wall_s

    # The same point on the other engine thread count.
    alt_threads = spec["speedup_threads"]
    alt_done, alt_doc, _ = run_tracer(
        ctx, "points", f"{name}-alt",
        extra=["--threads", str(alt_threads), "--requests", requests_path])
    ledger.add(1, 0 if alt_doc else 1, f"{alt_threads}-thread run failed: "
               f"{alt_done.stderr[-200:]}")
    if alt_doc is None:
        return ledger, None
    alt_run = self_times(alt_doc["spans"]).get("sim.run", 0.0)
    t1, t4 = ((alt_run, m["sim.run_s"]) if alt_threads == 1
              else (m["sim.run_s"], alt_run))
    m["parallel.speedup_t4_vs_t1"] = ratio(t1, t4)
    return ledger, m
