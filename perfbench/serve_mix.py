"""serve-mix: a closed loop of clients against `dalorex serve`.

Each of CLIENTS connections sends its next request only after the
previous one's `result` arrived, so a slow daemon receives less load;
with more clients than daemon workers, requests queue. Requests come
in stratified batches: every batch holds each (kernel, scale, grid)
combination once, in a seeded order, on a dataset seed drawn from a
small per-run pool. Batches therefore cost about the same, and only
the first touches of each pooled dataset are cold builds.
"""

import itertools
import json
import os
import random
import socket
import threading
import time

import measure
import workloads

WORKERS = 2
# One client more than the workers keeps a request queued. With two
# more, the 10-run spread of latency and throughput was about twice as
# wide on a shared 4-vCPU host.
CLIENTS = 3
KERNELS = ["bfs", "sssp", "pagerank", "wcc", "spmv", "histogram", "kcore"]
SCALES = [9, 10, 11]
GRIDS = [4, 8, 16]
DATASET_POOL = 4
ROUND_BATCHES = 2  # 2 x 63 requests: at least 100 per run
SAMPLED_CHECKS = 2  # result payloads diffed against `dalorex --json`


def batches(seed):
    """The endless seeded stream of batches of request field dicts."""
    rng = random.Random(f"serve-mix/{seed}")
    pool = [rng.randrange(1, 2 ** 31) for _ in range(DATASET_POOL)]
    for b in itertools.count():
        batch = [{"kernel": k, "scale": s, "width": g, "height": g}
                 for k in KERNELS for s in SCALES for g in GRIDS]
        rng.shuffle(batch)
        for i, fields in enumerate(batch):
            fields["seed"] = rng.choice(pool)
            fields["validate"] = True
            fields["id"] = f"b{b}-{i}"
        yield batch


def request_line(fields):
    return json.dumps({"type": "run", **fields}, separators=(",", ":"))


def cli_args(fields):
    """The `dalorex` flags naming the same scenario as a request."""
    return ["--kernel", fields["kernel"], "--scale", str(fields["scale"]),
            "--width", str(fields["width"]),
            "--height", str(fields["height"]),
            "--seed", str(fields["seed"]), "--validate", "--json"]


class Connection:
    """Newline-framed request/response over one Unix socket."""

    def __init__(self, path, timeout_s=15.0):
        deadline = time.monotonic() + timeout_s
        while True:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.sock.connect(path)
                break
            except OSError:
                self.sock.close()
                if time.monotonic() > deadline:
                    raise RuntimeError(f"daemon never bound {path}")
                # Fine-grained: daemon start-up (setup_s) is ~3 ms.
                time.sleep(0.0002)
        self.sock.settimeout(120.0)
        self.buffer = b""

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def recv_line(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise RuntimeError("daemon closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def close(self):
        self.sock.close()


class Daemon:
    """One `dalorex serve` process on a Unix socket under the scratch dir.

    The socket path is relative to the working directory, which keeps
    it under the kernel's 108-byte limit wherever the checkout lives.
    """

    def __init__(self, ctx, tag):
        self.path = os.path.relpath(os.path.join(ctx.scratch, tag + ".sock"))
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.proc = measure.spawn(
            [ctx.dalorex, "serve", "--socket", self.path, "--workers",
             str(WORKERS)], ctx.scratch, tag)

    def stats(self):
        """The daemon's `stats` reply body."""
        conn = Connection(self.path)
        try:
            conn.send(json.dumps({"type": "stats", "id": "stats"}))
            return json.loads(conn.recv_line())["stats"]
        finally:
            conn.close()

    def stop(self):
        """Drain and reap the daemon; returns its measure.Finished."""
        try:
            conn = Connection(self.path, timeout_s=1.0)
            conn.send(json.dumps({"type": "shutdown", "id": "bye"}))
            conn.recv_line()
            conn.close()
        except (OSError, RuntimeError):
            self.proc.kill()
        return measure.reap(self.proc, timeout_s=60.0)


def startup_s(ctx, tag):
    """Spawn to first `stats` reply of a fresh daemon, in seconds."""
    daemon = Daemon(ctx, tag)
    try:
        daemon.stats()
        return time.perf_counter() - daemon.proc.started
    finally:
        daemon.stop()


def closed_loop(path, batch):
    """Serve one batch with CLIENTS closed-loop connections.

    Returns one record per request, in batch order: send, accepted and
    result times (perf_counter seconds) and the raw response line, or
    None for a request that got no answer.
    """
    records = [None] * len(batch)
    lock = threading.Lock()
    cursor = [0]

    def client(k):
        try:
            conn = Connection(path)
        except RuntimeError:
            return  # its requests stay unanswered and count as failed
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(batch):
                    return
                fields = dict(batch[index], client=f"c{k}")
                sent = time.perf_counter()
                conn.send(request_line(fields))
                accepted = None
                while True:
                    line = conn.recv_line()
                    now = time.perf_counter()
                    if line.startswith('{"type":"accepted"'):
                        accepted = now
                        continue
                    records[index] = (sent, accepted or now, now, line)
                    break
        except (OSError, RuntimeError):
            pass  # the request in flight stays unanswered
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(k,))
               for k in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def result_payload(line, request_id):
    """The verbatim report bytes of a result line, or None."""
    prefix = f'{{"type":"result","id":{json.dumps(request_id)},"report":'
    if not line.startswith(prefix) or not line.endswith("}"):
        return None
    return line[len(prefix):-1]


def check_record(fields, record):
    """(payload or None, error or None) for one request's response."""
    if record is None:
        return None, "no response"
    payload = result_payload(record[3], fields["id"])
    if payload is None:
        return None, record[3][:200]
    try:
        report = json.loads(payload)
    except ValueError:
        return None, "unparsable report"
    if report.get("status") != "completed" or not report.get("validated"):
        return None, f"{fields['id']}: not completed and validated"
    return payload, None


def serve_batches(daemon, seed, started, seconds):
    """Serve the first ROUND_BATCHES batches of the seed's stream, then
    more while the run's time allows. Returns the (batch, records)
    pairs and each batch's wall time."""
    served = []
    durations = []
    for b, batch in enumerate(batches(seed)):
        if b >= ROUND_BATCHES and not workloads.keep_going(
                started, seconds, durations):
            break
        begin = time.perf_counter()
        records = closed_loop(daemon.path, batch)
        durations.append(time.perf_counter() - begin)
        served.append((batch, records))
    return served, durations


def run(ctx, seed, seconds):
    """The untraced serve-mix workload."""
    ledger = workloads.Ledger()
    setups = [startup_s(ctx, f"serve-setup-{i}")
              for i in range(workloads.SETUP_PROBES)]
    started = time.perf_counter()
    daemon = Daemon(ctx, "serve-mix")
    try:
        served, durations = serve_batches(daemon, seed, started, seconds)
    finally:
        finished = daemon.stop()

    latencies, cycles, energy, round_points = [], [], [], []
    for b, (batch, records) in enumerate(served):
        for fields, record in zip(batch, records):
            payload, error = check_record(fields, record)
            ledger.add(1, 0 if error is None else 1, error)
            if error is not None:
                continue
            latencies.append((record[2] - record[0]) * 1e3)
            if b < ROUND_BATCHES:
                report = json.loads(payload)
                cycles.append(report["stats"]["cycles"])
                energy.append(report["energy"]["total_j"])
                round_points.append((fields, payload))

    # A seeded sample of points must answer byte-identically to the
    # standalone CLI.
    rng = random.Random(f"serve-mix/check/{seed}")
    for fields, payload in rng.sample(
            round_points, min(SAMPLED_CHECKS, len(round_points))):
        done = measure.run([ctx.dalorex] + cli_args(fields), ctx.scratch,
                           "serve-check")
        if done.code != 0 or done.stdout != payload + "\n":
            ledger.add(0, 1, f"{fields['id']}: daemon result differs "
                       "from `dalorex --json`")
    if finished.code != 0:
        ledger.add(0, 1, f"daemon exit {finished.code}")
    if not latencies or not cycles:
        return ledger, None

    metrics = {
        "setup_s": measure.median_metric(setups, "s"),
        "peak_rss_mb": measure.Metric(finished.peak_rss_mb, "MiB"),
    }
    metrics.update(workloads.op_metrics(durations, len(latencies),
                                        len(latencies)))
    metrics.update(measure.latency_metrics(latencies))
    metrics.update(workloads.sim_metrics(cycles, energy))
    return ledger, metrics


def round_requests(seed):
    """The request field dicts of the seed's first round, in order."""
    stream = batches(seed)
    return [fields for _ in range(ROUND_BATCHES) for fields in next(stream)]


def mix_sweep_args(seed):
    """`dalorex sweep` flags for the grid the request mix is drawn from,
    on the first pooled dataset seed."""
    return ["--kernel", ",".join(KERNELS),
            "--scale", ",".join(map(str, SCALES)),
            "--grid-size", ",".join(f"{g}x{g}" for g in GRIDS),
            "--threads", "4", "--validate", "--json",
            "--seed", str(round_requests(seed)[0]["seed"])]


def serve_requests(ctx, requests, tag):
    """Serve `requests` once through a fresh daemon's closed loop.

    Returns (records, the daemon's `stats` reply, its exit code).
    """
    daemon = Daemon(ctx, tag)
    try:
        records = closed_loop(daemon.path, requests)
        stats = daemon.stats()
    finally:
        finished = daemon.stop()
    return records, stats, finished.code
