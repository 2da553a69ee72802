#!/usr/bin/env python3
"""Smoke-test the `dalorex serve` daemon end to end.

Starts the daemon on a Unix socket, submits the same scenario twice
over the wire, runs it once via the standalone CLI, and asserts:

  1. the daemon's result payload is byte-identical to `dalorex --json`
     stdout (the serve contract ISSUE/README promise);
  2. a torus-ruche request on a grid no wider than its ruche factor,
     sent between the two runs, gets an `error` response and the
     daemon keeps serving;
  3. the second request for the same dataset triggers zero additional
     dataset-cache builds (the warm-cache contract);
  4. a `stats` request answers with sane queue/client counters;
  5. the scenario resent with a `deadline_ms` too large for the clock
     (2^64-1) completes with step 1's exact payload.

The stats response is written to --out (serve_stats.json) so CI keeps
one artifact tracking daemon health per run.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time

# One quick scenario: tiny synthetic RMAT graph, 4x4 mesh. The flags
# and the request fields below must describe the same point — the
# byte-diff in step 1 is what enforces that they do.
SCENARIO_FLAGS = ["--kernel", "bfs", "--scale", "8",
                  "--width", "4", "--height", "4"]
SCENARIO_FIELDS = {"kernel": "bfs", "scale": 8, "width": 4, "height": 4}


def connect(path, deadline_seconds=15.0):
    """Dial the daemon, retrying until it has bound the socket."""
    deadline = time.monotonic() + deadline_seconds
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() >= deadline:
                sys.exit(f"serve_smoke: daemon never bound {path}")
            time.sleep(0.05)


class LineChannel:
    """Newline-framed request/response over one connected socket."""

    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""

    def send(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def recv_line(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(4096)
            if not chunk:
                sys.exit("serve_smoke: daemon closed the connection "
                         "mid-conversation")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def wait_result(self, request_id):
        """Skip `accepted`, return the raw result line for the id."""
        while True:
            line = self.recv_line()
            head = json.loads(line)
            if head.get("id") != request_id:
                sys.exit(f"serve_smoke: unexpected id in {line}")
            if head["type"] == "accepted":
                continue
            if head["type"] == "error":
                sys.exit(f"serve_smoke: daemon rejected {request_id}: "
                         f"{head.get('error')}")
            if head["type"] != "result":
                sys.exit(f"serve_smoke: unexpected response {line}")
            return line


def result_payload(line, request_id):
    """The verbatim report bytes inside a result line."""
    prefix = f'{{"type":"result","id":{json.dumps(request_id)},"report":'
    if not line.startswith(prefix) or not line.endswith("}"):
        sys.exit(f"serve_smoke: malformed result line: {line[:120]}")
    return line[len(prefix):-1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dalorex", required=True,
                        help="path to the dalorex binary")
    parser.add_argument("--out", required=True,
                        help="stats artifact path (serve_stats.json)")
    opts = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="dalorex_serve_")
    sock_path = os.path.join(workdir, "smoke.sock")
    daemon = subprocess.Popen(
        [opts.dalorex, "serve", "--socket", sock_path, "--workers", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        channel = LineChannel(connect(sock_path))

        # 1. Daemon result vs standalone CLI, byte for byte.
        channel.send({"type": "run", "id": "smoke1", **SCENARIO_FIELDS})
        payload = result_payload(channel.wait_result("smoke1"), "smoke1")
        standalone = subprocess.run(
            [opts.dalorex] + SCENARIO_FLAGS + ["--json"],
            capture_output=True, text=True)
        if standalone.returncode != 0:
            sys.exit(f"serve_smoke: standalone run failed: "
                     f"{standalone.stderr}")
        if payload + "\n" != standalone.stdout:
            sys.exit("serve_smoke: daemon result differs from the "
                     "standalone CLI:\n"
                     f"  daemon:     {payload[:200]}\n"
                     f"  standalone: {standalone.stdout[:200]}")
        print("serve_smoke: daemon result byte-identical to "
              "standalone run")

        # 2. A ruche factor (default 2) as wide as the 2x2 grid cannot
        # be built: the daemon answers `error` and keeps serving.
        channel.send({"type": "run", "id": "smoke-narrow",
                      **SCENARIO_FIELDS, "width": 2, "height": 2,
                      "topology": "torus-ruche"})
        narrow_line = channel.recv_line()
        narrow = json.loads(narrow_line)
        if narrow.get("type") != "error" or \
                narrow.get("id") != "smoke-narrow":
            sys.exit("serve_smoke: narrow torus-ruche request was not "
                     f"refused: {narrow_line}")
        print(f"serve_smoke: narrow torus-ruche grid refused: "
              f"{narrow['error']}")

        # 3. Same scenario again: the dataset must come from cache.
        channel.send({"type": "run", "id": "smoke2", **SCENARIO_FIELDS})
        repeat = result_payload(channel.wait_result("smoke2"), "smoke2")
        if repeat != payload:
            sys.exit("serve_smoke: repeated request returned a "
                     "different report")

        # 4. Stats: cache shows one build + one hit for the scenario.
        channel.send({"type": "stats", "id": "smoke-stats"})
        stats_line = channel.recv_line()
        stats = json.loads(stats_line)
        if stats.get("type") != "stats" or stats.get("id") != "smoke-stats":
            sys.exit(f"serve_smoke: bad stats response: {stats_line}")
        body = stats["stats"]
        cache = body["dataset_cache"]
        if cache["builds"] != 1:
            sys.exit(f"serve_smoke: expected exactly 1 dataset build, "
                     f"daemon reports {cache['builds']}")
        if cache["hits"] < 1:
            sys.exit("serve_smoke: repeated request did not hit the "
                     "dataset cache")
        if body["runs_completed"] != 2 or body["queue_depth"] != 0:
            sys.exit(f"serve_smoke: unexpected counters: {stats_line}")
        with open(opts.out, "w") as handle:
            handle.write(stats_line + "\n")
        print(f"serve_smoke: dataset cache {cache['builds']} build, "
              f"{cache['hits']} hit(s) -> {opts.out}")

        # 5. A budget too large for the clock means no deadline: the
        # run completes with step 1's exact bytes instead of timing
        # out at cycle 0.
        channel.send({"type": "run", "id": "smoke-huge-deadline",
                      **SCENARIO_FIELDS,
                      "deadline_ms": 18446744073709551615})
        huge = result_payload(channel.wait_result("smoke-huge-deadline"),
                              "smoke-huge-deadline")
        if huge != payload:
            sys.exit("serve_smoke: a deadline_ms of 2^64-1 changed the "
                     f"result: {huge[:200]}")
        print("serve_smoke: deadline_ms 2^64-1 runs to completion, "
              "byte-identical")

        # 6. Clean shutdown drains and exits 0.
        channel.send({"type": "shutdown", "id": "smoke-bye"})
        channel.recv_line()  # accepted
        code = daemon.wait(timeout=30)
        if code != 0:
            sys.exit(f"serve_smoke: daemon exited {code}: "
                     f"{daemon.stderr.read()}")
        print("serve_smoke: daemon drained and exited cleanly")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    main()
