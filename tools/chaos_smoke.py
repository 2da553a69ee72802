#!/usr/bin/env python3
"""Crash-recovery smoke for the fault-tolerant execution layer.

Phase 1 — journaled sweep vs kill -9:
  1. run a reference sweep to completion with --journal/--jsonl/--csv;
  2. run the same sweep again and SIGKILL it as soon as its journal
     holds at least one completed row (a real mid-run kill, no
     cooperation from the process);
  3. rerun the sweep with --journal on the torn journal, into fresh
     outputs: it replays the journal and appends the missing rows;
  4. assert the resumed CSV and JSONL are byte-identical to the
     uninterrupted run's, and that every journaled row was replayed
     rather than recomputed ("resumed K of N" matches the journal).

Phase 2 — daemon kill under `sweep --via`:
  5. start `dalorex serve`, point the same sweep at it with --via +
     --journal, and SIGKILL the daemon mid-plan;
  6. restart the daemon and rerun the sweep with --via and --journal
     on the same journal;
  7. assert the final JSONL and CSV are byte-identical to the
     reference and that every row the sweep journaled was replayed,
     not resubmitted.

The daemon keeps no results across restarts: the sweep journal is
the one durable record, and it carries the daemon-kill resume too.
"""

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

# Slow enough per row to land a kill mid-run, fast enough for CI:
# three pagerank points at ~1-2 s each.
PLAN = ["--kernel", "pagerank", "--grid-size", "2x2,4x2,4x4",
        "--scale", "10", "--param", "iterations=300", "--threads", "1"]


def read_file(path):
    with open(path, "rb") as handle:
        return handle.read()


def journal_ok_rows(path):
    """Completed rows in a (possibly torn) journal file."""
    if not os.path.exists(path):
        return 0
    count = 0
    with open(path, "rb") as handle:
        for line in handle.read().split(b"\n"):
            if b'"type":"row"' in line and b'"status":"ok"' in line:
                count += 1
    return count


def sweep_args(dalorex, journal, jsonl, csv, extra=()):
    return ([dalorex, "sweep"] + PLAN +
            ["--journal", journal, "--jsonl", jsonl, "--csv", csv] +
            list(extra))


def wait_for_ok_row(journal, proc, deadline_seconds=120.0):
    """Block until the journal holds a completed row (or proc dies)."""
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        if journal_ok_rows(journal) >= 1:
            return True
        if proc.poll() is not None:
            return False  # finished (or died) before we could strike
        time.sleep(0.05)
    return False


def expect_replayed(stderr, done_rows):
    """A resume replayed exactly the journal's completed rows."""
    match = re.search(r"resumed (\d+) of (\d+) rows", stderr)
    if match is None:
        sys.exit("chaos_smoke: resume reported nothing:\n" + stderr)
    if int(match.group(1)) != done_rows:
        sys.exit(f"chaos_smoke: {done_rows} rows were journaled but "
                 f"{match.group(1)} replayed — rows were recomputed")


def expect_same_bytes(what, reference, candidate):
    if read_file(reference) != read_file(candidate):
        sys.exit(f"chaos_smoke: {what} differ: "
                 f"{reference} vs {candidate}")
    print(f"chaos_smoke: {what} byte-identical "
          f"({len(read_file(reference))} bytes)")


def phase1_local_kill(dalorex, work):
    ref_journal = os.path.join(work, "ref.journal")
    ref_jsonl = os.path.join(work, "ref.jsonl")
    ref_csv = os.path.join(work, "ref.csv")
    subprocess.run(
        sweep_args(dalorex, ref_journal, ref_jsonl, ref_csv),
        check=True, stdout=subprocess.DEVNULL)
    total_rows = journal_ok_rows(ref_journal)
    if total_rows < 2:
        sys.exit("chaos_smoke: reference sweep has "
                 f"{total_rows} rows; plan too small to test resume")

    torn_journal = os.path.join(work, "torn.journal")
    victim = subprocess.Popen(
        sweep_args(dalorex, torn_journal,
                   os.path.join(work, "torn.jsonl"),
                   os.path.join(work, "torn.csv")),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not wait_for_ok_row(torn_journal, victim):
        victim.kill()
        sys.exit("chaos_smoke: sweep finished before the kill "
                 "landed; grow the plan")
    victim.send_signal(signal.SIGKILL)
    victim.wait()
    done_rows = journal_ok_rows(torn_journal)
    if not 1 <= done_rows < total_rows:
        sys.exit(f"chaos_smoke: kill landed too late: {done_rows} of "
                 f"{total_rows} rows already journaled")
    print(f"chaos_smoke: SIGKILLed sweep after {done_rows} of "
          f"{total_rows} rows")

    resumed_jsonl = os.path.join(work, "resumed.jsonl")
    resumed_csv = os.path.join(work, "resumed.csv")
    resume = subprocess.run(
        sweep_args(dalorex, torn_journal, resumed_jsonl, resumed_csv),
        check=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    expect_replayed(resume.stderr, done_rows)
    expect_same_bytes("phase-1 JSONL rows", ref_jsonl, resumed_jsonl)
    expect_same_bytes("phase-1 CSV", ref_csv, resumed_csv)
    return ref_jsonl, ref_csv


def accepts_connections(sock):
    """True once a daemon is listening on `sock`.

    A SIGKILLed daemon leaves its socket file behind, so the file
    existing says nothing about its restarted successor; only a
    successful connect does.
    """
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.connect(sock)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def start_daemon(dalorex, sock):
    proc = subprocess.Popen(
        [dalorex, "serve", "--socket", sock, "--workers", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        if accepts_connections(sock):
            return proc
        if proc.poll() is not None:
            sys.exit("chaos_smoke: daemon died on startup")
        time.sleep(0.05)
    proc.kill()
    sys.exit("chaos_smoke: daemon never bound its socket")


def phase2_daemon_kill(dalorex, work, ref_jsonl, ref_csv):
    sock = os.path.join(work, "chaos.sock")
    daemon = start_daemon(dalorex, sock)

    via_journal = os.path.join(work, "via.journal")
    client = subprocess.Popen(
        sweep_args(dalorex, via_journal,
                   os.path.join(work, "via.jsonl"),
                   os.path.join(work, "via.csv"), ["--via", sock]),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not wait_for_ok_row(via_journal, client):
        daemon.kill()
        client.kill()
        sys.exit("chaos_smoke: via-sweep finished before the daemon "
                 "kill landed; grow the plan")
    daemon.send_signal(signal.SIGKILL)
    daemon.wait()
    client.wait()  # loses its daemon, exits with an error
    done_rows = journal_ok_rows(via_journal)
    print(f"chaos_smoke: SIGKILLed daemon after {done_rows} "
          "client-journaled rows")

    daemon = start_daemon(dalorex, sock)
    final_jsonl = os.path.join(work, "final.jsonl")
    final_csv = os.path.join(work, "final.csv")
    resume = subprocess.run(
        sweep_args(dalorex, via_journal, final_jsonl, final_csv,
                   ["--via", sock]),
        check=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    expect_replayed(resume.stderr, done_rows)
    daemon.send_signal(signal.SIGTERM)
    if daemon.wait(timeout=60) != 0:
        sys.exit("chaos_smoke: restarted daemon exited nonzero")
    expect_same_bytes("phase-2 JSONL rows", ref_jsonl, final_jsonl)
    expect_same_bytes("phase-2 CSV", ref_csv, final_csv)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dalorex", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    for stale in os.listdir(args.workdir):
        path = os.path.join(args.workdir, stale)
        if os.path.isfile(path):
            os.remove(path)

    ref_jsonl, ref_csv = phase1_local_kill(args.dalorex, args.workdir)
    phase2_daemon_kill(args.dalorex, args.workdir, ref_jsonl, ref_csv)
    print("chaos_smoke: PASS")


if __name__ == "__main__":
    main()
