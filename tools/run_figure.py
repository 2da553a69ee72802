#!/usr/bin/env python3
"""Run one figure file's `dalorex sweep` lines and merge their CSV.

usage: tools/run_figure.py FILE [--full] [--csv PATH] [--dalorex BIN]
                           [SWEEP FLAG ...]

A figure file (bench/figures/*.args) holds one sweep argument list per
line, led by --quick or --full; its `#` comment lines are printed. The
lines of one scale (default --quick) run in order with the other flags
appended (--threads N, --seed N, ...); the first failing line stops
the run. The lines' CSV rows go under one header.
"""

import subprocess
import sys
import tempfile
from pathlib import Path


def main(path, *argv):
    scale, extra = "--quick", []
    opts = {"--csv": None, "--dalorex": "./build/dalorex"}
    args = iter(argv)
    for flag in args:
        if flag in opts:
            opts[flag] = next(args, None) or sys.exit(__doc__)
        elif flag in ("--quick", "--full"):
            scale = flag
        else:
            extra.append(flag)

    header, rows = None, []
    with open(path) as lines, tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "line.csv"
        for number, line in enumerate(lines, 1):
            if line.startswith("#"):
                print(line.lstrip("# ").rstrip(), flush=True)
            words = line.split()
            if words[:1] != [scale]:
                continue
            cmd = [opts["--dalorex"], "sweep", *words, *extra, "--csv", csv]
            if subprocess.run(cmd).returncode != 0:
                sys.exit(f"run_figure: {path}:{number} failed")
            header, *body = csv.read_text().splitlines()
            rows += body
    if header is None:
        sys.exit(f"run_figure: {path} has no {scale} lines")
    if opts["--csv"]:
        Path(opts["--csv"]).write_text("\n".join([header, *rows]) + "\n")
    print(f"run_figure: {len(rows)} rows", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    main(*sys.argv[1:])
