#!/usr/bin/env python3
"""Check the pinned report hashes of the larger default runs.

Each pin is one ``plocal analyze --no-timings`` run (default budget and
checks, JSON report).  The script runs each as a child process from this
checkout's ``src``, one after another, and prints the sha256 prefix of its
stdout, the pinned prefix, its wall time and whether they match.  The exit
status is 1 when any report's hash differs from its pin or a run exits
nonzero (a failing verdict or an error), 0 otherwise.

The runs take about a minute together on a 2-core x86-64 host, most of it
the sym:4, p=3 run, and none peaks above 250 MB.  The sym:5, p=2 run at
``--budget 12000000`` is left out: it needs about 3.2 GB.

    python3 scripts/check_pins.py
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# (group spec, prime, max degree, sha256 prefix of the report)
PINS = [
    ("sym:4", 2, 4, "051ebce6"),
    ("sym:3 x cyc:3", 3, 4, "9427dd80"),
    ("sym:4", 3, 4, "f550cda4"),
    ("sym:5", 2, 3, "d6d8153f"),
    ("sym:5", 3, 3, "52fa1b2b"),
]


def main():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    bad = 0
    for spec, p, dmax, pin in PINS:
        cmd = [sys.executable, "-m", "plocal.cli", "analyze", "--group", spec,
               "--prime", str(p), "--max-degree", str(dmax), "--no-timings"]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, env=env)
        wall = time.perf_counter() - t0
        digest = hashlib.sha256(out.stdout).hexdigest()[:len(pin)]
        ok = digest == pin and out.returncode == 0
        status = "ok" if ok else f"MISMATCH (exit {out.returncode})"
        print(f"{spec:14s} p={p} max-degree {dmax}  sha256={digest} pin={pin}  "
              f"[{wall:6.1f}s]  {status}", flush=True)
        bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
