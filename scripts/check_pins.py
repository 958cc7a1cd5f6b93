#!/usr/bin/env python3
"""Check the pinned report hashes of the larger default runs.

Each pin is one ``plocal analyze --no-timings`` run (default budget, JSON
report), of every check unless the pin names its checks.  The script runs
each as a child process from this checkout's ``src``, one after another,
and prints the sha256 prefix of its stdout, the pinned prefix, its wall
time, its peak RSS (the child's own ``ru_maxrss``, read with ``os.wait4``)
and whether they match.  The exit status is 1 when any report's hash
differs from its pin or a run exits nonzero (a failing verdict or an
error), 0 otherwise.

The runs take about a minute together on a 2-core x86-64 host, most of it
the sym:4, p=3 run, and none peaks above 250 MB.  The sym:6, p=3 pin runs
the structure checks alone (``--check categories``): its ``category_laws``
passes on the largest categories of any pin in about a second.  The sym:5,
p=2 run at ``--budget 12000000`` is left out: it needs about 1.8 GB.

    python3 scripts/check_pins.py
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# (group spec, prime, max degree, sha256 prefix of the report, the
# comma-separated checks it runs, None for all)
PINS = [
    ("sym:4", 2, 4, "051ebce6", None),
    ("sym:3 x cyc:3", 3, 4, "9427dd80", None),
    ("sym:4", 3, 4, "f550cda4", None),
    ("sym:5", 2, 3, "d6d8153f", None),
    ("sym:5", 3, 3, "52fa1b2b", None),
    ("sym:6", 3, 2, "74f11bd9", "categories"),
]


def main():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    bad = 0
    for spec, p, dmax, pin, checks in PINS:
        cmd = [sys.executable, "-m", "plocal.cli", "analyze", "--group", spec,
               "--prime", str(p), "--max-degree", str(dmax), "--no-timings"]
        cmd += ["--check", checks] if checks else []
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              env=env) as child:
            stdout = child.stdout.read()
            # reaped here, so the usage is this child's alone
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        digest = hashlib.sha256(stdout).hexdigest()[:len(pin)]
        ok = digest == pin and child.returncode == 0
        status = "ok" if ok else f"MISMATCH (exit {child.returncode})"
        print(f"{spec:14s} p={p} max-degree {dmax} {checks or 'all':10s}  sha256={digest} "
              f"pin={pin}  [{wall:6.1f}s {usage.ru_maxrss / 1024:5.0f} MB]  {status}",
              flush=True)
        bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
