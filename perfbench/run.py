"""plocal benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a plocal checkout.  A run starts fresh worker processes
(``perfbench/worker.py``) one after another, never two at once, until
``--seconds`` have passed and at least ``MIN_SAMPLES`` have finished.  Each
worker sets plocal up, analyzes the workload once and exits, so its peak RSS
belongs to that one analysis.  The run reports the median of each end-to-end
metric over its workers; ``worker.py`` says how the times are rescaled to a
reference host speed.

With ``--trace 1`` the run alternates untraced and traced workers and reports
the per-layer metrics of the traced worker with the median traced wall time,
plus ``trace.overhead_s``, the traced minus the untraced median analysis wall
time (not rescaled; traced workers run no host probe).
Traced spans are written under ``.perfbench-traces/``.

Correctness: every requested verdict must equal the workload's expected
verdict and the report's seed-invariant digest must match the stored one
(for ``sym:4`` at p=2 the main-comparison dimensions must also match
``tests/golden/main_comparison.json``).  A worker that crashes, or whose
digest or golden dimensions differ, fails every verdict it was asked for.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (requested verdicts over all workers), ``failed`` and
``metrics``.  The line before it gives the per-worker samples.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a whole run ends well inside three minutes
TRACE_DIR = ".perfbench-traces"


def _worker(w: workloads.Workload, spec: str, deadline: float, trace_out: Path | None):
    """Run one worker; its result dict, or None if it failed or ran out of time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", w.name, "--spec", spec]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # the same string hashing in every worker, so set iteration orders repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.perf_counter(), 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"worker for {w.name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _golden_dims(w: workloads.Workload):
    path = ROOT / "tests" / "golden" / "main_comparison.json"
    for entry in json.loads(path.read_text())["entries"]:
        if entry["group"] == w.group and entry["prime"] == w.prime:
            return {k: entry[k] for k in ("classifying_dims", "linking_dims", "through_degree")}
    return None


def failed_verdicts(w: workloads.Workload, sample: dict | None, golden) -> int:
    """How many of the workload's requested verdicts this worker failed."""
    requested = w.expected_verdicts()
    if sample is None or sample["digest"] != w.digest:
        return len(requested)
    if golden is not None and "main" in w.checks and sample["main_comparison"] != golden:
        return len(requested)
    return sum(sample["verdicts"].get(k) != v for k, v in requested.items())


def _median(values):
    return statistics.median(values) if values else 0.0


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "plocal").glob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "plocal" / "__init__.py").is_file():
        print("error: run from the root of a plocal checkout (src/plocal is missing)", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    spec = workloads.presentation(w, args.seed)
    golden = _golden_dims(w)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    trace_dir = ROOT / TRACE_DIR
    if args.trace:
        trace_dir.mkdir(exist_ok=True)

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0

    def take(trace_out: Path | None) -> bool:
        nonlocal attempted, failed
        sample = _worker(w, spec, deadline, trace_out)
        attempted += len(w.requested_verdicts())
        failed += failed_verdicts(w, sample, golden)
        if sample is not None:
            (plain if trace_out is None else traced).append(sample)
        return sample is not None

    min_samples = 1 if args.trace else MIN_SAMPLES
    while take(None):
        if args.trace and not take(trace_dir / f"{w.name}-seed{args.seed}-{len(traced)}.jsonl"):
            break
        if time.perf_counter() - start >= args.seconds and len(plain) >= min_samples:
            break

    metrics = {
        "analyze_s": (_median([s["analyze"]["ref_s"] for s in plain]), "s"),
        "setup_s": (_median([s["setup"]["ref_s"] for s in plain]), "s"),
        "peak_rss_mb": (_median([s["peak_rss_mb"] for s in plain]), "MB"),
    }
    if args.trace:
        metrics = _layer_metrics(plain, traced)
    complete = len(plain) >= min_samples and (not args.trace or traced)
    print(json.dumps({
        "workload": w.name, "seed": args.seed, "spec": spec,
        "samples": len(plain), "traced_samples": len(traced),
        **{f"{phase}.{k}": [s[phase][k] for s in plain]
           for phase in ("analyze", "setup") for k in ("ref_s", "wall_s")},
        "probe_s": [s["probe_s"] for s in plain],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        "digest": sorted({s["digest"] for s in plain + traced}),
    }))
    print(json.dumps({
        "correct": bool(complete and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of the traced worker with the median traced wall time."""
    if not traced:
        return {}
    by_wall = sorted(traced, key=lambda s: s["layers"]["trace.wall_s"])
    layers = by_wall[(len(by_wall) - 1) // 2]["layers"]
    out: dict[str, tuple[float, str]] = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("yield") else "count")
        out[name] = (value, unit)
    for check in workloads.ALL_CHECKS:
        stage = _median([s["stage_s"][check] for s in plain if check in s["stage_s"]])
        out[f"pipeline.stage_s.{check}"] = (stage, "s")
    out["pipeline.budget_overruns"] = (max(s["budget_overruns"] for s in plain + traced), "count")
    out["trace.overhead_s"] = (
        _median([s["analyze"]["wall_s"] for s in traced])
        - _median([s["analyze"]["wall_s"] for s in plain]), "s")
    out["host.calib_s"] = (_median([s["probe_s"] for s in plain]), "s")
    out["src.lines"] = (src_lines(), "lines")
    return out


if __name__ == "__main__":
    sys.exit(main())
