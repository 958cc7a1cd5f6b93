"""One benchmark sample, in a fresh process.

    python3 perfbench/worker.py --workload NAME --spec SPEC [--trace-out FILE]

Times ``import plocal`` plus ``build_group(spec)`` (set-up), then
``PipelineRun(...).run()`` plus ``to_json()`` (analysis), and reads the peak
RSS of this process.  Prints one JSON object on stdout.

On a shared host the speed of a core can drift by half while a run lasts.
So during the analysis the worker also times a fixed pure-Python dict loop on
a 10 ms timer signal (``HostProbe``).  The loop runs on the same thread,
interleaved with plocal, so its times give the host's speed during exactly
that window (``host.calib_s``).  Both phases are reported as wall time and
rescaled to the reference speed ``REF_PROBE_S``; the probe's own time is taken
out of the analysis.  Set-up is rescaled by the speed measured in the analysis
right after it: a probe during the imports themselves did not follow the host,
since most of that time is spent in native code where the signal waits.

With ``--trace-out`` no probe runs; instead the plocal layers are wrapped
first, the spans are written to FILE and the per-layer metrics are returned.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
PROBE_INTERVAL_S = 0.01
PROBE_STORES = 3000
# probe time on an uncontended 2.1 GHz core of a 2-core x86-64 VM, Python 3.11
REF_PROBE_S = 1.5e-4


class HostProbe:
    """Times PROBE_STORES stores into a small dict on every SIGALRM tick.

    The dict stays in the L1 cache, so the probe tracks the speed of the core
    and not the cache state plocal leaves behind."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        d = {}
        for i in range(PROBE_STORES):
            d[i & 255] = i
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_s(self) -> float | None:
        # ticks are evenly spaced in wall time, so the harmonic mean of the
        # probe times is the average host speed over the window
        return statistics.harmonic_mean(self.samples) if self.samples else None


def _rescaled(wall_s: float, probe_s: float | None) -> dict:
    ref_s = wall_s * REF_PROBE_S / probe_s if probe_s else wall_s
    return {"wall_s": wall_s, "ref_s": ref_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--spec", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import plocal

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin()
    G = plocal.build_group(args.spec)
    t1 = time.perf_counter()
    probe = HostProbe()
    if tracer is None:
        probe.start()
    report = plocal.PipelineRun(G, plocal.PipelineConfig(**w.config_kwargs()), args.spec).run()
    report.to_json()
    t2 = time.perf_counter()
    probe.stop()
    if tracer is not None:
        tracer.end()
        tracer.uninstall()
    probe_s = probe.probe_s()
    analyze = _rescaled(t2 - t1 - sum(probe.samples), probe_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    data = report.data
    out = {
        "setup": _rescaled(t1 - t0, probe_s),
        "analyze": analyze,
        "probe_s": probe_s,
        "peak_rss_mb": peak_rss_mb,
        "verdicts": data["verdicts"],
        "digest": workloads.digest(data),
        "main_comparison": data["homology"].get("main_comparison"),
        "stage_s": {k[len("stage:"):]: v for k, v in data["timings"].items() if k.startswith("stage:")},
        "budget_overruns": len(data["notes"]),
    }
    if tracer is not None:
        tracer.dump(args.trace_out)
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
