#!/usr/bin/env python3
"""Run the analysis pipeline over the whole built-in catalog.

Prints one summary line per (group, prime) with the sha256 of its JSON
report (timings left out, so the digest depends only on the results), then
one combined digest over all reports in catalog order; optionally writes the
reports to a directory.  A failing verdict or an internal-error note is
flagged on its line and makes the exit status 1.  Running it on two
checkouts and comparing the last line tells whether the catalog reports are
byte-identical.

    python3 scripts/run_catalog.py [--out reports/] [--max-degree 3]
"""

import argparse
import hashlib
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from plocal import PipelineConfig, run_pipeline  # noqa: E402

CATALOG = ["sym:3", "sym:4", "alt:4", "dih:8", "dih:12", "cyc:6", "sym:3 x cyc:3"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None, help="directory for JSON reports")
    ap.add_argument("--max-degree", type=int, default=3)
    ap.add_argument("--max-limit-degree", type=int, default=3)
    ap.add_argument("--cohomology-index-max", type=int, default=2)
    args = ap.parse_args()

    outdir = pathlib.Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)

    bad = 0
    combined = hashlib.sha256()
    for spec in CATALOG:
        for p in (2, 3):
            t0 = time.time()
            rep = run_pipeline(
                spec,
                PipelineConfig(
                    prime=p,
                    max_degree=args.max_degree,
                    max_limit_degree=args.max_limit_degree,
                    cohomology_index_max=args.cohomology_index_max,
                    include_timings=False,
                ),
            )
            fails = [k for k, v in rep.verdicts.items() if v == "fail"]
            crashes = [n for n in rep.data["notes"] if ": internal error: " in n]
            text = rep.to_json()
            digest = hashlib.sha256(text.encode()).hexdigest()
            combined.update(digest.encode())
            print(
                f"{spec:16s} p={p}  overall={rep.overall:13s} "
                f"[{time.time() - t0:6.1f}s]  sha256={digest}"
                + (f"  FAILING: {fails}" if fails else "")
                + (f"  INTERNAL ERROR: {crashes}" if crashes else "")
            )
            bad += bool(fails or crashes)
            if outdir:
                name = spec.replace(" ", "").replace(":", "") + f"_p{p}.json"
                (outdir / name).write_text(text)
    print(f"combined sha256={combined.hexdigest()}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
