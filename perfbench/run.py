"""The medianecc benchmark: edge-list text to a verified EccReport.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-80k --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop: each pass runs every graph of the
workload one after another, and the next pass starts when the previous one
has been verified. The program under test only ever sees edge-list text
held in memory, through its public functions.

``--trace 0`` times whole passes, ``load_graph(text)`` then
``run_pipeline(g)``, and reports the end-to-end metrics: ``report_s``
(median pass), ``peak_rss_mb`` (one pass in a fresh process), ``setup_s``
(median of several set-ups that generate and serialise the inputs) and
``verified_frac`` (reports that passed verification over reports
attempted, that is 1 - failed_frac). ``--trace 1`` alternates plain passes
with passes that put a span around each stage call, in ``run_pipeline``'s
order, and reports per-stage times, counters read from the returned
objects after the spans close, and the tracing overhead.

Every report is checked outside the timed region against the workload's
oracle (see workloads.py); failures and exceptions are counted, not
raised. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "medianecc" / "__init__.py").is_file():
        print(f"medianecc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    if args.workload not in measure.workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(measure.workloads.NAMES)}")
    run = measure.per_layer if args.trace else measure.end_to_end
    tally, metrics = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
