"""``python -m ledger`` — the repo's one benchmark harness.

Two front ends over :func:`ledger.run.run_workload`:

* **one workload, one JSON line** (what ``BENCHMARK.json`` names)::

      python -m ledger --workload NAME --seed N --seconds S --trace 0|1

  prints, last on stdout, ``{"correct", "attempted", "failed",
  "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
  per-layer metrics with ``--trace 1``.
* **the suite**::

      python -m ledger [--seed N] [--reps 2] [--seconds S] [--trace]
                       [--smoke] [--verify-repeat]

  runs every workload ``--reps`` times (round-robin, fresh children
  each time), pools the samples, prints every metric by name with unit,
  sample count and quartiles, writes ``ledger/out/result.json`` and
  exits non-zero on any correctness failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .common import ROOT

#: ``--seconds`` of a full-size run (``run_seconds`` in BENCHMARK.json)
#: and of the smoke profile.
RUN_SECONDS = 20.0
SMOKE_SECONDS = 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload and "
                        "print the one-line JSON result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help=f"measuring time per run (default "
                             f"{RUN_SECONDS:g}, smoke {SMOKE_SECONDS:g})")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also (suite) or instead (--workload) report "
                             "the per-layer metrics of a traced run")
    parser.add_argument("--reps", type=int, default=2,
                        help="suite: runs pooled per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one rep: same paths and checks")
    parser.add_argument("--verify-repeat", action="store_true",
                        help="run the suite twice and hold the gap of "
                             "every metric against its bound")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("ledger: no src/repro next to ledger/ - nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from . import suite

    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    if args.workload:
        print(json.dumps(suite.single(args.workload, args.seed, seconds,
                                      smoke=args.smoke,
                                      trace=bool(args.trace))))
        return 0
    reps = 1 if args.smoke else args.reps
    if args.verify_repeat:
        return suite.verify_repeat(args.seed, seconds, reps, args.smoke)
    return suite.full(args.seed, seconds, reps, smoke=args.smoke,
                      trace=bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
