#!/usr/bin/env python3
"""Run the bundled worked-example verifications and print the reports.

Exit status is nonzero if any check fails.  Equivalent to
``chargemdp verify all`` but with per-case timing.
"""

import argparse
import sys
import time

from chargemdp import counterexamples as cx


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=12,
                        help="largest block / switch index to check")
    parser.add_argument("--max-period", type=int, default=8)
    parser.add_argument("--max-preperiod", type=int, default=8)
    parser.add_argument("--machine", action="store_true",
                        help="emit one CASE line per check instead of tables")
    args = parser.parse_args()
    for flag, got, least in (("--nmax", args.nmax, 1), ("--max-period", args.max_period, 1),
                             ("--max-preperiod", args.max_preperiod, 0)):
        if got < least:
            parser.error(f"{flag} must be at least {least}, got {got}")

    jobs = [
        ("lower bounds", lambda: cx.verify_lower_bounds(args.nmax)),
        ("exhaustive shortfall",
         lambda: cx.sweep_payoff_shortfall(args.max_period, args.max_preperiod)),
        ("no stationary optimum", cx.verify_no_stationary_optimum),
        ("late switch", lambda: cx.verify_late_switch(args.nmax)),
    ]
    ok = True
    for label, job in jobs:
        t0 = time.perf_counter()
        rep = job()
        wall = time.perf_counter() - t0
        if args.machine:
            for line in rep.machine_lines():
                print(line)
        else:
            print(rep.text_report())
        print(f"  [{label}: {wall:.2f}s]")
        ok = ok and rep.passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
