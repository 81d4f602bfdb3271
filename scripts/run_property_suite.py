#!/usr/bin/env python3
"""Run every randomized property suite at full acceptance scale.

Usage: python3 scripts/run_property_suite.py [seed]

Exits 2 on a seed that is not an optional sign and ASCII digits, 1 if
any suite reports a failure, and 141 if stdout is closed early (say by
``| head -1``); failures include the diagram dump and move log needed
to reproduce them.
"""

import os
import sys
import time

from maip.checks import SUITES
from maip.cli import _integer

TRIALS = {"moves": 1000, "prop2": 500, "corollary": 500, "compose": 200, "vassiliev": 200}


def main():
    try:
        seed = _integer(sys.argv[1]) if len(sys.argv) > 1 else 20250810
    except ValueError:
        print(f"usage: {sys.argv[0]} [seed]\n"
              f"error: expected an integer seed, got {sys.argv[1]!r}", file=sys.stderr)
        return 2
    bad = 0
    try:
        for name, trials in TRIALS.items():
            t0 = time.perf_counter()
            report = SUITES[name](trials, seed)
            elapsed = time.perf_counter() - t0
            print(f"{report.summary()}  ({elapsed:.1f}s)")
            for line in report.failure_lines():
                print(line)
            bad += len(report.failures)
    except BrokenPipeError:
        # The reader is gone; send the exit flush of stdout nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
