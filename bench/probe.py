"""Set-up probe: start the interpreter, import gpcn, resolve a workload's first round.

Usage: python3 bench/probe.py WORKLOAD SEED.  Prints ``time.perf_counter()``
at the moment the first op could start; the caller subtracts its own
reading taken just before launching this process (CLOCK_MONOTONIC is shared
by all processes on Linux).
"""

import sys
import time

import env

env.pin_and_locate()

import workloads  # noqa: E402  (needs the path set up above)

workloads.WORKLOADS[sys.argv[1]].plan(int(sys.argv[2]))
print(repr(time.perf_counter()))
