"""One set-up of a benchmark process, timed by its parent.

Imports NumPy and qnearest, runs one warm-up search (the workload's first
request) and prints ``ready``. The parent times from starting this process
to reading that line.

    python3 qbench/setup_probe.py WORKLOAD SEED
"""

import sys

import run

if __name__ == "__main__":
    run.bootstrap()
    import numpy  # noqa: F401  (timed as part of set-up)
    import qnearest.cli as cli
    import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    cli.run_search(next(workloads.requests(name, seed)))
    print("ready", flush=True)
