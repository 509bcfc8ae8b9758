"""Time one cold set-up in a fresh interpreter: ``import repro`` + compile + deploy.

``run.py`` starts this script several times and reports the median as
``setup_s``.  Nothing heavy is imported before the clock starts, so the
program's own imports are all inside the measurement.  Prints the seconds.

usage: setup_probe.py WORKLOAD SEED QUICK(0|1) SECONDS   (PYTHONPATH set by run.py)
"""

import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    name, seed, quick, seconds = sys.argv[1:5]
    import workloads

    workload = workloads.WORKLOADS[name]
    deploy = workloads.live_deployment if workload.live else workload.build
    deploy(int(seed), quick == "1", float(seconds))
    print(repr(time.perf_counter() - started))
