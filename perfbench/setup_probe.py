"""Time one workload from a fresh interpreter to its first simulated event.

Usage: ``python3 setup_probe.py WORKLOAD SEED WORKDIR T0 [--tiny]``, where
``T0`` is the parent's ``time.perf_counter()`` just before it started this
process (a system-wide monotonic clock on Linux).  Prints the elapsed
seconds when the first ``Simulator.run`` begins, then exits at once; for
a sweep that happens in a forked worker, so the parent reads the first
line and kills the process group.
"""

import os
import sys
import time

from workloads import WORKLOADS, bootstrap, run_op


def main() -> None:
    name, seed, workdir, t0 = sys.argv[1:5]
    bootstrap()
    from pathlib import Path

    from repro.sim.kernel import Simulator

    def first_event(*args: object, **kwargs: object) -> None:
        # One write() of a short line is atomic on a pipe, so two sweep
        # workers starting together cannot interleave their lines.
        os.write(1, f"{time.perf_counter() - float(t0)!r}\n".encode())
        os._exit(0)

    Simulator.run = first_event  # type: ignore[method-assign]
    workload = WORKLOADS[name]
    if "--tiny" in sys.argv[5:]:
        workload = workload.tiny()
    run_op(workload, int(seed), Path(workdir))
    sys.exit("setup_probe: the workload finished without simulating")


if __name__ == "__main__":
    main()
