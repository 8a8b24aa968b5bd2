"""Time one set-up of a workload in this fresh interpreter.

``run.py`` runs it, with the environment it prepared, as::

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

and reads the seconds from the last line of its output.  The clock
starts before the program, and numpy with it, is first imported; the
benchmark's own modules and SciPy, which the checks use, are imported
only after that part is timed.
"""

from __future__ import annotations

import sys
import time


def import_program() -> None:
    """Import the program and touch its three public entry points (the
    package resolves them lazily)."""
    import repro

    repro.solve, repro.sched.ClusterScheduler, repro.serve  # noqa: B018


def init_default_backend() -> str:
    """Resolve the default kernel backend and run it once on a tiny
    product, so its lazy set-up (a compiled kernel's load) is done."""
    import numpy as np
    from repro.semiring.backends import get_backend

    backend = get_backend()
    backend.srgemm_accumulate(np.zeros((4, 4)), np.ones((4, 4)), np.ones((4, 4)))
    return backend.name


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv
    t0 = time.perf_counter()
    import_program()
    init_default_backend()
    elapsed = time.perf_counter() - t0

    from pathlib import Path

    from workloads import WORKLOADS

    elapsed += WORKLOADS[workload](int(seed), Path(workdir)).probe_extra()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
