"""The number of cores this process may run on.

One rule for every caller that sizes its parallelism by the machine:
the process-pool runner (:func:`repro.runner.resolve_workers`) and the
fluid kernel's row split (:mod:`repro.kernels.fluid`).  It counts the
process's CPU set, so a run under ``taskset`` or a container's cpuset
sees the cores it was given, not the whole machine.  This module
imports nothing but :mod:`os`.
"""

from __future__ import annotations

import os

__all__ = ["usable_cpus"]


def usable_cpus() -> int:
    """Cores in this process's CPU set; ``os.cpu_count()`` where the
    platform has no CPU affinity; at least 1."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1
