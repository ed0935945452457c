"""How many CPUs a call may use.

One rule, read by ``harness.cpu_shards``, by ``harness.fan_out``'s nesting
rule and by ``predictor.train``'s choice of a helper process: a call may
use every CPU of the process's affinity mask (``os.sched_getaffinity``),
except inside a job of ``fan_out``, where the jobs already take one CPU
each and a call may use one. There is no flag, config key or environment
variable for it; ``taskset -c 0`` gives a one-CPU process.
"""

from __future__ import annotations

import contextlib
import os

# set while this process runs the jobs of a fan_out; a forked child inherits it
_in_fan_out_job = False


def usable_cpus() -> int:
    """1 inside a ``fan_out`` job, else the CPUs of the affinity mask (1
    where the platform has no affinity mask)."""
    if _in_fan_out_job or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def fan_out_jobs():
    """Mark the block as the jobs of a ``fan_out``, in this process and in
    every child forked inside it."""
    global _in_fan_out_job
    _in_fan_out_job = True
    try:
        yield
    finally:
        _in_fan_out_job = False
