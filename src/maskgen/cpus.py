"""How many CPUs a call may use, and how work is spread over them.

One rule, read by ``cpu_shards``, by ``fan_out``'s nesting rule and by
``predictor.train``'s choice of a helper process: a call may use every CPU
of the process's affinity mask (``os.sched_getaffinity``), except inside a
job of ``fan_out``, where the jobs already take one CPU each and a call may
use one. There is no flag, config key or environment variable for it;
``taskset -c 0`` gives a one-CPU process.

``harness.decode_all`` (the rows of every decode) and ``train_cells`` (the
independent trainings of ``harness.compare_masking_modes``) split their
work into ``cpu_shards``, contiguous shards, one per CPU the call may use,
and run every shard but the first in a child forked by ``fan_out``. The
output is byte-identical for every number of shards. Forked children's CPU
time and memory do not show in the parent's ``getrusage(RUSAGE_SELF)``.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Callable, NoReturn, Sequence

from .blas import one_blas_thread

# set while this process runs the jobs of a fan_out; a forked child inherits it
_in_fan_out_job = False


def usable_cpus() -> int:
    """1 inside a ``fan_out`` job, else the CPUs of the affinity mask (1
    where the platform has no affinity mask)."""
    if _in_fan_out_job or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def cpu_shards(n: int) -> list[slice]:
    """k = min(``usable_cpus()``, n) contiguous slices, at least one, that
    cover ``range(n)`` in order."""
    k = max(1, min(usable_cpus(), n))
    bounds = [n * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def fan_out(work: Callable, jobs: Sequence) -> list:
    """``[work(job) for job in jobs]`` for at least one job, with every job
    after the first run in a child forked for it; this process runs the
    first. Every process runs on one OpenBLAS thread (see ``blas``), so k
    processes never run more than k threads.

    A fork copies only the calling thread, so while another Python thread
    runs, every job runs here. So does every job when the call may use one
    CPU (``usable_cpus``), which it may inside a job of another fan_out, so
    k jobs never become k² processes. The results are the same either way.

    A child sends back its pickled result, or the exception it raised,
    through a pipe, and always leaves through ``os._exit``: it never runs
    the caller's code after the fork. On every path every pipe is read or
    closed and then every child is reaped; after that the first error in
    job order is raised. A child that ends without a result raises
    ``ChildProcessError``.
    """
    global _in_fan_out_job
    children: list[tuple[int, int]] = []  # (pid, read end of its result pipe)
    payloads: list[bytes] = []
    with one_blas_thread():
        if len(jobs) == 1 or usable_cpus() == 1 or threading.active_count() > 1:
            return [work(job) for job in jobs]
        _in_fan_out_job = True
        try:
            for job in jobs[1:]:
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:
                    _child(work, job, write_fd, [read_fd, *(fd for _, fd in children)])
                os.close(write_fd)
                children.append((pid, read_fd))
            results = [work(jobs[0])]
            # a child blocks on a result larger than the pipe buffer until it is read
            for _, fd in children:
                with open(fd, "rb", closefd=False) as pipe:
                    payloads.append(pipe.read())
        finally:
            _in_fan_out_job = False
            for _, fd in children:
                os.close(fd)
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    for (pid, _), code, payload in zip(children, codes, payloads, strict=True):
        if code != 0:
            raise ChildProcessError(f"worker process {pid} ended with exit code {code} and sent no result")
        result, error = pickle.loads(payload)
        if error is not None:
            raise error
        results.append(result)
    return results


def _child(work: Callable, job, write_fd: int, inherited: list[int]) -> NoReturn:
    """The forked child of ``fan_out``: close the pipe ends it inherited,
    run ``work(job)``, write the pickled ``(result, error)`` pair to
    ``write_fd`` and exit, with code 0 only once the pair is written."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            reply = (work(job), None)
        except BaseException as exc:  # the parent raises it
            reply = (None, exc)
        payload = memoryview(pickle.dumps(reply))
        while payload:
            payload = payload[os.write(write_fd, payload) :]
        code = 0
    finally:
        os._exit(code)


def train_cells(cells: Sequence[Callable[[], object]]) -> list:
    """``[cell() for cell in cells]``, with the cells, independent trainings
    taking no arguments, split into ``cpu_shards`` and the shards run
    through ``fan_out``. A trained model is the same in every process, so
    the results do not depend on the number of CPUs."""
    shards = fan_out(lambda part: [cell() for cell in cells[part]], cpu_shards(len(cells)))
    return [result for shard in shards for result in shard]
