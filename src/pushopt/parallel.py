"""The process pool behind ``jobs`` in ``evolve`` and ``reevaluate``.

``worker_pool(work, shared, jobs)`` yields ``map(tasks)``, which returns
``[work(shared, task) for task in tasks]`` in task order: in this process
when ``jobs == 1``, else in ``min(jobs, os.cpu_count())`` worker processes
that each receive ``work`` and the read-only ``shared`` once, from the pool
initializer. So a task carries only what differs between tasks, and results
do not depend on the worker count or the start method. The pool may start
all its workers at once, and more workers than CPUs cannot speed up these
CPU-bound tasks, hence the cap. ``work`` must be a module-level
function; under ``fork`` workers inherit ``shared`` without pickling it.
"""

import os
from contextlib import contextmanager

_installed = None  # (work, shared) in a worker process


def _install(work, shared) -> None:
    global _installed
    _installed = (work, shared)


def _call(task):
    work, shared = _installed
    return work(shared, task)


@contextmanager
def worker_pool(work, shared, jobs: int):
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        yield lambda tasks: [work(shared, task) for task in tasks]
        return
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, initializer=_install, initargs=(work, shared)) as executor:
        # About four chunks per worker: even shares without per-task overhead.
        yield lambda tasks: list(executor.map(_call, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
