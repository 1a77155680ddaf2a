"""Independent tasks on every usable CPU, through forked workers.

:func:`fork_map` is the package's one process pool: the cross-validation
folds of :mod:`nantree.bench`, the subtrees of a large tree in
:mod:`nantree.tree` and the row ranges of a large unquoted CSV file in
:mod:`nantree.data` all run through it. Workers are forked, so they
inherit the task function and everything it reads: nothing is pickled on
the way to them, and each task's result comes back on its own. A map runs
its tasks in one process when another map is already running in this
process or in the worker it runs in: a ``train`` inside a fold grows its
tree where the fold runs.
"""
from __future__ import annotations

import os
import time

# The running map's task function, task count and counter of the next
# task to take, or None: process state by nature, as forked workers read
# it from the memory they inherit.
_job = None


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def processes() -> int:
    """How many processes a :func:`fork_map` started here would share its
    tasks among: the usable CPUs, or 1 inside a running map or where the
    ``fork`` start method is missing."""
    import multiprocessing  # imported on first use: it adds to every import of nantree
    if _job is not None or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return usable_cpus()


def _take(counter) -> int:
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
    return i


def _run():
    """In a worker: the next task no process has taken, as ``(index,
    result)``; None when no task is left."""
    fn, n, counter = _job
    i = _take(counter)
    return (i, fn(i)) if i < n else None


def fork_map(fn, n: int) -> list:
    """``[fn(i) for i in range(n)]`` on p = min(:func:`processes`, n)
    processes: task 0 is the caller's and tasks 1 to p - 1 are the first
    of the p - 1 forked workers, so every process takes part; the caller
    begins task 0 once the workers have begun theirs. After its first task
    each process takes the lowest task no process has taken yet, so with
    the largest tasks first the processes finish close together. Which
    process runs a later task is left to timing; the results are not. An
    error raised by a task reaches the caller with its own type and
    message, and no worker is left on return."""
    p = min(processes(), n)
    if p <= 1:
        return [fn(i) for i in range(n)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    global _job
    context = multiprocessing.get_context("fork")
    counter = context.Value("q", 1)  # the next task no process has taken
    _job = (fn, n, counter)
    try:
        # workers fork at the first submit, after _job is set; a request
        # takes its task when a worker begins it, so no task waits behind
        # another in a worker's queue while the caller could run it
        with ProcessPoolExecutor(p - 1, mp_context=context) as pool:
            requests = [pool.submit(_run) for _ in range(1, n)]
            try:
                # the pool's threads need the GIL to hand each worker its first
                # request, which a caller running a task would hold for them
                while counter.value < p and not any(request.done() for request in requests):
                    time.sleep(0.0005)
                out = [fn(0)] + [None] * (n - 1)
                while (i := _take(counter)) < n:
                    out[i] = fn(i)
            finally:
                with counter.get_lock():
                    counter.value = n  # after an error too, no worker takes a further task
                for request in requests[p - 1:]:
                    request.cancel()  # a later request no worker has begun is not needed
            for request in requests:
                done = None if request.cancelled() else request.result()
                if done is not None:
                    out[done[0]] = done[1]
            return out
    finally:
        _job = None
