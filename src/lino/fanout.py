"""Fan a task out over items in forked worker processes.

`fan_out(task, items, *shared)` yields `task(*shared, item)` for each
item, in item order. The fits of a run and the batches of `evaluate` both
go through it.

Workers are forked, once per call, from the process as it is at the call:
fork hands each worker `shared` (the prepared split sets, the model's
parameters) and the numpy/BLAS state of this process, its one BLAS thread
included, without pickling them, so a worker computes the bits an
in-process call would, uses one CPU, and starts without the numpy import
a `spawn` worker pays. Only the items and the results cross the pipe.
"""

import os

from .errors import WorkerDiedError

# (task, shared) of the fan-out a worker process serves, set only in
# worker processes by the pool's initializer; a worker runs any fan-out of
# its own in-process, so pools never nest
_worker_task = None


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spare_cpu() -> bool:
    """Whether this process has a second CPU to itself: it may run on two,
    and it is no fan-out worker, whose siblings take the others."""
    return _worker_task is None and _cpus() >= 2


def _worker_count(items: int) -> int:
    """Processes to run `items` items in: one per CPU this process may run
    on, at most one per item, and 1 (in-process) where the platform cannot
    fork or inside a fan-out worker."""
    if _worker_task is not None or not hasattr(os, "fork"):
        return 1
    return min(_cpus(), items)


def _adopt(task, shared) -> None:
    global _worker_task
    _worker_task = (task, shared)


def _run(item):
    task, shared = _worker_task
    return task(*shared, item)


def fan_out(task, items, *shared, died: str, most_workers=None):
    """Yield `task(*shared, item)` for each of the sized `items`, in order.

    One item, one CPU, `most_workers` below 2, no `fork`, or a call inside
    a worker runs every item in this process, without a pool. Otherwise a
    pool of forked workers (`_worker_count`, at most `most_workers`) runs
    them. An exception a task raises reaches the caller with its class and
    message; the first one, or a consumer that stops early, cancels the
    items still queued, and every worker is reaped before the exception or
    the close goes on. A worker that dies raises `WorkerDiedError` with the
    message `died`.
    """
    workers = _worker_count(len(items) if most_workers is None
                            else min(len(items), most_workers))
    if workers <= 1:
        for item in items:
            yield task(*shared, item)
        return
    # imported here, as only a fan-out needs them: at module level they
    # add about 27 ms and 2 MB to the start of every command
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(task, shared))
    try:
        yield from pool.map(_run, items)
    except BrokenProcessPool as exc:
        raise WorkerDiedError(f"{died}: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)
