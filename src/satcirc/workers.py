"""Forked workers for independent items, read back in item order.

forked_map(fn, items) starts min(CPUs, items) fork workers. Each takes
the next item index off one shared task pipe, computes fn(item) and
sends the index with the result, or with the exception fn raised, over
its own result pipe. Task records are 4-byte writes, so each write
is atomic (under PIPE_BUF) and each read takes one whole record; no lock
is shared, so a worker killed from outside leaves nothing held and its
result pipe reads as EOF. Workers inherit fn and items through fork:
nothing is pickled but the results. multiprocessing is imported only
when workers start, so importing satcirc does not load it.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Iterator, Sequence

_RECORD = 4  # bytes per task index


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_context():
    """The fork start method's context, or None where there is no fork or
    inside a worker, which may not start workers of its own."""
    import multiprocessing
    if (multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    return multiprocessing.get_context("fork")


def _serve(fn, items, tasks: int, feed: int, conn):
    """A worker: send fn's result or exception for each item index it
    takes, until the task pipe is empty. It goes on after an exception,
    because an item before the failing one may still be in the pipe
    when items are not taken in item order."""
    os.close(feed)  # else the task pipe never reads as EOF
    while rec := os.read(tasks, _RECORD):
        i = int.from_bytes(rec, "little")
        try:
            conn.send((i, True, fn(items[i])))
        except Exception as e:
            conn.send((i, False, e))


def _in_order(workers, count: int):
    """Results 0..count-1 in item order, whichever worker sends each; an
    item's exception is raised when its turn comes. A worker that dies
    closes its pipe, which raises here instead of leaving the wait to
    hang."""
    from multiprocessing.connection import wait
    live = {conn: p for p, conn in workers}
    done = {}
    for i in range(count):
        while i not in done:
            if not live:
                raise ChildProcessError(f"workers ended without item {i}")
            for conn in wait(list(live)):
                try:
                    j, ok, got = conn.recv()
                except EOFError:
                    p = live.pop(conn)
                    p.join()
                    if p.exitcode:
                        raise ChildProcessError(
                            f"worker {p.pid} died with exit code "
                            f"{p.exitcode}") from None
                    continue
                done[j] = ok, got
        ok, got = done.pop(i)
        if not ok:
            raise got
        yield got


@contextlib.contextmanager
def forked_map(fn: Callable, items: Sequence,
               order: Sequence[int] = None) -> Iterator:
    """Context manager giving an iterator of fn(item) over items, in item
    order; order lists the item indices in the order workers take them
    (default: item order). An item's exception is raised when the
    iterator reaches it, so the error raised is the first in item order
    however the workers finish. Without fork, on one CPU, with fewer than
    two items or inside a worker (a nested map), the iterator computes
    fn lazily in-process instead. No worker outlives the with block,
    however it ends.
    """
    k = min(_cpu_count(), len(items))
    ctx = _fork_context() if k > 1 else None
    if ctx is None:
        yield (fn(x) for x in items)
        return
    import signal
    workers = []
    tasks, feed = os.pipe()
    try:
        # SIGINT and SIGALRM wait until every started worker is on the
        # list, so an interrupt cannot orphan one. The workers inherit
        # the mask and keep it: a Ctrl-C stops the parent, which stops
        # them.
        held = signal.pthread_sigmask(signal.SIG_BLOCK,
                                      {signal.SIGINT, signal.SIGALRM})
        try:
            for _ in range(k):
                conn, end = ctx.Pipe(duplex=False)
                p = ctx.Process(target=_serve, daemon=True,
                                args=(fn, items, tasks, feed, end))
                p.start()
                workers.append((p, conn))
                end.close()  # so a dead worker reads as EOF
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        os.close(tasks)
        tasks = None
        try:
            for i in range(len(items)) if order is None else order:
                os.write(feed, i.to_bytes(_RECORD, "little"))
        except BrokenPipeError:  # every worker is gone; _in_order says why
            pass
        os.close(feed)
        feed = None
        yield _in_order(workers, len(items))
    finally:
        for p, conn in workers:
            p.terminate()
            p.join()
            conn.close()
        for fd in (tasks, feed):
            if fd is not None:
                os.close(fd)
