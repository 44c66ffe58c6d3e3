"""Forked workers for independent items, read back in item order.

forked_map(fn, items) starts up to one fork worker per CPU. Each takes
the next item index off one shared task pipe, computes fn(item) and
sends the index with the result, or with the exception fn raised, over
its own result pipe. Task records are 4-byte writes, so each write
is atomic (under PIPE_BUF) and each read takes one whole record; no lock
is shared, so a worker killed from outside leaves nothing held and its
result pipe reads as EOF. Workers inherit fn and items through fork:
nothing is pickled but the results. multiprocessing is imported only
when workers start, so importing satcirc does not load it.

The parent counts as one CPU when it has work of its own (forked_map's
own): it forks one worker fewer, runs that work while the workers
start on the items, and then takes item indices off the same task pipe
as they do. Without work of its own it only waits for the workers.
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


def _attempt(fn, item) -> tuple:
    """(True, fn(item)), or (False, the exception fn raised)."""
    try:
        return True, fn(item)
    except Exception as e:
        return False, e


def _take(tasks: int):
    """The next item index on the task pipe, or None once it is empty."""
    rec = os.read(tasks, _RECORD)
    return int.from_bytes(rec, "little") if rec else None


def _serve(fn, items, tasks: int, feed: int, conn):
    """A worker: send fn's result or exception for each item index it
    takes, until the task pipe is empty. It goes on after an exception,
    because an item before the failing one may still be in the pipe
    when items are not taken in item order."""
    os.close(feed)  # else the task pipe never reads as EOF
    while (i := _take(tasks)) is not None:
        conn.send((i, *_attempt(fn, items[i])))


def _receive(live: dict, done: dict, timeout):
    """Move the results the workers have sent into done, waiting up to
    timeout (None: until one comes). A worker that dies closes its pipe,
    which raises here instead of leaving the wait to hang."""
    from multiprocessing.connection import wait
    for conn in wait(list(live), timeout):
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


def _in_order(workers, fn, items, tasks):
    """Results 0..len(items)-1 in item order, whichever process computes
    each; an item's exception is raised when its turn comes. With a task
    pipe (tasks not None) the parent takes items too: before each, it
    reads the results already waiting, and once the pipe is empty, or
    an item it took has failed, it waits for the workers: after a
    failure only the items before it still matter, and those are in
    the workers' hands or still in the pipe for them."""
    live = {conn: p for p, conn in workers}
    done = {}
    for i in range(len(items)):
        while i not in done:
            if live:
                _receive(live, done, None if tasks is None else 0)
            elif tasks is None:
                raise ChildProcessError(f"workers ended without item {i}")
            if tasks is not None and i not in done:
                j = _take(tasks)
                if j is None:
                    tasks = None
                else:
                    done[j] = _attempt(fn, items[j])
                    if not done[j][0]:
                        tasks = None
        ok, got = done.pop(i)
        if not ok:
            raise got
        yield got


@contextlib.contextmanager
def forked_map(fn: Callable, items: Sequence, order: Sequence[int] = None,
               own: Callable = None) -> Iterator[tuple]:
    """Context manager giving (own(), an iterator of fn(item) over items
    in item order); order lists the item indices in the order they are
    taken (default: item order). own is the caller's own work, or None.

    Without own, min(CPUs, items) workers start and the parent only
    waits for them. With own, the parent counts as one CPU: at most
    CPUs - 1 workers start, the parent runs own() while they take items,
    and once own returns it takes items off the same task pipe, each
    after reading the results already waiting. own's exception is raised
    before any item's. An item's exception is raised when the iterator
    reaches it, so the error raised is the first in item order however
    the items finish. Once an item the parent took fails, it takes no
    more and waits only for the items before it, so an Exception raised
    in the parent (a timeout from a signal handler, say) ends the map
    as soon as those are done; taken in item order, they are the items
    the workers hold then. A BaseException such as KeyboardInterrupt
    leaves at once. Where no worker would start (one CPU, or one item
    and no own), without fork or inside a worker (a nested map), own
    and then fn run lazily in-process instead. No worker outlives the
    with block, however it ends.
    """
    k = min(_cpu_count() - (own is not None), len(items))
    # a parent that only waits gains nothing from forking one item
    ctx = _fork_context() if k >= (1 if own else 2) else None
    if ctx is None:
        yield (own() if own else None), (fn(x) for x in items)
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
        if own is None:
            os.close(tasks)
            tasks = None
        try:
            for i in range(len(items)) if order is None else order:
                os.write(feed, i.to_bytes(_RECORD, "little"))
        except BrokenPipeError:  # every worker is gone; _in_order says why
            pass
        os.close(feed)
        feed = None
        mine = own() if own else None
        yield mine, _in_order(workers, fn, items, tasks)
    finally:
        for p, conn in workers:
            p.terminate()
            p.join()
            conn.close()
        for fd in (tasks, feed):
            if fd is not None:
                os.close(fd)
