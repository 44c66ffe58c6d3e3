"""workers.forked_map with and without the parent's own work: item order,
which error wins, how many workers start, and none left over."""

import multiprocessing
import os
import signal
import time
import types

import pytest

from satcirc import workers as W
from test_compile import _wait_for


@pytest.fixture
def cpus(monkeypatch):
    """A setter for the number of CPUs forked_map believes it has; it
    returns the list of the workers started from then on."""
    real = W._fork_context
    started = []

    def counting():
        ctx = real()
        if ctx is None:
            return None

        class Process(ctx.Process):
            def start(self):
                started.append(self)
                super().start()

        return types.SimpleNamespace(Pipe=ctx.Pipe, Process=Process)

    monkeypatch.setattr(W, "_fork_context", counting)

    def set_cpus(k):
        started.clear()
        monkeypatch.setattr(W, "_cpu_count", lambda: k)
        return started

    return set_cpus


def _square(x):
    return x * x


@pytest.mark.parametrize("own", [None, lambda: "mine"],
                         ids=["no-own-work", "own-work"])
def test_results_are_the_same_in_item_order_on_1_2_and_3_cpus(cpus, own):
    items = list(range(40))
    got = {}
    for k in (1, 2, 3):
        started = cpus(k)
        with W.forked_map(_square, items, items[::-1], own=own) as (mine, it):
            got[k] = mine, list(it)
        # the parent counts as one CPU only when it has work of its own
        assert len(started) == (k - 1 if own else k if k > 1 else 0)
        assert multiprocessing.active_children() == []
    want = (own() if own else None), [x * x for x in items]
    assert got == {1: want, 2: want, 3: want}


def test_one_item_forks_only_beside_own_work(cpus):
    started = cpus(2)
    with W.forked_map(_square, [3]) as (_, it):
        assert list(it) == [9]
    assert started == []
    with W.forked_map(_square, [3], own=lambda: 0) as (_, it):
        assert list(it) == [9]
    assert len(started) == 1


def test_own_work_error_is_raised_before_any_item_error(cpus):
    def fail(x):
        raise ValueError(f"item {x}")

    def own():
        raise KeyError("own work")

    for k in (1, 2, 3):
        cpus(k)
        with pytest.raises(KeyError, match="own work"):
            with W.forked_map(fail, list(range(6)), own=own) as (_, it):
                list(it)
        assert multiprocessing.active_children() == []


def test_an_item_failing_in_the_parent_raises_at_its_turn(cpus, tmp_path):
    parent = os.getpid()
    mark = tmp_path / "item-0-taken"

    def fn(x):
        if os.getpid() == parent:
            raise ValueError(f"parent failed item {x}")
        if x == 0:  # hold item 0 while the parent takes the rest
            mark.touch()
            time.sleep(0.3)
        return x

    cpus(2)
    seen = []
    with pytest.raises(ValueError, match="parent failed item 1"):
        with W.forked_map(fn, list(range(5)),
                          own=lambda: _wait_for(mark)) as (ready, it):
            assert ready
            for x in it:
                seen.append(x)
    assert seen == [0]
    assert multiprocessing.active_children() == []


def test_the_parent_takes_no_item_after_one_fails_there(cpus, tmp_path):
    parent, taken = os.getpid(), []
    mark = tmp_path / "item-0-taken"

    def fn(x):
        if os.getpid() == parent:
            taken.append(x)
            raise ValueError(f"parent failed item {x}")
        if x == 0:  # hold item 0 while the parent takes the next
            mark.touch()
        time.sleep(0.05)
        return x

    cpus(2)
    with pytest.raises(ValueError, match="parent failed item 1"):
        with W.forked_map(fn, list(range(20)),
                          own=lambda: _wait_for(mark)) as (_, it):
            list(it)
    # it waits for item 0 instead of taking items 2, 3, ...
    assert taken == [1]
    assert multiprocessing.active_children() == []


def test_a_worker_killed_while_the_parent_computes_raises(cpus, tmp_path):
    parent = os.getpid()
    mark = tmp_path / "worker-dying"

    def fn(x):
        if os.getpid() != parent:
            mark.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    cpus(2)
    with pytest.raises(ChildProcessError, match="died with exit code -9"):
        with W.forked_map(fn, list(range(4)),
                          own=lambda: _wait_for(mark)) as (ready, it):
            assert ready
            list(it)
    assert multiprocessing.active_children() == []
