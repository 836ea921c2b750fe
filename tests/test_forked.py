"""The split helper every forked path goes through: range order, the first
range in the caller, child errors, and no process left behind."""

import multiprocessing
import os
import signal
import time

import pytest

from beamshadow import forked
from test_experiment import needs_fork


def items_named(lo, hi):
    return f"items {lo}-{hi - 1}"


def echo(tag, lo, hi):
    return (tag, os.getpid(), lo, hi)


def patch_workers(monkeypatch, workers):
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: min(n, workers))


@needs_fork
@pytest.mark.parametrize(
    "workers, ranges",
    [(1, [(0, 5)]), (2, [(0, 2), (2, 5)]), (3, [(0, 1), (1, 3), (3, 5)])],
)
def test_results_come_back_in_range_order(monkeypatch, workers, ranges):
    patch_workers(monkeypatch, workers)
    with forked.split(5, items_named, echo, "tag") as results:
        got = list(results)
    assert [(lo, hi) for _, _, lo, hi in got] == ranges
    assert all(tag == "tag" for tag, _, _, _ in got)
    # the first range runs in the caller, every other in a child of its own
    pids = [pid for _, pid, _, _ in got]
    assert pids[0] == os.getpid() and os.getpid() not in pids[1:]
    assert not multiprocessing.active_children()


def test_zero_items_run_one_empty_range_and_fork_nothing():
    with forked.split(0, items_named, echo, "tag") as results:
        assert list(results) == [("tag", os.getpid(), 0, 0)]
    assert not multiprocessing.active_children()


# the caller runs range 0 itself, so these fail, die or sleep only in a child's range


def fail(lo, hi):
    if lo > 0:
        raise FloatingPointError(f"planted in process {os.getpid()}")


@needs_fork
def test_child_exception_keeps_its_type(monkeypatch):
    patch_workers(monkeypatch, 2)
    with pytest.raises(FloatingPointError, match="planted in process") as info:
        with forked.split(4, items_named, fail) as results:
            list(results)
    assert str(info.value) != f"planted in process {os.getpid()}"
    assert not multiprocessing.active_children()


def die(lo, hi):
    if lo > 0:
        os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
def test_killed_child_is_a_runtime_error_naming_its_work(monkeypatch):
    patch_workers(monkeypatch, 3)
    message = f"items 1-2 process exited with code -{int(signal.SIGKILL)}"
    with pytest.raises(RuntimeError, match=message):
        with forked.split(5, items_named, die) as results:
            list(results)
    assert not multiprocessing.active_children()


def sleep_unless_first(lo, hi):
    if lo > 0:
        time.sleep(60)
    else:
        raise ValueError("caller failed")


@needs_fork
def test_children_still_running_are_stopped_when_the_callers_range_fails(monkeypatch):
    patch_workers(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(ValueError, match="caller failed"):
        with forked.split(3, items_named, sleep_unless_first) as results:
            list(results)
    assert time.monotonic() - start < 30
    assert not multiprocessing.active_children()
