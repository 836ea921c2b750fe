"""Work split across child processes forked from this one.

The worker count is decided here and nowhere else (``resolve_workers``), and
``split`` is the only way the package forks.  Each child runs in a
``fork``-context process, so it sees this process's memory as it was at the
fork and nothing is pickled on the way in; only its reply is, as one value.
``multiprocessing`` is imported on first use, so importing this module loads
no process machinery.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["resolve_workers", "split"]


def resolve_workers(n_tasks: int | None = None) -> int:
    """Worker process count: the usable CPUs, capped at ``n_tasks`` but at
    least 1; 1 where the ``fork`` start method is missing, so that the work
    runs in the calling process."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpus = cpus or 1
    return cpus if n_tasks is None else min(max(n_tasks, 1), cpus)


@contextmanager
def split(n_items: int, what, fn, *args):
    """Split items 0..n_items-1 into ``resolve_workers(n_items)`` contiguous
    ranges, their sizes differing by at most one, and fork a child running
    ``fn(*args, lo, hi)`` for each range after the first; ``what(lo, hi)``
    names a range's work in errors.

    Yields the first ``(start, stop)``, for the caller to run while the
    children run, and a lazy iterator of the children's replies in range
    order: what ``fn`` returned, or raises what it raised, with its type.  A
    child that dies without replying is a ``RuntimeError`` naming its work.
    Every child is stopped and joined on exit.
    """
    n_parts = resolve_workers(n_items)
    bounds = [n_items * i // n_parts for i in range(n_parts + 1)]
    own, *others = zip(bounds[:-1], bounds[1:])
    children = []
    try:
        for lo, hi in others:
            children.append((what(lo, hi), *_start(fn, *args, lo, hi)))
        yield own, map(_reply, children)
    finally:
        for _, receiver, process in children:
            receiver.close()
            if process.is_alive():
                process.terminate()
            process.join()


def _start(fn, *args):
    """Fork a child that sends back ``fn(*args)``; returns (receiver, process)."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child_main, args=(fn, args, sender))
    try:
        process.start()
    except BaseException:
        receiver.close()
        raise
    finally:
        sender.close()
    return receiver, process


def _reply(child):
    what, receiver, process = child
    try:
        message = receiver.recv()
    except EOFError:
        process.join()
        raise RuntimeError(f"{what} process exited with code {process.exitcode}") from None
    if isinstance(message, Exception):
        raise message
    return message


def _child_main(fn, args, conn) -> None:
    with conn:
        try:
            result = fn(*args)
        except Exception as exc:  # sent to the caller, which raises it
            result = exc
        conn.send(result)
