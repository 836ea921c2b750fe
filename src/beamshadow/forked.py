"""Work split across child processes forked from this one.

The worker count is decided here and nowhere else (``resolve_workers``), and
``split`` is the only way the package forks.  Each child runs in a
``fork``-context process, so it sees this process's memory as it was at the
fork and nothing is pickled on the way in; only its reply is, as one value.
``multiprocessing`` is imported on first use, so importing this module, or a
split of at most one item, loads no process machinery.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["resolve_workers", "split"]


def resolve_workers(n_tasks: int | None) -> int:
    """Worker process count: the usable CPUs, capped at ``n_tasks`` unless it
    is None, but at least 1; 1, so that the work runs in the calling process,
    for at most one task (without importing ``multiprocessing``) or where the
    ``fork`` start method is missing."""
    if n_tasks is not None and n_tasks <= 1:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpus = cpus or 1
    return cpus if n_tasks is None else min(n_tasks, cpus)


@contextmanager
def split(n_items: int, what, fn, *args):
    """Split items 0..n_items-1 into ``resolve_workers(n_items)`` contiguous
    ranges, their sizes differing by at most one, and fork a child running
    ``fn(*args, lo, hi)`` for each range after the first; ``what(lo, hi)``
    names a range's work in errors.

    Yields a lazy iterator of ``fn(*args, lo, hi)`` for every range, in range
    order: the first runs in the caller when first asked for, while the
    children run, and each raises what its ``fn`` raised, with its type.  A
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
        yield _ranges(fn, args, own, children)
    finally:
        for _, receiver, process in children:
            receiver.close()
            if process.is_alive():
                process.terminate()
            process.join()


def _ranges(fn, args, own, children):
    yield fn(*args, *own)
    yield from map(_reply, children)


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
