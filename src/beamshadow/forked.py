"""Work split across child processes forked from this one.

The worker count is decided here and nowhere else (``resolve_workers``), and
every split of items into contiguous ranges goes through ``split``.  A
``Child`` runs in a ``fork``-context process, so it sees this process's
memory as it was at the fork and nothing is pickled on the way in; only its
reply is.  ``multiprocessing`` is imported on first use, so importing this
module loads no process machinery.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["Child", "resolve_workers", "split"]


def resolve_workers(n_tasks: int | None = None) -> int:
    """Worker process count: the usable CPUs, capped at ``n_tasks``.

    1 where the ``fork`` start method is missing; the work then runs in the
    calling process.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpus = cpus or 1
    return cpus if n_tasks is None else min(n_tasks, cpus)


@contextmanager
def split(n_items: int, what, fn, *args):
    """Split items 0..n_items-1 into ``resolve_workers(n_items)`` contiguous
    ranges, their sizes differing by at most one, and fork a ``Child``
    running ``fn(*args, lo, hi)`` for each range after the first;
    ``what(lo, hi)`` names a range's work in errors.

    Yields the first ``(start, stop)``, for the caller to run while the
    children run, and a lazy iterator of the children's replies in range
    order (see ``Child.reply``).  Every child is stopped and joined on exit.
    """
    n_parts = resolve_workers(n_items)
    bounds = [n_items * i // n_parts for i in range(n_parts + 1)]
    own, *others = zip(bounds[:-1], bounds[1:])
    children = []
    try:
        for lo, hi in others:
            children.append(Child(what(lo, hi), fn, *args, lo, hi))
        yield own, (child.reply() for child in children)
    finally:
        for child in children:
            child.close()


class Child:
    """``fn(*args)`` running in a forked child; ``what`` names it in errors."""

    def __init__(self, what: str, fn, *args):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.what = what
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(target=_child_main, args=(fn, args, sender))
        try:
            process.start()
        except BaseException:
            receiver.close()
            raise
        finally:
            sender.close()
        self._receiver, self._process = receiver, process

    def _receive(self, recv):
        try:
            return recv()
        except EOFError:
            self._process.join()
            raise RuntimeError(
                f"{self.what} process exited with code {self._process.exitcode}"
            ) from None

    def reply(self):
        """What ``fn`` returned, or raises what ``fn`` raised.  A list of byte
        strings comes as an iterator of its items, each read as it arrives,
        so the caller need not hold them all; a child that dies without
        replying is a ``RuntimeError`` naming its work."""
        message = self._receive(self._receiver.recv)
        if isinstance(message, Exception):
            raise message
        if isinstance(message, range):  # a list: one message per item follows
            return (self._receive(self._receiver.recv_bytes) for _ in message)
        return message

    def close(self) -> None:
        """Stop the child if it still runs, and wait for it to end."""
        self._receiver.close()
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()


def _child_main(fn, args, conn) -> None:
    try:
        try:
            result = fn(*args)
        except Exception as exc:  # sent to the caller, which raises it
            conn.send(exc)
            return
        if isinstance(result, list):
            conn.send(range(len(result)))
            for item in result:
                conn.send_bytes(item)
        else:
            conn.send(result)
    finally:
        conn.close()
