"""Work handed to a child process forked from this one.

A ``Child`` runs ``fn(*args)`` in a ``fork``-context process, so it sees
this process's memory as it was at the fork and nothing is pickled on the
way in.  It sends back over a pipe what ``fn`` returned, or the exception
``fn`` raised, which ``reply`` raises again here with its own type; a child
that dies without replying is a ``RuntimeError``.  A list result goes as its
length and then one message per item, each a byte string, so the caller can
write every item as it arrives instead of holding them all.

``multiprocessing`` is imported when the first child starts, so importing
this module loads no process machinery.
"""

from __future__ import annotations

__all__ = ["Child", "ranges"]


def ranges(n_items: int, n_parts: int) -> list[tuple[int, int]]:
    """``n_parts`` contiguous ``(start, stop)`` ranges covering 0..n_items-1
    in order, their sizes differing by at most one."""
    bounds = [n_items * i // n_parts for i in range(n_parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


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
        """What ``fn`` returned (a list: its length); raises what ``fn`` raised."""
        message = self._receive(self._receiver.recv)
        if isinstance(message, Exception):
            raise message
        return message

    def chunks(self):
        """The byte strings of a list result, one at a time as they arrive."""
        for _ in range(self.reply()):
            yield self._receive(self._receiver.recv_bytes)

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
            conn.send(len(result))
            for item in result:
                conn.send_bytes(item)
        else:
            conn.send(result)
    finally:
        conn.close()
