"""Run the second half of an ordered list of items in one forked child while the parent runs the first.

The dataset writer and loader spend their time in Python's float formatting
and JSON decoding, which one process cannot run on two CPUs. Where the
process may run on two CPUs or more and ``os.fork`` exists, ``in_halves``
forks one child for the second half of the items; anywhere else the same
loop runs in-process. No result depends on which path runs.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable, Iterable, Iterator, Sequence

__all__ = ["in_halves", "split_at"]


def _cpu_count() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def split_at(n: int) -> int:
    """The position of the child's first item among ``n``."""
    return n // 2


def in_halves(items: Sequence, work: Callable[[Sequence], Iterable]) -> Iterator:
    """Yield the results of ``work(items)``, one per item, in order.

    With two CPUs or more and two items or more, a forked child runs
    ``work(items[split_at(n):])`` into its own memory while the caller
    consumes ``work`` over the first half; the child's results then arrive
    one pickle per item over a pipe. ``work`` must open what it reads in the
    child itself: an inherited file handle shares its offset with the
    parent's. An exception in the child is raised here with its type and
    message once the parent's half is done, so the first fault in item order
    wins. The child is killed if the parent stops first, and reaped on every
    path; close this generator (``contextlib.closing``) so that a caller's
    own failure stops it too.
    """
    if len(items) < 2 or _cpu_count() < 2:
        yield from work(items)
        return
    h = split_at(len(items))
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare (EAGAIN, ENOMEM): the same loop runs in-process
        os.close(read)
        os.close(write)
        yield from work(items)
        return
    if pid == 0:
        _run_child(read, write, work, items[h:])
    os.close(write)
    left = len(items) - h  # the child's results not yet received
    try:
        with os.fdopen(read, "rb") as pipe:
            yield from work(items[:h])
            while left:
                try:
                    ok, result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(f"the forked child {pid} ended before its results") from None
                left -= 1
                if not ok:
                    raise result
                yield result
    finally:
        if left:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _run_child(read: int, write: int, work: Callable[[Sequence], Iterable], items: Sequence) -> None:
    """The child: ``work(items)`` into memory, then each result and any exception into the pipe; never returns.

    It ends in ``os._exit`` on every path, so the buffers it inherited (an
    open output file, stdout) are never flushed a second time.
    """
    code = 1
    try:
        os.close(read)
        with os.fdopen(write, "wb") as pipe:
            results, error = [], None
            try:
                results.extend(work(items))
            except BaseException as exc:  # sent to the parent, which raises it
                error = exc
            for result in results:
                pickle.dump((True, result), pipe)
            if error is not None:
                pipe.write(_error_pickle(error))
        code = 0
    finally:
        os._exit(code)


def _error_pickle(error: BaseException) -> bytes:
    """The pickled record of ``error``, or of a ``RuntimeError`` naming it if it does not survive a round trip."""
    try:
        data = pickle.dumps((False, error))
        pickle.loads(data)
        return data
    except Exception:  # an exception whose arguments do not rebuild it
        return pickle.dumps((False, RuntimeError(f"{type(error).__name__}: {error}")))
