"""The two-halves runner: order, the forked child's results and faults, and no child left behind."""

import os
import time
from contextlib import closing

import pytest
from util import assert_no_child_left

from ovlab import forked


@pytest.fixture(params=[1, 2], ids=["one_cpu", "two_cpus"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(forked, "_cpu_count", lambda: request.param)
    return request.param


def _pids(items):
    """Each item with the id of the process that handled it."""
    return ((item, os.getpid()) for item in items)


def _lowest_free_fds() -> tuple[int, int]:
    """The two descriptors a new pipe gets, which tell whether an earlier one was left open."""
    fds = os.pipe()
    for fd in fds:
        os.close(fd)
    return fds


class _Unpicklable(ValueError):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _failing_at(bad: dict):
    """A work function that raises ``bad[item]`` at that item and passes every other item through."""
    def work(items):
        for item in items:
            if item in bad:
                raise bad[item]
            yield item
    return work


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8])
def test_results_arrive_in_order_and_the_second_half_in_a_child(cpus, n):
    results = list(forked.in_halves(list(range(n)), _pids))
    assert [item for item, _ in results] == list(range(n))
    forked_half = [item for item, pid in results if pid != os.getpid()]
    assert forked_half == (list(range(forked.split_at(n), n)) if cpus == 2 and n >= 2 else [])
    assert_no_child_left()


@pytest.mark.parametrize("error", [KeyError("rpn"), ValueError("line 9 is bad"), _Unpicklable(1, 2)],
                         ids=["key", "value", "unpicklable"])
def test_a_fault_of_the_second_half_is_raised_with_its_type_and_message(cpus, error):
    work = _failing_at({6: error})
    got = []
    with pytest.raises(Exception) as raised:
        got.extend(forked.in_halves(list(range(8)), work))
    assert got == list(range(6))
    if cpus == 2 and isinstance(error, _Unpicklable):  # it cannot be rebuilt from its arguments, so it is named
        assert type(raised.value) is RuntimeError and str(raised.value) == "_Unpicklable: 1 and 2"
    else:
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
    assert_no_child_left()


def test_the_first_fault_in_item_order_wins(cpus):
    work = _failing_at({1: ValueError("first"), 7: ValueError("second")})
    with pytest.raises(ValueError, match="^first$"):
        list(forked.in_halves(list(range(8)), work))
    assert_no_child_left()


def test_a_parent_whose_half_fails_kills_the_child_rather_than_wait_for_it(monkeypatch):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 2)

    def work(items):
        for item in items:
            if item == 0:
                raise ValueError("first")
            time.sleep(30)  # the child's half would take a minute
            yield item

    start = time.monotonic()
    with pytest.raises(ValueError, match="^first$"):
        list(forked.in_halves([0, 1, 2, 3], work))
    assert time.monotonic() - start < 15
    assert_no_child_left()


def test_a_caller_that_stops_early_leaves_no_child(cpus):
    with pytest.raises(OSError, match="disk full"), closing(forked.in_halves(list(range(8)), _pids)) as results:
        for item, _ in results:
            if item == 2:
                raise OSError("disk full")
    assert_no_child_left()


def test_a_fork_that_fails_runs_every_item_in_process(monkeypatch):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 2)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    free = _lowest_free_fds()
    assert list(forked.in_halves(list(range(4)), _pids)) == [(item, os.getpid()) for item in range(4)]
    assert _lowest_free_fds() == free  # the pipe was closed


def test_a_child_that_dies_without_its_results_is_an_error(monkeypatch):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
    parent = os.getpid()

    def work(items):
        for item in items:
            if os.getpid() != parent:
                os._exit(3)
            yield item

    with pytest.raises(RuntimeError, match="^the forked child [0-9]+ ended before its results$"):
        list(forked.in_halves(list(range(4)), work))
    assert_no_child_left()
