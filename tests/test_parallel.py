import sys
import threading

import pytest

from oracles import modules_loaded
from reslab.parallel import thread_map


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [0, 1, 3, 10])
def test_thread_map_keeps_item_order(threads, size):
    # sizes below the thread count leave no thread idle: there are fewer shares
    items = range(100, 100 + size)
    assert thread_map(lambda x: x * x, items, threads) == [x * x for x in items]


def test_thread_map_loses_no_result_under_frequent_switches():
    # more threads than cores, switching every microsecond
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert thread_map(lambda x: -x, range(997), 8) == [-x for x in range(997)]
    finally:
        sys.setswitchinterval(interval)


def test_thread_map_runs_the_shares_at_once_one_on_the_caller():
    barrier = threading.Barrier(3, timeout=10)
    seen = {}

    def record(item):
        if item < 3:   # each share's first item: the three threads are all alive
            barrier.wait()
        seen[item] = threading.get_ident()
        return item

    assert thread_map(record, range(6), 3) == list(range(6))
    assert seen[0] == seen[3] == threading.get_ident()
    assert len({seen[0], seen[1], seen[2]}) == 3


@pytest.mark.parametrize("bad", [0, 1, 5], ids=["caller's share", "started thread", "last item"])
def test_thread_map_raises_from_any_share_and_joins_its_threads(bad):
    before = threading.active_count()

    def fn(item):
        if item == bad:
            raise ValueError(f"item {item}")
        return item

    with pytest.raises(ValueError, match=f"item {bad}"):
        thread_map(fn, range(6), 3)
    assert threading.active_count() == before


def test_thread_map_raises_the_lowest_failing_share():
    def fn(item):
        if item in (1, 2):
            raise ValueError(f"item {item}")
        return item

    with pytest.raises(ValueError, match="item 1"):
        thread_map(fn, range(6), 3)


def test_thread_map_leaves_no_thread_behind():
    before = threading.active_count()
    assert thread_map(str, range(8), 4) == [str(i) for i in range(8)]
    assert threading.active_count() == before


def test_thread_map_does_not_import_the_pool():
    code = ("from reslab.parallel import thread_map\n"
            "assert thread_map(abs, range(-4, 4), 4) == [4, 3, 2, 1, 0, 1, 2, 3]")
    assert modules_loaded(code, ["concurrent.futures"]) == []
