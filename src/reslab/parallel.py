"""Thread helper for the embarrassingly parallel loops.

Its one caller is ``oscillatory.quadrature_oscillatory``, which hands it the
node chunks of one integral; numpy releases the interpreter lock inside the
chunk arithmetic, so the threads overlap.  With n threads, n - 1 are started
and the calling thread works the first share itself.  Workers only read
immutable inputs and results are returned in item order, so output is
identical for any thread count.
"""

from __future__ import annotations

import os
import threading


def resolve_threads(threads: int = 0) -> int:
    """0 means all cores."""
    return threads if threads > 0 else os.cpu_count() or 1


def thread_map(fn, items, threads: int = 0) -> list:
    """[fn(it) for it in items] on ``threads`` threads, the caller one of them.

    Share k holds items k, k + n, k + 2n, ...; every thread is joined before
    this returns, and then the exception of the lowest-numbered failing share,
    if any, is raised."""
    items = list(items)
    n = max(1, min(resolve_threads(threads), len(items)))
    results, errors = [None] * len(items), [None] * n

    def share(k: int) -> None:
        try:
            results[k::n] = [fn(it) for it in items[k::n]]
        except BaseException as exc:   # raised below, once every thread is joined
            errors[k] = exc

    workers = [threading.Thread(target=share, args=(k,)) for k in range(1, n)]
    for w in workers:
        w.start()
    share(0)
    for w in workers:
        w.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
