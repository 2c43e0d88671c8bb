"""Thread-pool helper for the embarrassingly parallel loops.

Its one caller is ``oscillatory.quadrature_oscillatory``, which hands it the
node chunks of one integral; numpy releases the interpreter lock inside the
chunk arithmetic, so the threads overlap.  Workers only read immutable inputs
and results are returned in submission order, so output is identical for any
thread count.
"""

from __future__ import annotations

import os


def resolve_threads(threads: int = 0) -> int:
    """0 means all cores."""
    return threads if threads > 0 else os.cpu_count() or 1


def thread_map(fn, items, threads: int = 0) -> list:
    n = resolve_threads(threads)
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported on first use: loading concurrent.futures adds 10-20 ms to
    # every `import reslab`, and most commands never start a pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
