"""The thread runner shared by feature extraction and head training.

`run_shares` runs a partition of work items over threads: share 0 on the
calling thread, every other share on a short-lived helper, joined before the
call returns.  numpy releases the interpreter lock inside the ufuncs and
matrix products that do the work, so the shares overlap.  glibc gives every
thread that allocates its own malloc arena, which keeps about as much freed
memory as the largest temporaries that thread made, so working in the caller
saves one arena, and callers keep what a helper allocates small.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, List, Sequence, TypeVar

MAX_THREADS = 4  # threads per call, the calling thread included

T = TypeVar("T")


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def blas_threads() -> int:
    """Threads a BLAS matrix product may run on.

    OpenBLAS reads OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS, when numpy
    loads it, and runs on every CPU when neither is set.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpu_count()


def run_shares(task: Callable[[int, int], T], shares: Sequence[Sequence[int]]) -> List[T]:
    """`task(k, i)` for every item i of `shares[k]`, in share order; results by item.

    The shares partition range(n) for some n; share 0 runs on the calling
    thread and every other share on its own helper thread, each joined
    before the call returns.  A share stops at its first failing item, and
    the lowest failing item's exception is raised in the caller.
    """
    results: List[T] = [None] * sum(len(share) for share in shares)
    failures = [None] * len(shares)  # (item, exception) of each share's first failing item

    def work(k: int) -> None:
        for i in shares[k]:
            try:
                results[i] = task(k, i)
            except Exception as exc:  # raised again in the caller below
                failures[k] = (i, exc)
                return

    helpers = [threading.Thread(target=work, args=(k,)) for k in range(1, len(shares))]
    for helper in helpers:
        helper.start()
    try:
        work(0)
    finally:
        for helper in helpers:
            helper.join()
    failed = [f for f in failures if f is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results
