"""The one rule for how many threads the work uses: one per CPU this
process may run on.

Only independent pieces of work go through :func:`map_in_order`: the
recordings of ``extract --workers N``, the front-end spans of one
recording (``audio.wav_features``, at most 60 s each) and its 60 s
inference windows.  Each piece computes exactly what it would serially,
so outputs are the same bits at any worker count.  ``taskset``, a cgroup
CPU set and a cgroup CPU quota all limit the count, and a pool thread
gets its share of the caller's, so pools started on pool threads
together start no more threads than the count.  Training scores each
epoch on a :func:`side_lane` while the calling thread trains on; the
lane's :func:`map_in_order` leaves one CPU to the caller.

On import, the package (``dynamark/__init__.py`` imports this module) sets
numpy's bundled OpenBLAS to one thread, so the work's only threads are
these and every float result is the same bits at any BLAS thread setting.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

# ``cap`` is set on each thread of a pool that this module starts: the
# workers left to that thread.
_lane = threading.local()


def worker_count() -> int:
    """CPUs in the process's affinity mask (``os.cpu_count()`` where the
    platform has no affinity call), no more than a cgroup CPU quota grants
    and, on a thread of :func:`map_in_order` or :func:`side_lane`, no more
    than that thread's share."""
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:
        count = os.cpu_count() or 1
    for limit in (quota_cpus(), getattr(_lane, "cap", None)):
        if limit is not None:
            count = min(count, limit)
    return max(1, count)


def _read_quota(directory: Path) -> int | None:
    """Whole CPUs (rounded up) that the quota in one cgroup directory
    grants: v2 ``cpu.max`` or v1 ``cpu.cfs_quota_us``; None without one."""
    try:
        quota, period = (directory / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (directory / "cpu.cfs_quota_us").read_text().strip()
            period = (directory / "cpu.cfs_period_us").read_text().strip()
        except OSError:
            return None
    if quota in ("max", "-1"):
        return None
    try:
        return max(1, math.ceil(int(quota) / int(period)))
    except (ValueError, ZeroDivisionError):
        return None


@functools.cache
def quota_cpus(root: Path = Path("/sys/fs/cgroup"),
               membership: Path = Path("/proc/self/cgroup")) -> int | None:
    """The tightest CPU quota on this process's cgroup or any ancestor, in
    whole CPUs; None where there is none or no cgroup to read.

    ``membership`` lists the process's cgroups, one ``id:controllers:path``
    line each (an empty controller list is cgroup v2, mounted at ``root``;
    v1's cpu controller is mounted at ``root/<controllers>``).  Paths that a
    container does not mount are skipped on the walk up to the mount."""
    try:
        lines = membership.read_text().splitlines()
    except OSError:
        return None
    limits = []
    for line in lines:
        parts = line.split(":", 2)
        if len(parts) != 3:
            continue
        _, controllers, path = parts
        if controllers == "":
            mount = root
        elif "cpu" in controllers.split(","):
            mount = root / controllers
        else:
            continue
        directory = mount / path.lstrip("/")
        while True:
            limit = _read_quota(directory)
            if limit is not None:
                limits.append(limit)
            if directory == mount:
                break
            directory = directory.parent
    return min(limits) if limits else None


def _cap_lane(workers: int) -> None:
    _lane.cap = workers


def map_in_order(fn, items, threads: int | None = None) -> list:
    """``[fn(item) for item in items]``, run on ``threads`` threads (by
    default :func:`worker_count`), no more than there are items; one
    thread runs inline.  On each pool thread :func:`worker_count` is the
    caller's divided by the threads, at least one."""
    items = list(items)
    workers = worker_count()
    threads = min(workers if threads is None else threads, len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads, initializer=_cap_lane,
                            initargs=(max(1, workers // threads),)) as pool:
        return list(pool.map(fn, items))


@contextlib.contextmanager
def side_lane():
    """A one-thread executor for work that runs beside the caller's own,
    or None when :func:`worker_count` is 1.  On the lane's thread
    :func:`worker_count` is one less than the caller's, so the caller and
    the lane keep no more threads busy than there are workers."""
    workers = worker_count()
    if workers == 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=1, initializer=_cap_lane, initargs=(workers - 1,)) as lane:
        yield lane


@functools.cache
def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # no such call in this C library
        return None


def release_thread_heaps() -> None:
    """Give the memory that finished pool threads freed back to the OS.

    glibc gives each thread a malloc arena of its own and keeps what the
    thread frees there, up to its trim threshold (twice the largest array
    freed so far, at most 64 MB) per arena.  A process that runs numpy
    work on short-lived threads between other large allocations holds
    that memory on top of its own: a process that five times over
    synthesised four 120 s clips and extracted them on two threads peaked
    at 319-363 MB, against 209 MB serially, and at 249-267 MB with this
    call after each recording of more than one span (2-vCPU box).  Where
    the C library has no ``malloc_trim``, nothing happens.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread through its
    ``scipy_openblas_set_num_threads64_`` call.  OpenBLAS splits a large
    GEMM over its threads, which changes the last bits: at
    ``OPENBLAS_NUM_THREADS=2`` most arrays of a stock training step differed
    from their one-thread bits, from attention on.  Where numpy has no such
    library, nothing changes."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            put = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        except OSError:
            continue
        if put is not None:
            put.argtypes, put.restype = [ctypes.c_int], None
            put(1)


_one_blas_thread()
