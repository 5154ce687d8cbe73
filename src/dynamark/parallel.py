"""The one rule for how many threads inference uses: one per CPU this
process may run on.

Only independent pieces of work go through :func:`map_in_order`: the
front-end spans of one recording (``audio.wav_features``, at most 60 s
each) and its 60 s inference windows.  Each piece computes exactly what
it would serially, so outputs are the same bits at any worker count.
``taskset``, a cgroup CPU set and a cgroup CPU quota all limit the
count; ``extract --workers N`` gives each of its N processes an equal
share through :func:`share_cpus`.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# Set in each of extract's worker processes: that process's share of the CPUs.
_share: int | None = None


def worker_count() -> int:
    """CPUs in the process's affinity mask (``os.cpu_count()`` where the
    platform has no affinity call), no more than a cgroup CPU quota grants
    and no more than this process's share set by :func:`share_cpus`."""
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:
        count = os.cpu_count() or 1
    quota = quota_cpus()
    if quota is not None:
        count = min(count, quota)
    if _share is not None:
        count = min(count, _share)
    return max(1, count)


def share_cpus(n_processes: int) -> None:
    """Limit this process to 1/``n_processes`` of :func:`worker_count`, at
    least one thread: the initializer of each of ``n_processes`` worker
    processes, so that together they start no more threads than CPUs."""
    global _share
    _share = max(1, worker_count() // n_processes)


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


def map_in_order(fn, items) -> list:
    """``[fn(item) for item in items]``, run on up to :func:`worker_count`
    threads; a single item, or a single worker, runs inline."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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
