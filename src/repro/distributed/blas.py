"""The BLAS thread pool of a data-parallel rank.

Every product that records a graph node runs as one GEMM over all rows
(docs/autograd.md "GEMM shapes"), in process and in every rank.  A
GEMM that large crosses OpenBLAS's multithreading threshold, so W ranks
that each kept the caller's pool would run W pools on the same CPUs.
A rank of a group of ``world_size >= 2`` therefore lowers OpenBLAS to
its share of the CPUs it may run on, ``max(1, usable_cpus //
world_size)``, when it starts.  It never raises the count, and it never
touches the caller's own process: in-process training and world 1 keep
the pool they were given.

The limit goes through OpenBLAS's runtime API, found among the loaded
libraries (``/proc/self/maps``).  In a forked rank the setter itself
starts a pool (the parent's workers do not survive the fork), and a
worker of that pool spins next to the rank's own thread; so when the
share is one thread, the rank stops the pool again with OpenBLAS's
exported ``blas_thread_shutdown_``.  Where no setter is found the rank
runs unlimited and says so in its ``worker``/``blas`` event.

Only the OpenBLAS that numpy's GEMMs run in is limited.  Another loaded
copy (scipy bundles its own) keeps its pool: none in a forked rank, and
in a spawned rank the idle pool it starts at import, which the event's
``workers`` count shows.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from typing import Callable

__all__ = ["OpenBLAS", "find_openblas", "limit_blas_threads", "usable_cpus"]

# Setter names in order of preference.  numpy's wheels bundle an ILP64
# build, whose symbols carry the ``64_`` suffix; scipy's own copy is
# LP64, so trying the suffixed names first finds the library numpy's
# GEMMs run in.
_PREFIXES = ("scipy_openblas", "openblas")
_SETTERS = tuple(f"{prefix}_set_num_threads{suffix}"
                 for suffix in ("64_", "") for prefix in _PREFIXES)


@dataclass(frozen=True)
class OpenBLAS:
    """One loaded OpenBLAS library's thread controls."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    shutdown: Callable[[], object] | None  # stops the worker pool


def _loaded_libraries(maps: str = "/proc/self/maps") -> list[str]:
    """Paths of the loaded shared objects whose name says OpenBLAS."""
    try:
        with open(maps) as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    paths: list[str] = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if (len(fields) == 6 and "openblas" in os.path.basename(fields[5])
                and fields[5] not in paths):
            paths.append(fields[5])
    return paths


def find_openblas() -> OpenBLAS | None:
    """The loaded OpenBLAS that exports a thread-count setter and its
    getter, or ``None``."""
    libraries = []
    for path in _loaded_libraries():
        try:
            libraries.append((path, ctypes.CDLL(path)))
        except OSError:
            continue
    for setter_name in _SETTERS:
        getter_name = setter_name.replace("_set_", "_get_")
        for path, library in libraries:
            setter = getattr(library, setter_name, None)
            getter = getattr(library, getter_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return OpenBLAS(path, getter, setter,
                            getattr(library, "blas_thread_shutdown_", None))
    return None


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _native_threads() -> int | None:
    """This process's threads that Python's ``threading`` does not know
    (OpenBLAS's workers); ``None`` without ``/proc/self/task``."""
    try:
        return len(os.listdir("/proc/self/task")) - threading.active_count()
    except OSError:
        return None


def limit_blas_threads(world_size: int) -> dict:
    """Lower OpenBLAS to this rank's share of the CPUs and report it.

    Returns the ``worker``/``blas`` event fields: ``threads_before`` and
    ``threads_after`` (``None`` when no setter was found), ``library``
    and ``workers``, the threads left running outside Python's
    ``threading``.  At world size 1 nothing changes.
    """
    blas = find_openblas()
    before = after = None
    if blas is not None:
        before = after = blas.get_threads()
        share = max(1, usable_cpus() // world_size)
        if world_size > 1 and share < before:
            blas.set_threads(share)
            if share == 1 and blas.shutdown is not None:
                blas.shutdown()
            after = blas.get_threads()
    return {"threads_before": before, "threads_after": after,
            "library": None if blas is None else blas.path,
            "workers": _native_threads()}
