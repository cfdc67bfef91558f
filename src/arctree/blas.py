"""One BLAS thread while a continuation runs.

numpy and scipy each load their own OpenBLAS from the ``<package>.libs``
directory of their wheels.  ``one_blas_thread`` sets every such library
to one thread and restores its count afterwards; the tree engine and
both baselines run under it.  Where no such library is found (another
BLAS, another install layout), it changes nothing.  Runs that overlap
on several threads share one hold, released when the last of them ends.

The first hold in a process also raises glibc's heap trim threshold to
HEAP_TRIM_THRESHOLD (``keep_freed_heap``), so that the temporaries a
corrector step frees stay in the heap for the next step instead of
going back to the kernel, to be faulted in again.  Where libc has no
``mallopt`` it changes nothing.

Both settings pay above the packaged n=128 grid, not on it (2-core host,
KS runs from the packaged profile zero-padded by FFT; README has the
figures).  At n=128 OpenBLAS does not split a step (a residual, the
bordered LU and a whole step each ran at CPU/wall 1.00 with 2 BLAS
threads allowed), and a run took the same minor page faults with or
without the threshold.  At n=256, without the hold, 1 worker used twice
its wall time in CPU and 2 workers ran about 1.8 times slower; without
the threshold a run took about 50 thousand faults, against 0-1.  At
n=512 on 1 worker, a run took 4.8-5.8 s without the hold and 2.2-2.5 s
without the threshold, against 1.7-1.9 s.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache
from importlib.util import find_spec
from pathlib import Path
from typing import Callable, Iterator

# (prefix, suffix) of the C thread-count functions: numpy's wheels ship an
# ILP64 build with a 64_ suffix, scipy's an LP64 one; both prefix scipy_.
_SYMBOLS = (
    ("scipy_openblas", "64_"),
    ("scipy_openblas", ""),
    ("openblas", "64_"),
    ("openblas", ""),
)


@cache
def thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of each OpenBLAS numpy and scipy load."""
    controls = []
    for package in ("numpy", "scipy"):
        # find_spec locates a package without importing it.
        spec = find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs = Path(spec.origin).parents[1] / f"{package}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for prefix, suffix in _SYMBOLS:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    controls.append((get, put))
                    break
    return tuple(controls)


# glibc's mallopt parameter number for the trim threshold (malloc.h), and
# the free space a heap keeps at its top before glibc returns it: 32 MiB,
# so that no temporary a step frees is returned between steps.
_M_TRIM_THRESHOLD = -1
HEAP_TRIM_THRESHOLD = 32 * 1024 * 1024


@cache
def keep_freed_heap() -> bool:
    """Set glibc's heap trim threshold to HEAP_TRIM_THRESHOLD, once.

    Returns whether libc took the setting; False where it has no mallopt.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return False
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD))


# Thread counts are process-wide, so overlapping holds on several threads
# share one: the first to enter saves the counts and pins them, the last to
# exit restores them.
_hold_lock = threading.Lock()
_holders = 0
_saved: list[int] = []


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with every found OpenBLAS on one thread.

    Holds may overlap across threads; the counts seen by the first to
    enter come back when the last one exits.
    """
    global _holders, _saved
    controls = thread_controls()
    with _hold_lock:
        if _holders == 0:
            keep_freed_heap()
            _saved = [get() for get, _ in controls]
            for _, put in controls:
                put(1)
        _holders += 1
    try:
        yield
    finally:
        with _hold_lock:
            _holders -= 1
            if _holders == 0:
                for (_, put), count in zip(controls, _saved):
                    put(count)
