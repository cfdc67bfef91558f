"""One BLAS thread while a continuation runs.

The dense systems arctree solves are small (the packaged KS problem is
130 columns wide), yet OpenBLAS splits every product and factorization
of that size over all cores.  On a 2-core host a KS n=128 tree run then
used twice its wall time in CPU, and its wall time moved by up to 30%
from run to run as the second BLAS thread competed with other load for
the second core.  With one BLAS thread the same run was about 10%
faster, used half the CPU, varied by under 5% and wrote the same curve.

numpy and scipy each load their own OpenBLAS from the ``<package>.libs``
directory of their wheels.  ``one_blas_thread`` sets every such library
to one thread and restores its count afterwards.  Where none is found
(another BLAS, another install layout), it changes nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Callable, Iterator

import numpy
import scipy

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
    for package in (numpy, scipy):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for prefix, suffix in _SYMBOLS:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    controls.append((get, put))
                    break
    return tuple(controls)


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with every found OpenBLAS on one thread."""
    controls = thread_controls()
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)
