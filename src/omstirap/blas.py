"""One LAPACK thread for the observables pass.

numpy's wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_-*.so``,
which exports ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_`` (threadpoolctl makes the same calls).
At the (169 x 169) partial transposes of a dims (3, 13, 13) run, one
``eigvalsh`` on two threads wakes the pool, whose helper thread then spins on
the second core, and its last bits differ from the one-thread result.
:func:`one_blas_thread` runs a block on one thread and restores the setting
after it.  The library is looked up at the first block, not at import, and
the handle is kept.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when no bundled library exports them."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    count it had, also when the block raises.

    Yields ``{"seen": n, "used": 1}``, with ``n`` the count before the block,
    or None when the count cannot be controlled; the block then runs with
    whatever count the library has.
    """
    controls = _openblas()
    if controls is None:
        yield None
        return
    get, put = controls
    seen = get()
    put(1)
    try:
        yield {"seen": seen, "used": 1}
    finally:
        put(seen)
