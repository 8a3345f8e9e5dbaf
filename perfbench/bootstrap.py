"""Start-up shared by the benchmark's entry points.

``pin_blas`` must run before numpy is first imported: OpenBLAS reads its
thread count once, when the library loads.  ``import_package`` then loads
``ssoc_certify`` from the ``src`` directory of the checkout this benchmark
sits in, never from an installed copy.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
PACKAGE = "ssoc_certify"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(Exception):
    """The benchmark is not inside a checkout that holds the package source."""


def pin_blas():
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # child processes must not leave compiled files in the checkout either
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True


def checkout_root() -> Path:
    return Path(__file__).resolve().parent.parent


def import_package(root: Path):
    pkg_dir = (root / "src" / PACKAGE).resolve()
    if not (pkg_dir / "__init__.py").is_file():
        raise CheckoutError(f"no package source at {pkg_dir}; run from the root of a full checkout")
    sys.path.insert(0, str(pkg_dir.parent))
    import ssoc_certify

    loaded = Path(ssoc_certify.__file__).resolve().parent
    if loaded != pkg_dir:
        raise CheckoutError(f"{PACKAGE} was loaded from {loaded}, not from {pkg_dir}")
    return ssoc_certify


def blas_threads_in_use() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:  # no procfs: the count is unknown, not an error
        return {}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                counts[Path(path).name] = query()
                break
    return counts
