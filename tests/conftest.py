"""Test-session setup shared by every test module."""

import os
from importlib.metadata import version

# One BLAS thread, as bench/run.py runs the program. OpenBLAS splits a long
# np.dot across threads, which moves last bits of grid.l2_inner and with
# them the golden report digests; BLAS reads these when numpy loads, which
# is after this module.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))


def pytest_report_header(config):
    # the golden report digests depend on the numpy/scipy build
    threads = ", ".join(f"{name}={os.environ[name]}" for name in _BLAS_THREADS)
    return (
        f"numpy {version('numpy')}, scipy {version('scipy')}, "
        f"cpu_count {os.cpu_count()}, {threads}"
    )
