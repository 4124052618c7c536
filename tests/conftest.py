"""Test-session setup shared by every test module."""

import os
from importlib.metadata import version


def pytest_report_header(config):
    # the golden report digests depend on the numpy/scipy build and on the
    # BLAS thread count, so a digest failure is read against these
    threads = ", ".join(
        f"{name}={os.environ.get(name, 'unset')}"
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )
    return (
        f"numpy {version('numpy')}, scipy {version('scipy')}, "
        f"cpu_count {os.cpu_count()}, {threads}"
    )
